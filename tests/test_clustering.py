"""Connected-components fixtures (FIXTURES.md §5: path, star, two disjoint
cliques, cycle → min-label convergence), each assigned through both
``assign_clusters`` branches: the driver gather and the shuffle."""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from spel_ray.stages.clustering import assign_clusters, connected_components

# driver_threshold=0 forces the distributed hash-to-min rounds (and the
# assignment shuffle); the default exercises the driver fast paths
DIST = {"driver_threshold": 0}
DRIVER = {}


def _assign_both(recs, star):
    """Sorted (row_id, cluster_id) rows of ``assign_clusters`` on its driver
    branch, asserted equal to its shuffle's (``driver_threshold=0``)."""
    driver, shuffle = (
        sorted((r["row_id"], r["cluster_id"]) for r in assign_clusters(
            recs, star, num_buckets=4, **kw).take_all())
        for kw in (DRIVER, DIST))
    assert driver == shuffle
    return driver


def _components(edge_list, nodes=None, **cc_kwargs):
    edges = rd.from_pandas(pd.DataFrame(edge_list, columns=["lo", "hi"]))
    star = connected_components(edges, num_buckets=4, **cc_kwargs)
    all_nodes = sorted({n for e in edge_list for n in e} | set(nodes or []))
    recs = rd.from_pandas(pd.DataFrame({"row_id": all_nodes}))
    return dict(_assign_both(recs, star))


def _ids(*ids):
    return rd.from_arrow(pa.table({"row_id": pa.array(ids, pa.int64())}))


def _star_of(edge_list, **cc_kwargs):
    edges = rd.from_arrow(pa.table({
        "lo": pa.array([lo for lo, _ in edge_list], pa.int64()),
        "hi": pa.array([hi for _, hi in edge_list], pa.int64())}))
    return connected_components(edges, num_buckets=4, **cc_kwargs)


@pytest.mark.parametrize("kw", [DIST, DRIVER])
def test_path(kw):
    lab = _components([(1, 2), (2, 3), (3, 4), (4, 5)], **kw)
    assert all(v == 1 for v in lab.values())


@pytest.mark.parametrize("kw", [DIST, DRIVER])
def test_star(kw):
    lab = _components([(10, 50), (10, 60), (10, 70)], **kw)
    assert set(lab.values()) == {10}


@pytest.mark.parametrize("kw", [DIST, DRIVER])
def test_two_cliques_and_singleton(kw):
    cl1 = [(1, 2), (1, 3), (2, 3)]
    cl2 = [(7, 8), (7, 9), (8, 9)]
    lab = _components(cl1 + cl2, nodes=[42], **kw)
    assert lab[1] == lab[2] == lab[3] == 1
    assert lab[7] == lab[8] == lab[9] == 7
    assert lab[42] == 42


@pytest.mark.parametrize("kw", [DIST, DRIVER])
def test_cycle(kw):
    lab = _components([(1, 2), (2, 3), (3, 4), (4, 1)], **kw)
    assert set(lab.values()) == {1}


def test_long_path_converges_fast():
    n = 64
    lab = _components([(i, i + 1) for i in range(1, n)], **DIST)
    assert set(lab.values()) == {1}
    assert _components([(i, i + 1) for i in range(1, n)]) == lab


def test_distributed_and_driver_paths_agree():
    """Same random graph through both CC implementations → identical labels
    (the 200k-row validation of this lives in git history; this is the fast
    suite version)."""
    import numpy as np
    rng = np.random.default_rng(11)
    n_nodes, n_edges = 400, 900
    a = rng.integers(0, n_nodes, n_edges)
    b = rng.integers(0, n_nodes, n_edges)
    keep = a != b
    el = list(zip(np.minimum(a, b)[keep].tolist(),
                  np.maximum(a, b)[keep].tolist()))
    nodes = list(range(n_nodes))
    assert _components(el, nodes=nodes, **DIST) == \
        _components(el, nodes=nodes)


def test_empty_edges():
    edges = rd.from_pandas(pd.DataFrame({"lo": pd.Series(dtype="int64"),
                                         "hi": pd.Series(dtype="int64")}))
    star = connected_components(edges, num_buckets=4)
    recs = rd.from_pandas(pd.DataFrame({"row_id": [5, 6]}))
    out = assign_clusters(recs, star, num_buckets=4).to_pandas()
    assert dict(zip(out["row_id"], out["cluster_id"])) == {5: 5, 6: 6}


def test_assign_clusters_over_no_edges_is_typed():
    """Over an empty star-edge set every record labels itself and the
    output is (row_id int64, cluster_id int64), over no records too."""
    edges = rd.from_pandas(pd.DataFrame({"lo": pd.Series(dtype="int64"),
                                         "hi": pd.Series(dtype="int64")}))
    star = connected_components(edges, num_buckets=4)
    recs = rd.from_pandas(pd.DataFrame({"row_id": [5, 6]}))
    out = assign_clusters(recs, star, num_buckets=8)
    sch = out.schema()
    assert list(zip(sch.names, sch.types)) == [("row_id", pa.int64()),
                                               ("cluster_id", pa.int64())]
    assert sorted((r["row_id"], r["cluster_id"]) for r in out.take_all()) \
        == [(5, 5), (6, 6)]
    assert _assign_both(_ids(), star) == []
    sch = assign_clusters(_ids(), star, num_buckets=8).schema()
    assert list(zip(sch.names, sch.types)) == [("row_id", pa.int64()),
                                               ("cluster_id", pa.int64())]


@pytest.mark.parametrize("ids, edge_list, cc_kwargs, want", [
    # a repeated row id (a repeated key, a delta re-sending a base row)
    ((1, 2, 2, 3, 3), [(1, 2)], DRIVER, [(1, 1), (2, 1), (3, 3)]),
    # a star member gets a row without a record; a root only through its id
    ((1, 5), [(1, 2)], DRIVER, [(1, 1), (2, 1), (5, 5)]),
    ((), [(1, 2)], DRIVER, [(2, 1)]),
    # the distributed rounds repeat a star edge once per bucket holding an
    # endpoint
    ((1, 2, 3, 4), [(1, 2), (3, 4)], DIST, [(1, 1), (2, 1), (3, 3), (4, 3)]),
], ids=["repeated-id", "member-not-in-records", "no-records",
        "distributed-star"])
def test_assign_emits_one_row_per_id_or_member(ids, edge_list, cc_kwargs,
                                               want):
    assert _assign_both(_ids(*ids), _star_of(edge_list, **cc_kwargs)) == want


def _plan(ds) -> str:
    return ds.materialize().stats()


def test_assign_runs_no_exchange_below_the_threshold():
    recs, star = _ids(1, 2, 3, 4, 5), _star_of([(1, 2), (2, 3)])
    plan = _plan(assign_clusters(recs, star, num_buckets=4))
    assert "Sort" not in plan and "merge_bucket" not in plan
    # more ids than the bound: the bounded id stream stops and the shuffle
    # runs, with the same rows
    over = assign_clusters(recs, star, num_buckets=4, driver_threshold=3)
    assert "Sort" in _plan(over)
    assert sorted((r["row_id"], r["cluster_id"]) for r in over.take_all()) \
        == _assign_both(recs, star) == [(1, 1), (2, 1), (3, 1), (4, 4), (5, 5)]
