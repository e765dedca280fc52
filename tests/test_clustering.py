"""Connected-components fixtures (FIXTURES.md §5: path, star, two disjoint
cliques, cycle → min-label convergence)."""

import pandas as pd
import pytest
import ray.data as rd

from spel_ray.stages.clustering import assign_clusters, connected_components

# driver_threshold=0 forces the distributed hash-to-min rounds; the default
# exercises the driver union-find fast path
DIST = {"driver_threshold": 0}
DRIVER = {}


def _components(edge_list, nodes=None, **cc_kwargs):
    edges = rd.from_pandas(pd.DataFrame(edge_list, columns=["lo", "hi"]))
    star = connected_components(edges, num_buckets=4, **cc_kwargs)
    all_nodes = sorted({n for e in edge_list for n in e} | set(nodes or []))
    recs = rd.from_pandas(pd.DataFrame({"row_id": all_nodes}))
    out = assign_clusters(recs, star, num_buckets=4).to_pandas()
    return dict(zip(out["row_id"], out["cluster_id"]))


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
    output is (row_id int64, cluster_id int64)."""
    import pyarrow as pa

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
