"""The linkage chain (``link_head`` → ``link_tail``) is written once, so every
entry point must agree: batch at any bucket count, checkpointed and resumed
at any stage, sharded, and base + increment. Degenerate inputs come back
typed, and the config reaches every tail."""

import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from spel_ray.config import LinkageConfig
from spel_ray.functions.dedup import minhash_dedup
from spel_ray.pipelines.incremental import incremental_link
from spel_ray.pipelines.linkage import linkage_stats, pin_at, run_linkage
from spel_ray.pipelines.sharded import (parquet_files, run_linkage_sharded,
                                       sharded_block_rows)
from spel_ray.sources.synth import generate_code_table
from spel_ray.stages.blocking import block_keys
from spel_ray.stages.fingerprint import row_id_batch
from spel_ray.state.checkpoint import CheckpointedRun

STAGES = ["fingerprint", "block_keys", "pairs", "edges", "components",
          "clusters"]
CLUSTERS = pa.schema([("row_id", pa.int64()), ("cluster_id", pa.int64())])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """240 rows, also written as 3 parquet files (the sharding unit)."""
    t = generate_code_table(240, seed=5).drop_columns(["ancestor_id"])
    d = tmp_path_factory.mktemp("chain_input")
    for i in range(3):
        pq.write_table(t.slice(i * 80, 80), d / f"part-{i}.parquet")
    return t, str(d)


def _clusters(res):
    return res.clusters.to_pandas().sort_values("row_id") \
        .reset_index(drop=True)


def _schema(ds):
    return ds.schema().base_schema


def _mtime(ck, stage):
    return (ck / stage / "manifest.json").stat().st_mtime_ns


def test_clusters_invariant_across_entry_points(corpus, tmp_path):
    t, path = corpus
    cfg = LinkageConfig()
    want = _clusters(run_linkage(rd.from_arrow(t), cfg, num_buckets=7))
    assert want["cluster_id"].nunique() < len(want)     # some real clusters
    for nb in (1, 64):
        got = _clusters(run_linkage(rd.from_arrow(t), cfg, num_buckets=nb))
        assert got.equals(want), f"num_buckets={nb}"

    ck = tmp_path / "ck"
    res = run_linkage(rd.from_arrow(t), cfg, num_buckets=7,
                      checkpoint_dir=str(ck))
    assert _clusters(res).equals(want)
    # drop each stage's manifest in turn: that stage reruns, the ones
    # before it are read back untouched
    for i, stage in enumerate(STAGES):
        earlier = {s: _mtime(ck, s) for s in STAGES[:i]}
        (ck / stage / "manifest.json").unlink()
        res = run_linkage(rd.from_arrow(t), cfg, num_buckets=7,
                          checkpoint_dir=str(ck))
        assert _clusters(res).equals(want), f"resume at {stage}"
        assert (ck / stage / "manifest.json").exists()
        assert {s: _mtime(ck, s) for s in STAGES[:i]} == earlier, stage

    sharded = run_linkage_sharded(path, cfg, checkpoint_dir=str(tmp_path / "sh"),
                                  num_shards=3, num_buckets=7)
    assert _clusters(sharded).equals(want)

    base = run_linkage(rd.from_arrow(t.slice(0, 160)), cfg, num_buckets=7)
    inc = incremental_link(rd.from_arrow(t.slice(160)),
                           block_keys(base.records, cfg).materialize(),
                           base.clusters, cfg, num_buckets=7)
    assert _clusters(inc).equals(want)


def test_clusters_invariant_to_block_count_and_batch_size(corpus):
    """The sketch runs per batch, so neither the input's block count nor the
    map batch size may change a cluster."""
    t, _ = corpus
    cfg = LinkageConfig()
    want = _clusters(run_linkage(rd.from_arrow(t), cfg, num_buckets=7))
    for nb in (1, 13):
        got = _clusters(run_linkage(rd.from_arrow(t, override_num_blocks=nb),
                                    cfg, num_buckets=7))
        assert got.equals(want), f"override_num_blocks={nb}"
    got = _clusters(run_linkage(rd.from_arrow(t, override_num_blocks=13),
                                LinkageConfig(batch_size=7), num_buckets=7))
    assert got.equals(want), "batch_size=7"


def test_checkpoints_rerun_over_other_input_files(corpus, tmp_path):
    """A checkpoint dir reused for another table recomputes every stage (the
    manifests record the input files) and resumes over the same files."""
    t, _ = corpus
    cfg = LinkageConfig()
    parts = {}
    for name, rows in (("a", t.slice(0, 60)), ("b", t.slice(60, 90))):
        (tmp_path / name).mkdir()
        parts[name] = str(tmp_path / name / "part-0.parquet")
        pq.write_table(rows, parts[name])
    want = _clusters(run_linkage(rd.read_parquet(parts["b"]), cfg,
                                 num_buckets=4))
    assert len(want) == 90

    ck = tmp_path / "ck"
    for name in ("a", "b"):
        res = run_linkage(rd.read_parquet(parts[name]), cfg, num_buckets=4,
                          checkpoint_dir=str(ck))
    assert _clusters(res).equals(want)
    for stage in STAGES:
        man = json.loads((ck / stage / "manifest.json").read_text())
        assert man["inputs"] == [parts["b"]], stage
    before = {s: _mtime(ck, s) for s in STAGES}
    res = run_linkage(rd.read_parquet(parts["b"]), cfg, num_buckets=4,
                      checkpoint_dir=str(ck))
    assert _clusters(res).equals(want)
    assert {s: _mtime(ck, s) for s in STAGES} == before

    # the sharded tail's stages check the run's input files too
    sh = str(tmp_path / "sh")
    for name in ("a", "b"):
        res = run_linkage_sharded(str(tmp_path / name), cfg,
                                  checkpoint_dir=sh, num_buckets=4)
    assert _clusters(res).equals(want)


def test_shard_manifest_records_and_checks_inputs(corpus, tmp_path):
    """Each shard commits through ``CheckpointedRun.run_stage``; its manifest
    records the shard's input files, and a different list recomputes."""
    _, path = corpus
    cfg = LinkageConfig()
    ck = tmp_path / "ck"
    sharded_block_rows(parquet_files(path), cfg, str(ck), num_shards=3)
    sdir = ck / "block_rows" / "shard=00001"
    man = json.loads((sdir / "manifest.json").read_text())
    assert man["stage"] == "block_rows/shard=00001"
    assert man["inputs"] == [f"{path}/part-1.parquet"]
    assert man["rows"] > 0 and man["files"]

    ckpt = CheckpointedRun(str(ck), cfg)
    name = "block_rows/shard=00001"
    assert ckpt.is_complete(name, man["inputs"])
    assert not ckpt.is_complete(name, [f"{path}/part-0.parquet"])

    # a shard manifest in the layout that kept the input list under
    # "files" (no "inputs" key) still resumes without recomputing
    old = {"shard": 1, "files": man["inputs"], "config": man["config"],
           "complete": True, "rows": man["rows"], "seconds": 0.1,
           "written_at": man["written_at"]}
    (sdir / "manifest.json").write_text(json.dumps(old))
    calls = []
    out = ckpt.run_stage(name, lambda: calls.append(1), inputs=man["inputs"])
    assert not calls and out.count() == man["rows"]


def test_minhash_dedup_passes_the_cc_config(monkeypatch):
    from spel_ray.pipelines import linkage
    from spel_ray.stages import clustering

    real_cc, real_assign = (clustering.connected_components,
                            clustering.assign_clusters)
    seen, assigned = [], []

    def spy(edges, **kw):
        seen.append(kw)
        return real_cc(edges, **kw)

    def assign_spy(ids, star, **kw):
        assigned.append(kw)
        return real_assign(ids, star, **kw)

    for mod in (clustering, linkage):
        monkeypatch.setattr(mod, "connected_components", spy)
        monkeypatch.setattr(mod, "assign_clusters", assign_spy)
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": ["the quick brown fox jumps over the lazy dog again"] * 2
                + ["completely unrelated words live here", "x"]}))
    cfg = LinkageConfig(use_verifier=False, max_cc_rounds=7,
                        cc_driver_threshold=0)
    out = minhash_dedup(docs, cfg, num_buckets=4).to_pandas() \
        .sort_values("doc_id")
    assert seen == [{"num_buckets": 4, "max_rounds": 7,
                     "driver_threshold": 0}]
    assert assigned == [{"num_buckets": 4,
                         "driver_threshold": cfg.cc_driver_threshold}]
    assert out["cluster_id"].tolist() == [1, 1, 3, 4]


def test_flagship_assigns_clusters_without_an_exchange(tiny_code_table):
    """Below ``cc_driver_threshold`` cluster assignment runs on the driver:
    the clusters' plan has no sort and no bucket merge. At threshold 0 the
    shuffle runs and gives the same clusters."""
    t = tiny_code_table.drop_columns(["ancestor_id"])
    res = run_linkage(rd.from_arrow(t), LinkageConfig(), num_buckets=4)
    plan = res.clusters.stats()
    assert "Sort" not in plan and "MapBatches(merge_bucket)" not in plan
    shuffled = run_linkage(rd.from_arrow(t),
                           LinkageConfig(cc_driver_threshold=0),
                           num_buckets=4)
    plan = shuffled.clusters.stats()
    assert "Sort" in plan and "MapBatches(merge_bucket)" in plan
    assert _clusters(shuffled).equals(_clusters(res))


def test_pin_at_materializes_each_lazy_pin_once(monkeypatch,
                                                tiny_code_table):
    """A pinned stage is materialized once, and not at all when it already
    returned a ``MaterializedDataset`` (Ray would run its plan again): on
    the default flagship the clusters stage, ``assign_clusters``' driver
    branch, is such a dataset."""
    calls = []
    real = rd.Dataset.materialize

    def counting(self):
        calls.append(type(self).__name__)
        return real(self)

    monkeypatch.setattr(rd.Dataset, "materialize", counting)
    run = pin_at("done", "lazy")
    done = rd.from_arrow(pa.table({"x": [1, 2]}))
    lazy = rd.range(3)
    assert run("done", lambda: done) is done
    assert run("free", lambda: lazy) is lazy
    assert run("lazy", lambda: lazy).count() == 3
    assert calls == ["Dataset"]

    calls.clear()
    t = tiny_code_table.drop_columns(["ancestor_id"])
    res = run_linkage(rd.from_arrow(t), LinkageConfig(use_verifier=False),
                      num_buckets=4)
    assert calls and "MaterializedDataset" not in calls
    assert res.clusters.count() == t.num_rows


@pytest.mark.parametrize("n", [0, 1])
def test_degenerate_inputs_are_typed(tiny_code_table, n):
    t = tiny_code_table.drop_columns(["ancestor_id"]).slice(0, n)
    res = run_linkage(rd.from_arrow(t), LinkageConfig(), num_buckets=4)
    assert _schema(res.clusters) == CLUSTERS
    rows = res.clusters.take_all()
    assert len(rows) == n and all(r["row_id"] == r["cluster_id"]
                                  for r in rows)

    docs = pa.table({"doc_id": pa.array([7], pa.int64()),
                     "text": ["one lonely document"]}).slice(0, n)
    out = minhash_dedup(rd.from_arrow(docs), num_buckets=4)
    assert _schema(out) == pa.schema([("doc_id", pa.int64()),
                                      ("cluster_id", pa.int64())])
    assert out.take_all() == [{"doc_id": 7, "cluster_id": 7}] * n


def _one_doc(n):
    return pa.table({"doc_id": pa.array([7], pa.int64()),
                     "text": ["one lonely document"]}).slice(0, n)


@pytest.mark.parametrize("n, source", [
    (0, "parquet"), (1, "parquet"), (1, "arrow"),
    pytest.param(0, "arrow", marks=pytest.mark.xfail(
        strict=True, reason="Ray knows no schema for an in-memory 0-row "
                            "table without running it"))])
def test_exact_dedup_on_degenerate_inputs(tmp_path, n, source):
    """0- and 1-row inputs: no crash, the input's columns and Arrow types.
    An in-memory 0-row table is the case Ray cannot type without running
    the input (see CHANGES.md, FOUND on ``exact_dedup``)."""
    from spel_ray.functions.dedup import exact_dedup

    docs = _one_doc(n)
    if source == "parquet":
        pq.write_table(docs, tmp_path / "docs.parquet")
        ds = rd.read_parquet(str(tmp_path / "docs.parquet"))
    else:
        ds = rd.from_arrow(docs)
    out = exact_dedup(ds, num_buckets=4)
    assert _schema(out) == docs.schema
    assert out.take_all() == docs.to_pylist()


@pytest.mark.parametrize("n", [0, 1])
def test_bucket_operators_on_degenerate_inputs(n):
    """0- and 1-row inputs through the operators whose buckets are Arrow
    kernels: no crash, and the documented columns with Arrow types."""
    from spel_ray.functions.substring import dedup_repeated_substrings
    from spel_ray.functions.text import tfidf_top_terms
    from spel_ray.stages.clustering import connected_components

    docs = _one_doc(n)
    out = dedup_repeated_substrings(rd.from_arrow(docs), window=2,
                                    num_buckets=4)
    assert _schema(out) == pa.schema(
        [("doc_id", pa.int64()), ("clean_text", pa.string())]
        + [(c, pa.int64()) for c in ("n_chunks", "n_chunks_removed",
                                     "n_chars_removed")])
    assert out.take_all() == [{"doc_id": 7,
                               "clean_text": "one lonely document",
                               "n_chunks": 2, "n_chunks_removed": 0,
                               "n_chars_removed": 0}] * n

    out = tfidf_top_terms(rd.from_arrow(docs), num_buckets=4)
    assert _schema(out) == pa.schema([("doc_id", pa.int64()),
                                      ("term", pa.string()),
                                      ("tfidf", pa.float64())])
    assert sorted(r["term"] for r in out.take_all()) == \
        ["document", "lonely", "one"][:3 * n]

    edges = pa.table({"lo": pa.array([1], pa.int64()),
                      "hi": pa.array([2], pa.int64())}).slice(0, n)
    out = connected_components(rd.from_arrow(edges), num_buckets=4,
                               driver_threshold=0)
    assert _schema(out) == edges.schema
    star = {(r["lo"], r["hi"]) for r in out.take_all()}
    assert star == ({(1, 2)} if n else set())


def test_null_content_links_like_empty_content():
    """Null content is the text ``""`` its sha256 hashes, 0 characters long:
    batch linkage and the serving index take it without a RuntimeWarning
    (a null n_chars used to be cast to int64) and cluster it with its
    ``""`` twin."""
    import warnings

    from spel_ray.serving import LinkageIndex
    from tests.conftest import row_id_of

    t = pa.table({"repo": ["r1", "r2", "r3"], "path": ["a.py"] * 3,
                  "commit": ["c1"] * 3, "lang": ["python"] * 3,
                  "content": pa.array([None, "", "x = compute(1)\n"],
                                      pa.string())})
    twins = sorted(row_id_of(r, "a.py", "c1") for r in ("r1", "r2"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run_linkage(rd.from_arrow(t), LinkageConfig(), num_buckets=4)
        assert sorted(r["n_chars"] for r in res.records.take_all()) == \
            [0, 0, 15]
        sizes = _clusters(res).groupby("cluster_id")["row_id"].agg(sorted)
        assert twins in list(sizes) and len(sizes) == 2

        idx = LinkageIndex.build(rd.from_arrow(t), LinkageConfig())
        hits = idx.link_many([None, ""], ["python"] * 2)
    want = [{"row_id": r, "score": 1.0, "exact": True} for r in twins]
    assert hits == [want, want]


def test_hot_block_of_identical_rows_takes_the_capped_chain():
    """10k copies of one content share every band block: each block must
    emit the capped n-1 chain, not C(n,2), and still link one cluster."""
    n = 10_000
    rng = np.random.default_rng(9)
    hot = "def boilerplate(x):\n    return x + 1  # generated\n" * 3
    others = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz ;{}()"),
                                 400)) for _ in range(4)]
    contents = [hot] * n + others
    t = pa.table({"repo": [f"org/r{i}" for i in range(len(contents))],
                  "path": ["a.py"] * len(contents),
                  "commit": ["c0"] * len(contents),
                  "lang": ["python"] * len(contents), "content": contents})
    res = run_linkage(rd.from_arrow(t), LinkageConfig(), num_buckets=8)
    hot_ids = set(row_id_batch(t.slice(0, n))["row_id"].to_pylist())

    sizes = _clusters(res).groupby("cluster_id")["row_id"].agg(set)
    assert sorted(map(len, sizes)) == [1] * len(others) + [n]
    assert hot_ids in list(sizes)

    stats = linkage_stats(res)
    assert stats["pairs"] == stats["capped_pairs"] == n - 1
    pairs = res.pairs.to_pandas()
    assert set(pairs["id_lo"]) | set(pairs["id_hi"]) == hot_ids
    assert pairs["capped"].all()


def test_empty_delta_keeps_the_clusters(tiny_code_table):
    t = tiny_code_table.drop_columns(["ancestor_id"])
    cfg = LinkageConfig()
    base = run_linkage(rd.from_arrow(t), cfg, num_buckets=4)
    inc = incremental_link(rd.from_arrow(t.slice(0, 0)),
                           block_keys(base.records, cfg).materialize(),
                           base.clusters, cfg, num_buckets=4)
    assert _schema(inc.clusters) == CLUSTERS
    assert _clusters(inc).equals(_clusters(base))


def test_flagship_operators_are_named(tiny_code_table):
    res = run_linkage(rd.from_arrow(tiny_code_table.drop_columns(
        ["ancestor_id"])), LinkageConfig(), num_buckets=4)
    stats = res.pairs.stats()
    assert "MapBatches(fingerprint_batch)" in stats
    # the blocking operator is named after the blocker class
    assert "MapBatches(LshBlocker)" in stats
    assert "<lambda>" not in stats
    # each exchange is named after its bucket function
    assert "MapBatches(run)" not in stats
    assert "MapBatches(gen_and_score_bucket)" in stats
    assert "MapBatches(merge_bucket)" in stats


def test_verifier_operators_are_named(tiny_code_table):
    res = run_linkage(rd.from_arrow(tiny_code_table.drop_columns(
        ["ancestor_id"])), LinkageConfig(use_verifier=True), num_buckets=4)
    stats = res.pairs.stats()
    assert "MapBatches(_band)" in stats
    assert "MapBatches(_passthrough)" in stats
    assert "<lambda>" not in stats
