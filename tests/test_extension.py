"""§2.10 extension surface: a custom Scorer / Blocker registered by name
drops into run_linkage without editing any stage."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from spel_ray.config import LinkageConfig
from spel_ray.extension import (
    Blocker, PairScorer, get_blocker_factory, get_scorer, register_blocker,
    register_scorer)
from spel_ray.pipelines.linkage import run_linkage


def _table():
    body = "def f(x):\n    return x + 1\n"
    near = "def f(y):\n    return y + 1\n"
    other = "SELECT * FROM completely_unrelated_table WHERE x > 0"
    return pa.table({
        "repo": ["r1", "r2", "r3", "r4"],
        "path": ["a.py", "b.py", "c.py", "d.py"],
        "commit": ["c1", "c2", "c3", "c4"],
        "lang": ["python"] * 4,
        "content": [body, body, near, other],
    })


def _register_toys():
    """Register toy plugins from FUNCTION scope: locally-defined classes are
    cloudpickled by value into the task closures — exactly how a user whose
    plugin module isn't importable by workers would ship one."""

    @register_scorer("test-exact-only")
    class ExactOnlyScorer:
        """Toy plugin: 1.0 for identical content, 0.0 otherwise."""

        def score_pairs(self, cfg, *, sig_lo, sig_hi, tok_lo, tok_hi,
                        n_lo, n_hi, sha_eq):
            exact = np.asarray(sha_eq, dtype=bool)
            score = exact.astype(np.float64)
            return score.copy(), exact, score

    @register_blocker("test-exact-key")
    def exact_key_blocker(cfg):
        """Toy plugin: only the (lang, sha) exact key — no LSH bands."""
        from spel_ray.stages.blocking import BlockKeyExploder
        from spel_ray.stages.minhash import MinHasher

        hasher = MinHasher(cfg)
        exploder = BlockKeyExploder(cfg)

        def run(batch: pa.Table) -> pa.Table:
            full = exploder(hasher(batch))
            # keep only the exact-family keys: rows interleave
            # [exact, band_0..band_{B-1}] per record
            idx = np.arange(0, full.num_rows, cfg.bands + 1)
            return full.take(pa.array(idx))
        return run


_register_toys()


def test_protocol_conformance():
    assert isinstance(get_scorer("sketch-blend"), PairScorer)
    assert isinstance(get_scorer("test-exact-only"), PairScorer)
    cfg = LinkageConfig()
    assert isinstance(get_blocker_factory("lsh-minhash")(cfg), Blocker)


def test_unknown_names_raise():
    import pytest
    with pytest.raises(KeyError, match="registered"):
        get_scorer("nope")
    with pytest.raises(KeyError, match="registered"):
        get_blocker_factory("nope")


def test_custom_scorer_through_pipeline():
    ds = rd.from_arrow(_table())
    res = run_linkage(ds, LinkageConfig(scorer="test-exact-only"),
                      num_buckets=4)
    df = res.clusters.to_pandas()
    by_cluster = df.groupby("cluster_id").size()
    # exact dup pair clusters; the near-dup pair does NOT (score 0)
    assert sorted(by_cluster) == [1, 1, 2]


def test_custom_blocker_through_pipeline():
    ds = rd.from_arrow(_table())
    res = run_linkage(ds, LinkageConfig(blocker="test-exact-key"),
                      num_buckets=4)
    df = res.clusters.to_pandas()
    by_cluster = df.groupby("cluster_id").size()
    # only identical content shares a block → near-dups stay singletons
    assert sorted(by_cluster) == [1, 1, 2]


def test_default_blocker_registry_matches_pipeline_stage():
    """The registered default blocker must produce the same block rows as
    the sketch followed by the exploder."""
    from spel_ray.stages.blocking import BlockKeyExploder
    from spel_ray.stages.fingerprint import fingerprint_batch
    from spel_ray.stages.minhash import MinHasher

    cfg = LinkageConfig()
    recs = fingerprint_batch(_table())
    via_registry = get_blocker_factory("lsh-minhash")(cfg)(recs)
    via_stages = BlockKeyExploder(cfg)(MinHasher(cfg)(recs))
    assert via_registry.equals(via_stages)


# ------------------------------------------- one pair verdict, every index
def _serve_everywhere(corpus, cfg, contents, langs, index_dir):
    """``link_many`` answers of the driver's ``LinkageIndex``, a 2-shard
    ``ShardedLinkageIndex`` and a replica ``serving_actor`` built from the
    driver's scorer and blocker."""
    import ray

    from spel_ray.serving import (LinkageIndex, ShardedLinkageIndex,
                                  serving_actor)
    from spel_ray.stages.blocking import blocker_for

    single = LinkageIndex.build(corpus, cfg)
    sharded = ShardedLinkageIndex.build(corpus, cfg, n_shards=2,
                                        num_cpus=0.5, index_dir=index_dir)
    replica = serving_actor(num_cpus=0.5).remote(
        cfg, single._to_rows(), get_scorer(cfg.scorer), blocker_for(cfg))
    try:
        return (single.link_many(contents, langs, k=5),
                sharded.link_many(contents, langs, k=5),
                [ray.get(replica.link.remote(c, lg, 5))
                 for c, lg in zip(contents, langs)])
    finally:
        for a in [*sharded._actors, replica]:
            ray.kill(a)


def test_plugins_serve_the_same_from_every_index(tmp_path):
    """A scorer and a blocker registered only in this process (function
    scope): the shard and replica actors get them from the driver, so they
    answer exactly like the driver's index."""
    from spel_ray.sources import read_code_table, synth_parquet_path

    @register_scorer("test-char-jaccard")
    class CharJaccardScorer:
        """The char-MinHash Jaccard estimate alone."""

        def score_pairs(self, cfg, *, sig_lo, sig_hi, tok_lo, tok_hi,
                        n_lo, n_hi, sha_eq):
            jac = (sig_lo == sig_hi).mean(axis=1)
            return jac, np.asarray(sha_eq, dtype=bool), jac.copy()

    @register_blocker("test-rekeyed-lsh")
    def rekeyed_blocker(cfg):
        default = get_blocker_factory("lsh-minhash")(cfg)

        def rekey(batch: pa.Table) -> pa.Table:
            rows = default(batch)
            keys = np.asarray(rows["block_key"], np.int64) ^ 0x3C3C
            return rows.set_column(0, "block_key", pa.array(keys, pa.int64()))
        return rekey

    corpus = read_code_table(synth_parquet_path(300, seed=7))
    sample = corpus.limit(8).to_pandas()
    contents = (list(sample["content"])
                + [c + "\n# trailing change" for c in sample["content"]])
    langs = list(sample["lang"]) * 2
    cfg = LinkageConfig(scorer="test-char-jaccard", blocker="test-rekeyed-lsh")
    single, sharded, replica = _serve_everywhere(
        corpus, cfg, contents, langs, str(tmp_path / "idx"))
    assert sum(len(h) for h in single) > 0
    assert sharded == single
    assert replica == single


def test_an_exact_pair_matches_at_score_zero_everywhere(tmp_path):
    """Exact or score ≥ threshold is the one match rule: with a scorer that
    flags sha-equal pairs exact at score 0, batch linkage clusters the pair
    and every index returns it."""
    from tests.conftest import row_id_of

    @register_scorer("test-exact-at-zero")
    class ExactAtZeroScorer:
        def score_pairs(self, cfg, *, sig_lo, sig_hi, tok_lo, tok_hi,
                        n_lo, n_hi, sha_eq):
            zero = np.zeros(len(sha_eq))
            return zero, np.asarray(sha_eq, dtype=bool), zero.copy()

    cfg = LinkageConfig(scorer="test-exact-at-zero")
    t = _table()
    res = run_linkage(rd.from_arrow(t), cfg, num_buckets=4)
    by_cluster = res.clusters.to_pandas().groupby("cluster_id")["row_id"]
    pair = sorted([row_id_of("r1", "a.py", "c1"), row_id_of("r2", "b.py", "c2")])
    assert sorted(map(sorted, by_cluster.agg(list))) == sorted(
        [pair, [row_id_of("r3", "c.py", "c3")], [row_id_of("r4", "d.py", "c4")]])

    want = [{"row_id": r, "score": 0.0, "exact": True} for r in pair]
    body = t["content"][0].as_py()
    single, sharded, replica = _serve_everywhere(
        rd.from_arrow(t), cfg, [body], ["python"], str(tmp_path / "idx"))
    assert single == sharded == replica == [want]
