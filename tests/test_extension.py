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
