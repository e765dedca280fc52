"""Opt-in global duplicate band suppression: identical clusters, fewer block
rows, and batch-size independence (the property the batch-local variant
broke)."""

import pyarrow as pa
import pytest
import ray.data as rd

from spel_ray.config import LinkageConfig
from spel_ray.pipelines.linkage import run_linkage
from spel_ray.sources.synth import generate_code_table
from spel_ray.stages.blocking import block_keys, elect_band_carriers
from spel_ray.stages.fingerprint import fingerprint, fingerprint_batch


def _dup_heavy(n=120):
    half = n // 2
    return pa.table({
        "repo": [f"r{i}" for i in range(n)],
        "path": [f"p{i}.py" for i in range(n)],
        "commit": [f"{i:040d}" for i in range(n)],
        "lang": ["python"] * n,
        "content": (["import os\nmain()"] * half
                    + [f"def f{i}(): return {i} " * 8 for i in range(n - half)]),
    })


def test_block_row_reduction_and_same_clusters():
    t = _dup_heavy()
    ds = rd.from_arrow(t)
    off = LinkageConfig(suppress_dup_bands=False)
    on = LinkageConfig(suppress_dup_bands=True)

    rec = fingerprint(ds)
    carriers = elect_band_carriers(rec, on, num_buckets=4)
    assert carriers is not None
    n_plain = block_keys(rec, off).count()
    n_supp = block_keys(rec, on, carriers_ref=carriers).count()
    assert n_supp < n_plain  # 59 dup members drop their 16 band rows each

    a = run_linkage(ds, off, num_buckets=4).clusters.to_pandas() \
        .sort_values("row_id").reset_index(drop=True)
    b = run_linkage(ds, on, num_buckets=4).clusters.to_pandas() \
        .sort_values("row_id").reset_index(drop=True)
    assert a.equals(b)


def test_batch_size_independence():
    """The global election must produce identical output at any batch size —
    the exact property the reverted batch-local variant violated."""
    t = generate_code_table(150, seed=4)
    ds = rd.from_arrow(t.drop_columns(["ancestor_id"]))
    outs = []
    for bs in (8, 64, 2048):
        cfg = LinkageConfig(suppress_dup_bands=True, batch_size=bs)
        res = run_linkage(ds, cfg, num_buckets=4)
        outs.append(res.clusters.to_pandas()
                    .sort_values("row_id").reset_index(drop=True))
    assert outs[0].equals(outs[1])
    assert outs[1].equals(outs[2])


def test_no_duplicates_returns_none():
    t = generate_code_table(40, seed=13)
    import pandas as pd
    df = t.to_pandas().drop_duplicates("content")
    ds = rd.from_pandas(df.drop(columns=["ancestor_id"]))
    cfg = LinkageConfig(suppress_dup_bands=True)
    carriers = elect_band_carriers(fingerprint(ds), cfg, num_buckets=4)
    assert carriers is None  # nothing duplicated → no map, no suppression


def test_cross_lang_identical_content_still_pairs():
    """ADVICE r1 regression: with suppression on, identical content under
    DIFFERENT langs shares no exact key — carrier election is per
    (lang, sha), so each lang group keeps its own band carrier and the
    exact-duplicate pair must still score 1.0 and cluster together."""
    body = "shared_config = {\n    'retries': 3,\n    'timeout': 30,\n}\n"
    rows = {
        "repo": ["r1", "r2", "r3", "r4"],
        "path": ["a.py", "b.js", "c.py", "d.js"],
        "commit": ["c1", "c2", "c3", "c4"],
        # same content twice per lang: each lang has a duplicate GROUP, so
        # election actually fires for both groups
        "lang": ["python", "js", "python", "js"],
        "content": [body] * 4,
    }
    ds = rd.from_arrow(pa.table(rows))
    on = LinkageConfig(suppress_dup_bands=True)
    res = run_linkage(ds, on, num_buckets=4)
    df = res.clusters.to_pandas()
    # all four are identical content: unsuppressed clustering puts them in
    # one cluster via the band keys; suppression must preserve that
    off = run_linkage(ds, LinkageConfig(suppress_dup_bands=False),
                      num_buckets=4).clusters.to_pandas()
    assert (df.sort_values("row_id").reset_index(drop=True)
              .equals(off.sort_values("row_id").reset_index(drop=True)))
    assert df["cluster_id"].nunique() == 1


def test_election_runs_its_input_once(tmp_path):
    """The carrier count and the carrier collect share one execution."""
    log = tmp_path / "calls.log"

    def logged(batch: pa.Table) -> pa.Table:
        with open(log, "a") as f:
            f.write("call\n")
        return batch

    rec = rd.from_arrow(fingerprint_batch(_dup_heavy()),
                        override_num_blocks=4) \
        .map_batches(logged, batch_format="pyarrow", batch_size=None)
    assert elect_band_carriers(rec, LinkageConfig(suppress_dup_bands=True),
                               num_buckets=4) is not None
    assert len(log.read_text().splitlines()) == 4


PLAIN_SHA = \
    "cab80f584ac49689312253fb35ad356834812f8289ad6cc76909c2eb006cfdc1"
SUPPRESSED_SHA = \
    "6c5cec74ce0927cac4f4cdab8667839e7ff5d29158f36b16f5aaba8f77da8971"


def _block_rows_sha(blocks) -> str:
    """sha256 over every column of the block rows, sorted by
    (block_key, row_id)."""
    import hashlib

    import numpy as np

    t = pa.concat_tables(list(blocks.iter_batches(batch_format="pyarrow"))) \
        .sort_by([("block_key", "ascending"), ("row_id", "ascending")])
    h = hashlib.sha256()
    for name in t.column_names:
        col = t[name].combine_chunks()
        h.update(f"{name}:{col.type}:".encode())
        h.update(b"".join(col.to_pylist())
                 if pa.types.is_fixed_size_binary(col.type)
                 else np.asarray(col).tobytes())
    return h.hexdigest()


def test_block_rows_are_pinned():
    """The block rows of a fixed corpus, with and without suppression, are
    byte-for-byte what they were when this test was written."""
    rec = fingerprint(rd.from_arrow(
        generate_code_table(2000, seed=42).drop_columns(["ancestor_id"])))
    plain = LinkageConfig()
    on = LinkageConfig(suppress_dup_bands=True)
    carriers = elect_band_carriers(rec, on, num_buckets=4)
    assert carriers is not None
    assert _block_rows_sha(block_keys(rec, plain)) == PLAIN_SHA
    assert _block_rows_sha(block_keys(rec, on, carriers_ref=carriers)) \
        == SUPPRESSED_SHA


def test_consecutive_runs_use_their_own_carriers():
    """Two suppressed runs with the same config over different corpora in
    one Ray session: each suppresses by its own carrier map (worker processes
    are reused across runs, so state keyed on the config alone would hand
    the second run the first run's map)."""
    cfg = LinkageConfig(suppress_dup_bands=True)
    for content in ("import os\nmain()", "print('another duplicate')"):
        t = _dup_heavy().set_column(
            4, "content", pa.array([content] * 60 + _dup_heavy()["content"]
                                   .to_pylist()[60:]))
        rec = fingerprint(rd.from_arrow(t))
        carriers = elect_band_carriers(rec, cfg, num_buckets=4)
        # 60 copies: one carries its bands, 59 keep only their exact key
        want = 120 * (cfg.bands + 1) - 59 * cfg.bands
        assert block_keys(rec, cfg, carriers_ref=carriers).count() == want


def test_suppression_with_another_blocker_is_refused():
    """Carrier election feeds the default blocker only: with any other it
    would be a full pass, a shuffle and a broadcast whose result is
    ignored."""
    with pytest.raises(ValueError, match="lsh-minhash"):
        LinkageConfig(suppress_dup_bands=True, blocker="test-exact-key")
    LinkageConfig(suppress_dup_bands=True)          # the default is fine
    LinkageConfig(blocker="test-exact-key")         # so is no suppression
