"""Shard-level resumable ingest: per-input-shard lineage, mid-stage resume,
byte-identical results to the unsharded pipeline."""

import json
from pathlib import Path

import pyarrow.parquet as pq
import pytest
import ray.data as rd

from spel_ray.config import LinkageConfig
from spel_ray.pipelines.linkage import run_linkage
from spel_ray.pipelines.sharded import (parquet_files, run_linkage_sharded,
                                       sharded_block_rows)
from spel_ray.sources.synth import generate_code_table


@pytest.fixture(scope="module")
def multi_file_input(tmp_path_factory):
    """600-row corpus split across 4 parquet files (the sharding unit)."""
    d = tmp_path_factory.mktemp("shard_input")
    t = generate_code_table(600, seed=13).drop_columns(["ancestor_id"])
    n = t.num_rows // 4
    for i in range(4):
        part = t.slice(i * n, n if i < 3 else t.num_rows - 3 * n)
        pq.write_table(part, d / f"part-{i}.parquet", row_group_size=256)
    return str(d)


def _clusters(res):
    return res.clusters.to_pandas().sort_values("row_id").reset_index(drop=True)


def test_sharded_matches_unsharded(multi_file_input, tmp_path):
    cfg = LinkageConfig()
    want = _clusters(run_linkage(rd.read_parquet(multi_file_input), cfg,
                                 num_buckets=8))
    got = _clusters(run_linkage_sharded(
        multi_file_input, cfg, checkpoint_dir=str(tmp_path / "ck"),
        num_shards=4, num_buckets=8))
    assert got.equals(want)


def test_shard_resume_skips_complete_shards(multi_file_input, tmp_path):
    cfg = LinkageConfig()
    ck = str(tmp_path / "ck")
    run_linkage_sharded(multi_file_input, cfg, checkpoint_dir=ck,
                        num_shards=4, num_buckets=8)
    shard_dirs = sorted((Path(ck) / "block_rows").glob("shard=*"))
    assert len(shard_dirs) == 4
    for sd in shard_dirs:
        m = json.loads((sd / "manifest.json").read_text())
        assert m["complete"] and m["rows"] > 0 and m["files"]

    # invalidate ONE shard; a rerun must recompute only that one
    victim = shard_dirs[1]
    (victim / "manifest.json").unlink()
    before = {sd.name: (sd / "manifest.json").stat().st_mtime_ns
              for sd in shard_dirs if sd != victim}
    # wide-phase stage checkpoints must also be recomputed (their input
    # changed conceptually) — clear them so the test exercises the path
    for stage in ["pairs", "edges", "components", "clusters"]:
        p = Path(ck) / stage / "manifest.json"
        if p.exists():
            p.unlink()
    res = run_linkage_sharded(multi_file_input, cfg, checkpoint_dir=ck,
                              num_shards=4, num_buckets=8)
    after = {sd.name: (sd / "manifest.json").stat().st_mtime_ns
             for sd in shard_dirs if sd != victim}
    assert before == after, "complete shards must not be recomputed"
    assert (victim / "manifest.json").exists()
    want = _clusters(run_linkage(rd.read_parquet(multi_file_input), cfg,
                                 num_buckets=8))
    assert _clusters(res).equals(want)


def test_config_change_invalidates_shards(multi_file_input, tmp_path):
    ck = str(tmp_path / "ck")
    cfg1 = LinkageConfig()
    sharded_block_rows(parquet_files(multi_file_input), cfg1, ck,
                       num_shards=2)
    m0 = json.loads((Path(ck) / "block_rows" / "shard=00000" /
                     "manifest.json").read_text())
    cfg2 = LinkageConfig(shingle_k=5)       # different fingerprint
    sharded_block_rows(parquet_files(multi_file_input), cfg2, ck,
                       num_shards=2)
    m1 = json.loads((Path(ck) / "block_rows" / "shard=00000" /
                     "manifest.json").read_text())
    assert m0["config"] != m1["config"]


def test_verifier_rejected(multi_file_input, tmp_path):
    with pytest.raises(ValueError, match="verifier"):
        run_linkage_sharded(multi_file_input, LinkageConfig(use_verifier=True),
                            checkpoint_dir=str(tmp_path / "ck"))
