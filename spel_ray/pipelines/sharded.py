"""Shard-level resumable linkage — per-partition lineage for the ingest phase.

The stage-level checkpoints (state/checkpoint.py) resume at stage
boundaries; at 100 TB the per-record phase (fingerprint → sketch → block
keys) is hours long, so a crash mid-stage must not lose the whole stage.
This module shards that phase BY INPUT FILE (one directory per input shard
— the north_rule's "resumable output" shape):

- input parquet files are assigned round-robin to ``num_shards`` shards
  (pure function of the sorted file list — stable across reruns);
- each shard runs the chain's head (``link_head``: fingerprint → block
  keys) over ONLY its files (no read amplification: the reader is given the
  shard's file subset) as one ``CheckpointedRun.run_stage`` named
  ``block_rows/shard=NNNNN`` — the same atomic committer and manifest as
  every stage, with the shard's input files recorded under ``inputs``;
- a rerun skips every complete shard whose config AND input list match,
  and recomputes the rest — mid-stage resume at shard granularity.

The wide phases then run the chain's tail (``link_tail``: pair-gen,
components, assignment) over the union of shard outputs with the usual stage
checkpoints. Because block rows are a pure per-record function, shard
boundaries cannot change the result: the clusters are byte-identical to an
unsharded run (pinned by test).

Limitation (documented): the borderline content verifier is not supported
here — it needs ``norm_content`` re-joined, which the slim shard outputs
deliberately do not carry. Use the unsharded ``run_linkage`` for
verifier-enabled configs, or extend the shard payload.
"""

from __future__ import annotations

from functools import cache, partial
from pathlib import Path

import ray.data

from spel_ray.config import LinkageConfig
from spel_ray.pipelines.linkage import LinkageResult, link_head, link_tail
from spel_ray.stages.blocking import elect_band_carriers
from spel_ray.stages.fingerprint import row_ids
from spel_ray.state.checkpoint import CheckpointedRun


def parquet_files(path: str) -> list[str]:
    """The one listing a sharded run shards, records and reads."""
    p = Path(path)
    if p.is_dir():
        files = sorted(str(f) for f in p.glob("**/*.parquet"))
        if not files:
            raise ValueError(f"no parquet files under {path}")
        return files
    return [str(p)]


def sharded_block_rows(files: list[str], cfg: LinkageConfig,
                       ckpt_root: str, *, num_shards: int | None = None,
                       carriers_factory=None) -> ray.data.Dataset:
    """Phase A with per-shard resume over ``files``: returns the union of
    all shards' block rows (read back from the committed parquet).

    ``carriers_factory``: zero-arg callable producing the band-carrier
    broadcast ref — invoked LAZILY on the first incomplete shard, so a
    resume of a fully-complete run never pays the election's corpus pass."""
    if num_shards is None:
        num_shards = min(16, len(files))
    ckpt = CheckpointedRun(ckpt_root, cfg)
    elect = None
    if carriers_factory is not None:
        shared = cache(carriers_factory)

        def elect(_records):        # one global election serves every shard
            return shared()

    shards = []
    for s in range(num_shards):
        group = files[s::num_shards]
        if group:
            shards.append(ckpt.run_stage(
                f"block_rows/shard={s:05d}",
                lambda: link_head(ray.data.read_parquet(group), cfg,
                                  elect=elect)[1],
                inputs=group))
    # Ray cannot plan a one-input union: a single shard is returned as is
    return shards[0].union(*shards[1:]) if len(shards) > 1 else shards[0]


def run_linkage_sharded(path: str, cfg: LinkageConfig | None = None, *,
                        checkpoint_dir: str, num_shards: int | None = None,
                        num_buckets: int = 64) -> LinkageResult:
    """Full pipeline over a parquet path with shard-level ingest resume +
    stage-level checkpoints for the wide phases."""
    cfg = cfg or LinkageConfig()
    if cfg.use_verifier:
        raise ValueError("run_linkage_sharded does not support the content "
                         "verifier (slim shard outputs carry no content); "
                         "use run_linkage")
    files = parquet_files(path)

    def carriers_factory():
        # global election is a slim deterministic pre-pass: re-running it on
        # resume yields the same carrier map, so shard outputs from
        # different runs agree; invoked lazily — only when a shard actually
        # needs computing (a fully-complete resume skips the corpus pass)
        recs, _ = link_head(ray.data.read_parquet(files), cfg)
        return elect_band_carriers(recs, cfg,
                                   num_buckets=max(8, num_buckets // 2))

    blocks = sharded_block_rows(
        files, cfg, checkpoint_dir, num_shards=num_shards,
        carriers_factory=carriers_factory if cfg.suppress_dup_bands else None)
    ids = row_ids(ray.data.read_parquet(files))
    return link_tail(ids, blocks, ids, cfg, num_buckets=num_buckets,
                     stage=partial(CheckpointedRun(checkpoint_dir, cfg)
                                   .run_stage, inputs=files))
