"""Per-stage Parquet checkpoints with manifests — resumable lineage.

The engine analog of the reference's validation-batch pickle cache + best
checkpoints (reference ``utils.py:116-137``, ``model.py:253-267``, pre-caching
``finetune_step_1.py:254-259``), upgraded to what the north_rule requires:
each stage writes partitioned Parquet plus a manifest recording stage name,
config fingerprint, row count, wall seconds and the file list; a rerun with
the same config resumes by reading the last complete stage instead of
recomputing. Writes are atomic (tmp dir → rename) so a crash mid-write never
looks complete.

This is the engine's only Parquet+manifest committer: ``run_linkage``'s
stages and ``run_linkage_sharded``'s per-input-shard ingest
(``block_rows/shard=NNNNN``) and tail stages all commit through
:meth:`CheckpointedRun.run_stage`. Each passes the files it reads as
``inputs`` (a shard its own files, every other stage the run's input
files); the manifest records them and a checkpoint over other files is
recomputed.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path

import ray.data

MANIFEST = "manifest.json"


class CheckpointedRun:
    def __init__(self, root: str, cfg):
        self.root = Path(root)
        self.cfg_fp = cfg.fingerprint()
        self.root.mkdir(parents=True, exist_ok=True)

    def _stage_dir(self, name: str) -> Path:
        return self.root / name

    def manifest(self, name: str) -> dict | None:
        p = self._stage_dir(name) / MANIFEST
        if not p.exists():
            return None
        try:
            return json.loads(p.read_text())
        except (json.JSONDecodeError, OSError):
            return None

    def is_complete(self, name: str, inputs: list[str] | None = None) -> bool:
        m = self.manifest(name)
        if not (m and m.get("complete") and m.get("config") == self.cfg_fp):
            return False
        # older shard manifests recorded the shard's input list as "files"
        return inputs is None or m.get("inputs", m.get("files")) == inputs

    def run_stage(self, name: str, fn, *,
                  inputs: list[str] | None = None) -> ray.data.Dataset:
        """Return the stage's dataset, from checkpoint when complete.

        ``inputs``: the files the stage reads, recorded in its manifest; a
        checkpoint over a different input list is recomputed."""
        sdir = self._stage_dir(name)
        data_dir = sdir / "data"
        if self.is_complete(name, inputs):
            return ray.data.read_parquet(str(data_dir))

        t0 = time.time()
        ds = fn()
        tmp = sdir / f".tmp.{os.getpid()}"
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        ds.write_parquet(str(tmp))
        files = sorted(os.listdir(tmp))
        # per-partition lineage + metrics: one entry per written part file
        # (north_rule: "per-partition lineage + metrics")
        partitions = []
        rows = 0
        for f in files:
            try:
                import pyarrow.parquet as pq
                md = pq.ParquetFile(tmp / f).metadata
                partitions.append({
                    "file": f,
                    "rows": md.num_rows,
                    "bytes": os.path.getsize(tmp / f),
                    "row_groups": md.num_row_groups,
                })
                rows += md.num_rows
            except Exception:
                partitions.append({"file": f, "rows": None})
        if data_dir.exists():
            shutil.rmtree(data_dir)
        os.replace(tmp, data_dir)

        out = ray.data.read_parquet(str(data_dir)) if files else ds
        man = {
            "stage": name,
            "config": self.cfg_fp,
            "complete": True,
            "rows": rows,
            "seconds": round(time.time() - t0, 3),
            "files": files,
            "partitions": partitions,
            "inputs": inputs,
            "written_at": time.time(),
        }
        (sdir / MANIFEST).write_text(json.dumps(man, indent=1))
        return out
