"""Training-data curation — the composite pipeline a 100 TB corpus runs
nightly: quality gate → dedup → deterministic split → partitioned output.

Composes the engine's first-class operators end-to-end (each independently
oracled/tested) the way the reference composes its data preparation for
fine-tuning (reference ``data_loader.py:99-152``: filter → canonicalize →
truncate → split):

    documents
      → length/token gate           (vectorized Arrow kernels)
      → exact dedup                 (content-hash bucketed, min-id keeps)
      → [optional] MinHash near-dup (cluster representatives only)
      → deterministic train/test split (multiplicative hash — no RNG)
      → write partitioned parquet   (one directory per split)

Everything streams; the only materialization is the slim near-dup cluster
table when that stage is on.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from spel_ray.config import LinkageConfig
from spel_ray.state.shuffle import bucketed_join, bucketed_topk


def curate_documents(ds: ray.data.Dataset, *,
                     min_chars: int = 100, min_tokens: int = 10,
                     near_dedup: bool = False,
                     cfg: LinkageConfig | None = None,
                     train_pct: int = 80,
                     num_buckets: int = 32) -> ray.data.Dataset:
    """documents (doc_id, text, …) → curated rows with a ``part`` column.

    With ``near_dedup=False`` every step is exactly expressible in SQL (the
    driver oracle); with ``near_dedup=True`` a MinHash-LSH pass additionally
    keeps only each near-dup cluster's min-id representative."""
    from spel_ray.functions.dedup import exact_dedup, minhash_dedup

    def gate(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        n_chars = pc.utf8_length(text)
        n_toks = pc.count_substring_regex(text, pattern=r"\S+")
        keep = pc.and_(pc.greater(n_chars, min_chars - 1),
                       pc.greater(n_toks, min_tokens - 1))
        return batch.filter(keep)

    gated = ds.map_batches(gate, batch_format="pyarrow")
    deduped = exact_dedup(gated, text_col="text", id_col="doc_id",
                          num_buckets=num_buckets)

    if near_dedup:
        clusters = minhash_dedup(
            deduped, cfg or LinkageConfig(use_verifier=False),
            text_col="text", id_col="doc_id", num_buckets=num_buckets)
        # representatives: doc_id == cluster_id (min-id member). Kept via a
        # bucketed SEMI-JOIN (both sides shuffled by doc_id hash) — never a
        # driver-side id-set broadcast, which would scale with corpus size.
        # The slim id table is pinned: the join reads its schema and rows.
        def representatives(t: pa.Table) -> pa.Table:
            keep = pc.equal(t["doc_id"], t["cluster_id"])
            return pa.table({"doc_id": t.filter(keep)["doc_id"]})

        reps = clusters.map_batches(
            representatives, batch_format="pyarrow").materialize()
        deduped = bucketed_join(deduped, reps, "doc_id", "doc_id",
                                how="semi", num_buckets=num_buckets)

    return deduped.map_batches(partial(add_part, train_pct=train_pct),
                               batch_format="pyarrow")


def in_train(ids, train_pct: int = 80) -> np.ndarray:
    """The deterministic train/test split: an id is in train when its
    Knuth multiplicative hash ``(id * 2654435761) % 100`` (unsigned 64-bit)
    is below ``train_pct`` — no RNG, so it is reproducible across engines
    and expressible in SQL. ``ids``: any int64 array or column."""
    h = (np.asarray(ids, dtype=np.int64).view(np.uint64)
         * np.uint64(2654435761)) % np.uint64(100)
    return h < train_pct


def add_part(batch: pa.Table, train_pct: int = 80) -> pa.Table:
    """``batch`` plus the ``part`` ("train" / "test") of each ``doc_id``."""
    part = np.where(in_train(batch["doc_id"], train_pct), "train", "test")
    return batch.append_column("part", pa.array(part.tolist(), pa.string()))


def stratified_sample(ds: ray.data.Dataset, *, per_group: int,
                      group_col: str = "lang", id_col: str = "doc_id",
                      num_buckets: int = 16) -> ray.data.Dataset:
    """Deterministic per-group sample: the first ``per_group`` rows of each
    group ordered by a multiplicative hash of the id (then id) — balanced
    sampling for skewed corpora WITHOUT an RNG, so the sample is identical
    across engines, runs and parallelism levels (≙ K4 sampling, recast the
    reproducible way; SQL-oracle-able as a windowed row_number). A null
    group is a stratum too.

    One :func:`bucketed_topk`: each batch keeps at most per_group rows per
    group before the shuffle, so the exchange moves O(groups × per_group ×
    batches) rows, never the corpus."""
    def rank_cols(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col], dtype=np.int64).view(np.uint64)
        h = (ids * np.uint64(2654435761)) % np.uint64(1 << 32)
        return batch.append_column("_rk", pa.array(h.view(np.int64),
                                                   pa.int64()))

    return bucketed_topk(ds.map_batches(rank_cols, batch_format="pyarrow"),
                         [group_col], [("_rk", "ascending"),
                                       (id_col, "ascending")],
                         per_group, num_buckets=num_buckets) \
        .drop_columns(["_rk"])


def split_rows(t: pa.Table, part: str) -> pa.Table:
    """The rows of one split (``part`` column) of a curated batch."""
    return t.filter(pc.equal(t["part"], part))


def write_curated(ds: ray.data.Dataset, out_dir: str) -> dict:
    """Partitioned output: one directory per split (resumable-output
    shape). Returns per-split row counts. The curated dataset is pinned
    ONCE — without it each split's write and count would re-execute the
    whole (near-dedup-sized) pipeline."""
    ds = ds.materialize()
    counts: dict[str, int] = {}
    for part in ["train", "test"]:
        sub = ds.map_batches(split_rows, fn_args=(part,),
                             batch_format="pyarrow").materialize()
        sub.write_parquet(f"{out_dir}/part={part}")
        counts[part] = sub.count()
    return counts
