"""Overlapping chunker + chunk-level near-duplicate detection.

Direct analog of the reference's sliding-window chunking (254-subword
windows with 20-token overlap, reference ``model.py:33-34``,
``utils.py:288-289``) and its overlap-merge vote (``utils.py:230-251``):

- ``chunk_records`` — flat_map each record into overlapping token windows;
  every chunk keeps ``(row_id, chunk_idx, token_start)`` so downstream ops
  key on explicit positions, never block order (SURVEY.md §7.4).
- ``chunk_level_pairs`` — run the MinHash-LSH blocking + pair scoring over
  the CHUNKS, then vote chunk-pair evidence up to record pairs (max score,
  count of supporting chunk pairs) with the engine's one pair merge
  (``stages/pairs.merge_pairs``). This detects records that share large
  copied regions even when whole-file similarity is low — partial-file
  duplication, which whole-record MinHash misses.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import ray.data

from spel_ray.config import LinkageConfig
from spel_ray.state.shuffle import bucketed_join

_TOKEN_RE = re.compile(r"\S+")


def chunk_records(records: ray.data.Dataset, *, window: int = 64,
                  overlap: int = 16, min_tokens: int = 8,
                  content_col: str = "norm_content") -> ray.data.Dataset:
    """records (row_id, norm_content) → chunk rows
    (row_id, chunk_idx, token_start, chunk_text, chunk_id).

    Stride = window - overlap; chunk_id is a derived stable int63 (like
    row_id) so chunks can themselves flow through the linkage stages."""
    if overlap >= window:
        raise ValueError("overlap must be < window")
    stride = window - overlap

    def explode(batch: pa.Table) -> pa.Table:
        rid_out, idx_out, start_out, text_out, cid_out = [], [], [], [], []
        rids = batch["row_id"].to_pylist()
        texts = batch[content_col].to_pylist()
        for rid, text in zip(rids, texts):
            toks = _TOKEN_RE.findall(text or "")
            if len(toks) < min_tokens:
                continue
            pos = 0
            idx = 0
            while pos < len(toks):
                piece = toks[pos: pos + window]
                if len(piece) < min_tokens and idx > 0:
                    break
                chunk = " ".join(piece)
                cid = int.from_bytes(
                    hashlib.blake2b(f"{rid}:{idx}".encode(),
                                    digest_size=8).digest(), "big"
                ) & 0x7FFFFFFFFFFFFFFF
                rid_out.append(rid)
                idx_out.append(idx)
                start_out.append(pos)
                text_out.append(chunk)
                cid_out.append(cid)
                if pos + window >= len(toks):
                    break
                pos += stride
                idx += 1
        return pa.table({
            "row_id": pa.array(rid_out, pa.int64()),
            "chunk_idx": pa.array(idx_out, pa.int64()),
            "token_start": pa.array(start_out, pa.int64()),
            "chunk_text": pa.array(text_out, pa.string()),
            "chunk_id": pa.array(cid_out, pa.int64()),
        })

    return records.map_batches(explode, batch_format="pyarrow")


def chunk_level_pairs(records: ray.data.Dataset, cfg: LinkageConfig | None = None,
                      *, window: int = 64, overlap: int = 16,
                      min_chunk_score: float = 0.6,
                      num_buckets: int = 16) -> ray.data.Dataset:
    """Record pairs that share at least one near-duplicate chunk.

    Pipeline: chunk → sketch/block the chunks (reusing the record stages,
    with chunk_id playing row_id) → scored chunk pairs → map chunk ids back
    to record ids (broadcast of the chunk→record map would not scale, so the
    mapping rides inside the chunk ids' pair rows via a bucketed join on the
    chunk table) → per-record-pair vote (max score, n supporting chunks,
    ≙ the reference's overlap conflict vote)."""
    import pyarrow.compute as pc

    from spel_ray.pipelines.linkage import link_head
    from spel_ray.stages.pairs import merge_pairs, scored_candidate_pairs

    cfg = cfg or LinkageConfig()
    chunks = chunk_records(records, window=window, overlap=overlap)
    _, blocks = link_head(chunks, cfg, text=("chunk_text", "chunk_id", "chunk"))
    chunk_pairs = scored_candidate_pairs(blocks, cfg, num_buckets=num_buckets)

    def strong_chunk_pairs(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["score"], min_chunk_score)) \
                .select(["id_lo", "id_hi", "score"])

    # each join input is pinned: the join reads its schema, then its rows
    rec_pairs = chunk_pairs.map_batches(
        strong_chunk_pairs, batch_format="pyarrow").materialize()

    # chunk_id -> row_id resolution: two bucketed inner joins (one hop per
    # pair side) against the (small relative to pairs) chunk map. The map
    # is consumed twice; materializing the two-int64-column projection
    # keeps the chunk EXPLODE single-pass instead of re-running it per
    # consumer (slim: ~16 B/chunk in the object store, spillable).
    cmap = chunks.select_columns(["chunk_id", "row_id"]).materialize()
    for side in ("lo", "hi"):
        rec_pairs = bucketed_join(
            rec_pairs, cmap.rename_columns({"row_id": f"rec_{side}"}),
            f"id_{side}", "chunk_id", how="inner",
            num_buckets=num_buckets).materialize()

    # vote up to record pairs (max score, n supporting chunk pairs) with the
    # engine's one pair merge; same-record chunk matches are dropped and each
    # record pair is put in (lo, hi) order first
    def record_pair(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch["rec_lo"], dtype=np.int64)
        b = np.asarray(batch["rec_hi"], dtype=np.int64)
        keep = a != b
        return pa.table({"id_lo": np.minimum(a, b)[keep],
                         "id_hi": np.maximum(a, b)[keep],
                         "score": batch["score"].filter(pa.array(keep))})

    return merge_pairs(
        rec_pairs.map_batches(record_pair, batch_format="pyarrow"),
        [("max_chunk_score", "score", "max"),
         ("n_shared_chunks", "score", "count")], num_buckets=num_buckets)
