"""Cross-document repeated-substring removal (substring-level exact dedup).

The training-data dedup modality the doc-level family (exact hash, MinHash,
SimHash, embedding cosine) cannot express: identical PASSAGES repeated
across otherwise-distinct documents — licenses, boilerplate headers, quoted
templates (Lee et al. 2022, "Deduplicating Training Data Makes Language
Models Better"). A full distributed suffix array is the exact method; the
production-scale shape used here is fixed-window chunk hashing (the same
family the reference applies at the sliding-window level, reference
``model.py:33-34``; see also ``stages/chunker.py`` for the overlapping
variant that only DETECTS duplication):

1. **explode** — each document splits into NON-overlapping ``window``-token
   chunks (`\\S+` tokenization; the trailing partial chunk is kept so no
   text is lost; zero-token documents drop out of the output entirely).
2. **elect** — one bucketed shuffle on the chunk text groups every
   occurrence of the same chunk; a chunk occurring in at least
   ``min_docs`` DISTINCT documents is *duplicated* and the document with
   the smallest doc_id is elected its representative. Work per group is
   O(occurrences) — a viral boilerplate chunk costs linear time, never a
   pair blowup, so no cap is needed.
3. **rewrite** — a second bucketed shuffle on doc_id reassembles each
   document from its kept chunks in chunk order. A non-representative
   document drops ALL its occurrences of a duplicated chunk; the
   representative keeps its copy, so every distinct passage survives
   exactly once corpus-wide. The removal is auditable: ``n_chunks``,
   ``n_chunks_removed`` and ``n_chars_removed`` per document.

Every step is deterministic and SQL-expressible; the driver oracle
(`substring_dedup`) reproduces the whole chain in DuckDB.

Scale notes (100 TB): the chunk text crosses the exchange twice (once
keyed by chunk hash for the election, once keyed by doc_id for the
rewrite) — the same two-shuffle budget as MinHash dedup, with no
driver-side state at all and no broadcast (the per-chunk stats table is
corpus-sized and never leaves the bucket that computed it).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from spel_ray.state.shuffle import bucketed_groupby

_TOKEN_RE = re.compile(r"\S+")


def explode_chunks(ds: ray.data.Dataset, *, window: int = 16,
                   text_col: str = "text",
                   id_col: str = "doc_id") -> ray.data.Dataset:
    """documents → (doc_id, chunk_idx, chunk) — one row per
    non-overlapping ``window``-token chunk (trailing partial kept)."""

    def explode(batch: pa.Table) -> pa.Table:
        toks = batch[text_col].to_pandas().fillna("").str.findall(_TOKEN_RE)
        ids = batch[id_col].to_pandas().to_numpy(np.int64)
        doc_out, idx_out, chunk_out = [], [], []
        for rid, w in zip(ids, toks):
            for k in range(0, max(len(w) + window - 1, 0) // window):
                doc_out.append(rid)
                idx_out.append(k)
                chunk_out.append(" ".join(w[k * window:(k + 1) * window]))
        return pa.table({
            id_col: pa.array(doc_out, pa.int64()),
            "chunk_idx": pa.array(idx_out, pa.int64()),
            "chunk": pa.array(chunk_out, pa.string()),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


def dedup_repeated_substrings(ds: ray.data.Dataset, *, window: int = 16,
                              min_docs: int = 2, text_col: str = "text",
                              id_col: str = "doc_id",
                              num_buckets: int = 64) -> ray.data.Dataset:
    """Remove passages repeated across ≥ ``min_docs`` documents, keeping
    one representative copy (min doc_id). Returns
    (doc_id, clean_text, n_chunks, n_chunks_removed, n_chars_removed)."""
    chunks = explode_chunks(ds, window=window, text_col=text_col,
                            id_col=id_col)

    def elect(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                id_col: pd.Series(dtype="int64"),
                "chunk_idx": pd.Series(dtype="int64"),
                "chunk": pd.Series(dtype="object"),
                "keep": pd.Series(dtype="bool")})
        g = df.groupby("chunk", sort=False)[id_col]
        nd = g.transform("nunique")
        rep = g.transform("min")
        keep = (nd < min_docs) | (df[id_col] == rep)
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(np.int64),
            "chunk_idx": df["chunk_idx"].to_numpy(np.int64),
            "chunk": df["chunk"].to_numpy(dtype=object),
            "keep": keep.to_numpy(bool),
        })

    decided = bucketed_groupby(chunks, "chunk", elect, num_buckets=num_buckets)

    def rewrite(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({
                id_col: pd.Series(dtype="int64"),
                "clean_text": pd.Series(dtype="object"),
                "n_chunks": pd.Series(dtype="int64"),
                "n_chunks_removed": pd.Series(dtype="int64"),
                "n_chars_removed": pd.Series(dtype="int64")})
        df = df.sort_values([id_col, "chunk_idx"], kind="stable")
        ids = df[id_col]
        dropped = ~df["keep"].to_numpy(bool)
        n_chunks = ids.groupby(ids).size()
        n_rm = pd.Series(dropped, index=df.index).groupby(ids).sum()
        chars_rm = df["chunk"].str.len().where(dropped, 0).groupby(ids).sum()
        # one grouped join over the kept rows; docs whose every chunk was
        # removed reindex to the empty string (cannot happen for a
        # representative, but a doc may be non-representative throughout)
        clean = df[df["keep"]].groupby(id_col, sort=False)["chunk"] \
            .agg(" ".join).reindex(n_chunks.index, fill_value="")
        return pd.DataFrame({
            id_col: n_chunks.index.to_numpy(np.int64),
            "clean_text": clean.to_numpy(dtype=object),
            "n_chunks": n_chunks.to_numpy(np.int64),
            "n_chunks_removed": n_rm.to_numpy(np.int64),
            "n_chars_removed": chars_rm.to_numpy(np.int64),
        })

    return bucketed_groupby(decided, id_col, rewrite,
                            num_buckets=num_buckets)
