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
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from spel_ray.state.shuffle import bucketed_groupby, row_numbers, with_schema

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

    def elect(t: pa.Table) -> pa.Table:
        code = np.asarray(pc.dictionary_encode(
            t["chunk"].combine_chunks()).indices)
        ids = t[id_col].to_numpy()
        rep = np.full(code.max(initial=-1) + 1, np.iinfo(np.int64).max)
        np.minimum.at(rep, code, ids)
        # distinct documents per chunk: one per distinct (chunk, doc)
        n_docs = np.bincount(np.unique(np.stack([code, ids], 1), axis=0)[:, 0],
                             minlength=len(rep))
        keep = (n_docs[code] < min_docs) | (ids == rep[code])
        return t.append_column("keep", pa.array(keep))

    decided = bucketed_groupby(chunks, "chunk", elect, num_buckets=num_buckets)

    def rewrite(t: pa.Table) -> pa.Table:
        idx, rank = row_numbers(t, [id_col], [("chunk_idx", "ascending")])
        t = t.take(idx)
        starts = np.flatnonzero(rank == 0)
        keep = t["keep"].to_numpy()
        lost = np.where(keep, 0, pc.utf8_length(t["chunk"]).to_numpy())
        n_kept, n_removed, chars_removed = np.add.reduceat(
            np.stack([keep, ~keep, lost]).astype(np.int64), starts, axis=1)
        # each document's kept chunks in chunk order, joined by one space
        # (a document with no kept chunk becomes "")
        kept = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(n_kept)]), pa.int32()),
            t["chunk"].filter(keep).combine_chunks())
        return pa.table({id_col: t[id_col].take(pa.array(starts)),
                         "clean_text": pc.binary_join(kept, " "),
                         "n_chunks": n_kept + n_removed,
                         "n_chunks_removed": n_removed,
                         "n_chars_removed": chars_removed})

    return with_schema(
        bucketed_groupby(decided, id_col, rewrite, num_buckets=num_buckets),
        pa.schema([(id_col, pa.int64()), ("clean_text", pa.string())]
                  + [(c, pa.int64()) for c in ("n_chunks", "n_chunks_removed",
                                               "n_chars_removed")]))
