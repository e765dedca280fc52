"""Benchmark decontamination: flag training documents sharing any
``n``-token n-gram with a held-out/benchmark corpus.

The standard pre-training hygiene step (the 13-gram rule popularized by
GPT-3's appendix and used by most open corpus pipelines): any training
document containing an n-gram that also appears in an evaluation set is
contaminated and must be dropped or audited. Re-expressed Ray-Data-first
(≙ the reference's fixed-candidate-set masking idea — membership of a
unit of text in a known set — applied at corpus hygiene granularity,
reference ``src/spel/data_loader.py`` candidate-set loaders):

- **benchmark side** — one streaming ``map_batches`` pass computes each
  batch's DISTINCT n-gram hashes; only the deduped ``uint64`` hashes leave
  the task, the strings never do. The global distinct set is collected and
  broadcast once via ``ray.put`` as a SORTED numpy array. SCALE NOTE: this
  side is assumed benchmark-sized (MBs — eval sets are small by
  construction); the training side streams at any scale. If the
  "benchmark" ever approaches corpus scale, a bucketed semi-join on the
  hash (``state.shuffle.bucketed_join(how="semi")``) is the fallback
  shape — not wired today.
- **training side** — per batch, tokens are hashed once with pandas'
  C-level ``hash_array`` (SipHash, fixed key ⇒ cross-process stable) and
  every window of ``n`` token hashes is folded into a 64-bit polynomial
  rolling hash with numpy column ops — no n-gram STRING is ever built on
  either side, which is what keeps the hot path vectorized. Membership is
  one ``np.searchsorted`` against the broadcast array.

The driver oracle re-derives both sides on the n-gram STRINGS in SQL; the
engine's hash equality agrees with string equality up to 64-bit SipHash
collisions (~n_doc_grams × n_bench / 2^64 — negligible, and any collision
at the pinned corpus would fail the hash check loudly).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

TOKEN_RE = re.compile(r"\S+")

_B = np.uint64(1099511628211)           # FNV-1a prime, 64-bit wraparound


def _batch_ngram_hashes(texts: pd.Series, n: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(row_idx, ngram_hash) for every n-token window in every text of the
    batch — fully vectorized: one C-level token hash pass + ``n`` numpy
    column folds over a sliding window view. Rows with < n tokens emit
    nothing."""
    toks = texts.fillna("").str.findall(TOKEN_RE)
    lens = toks.str.len().to_numpy(np.int64)
    total = int(lens.sum())
    if total < n:
        return (np.empty(0, np.int64), np.empty(0, np.uint64))
    flat = np.empty(total, dtype=object)
    pos = 0
    for w in toks:                      # assembly only; hashing is below
        flat[pos:pos + len(w)] = w
        pos += len(w)
    th = pd.util.hash_array(flat)                        # uint64, C speed
    win = np.lib.stride_tricks.sliding_window_view(th, n)
    with np.errstate(over="ignore"):
        h = win[:, 0].copy()
        for j in range(1, n):
            h = h * _B + win[:, j]
    # a window starting at flat offset i belongs to the doc whose token
    # span contains [i, i+n); valid iff it does not cross a doc boundary
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    row_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)[:len(h)]
    offset_in_doc = np.arange(len(h), dtype=np.int64) - starts[row_of]
    valid = offset_in_doc + n <= lens[row_of]
    return row_of[valid], h[valid]


def _dedup_per_row(rows: np.ndarray, hashes: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Keep one (row, hash) per distinct pair (row-level DISTINCT)."""
    if len(rows) == 0:
        return rows, hashes
    order = np.lexsort((hashes, rows))
    r, h = rows[order], hashes[order]
    first = np.ones(len(r), dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (h[1:] != h[:-1])
    return r[first], h[first]


def benchmark_ngram_hashes(benchmark: ray.data.Dataset, *, n: int = 13,
                           text_col: str = "text") -> np.ndarray:
    """Global sorted distinct n-gram hash array of the benchmark corpus.
    Per-batch dedup inside the task keeps the collected side minimal; the
    result is the small broadcast side (see module scale note)."""

    def f(batch: pa.Table) -> pa.Table:
        _, h = _batch_ngram_hashes(batch[text_col].to_pandas(), n)
        return pa.table({"h": pa.array(np.unique(h), pa.uint64())})

    parts = benchmark.map_batches(f, batch_format="pyarrow").to_pandas()
    if "h" not in parts.columns:    # empty Dataset loses its schema
        return np.zeros(0, np.uint64)
    return np.unique(parts["h"].to_numpy(np.uint64))


def decontaminate(docs: ray.data.Dataset, benchmark: ray.data.Dataset, *,
                  n: int = 13, text_col: str = "text",
                  id_col: str = "doc_id") -> ray.data.Dataset:
    """Annotate every training document with its benchmark overlap:
    (id, n_ngrams, n_contaminated, contaminated). ``n_ngrams`` counts the
    doc's DISTINCT n-grams; ``contaminated`` is true iff any of them
    appears in the benchmark. Annotation, not filtration — callers drop or
    audit downstream (the ledger is the point)."""
    bench_ref = ray.put(benchmark_ngram_hashes(benchmark, n=n,
                                               text_col=text_col))

    def probe(batch: pa.Table) -> pa.Table:
        bench = ray.get(bench_ref)
        ids = np.asarray(batch[id_col], dtype=np.int64)
        rows, h = _dedup_per_row(
            *_batch_ngram_hashes(batch[text_col].to_pandas(), n))
        n_ngrams = np.bincount(rows, minlength=len(ids)).astype(np.int64)
        if len(bench):
            pos = np.searchsorted(bench, h)
            hit = (pos < len(bench)) & (bench[np.minimum(pos, len(bench) - 1)]
                                        == h)
        else:
            hit = np.zeros(len(h), dtype=bool)
        n_cont = np.bincount(rows[hit], minlength=len(ids)).astype(np.int64)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "n_ngrams": pa.array(n_ngrams, pa.int64()),
            "n_contaminated": pa.array(n_cont, pa.int64()),
            "contaminated": pa.array(n_cont > 0),
        })

    return docs.map_batches(probe, batch_format="pyarrow")
