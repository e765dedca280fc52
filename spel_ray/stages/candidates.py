"""Fixed-candidate-set scorer — the engine's direct analog of SpEL's T1.

The reference scores every subword against a FIXED entity vocabulary with
one matmul (``logits = enc @ out_embᵀ`` then softmax → per-token top-k
(prob, id) lists; reference ``model.py:161-192``, vocab
``configuration.py:64-99``). Here the fixed candidate set is a table of
canonical cluster representatives (FIXTURES.md §4: ``cand_id, repr_content,
lang``; ``cand_id`` 0 reserved for "no match"), and every record is embedded
with a hashed character-n-gram bag (feature hashing — public technique,
Weinberger et al. 2009) and scored against the broadcast representative
matrix in one numpy matmul per batch.

Actor-pool contract exactly as the reference's scorer: the representative
matrix is built ONCE in ``__init__`` (from a ``ray.put`` handle — shipped to
each actor once, never per batch), ``__call__`` is pure batched math.

Head shrinking (reference T2, ``model.py:56-79``) maps to ``restrict_ids`` —
a row mask over the candidate matrix.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from spel_ray.config import LinkageConfig
from spel_ray.functions.strings import TOKEN_RE_BYTES

NO_MATCH_ID = 0  # reserved, ≙ |||O||| in the reference vocabulary


def embed_char_ngrams(texts: list[str], dim: int = 1024, n: int = 4,
                      seed: int = 42) -> np.ndarray:
    """(len(texts), dim) float32 L2-normalized hashed char-n-gram bags."""
    out = np.zeros((len(texts), dim), dtype=np.float32)
    mask = np.uint64(dim - 1) if dim & (dim - 1) == 0 else None
    pows = np.power(np.uint64(131), np.arange(n, dtype=np.uint64),
                    dtype=np.uint64)
    for i, t in enumerate(texts):
        b = np.frombuffer((t or "").encode("utf-8", errors="ignore"),
                          dtype=np.uint8)
        if len(b) < n:
            pad = np.zeros(n, dtype=np.uint8)
            pad[: len(b)] = b
            b = pad
        win = np.lib.stride_tricks.sliding_window_view(b, n).astype(np.uint64)
        h = (win * pows[None, :]).sum(axis=1, dtype=np.uint64)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        idx = (h & mask) if mask is not None else (h % np.uint64(dim))
        np.add.at(out[i], idx.astype(np.int64), 1.0)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return out / np.maximum(norms, 1e-12)


def build_candidate_matrix(cands: pd.DataFrame, dim: int = 1024,
                           n: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """(ids, matrix) for a candidate table (cand_id, repr_content). Row 0 is
    the reserved no-match vector (zeros → cosine 0 with everything)."""
    cands = cands.sort_values("cand_id")
    assert (cands["cand_id"] > 0).all(), "cand_id 0 is reserved for no-match"
    m = embed_char_ngrams(cands["repr_content"].tolist(), dim=dim, n=n)
    ids = np.concatenate([[NO_MATCH_ID], cands["cand_id"].to_numpy()])
    mat = np.vstack([np.zeros((1, dim), dtype=np.float32), m])
    return ids.astype(np.int64), mat


class CandidateScorer:
    """Actor-pool stage: per-record top-k candidates over the fixed set.

    Emits per record: ``top_ids`` (list<int64>), ``top_probs`` (list<float>)
    — softmax over cosine scores, exactly the reference's per-token
    ``(top_k_p_list, top_k_i_list)`` shape (``span_annotation.py:129-166``).
    Records whose best candidate scores below ``min_score`` resolve to
    NO_MATCH first (≙ annotation nulled to O on candidate miss,
    ``candidate_manager.py:58-74``)."""

    def __init__(self, cand_ref, k: int = 5, dim: int = 1024, n: int = 4,
                 min_score: float = 0.35, temperature: float = 10.0,
                 restrict_ids: np.ndarray | None = None,
                 mask_ids: np.ndarray | None = None):
        ids, mat = ray.get(cand_ref)            # shipped once per actor
        if restrict_ids is not None:            # head shrinking (T2)
            keep = np.isin(ids, np.concatenate([[NO_MATCH_ID], restrict_ids]))
            ids, mat = ids[keep], mat[keep]
        self.ids = ids
        self.mat = mat
        # soft inference-time vocab mask (T3, ≙ reference's additive -10000
        # over non-domain vocab rows, ``data_loader.py:77-93``): unlike the
        # hard T2 restriction, masked candidates stay in the matrix but can
        # never win — the top-k lists still show them at floor probability,
        # preserving the reference's "mask, don't shrink" observability
        self.mask = None
        if mask_ids is not None:
            allowed = np.isin(ids, np.concatenate([[NO_MATCH_ID], mask_ids]))
            self.mask = np.where(allowed, 0.0, -1e4).astype(np.float32)
        self.k = k
        self.dim = dim
        self.n = n
        self.min_score = min_score
        self.temperature = temperature

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["norm_content"].to_pylist()
        emb = embed_char_ngrams(texts, dim=self.dim, n=self.n)
        scores = emb @ self.mat.T                       # (b, C)
        if self.mask is not None:
            scores = scores + self.mask[None, :]
        k = min(self.k, scores.shape[1])
        part = np.argpartition(-scores, k - 1, axis=1)[:, :k]
        rows_ids, rows_probs = [], []
        for r in range(scores.shape[0]):
            cols = part[r][np.argsort(-scores[r, part[r]], kind="stable")]
            s = scores[r, cols]
            p = np.exp(self.temperature * (s - s.max()))
            p /= p.sum()
            ids = self.ids[cols]
            if s[0] < self.min_score:               # no-match resolution
                ids = np.concatenate([[NO_MATCH_ID], ids[:-1]])
                p = np.concatenate([[1.0], p[:-1] * 0.0])
            rows_ids.append(ids.tolist())
            rows_probs.append(np.round(p, 6).tolist())
        out = batch.append_column(
            "top_ids", pa.array(rows_ids, pa.list_(pa.int64())))
        return out.append_column(
            "top_probs", pa.array(rows_probs, pa.list_(pa.float64())))


def score_against_candidates(records: ray.data.Dataset,
                             candidates: pd.DataFrame,
                             cfg: LinkageConfig | None = None, *,
                             k: int = 5, dim: int = 1024,
                             min_score: float = 0.35,
                             mask_ids: np.ndarray | None = None,
                             concurrency: tuple[int, int] = (1, 8),
                             batch_size: int = 1024) -> ray.data.Dataset:
    """records (with norm_content) × fixed candidate table → top-k columns.

    The candidate matrix is built on the driver and broadcast via ``ray.put``
    — read once per actor, never per batch. ``mask_ids`` applies the soft
    inference-time vocab mask (T3)."""
    cand_ref = ray.put(build_candidate_matrix(candidates, dim=dim))
    return records.map_batches(
        CandidateScorer,
        fn_constructor_kwargs={"cand_ref": cand_ref, "k": k, "dim": dim,
                               "min_score": min_score, "mask_ids": mask_ids},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)


def embed_token_bag(texts: list[str], dim: int = 1024,
                    seed: int = 42) -> np.ndarray:
    """(len(texts), dim) float32 L2-normalized hashed word-token bags — the
    WORD granularity view (≙ the reference's word level above subwords,
    ``span_annotation.py:66-121``)."""
    from zlib import crc32

    out = np.zeros((len(texts), dim), dtype=np.float32)
    for i, t in enumerate(texts):
        toks = TOKEN_RE_BYTES.findall((t or "").encode("utf-8", errors="ignore"))
        if not toks:
            continue
        h = np.fromiter((crc32(tk) for tk in toks), dtype=np.uint64,
                        count=len(toks))
        h *= np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(31)
        np.add.at(out[i], (h % np.uint64(dim)).astype(np.int64), 1.0)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return out / np.maximum(norms, 1e-12)


class MultiGrainScorer:
    """Actor-pool stage: candidate resolution by INTERSECTION across two
    granularities (char n-grams AND word tokens) — the strict A1 semantics
    (reference ``span_annotation.py:77-121``): a candidate survives only if
    it appears in the top-k of BOTH views; resolve is unanimous top-1 →
    that id, else best mean score; empty intersection → NO_MATCH. Stricter
    than any linear blend — a candidate strong in one view only is vetoed."""

    def __init__(self, cand_ref, k: int = 5, dim: int = 1024, n: int = 4,
                 min_score: float = 0.3):
        ids, mat_char, mat_tok = ray.get(cand_ref)   # shipped once per actor
        self.ids = ids
        self.mat_char = mat_char
        self.mat_tok = mat_tok
        self.k = k
        self.dim = dim
        self.n = n
        self.min_score = min_score

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["norm_content"].to_pylist()
        s_c = embed_char_ngrams(texts, dim=self.dim, n=self.n) @ self.mat_char.T
        s_t = embed_token_bag(texts, dim=self.dim) @ self.mat_tok.T
        k = min(self.k, s_c.shape[1])
        top_c = np.argpartition(-s_c, k - 1, axis=1)[:, :k]
        top_t = np.argpartition(-s_t, k - 1, axis=1)[:, :k]
        resolved = np.full(len(texts), NO_MATCH_ID, dtype=np.int64)
        conf = np.ones(len(texts), dtype=np.float64)
        n_agree = np.zeros(len(texts), dtype=np.int64)
        for r in range(len(texts)):
            cset = set(top_c[r].tolist()) & set(top_t[r].tolist())
            cset.discard(0)                       # reserved no-match row
            if not cset:
                continue
            cols = np.fromiter(cset, dtype=np.int64, count=len(cset))
            mean_s = (s_c[r, cols] + s_t[r, cols]) / 2.0
            n_agree[r] = len(cols)
            best_c = top_c[r][np.argmax(s_c[r, top_c[r]])]
            best_t = top_t[r][np.argmax(s_t[r, top_t[r]])]
            if best_c == best_t and best_c in cset:      # unanimity
                col, score = best_c, (s_c[r, best_c] + s_t[r, best_c]) / 2.0
            else:                                        # best mean; ties →
                order = np.lexsort((self.ids[cols], -mean_s))  # lower id
                col, score = cols[order[0]], mean_s[order[0]]
            if score >= self.min_score:
                resolved[r] = self.ids[col]
                conf[r] = round(float(score), 6)
        return pa.table({
            "row_id": batch["row_id"],
            "resolved_cand": pa.array(resolved, pa.int64()),
            "confidence": pa.array(conf, pa.float64()),
            "n_surviving": pa.array(n_agree, pa.int64()),
        })


def build_candidate_matrices(cands: pd.DataFrame, dim: int = 1024,
                             n: int = 4):
    """(ids, char matrix, token matrix) with the reserved no-match row 0."""
    cands = cands.sort_values("cand_id")
    assert (cands["cand_id"] > 0).all(), "cand_id 0 is reserved for no-match"
    texts = cands["repr_content"].tolist()
    zero = np.zeros((1, dim), dtype=np.float32)
    ids = np.concatenate([[NO_MATCH_ID], cands["cand_id"].to_numpy()])
    mc = np.vstack([zero, embed_char_ngrams(texts, dim=dim, n=n)])
    mt = np.vstack([zero, embed_token_bag(texts, dim=dim)])
    return ids.astype(np.int64), mc, mt


def resolve_multigrain(records: ray.data.Dataset, candidates: pd.DataFrame,
                       *, k: int = 5, dim: int = 1024,
                       min_score: float = 0.3,
                       concurrency: tuple[int, int] = (1, 8),
                       batch_size: int = 1024) -> ray.data.Dataset:
    """records (with row_id, norm_content) → strict two-granularity
    candidate resolution. Matrices broadcast once via ``ray.put``."""
    cand_ref = ray.put(build_candidate_matrices(candidates, dim=dim))
    return records.map_batches(
        MultiGrainScorer,
        fn_constructor_kwargs={"cand_ref": cand_ref, "k": k, "dim": dim,
                               "min_score": min_score},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency)


def canonicalize_candidates(scored: ray.data.Dataset,
                            redirects: dict[int, int], *,
                            top_m: int = 4) -> ray.data.Dataset:
    """Candidate-list post-processor — the engine's M1 analog (reference
    ``data_loader.py:132-152``: sort by prob desc → redirect
    canonicalization → drop null → truncate to top-4 → re-normalize):
    each record's (top_ids, top_probs) lists are mapped through the
    broadcast redirect dict (alias id → canonical id), duplicate canonical
    ids merge by SUM of probability mass, no-match entries drop, the list
    truncates to ``top_m`` and re-normalizes. Deterministic: ties break by
    lower id."""
    red_ref = ray.put(redirects)

    def fix(batch: pa.Table) -> pa.Table:
        red = ray.get(red_ref)
        ids_col = batch["top_ids"].to_pylist()
        probs_col = batch["top_probs"].to_pylist()
        out_ids, out_probs = [], []
        for ids, probs in zip(ids_col, probs_col):
            acc: dict[int, float] = {}
            for i, p in zip(ids or [], probs or []):
                c = red.get(int(i), int(i))
                if c == NO_MATCH_ID:
                    continue
                acc[c] = acc.get(c, 0.0) + float(p)
            ranked = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))[:top_m]
            if not ranked:
                out_ids.append([NO_MATCH_ID])
                out_probs.append([1.0])
                continue
            tot = sum(p for _, p in ranked)
            out_ids.append([i for i, _ in ranked])
            out_probs.append([round(p / tot, 6) if tot > 0 else 0.0
                              for _, p in ranked])
        out = batch.drop_columns(["top_ids", "top_probs"])
        out = out.append_column("top_ids", pa.array(out_ids,
                                                    pa.list_(pa.int64())))
        return out.append_column("top_probs", pa.array(
            out_probs, pa.list_(pa.float64())))

    return scored.map_batches(fix, batch_format="pyarrow")


def resolve_candidates(scored: ray.data.Dataset,
                       *, num_buckets: int = 16) -> ray.data.Dataset:
    """Reduce top-k lists to one resolved candidate per record (argmax prob;
    ≙ word-level resolution, ``span_annotation.py:90-107``)."""
    def resolve(batch: pa.Table) -> pa.Table:
        ids = batch["top_ids"].to_pylist()
        probs = batch["top_probs"].to_pylist()
        best = [int(i[0]) if i else NO_MATCH_ID for i in ids]
        conf = [float(p[0]) if p else 1.0 for p in probs]
        return pa.table({
            "row_id": batch["row_id"],
            "resolved_cand": pa.array(best, pa.int64()),
            "confidence": pa.array(conf, pa.float64()),
        })

    return scored.map_batches(resolve, batch_format="pyarrow")
