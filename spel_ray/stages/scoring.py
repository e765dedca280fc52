"""Pair scoring — the one pair verdict, a cheap sketch pass and an exact
verifier for the borderline band.

The verdict is written once, here: batch linkage, serving and evaluation
score every pair through :func:`score_gather` and decide it with
:func:`matches` (exact, or score ≥ a threshold).

Two-tier design (the engine's T1 scorer analog, reference
``model.py:161-192``):

1. **Sketch score** (``score_pair_arrays``) — pure numpy over colocated pair
   features: MinHash-Jaccard estimate, sha256 equality, length ratio. Runs
   inside the pair-gen bucket task; costs O(num_perm) per pair.
2. **Exact verifier** (``verify_borderline``) — only pairs whose sketch score
   lands in ``[verify_low, verify_high)`` are re-joined with their content
   (hash join on row id; the borderline band is a small fraction, so content
   is only ever shuffled for those) and re-scored by an actor-pool stage with
   token-set Jaccard + Jaro-Winkler over a normalized prefix — setup (regex
   compile) once per actor, work per batch.

Determinism: all tie-breaks are numeric max / lexicographic pair order, so a
rerun reproduces identical edges (≙ reference's deterministic conflict vote,
``utils.py:316-328``).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from spel_ray.config import LinkageConfig
from spel_ray.functions.strings import jaro_winkler_pairs, token_jaccard_pairs
from spel_ray.state.shuffle import bucketed_join


def score_pair_arrays(cfg: LinkageConfig,
                      sig_lo: np.ndarray, sig_hi: np.ndarray,
                      tok_lo: np.ndarray, tok_hi: np.ndarray,
                      n_lo: np.ndarray, n_hi: np.ndarray,
                      sha_eq: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized sketch score. Returns (char_jac_est, exact, score).

    Two independent sketch views (≙ the reference's subword AND word
    granularities, ``span_annotation.py:66-121``): char-shingle MinHash
    agreement + token-set MinHash agreement, blended and softly gated by the
    length ratio so wildly different sizes can't cluster on a lucky band
    collision."""
    jac = (sig_lo == sig_hi).mean(axis=1)
    tok_jac = (tok_lo == tok_hi).mean(axis=1)
    n_lo = n_lo.astype(np.float64)
    n_hi = n_hi.astype(np.float64)
    denom = np.maximum(np.maximum(n_lo, n_hi), 1.0)
    len_ratio = np.minimum(n_lo, n_hi) / denom
    exact = np.asarray(sha_eq, dtype=bool)
    blend = cfg.char_weight * jac + cfg.tok_weight * tok_jac
    score = np.where(exact, 1.0, blend * (0.8 + 0.2 * len_ratio))
    return jac, exact, score


def score_gather(scorer, cfg: LinkageConfig, a: dict, ia: np.ndarray,
                 b: dict, ib: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one scorer call: pair i is row ``ia[i]`` of ``a`` against row
    ``ib[i]`` of ``b``, both ``blocking.block_features``-style dicts (sig,
    sig_tok, n_chars, sha16). Returns the scorer's (jac, exact, score)."""
    return scorer.score_pairs(
        cfg, sig_lo=a["sig"][ia], sig_hi=b["sig"][ib],
        tok_lo=a["sig_tok"][ia], tok_hi=b["sig_tok"][ib],
        n_lo=a["n_chars"][ia], n_hi=b["n_chars"][ib],
        sha_eq=(a["sha16"][ia] == b["sha16"][ib]).all(axis=1))


def matches(exact, score, thr: float) -> np.ndarray:
    """The one match rule: a pair matches when it is exact or its score is
    ≥ ``thr``. Takes numpy or Arrow columns, returns a bool array."""
    return np.asarray(exact, dtype=bool) | (np.asarray(score) >= thr)


class BorderlineVerifier:
    """Actor-pool stage: exact re-score of borderline pairs given contents."""

    def __init__(self, cfg: LinkageConfig):
        import re
        self.cfg = cfg
        self.token_re = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+")
        self.prefix = 128  # JW is O(prefix·window) per pair; token-Jaccard
        # carries most of the weight, the prefix only breaks near-ties

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Pairs with ``content_lo`` / ``content_hi`` → the same pairs
        without them, ``score`` replaced by the verified score and
        ``verified`` set, columns in name order (``verify_borderline``'s
        union order)."""
        a = pc.fill_null(batch["content_lo"], "").to_pylist()
        b = pc.fill_null(batch["content_hi"], "").to_pylist()
        tok_jac = token_jaccard_pairs(a, b, self.token_re)
        jw = jaro_winkler_pairs([s[: self.prefix] for s in a],
                                [s[: self.prefix] for s in b])
        verified = 0.7 * tok_jac + 0.3 * jw
        score = np.maximum(verified, np.asarray(batch["exact"], dtype=float))
        out = batch.drop_columns(["content_lo", "content_hi", "score"]) \
                   .append_column("score", pa.array(score, pa.float64())) \
                   .append_column("verified",
                                  pa.array(np.ones(batch.num_rows, bool)))
        return out.select(sorted(out.column_names))


def _band(batch: pa.Table, lo: float, hi: float, border: bool) -> pa.Table:
    """The pairs whose sketch score is (``border``) or is not in [lo, hi)."""
    m = pc.and_(pc.greater_equal(batch["score"], lo),
                pc.less(batch["score"], hi))
    return batch.filter(m if border else pc.invert(m))


def _passthrough(batch: pa.Table, lo: float, hi: float,
                 cols: list[str]) -> pa.Table:
    """The pairs outside the borderline band, marked unverified, in the
    output's column order."""
    t = _band(batch, lo, hi, border=False)
    return t.append_column("verified", pa.array(np.zeros(t.num_rows, bool))) \
            .select(cols)


def verify_borderline(pairs: ray.data.Dataset, records: ray.data.Dataset,
                      cfg: LinkageConfig, *, num_buckets: int = 32
                      ) -> ray.data.Dataset:
    """Split pairs into pass-through and borderline; left-join borderline
    with record content (``bucketed_join``), verify, union back.

    ``records`` must carry (row_id, norm_content)."""
    if pairs.schema() is None:   # no candidate pairs at all (tiny inputs)
        return pairs

    lo, hi = cfg.verify_low, cfg.verify_high
    # both branches leave in one column order (sorted names) and block
    # type (Arrow) for the union. The pass-through order comes from the
    # INPUT schema (+verified): either branch may be empty and schema-less
    # (no borderline pairs / all borderline).
    cols = sorted(set(pairs.columns()) | {"verified"})
    passthrough = pairs.map_batches(
        partial(_passthrough, lo=lo, hi=hi, cols=cols), batch_format="pyarrow")

    border = pairs.map_batches(partial(_band, lo=lo, hi=hi, border=True),
                               batch_format="pyarrow")
    for side in ("lo", "hi"):       # content of each pair end, misses kept
        content = records.select_columns(["row_id", "norm_content"]) \
                         .rename_columns({"norm_content": f"content_{side}"})
        border = bucketed_join(border, content, f"id_{side}", "row_id",
                               how="left", num_buckets=num_buckets)

    # autoscaling pool (1, N): never reserves every CPU on a small node, so
    # upstream stages can't be starved into a scheduling deadlock
    verified = border.map_batches(BorderlineVerifier, fn_constructor_args=(cfg,),
                                  batch_format="pyarrow",
                                  batch_size=cfg.pair_batch_size,
                                  concurrency=(1, cfg.scorer_concurrency))
    return passthrough.union(verified)


def edges_from_pairs(pairs: ray.data.Dataset, cfg: LinkageConfig) -> ray.data.Dataset:
    """Thresholded edges (lo, hi) for transitive clustering."""
    thr = cfg.score_threshold

    def filt(batch: pa.Table) -> pa.Table:
        t = batch.filter(matches(batch["exact"], batch["score"], thr))
        return pa.table({"lo": t["id_lo"], "hi": t["id_hi"]})

    return pairs.map_batches(filt, batch_format="pyarrow")
