"""Pairwise evaluation harness — micro/macro P/R/F1 over labeled pairs.

The engine analog of the reference's evaluation stack (gold↔pred alignment +
micro/macro P/R/F1, reference ``utils.py:425-545``, ``decao_eval.py:1185-1281``):

- the *labeled pair set* is exactly the candidate pairs that share at least
  one blocking key (the candidate-set-restricted eval of the north_rule,
  ≙ reference ``utils.py:530-544``);
- micro P/R/F1 counts over pairs with the same partial/merge/finalize shape
  as the reference's distributed counters (``dist_reduce_fx="sum"``,
  ``decao_eval.py:1193-1197``) — here both as a driver helper and as a Ray
  ``AggregateFn``;
- macro averages the per-block F1 (≙ per-document macro,
  ``decao_eval.py:1205-1221``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import AggregateFn


def _truth_arrays(truth: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Broadcast-friendly form of a truth map: (sorted keys, labels aligned
    to key order). Labels may be any int (negative singleton markers OK)."""
    if not truth:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    ids = np.fromiter(truth.keys(), dtype=np.int64, count=len(truth))
    labs = np.fromiter(truth.values(), dtype=np.int64, count=len(truth))
    order = np.argsort(ids, kind="stable")
    return ids[order], labs[order]


def _sorted_get(keys: np.ndarray, vals: np.ndarray,
                probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized dict.get over sorted key/value arrays: returns
    (values, hit_mask); values are undefined (0) where hit_mask is False."""
    if len(keys) == 0 or len(probe) == 0:
        return (np.zeros(len(probe), vals.dtype if len(vals) else np.int64),
                np.zeros(len(probe), bool))
    pos = np.clip(np.searchsorted(keys, probe), 0, len(keys) - 1)
    hit = keys[pos] == probe
    return np.where(hit, vals[pos], 0), hit


def _collect_labeled(ds: ray.data.Dataset, truth: dict[int, int],
                     columns: list[str],
                     id_cols: tuple[str, ...] = ("id_lo", "id_hi"),
                     ) -> pd.DataFrame:
    """Semi-join ``ds`` to the broadcast truth-id set INSIDE map_batches and
    collect only the labeled subset on the driver (the truth set is
    broadcast-sized; the candidate-pair table is not — reference analog: the
    candidate-set-restricted eval scores only gold-covered units,
    ``utils.py:530-544``). Never materializes the unfiltered table."""
    keys, _ = _truth_arrays(truth)
    keys_ref = ray.put(keys)

    def keep_labeled(batch: pa.Table) -> pa.Table:
        k = ray.get(keys_ref)
        mask = np.ones(batch.num_rows, bool)
        for col in id_cols:
            v = batch.column(col).to_numpy()
            _, hit = _sorted_get(k, k, v.astype(np.int64, copy=False))
            mask &= hit
        return batch.filter(pa.array(mask))

    pdf = (ds.select_columns(columns)
             .map_batches(keep_labeled, batch_format="pyarrow")
             .to_pandas())
    if len(pdf) == 0:                       # empty Datasets can lose schema
        return pd.DataFrame({c: pd.Series([], dtype=object) for c in columns})
    return pdf


def pair_confusion(df: pd.DataFrame) -> dict:
    """df needs boolean columns ``is_match`` (gold) and ``pred_match``."""
    gold = df["is_match"].to_numpy(dtype=bool)
    pred = df["pred_match"].to_numpy(dtype=bool)
    tp = int((gold & pred).sum())
    fp = int((~gold & pred).sum())
    fn = int((gold & ~pred).sum())
    tn = int((~gold & ~pred).sum())
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 1.0
    r = tp / (tp + fn) if tp + fn else 1.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def micro_pairwise_f1(df: pd.DataFrame) -> dict:
    c = pair_confusion(df)
    p, r, f = prf(c["tp"], c["fp"], c["fn"])
    return {**c, "precision": p, "recall": r, "f1": f}


def macro_pairwise_f1(df: pd.DataFrame, block_col: str = "block_key") -> dict:
    """Mean per-block F1 (blocks with no gold and no pred count as 1.0,
    matching the prf() empty-set convention)."""
    f1s = [micro_pairwise_f1(g)["f1"] for _, g in df.groupby(block_col, sort=True)]
    return {"macro_f1": float(np.mean(f1s)) if f1s else 1.0,
            "n_blocks": len(f1s)}


def micro_f1_aggregate() -> AggregateFn:
    """Distributed micro counters as a Ray AggregateFn
    (init / accumulate-block / merge / finalize) — the scale path."""
    def acc_block(acc, block):
        df = block.to_pandas() if not isinstance(block, pd.DataFrame) else block
        c = pair_confusion(df)
        return [acc[0] + c["tp"], acc[1] + c["fp"], acc[2] + c["fn"]]

    return AggregateFn(
        init=lambda k: [0, 0, 0],
        accumulate_block=acc_block,
        merge=lambda a, b: [a[0] + b[0], a[1] + b[1], a[2] + b[2]],
        finalize=lambda a: list(prf(a[0], a[1], a[2])) + a,
        name="micro_prf",
    )


def labeled_pairs_from_run(pairs: ray.data.Dataset,
                           truth: dict[int, int]) -> pd.DataFrame:
    """FIXTURES.md §2 ``labeled_pairs`` table: the candidate pairs (which by
    construction share ≥1 blocking key — the north_rule's pair universe)
    labeled with ground truth: (id_lo, id_hi, block_key, is_match).

    Scale note: only the *labeled* subset (both endpoints in ``truth``) is
    collected — the filter runs distributed (`_collect_labeled`), so the
    driver never holds the full candidate-pair table."""
    pdf = _collect_labeled(pairs, truth, ["id_lo", "id_hi", "block_key"])
    keys, labs = _truth_arrays(truth)
    lo_lab, _ = _sorted_get(keys, labs, pdf["id_lo"].to_numpy(np.int64))
    hi_lab, _ = _sorted_get(keys, labs, pdf["id_hi"].to_numpy(np.int64))
    pdf["is_match"] = lo_lab == hi_lab
    return pdf.sort_values(["id_lo", "id_hi"]).reset_index(drop=True)


def threshold_sweep(pairs: ray.data.Dataset, truth: dict[int, int],
                    *, n_points: int = 50) -> tuple[pd.DataFrame, dict]:
    """Precision/recall/F1 curve over the edge-score threshold on labeled
    candidate pairs — the engine analog of the reference's eval-driven
    best-checkpoint selection (``model.py:253-267``): run the pipeline once
    with a permissive threshold, sweep the operating point OFFLINE from the
    scored pairs, pick the threshold that maximizes F1 (ties → the higher
    threshold, favoring precision).

    Recall is within the candidate-pair universe (pairs sharing a blocking
    key) — blocking recall is a property of the sketch config, not the
    threshold. Returns (curve, best): ``curve`` downsampled to ~n_points
    rows of (threshold, precision, recall, f1); ``best`` evaluated over
    every distinct score.

    Scale note: the labeled-pair filter runs distributed; only the labeled
    subset reaches the driver, where the distinct-score cumsum runs (the
    labeled set is broadcast-sized by construction)."""
    pdf = _collect_labeled(pairs, truth, ["id_lo", "id_hi", "score"])
    keys, labs = _truth_arrays(truth)
    lo_lab, _ = _sorted_get(keys, labs, pdf["id_lo"].to_numpy(np.int64))
    hi_lab, _ = _sorted_get(keys, labs, pdf["id_hi"].to_numpy(np.int64))
    y = lo_lab == hi_lab
    s = pdf["score"].to_numpy(np.float64)
    if len(s) == 0 or not y.any():
        empty = pd.DataFrame({"threshold": [], "precision": [],
                              "recall": [], "f1": []})
        return empty, {"threshold": None, "precision": 0.0,
                       "recall": 0.0, "f1": 0.0}
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    tp = np.cumsum(y[order])
    fp = np.cumsum(~y[order])
    total_pos = int(y.sum())
    # evaluate at the LAST index of each distinct score (threshold = that
    # score, predictions = all pairs with score >= it)
    last = np.r_[s_sorted[1:] != s_sorted[:-1], True]
    idx = np.flatnonzero(last)
    prec = tp[idx] / (tp[idx] + fp[idx])
    rec = tp[idx] / total_pos
    f1 = np.where(prec + rec > 0,
                  2 * prec * rec / np.maximum(prec + rec, 1e-300), 0.0)
    # best over ALL distinct scores; argmax takes the FIRST max, which in
    # descending score order is the HIGHER threshold (precision-favoring)
    j = int(np.argmax(f1))
    best = {"threshold": float(s_sorted[idx[j]]),
            "precision": float(prec[j]),
            "recall": float(rec[j]),
            "f1": float(f1[j])}
    step = max(1, len(idx) // n_points)
    sel = np.arange(0, len(idx), step)
    curve = pd.DataFrame({
        "threshold": s_sorted[idx][sel],
        "precision": prec[sel],
        "recall": rec[sel],
        "f1": f1[sel],
    }).reset_index(drop=True)
    return curve, best


def expected_clusters_table(clusters: ray.data.Dataset,
                            records: ray.data.Dataset) -> pd.DataFrame:
    """FIXTURES.md §3 ``expected_clusters`` golden-output shape:
    (row_id, cluster_id, content_sha256)."""
    cl = clusters.to_pandas()
    sha = records.select_columns(["row_id", "content_sha256"]).to_pandas()
    out = cl.merge(sha, on="row_id")
    return out.sort_values("row_id").reset_index(drop=True)


def evaluate_clusters(pairs: ray.data.Dataset, clusters: ray.data.Dataset,
                      truth: dict[int, int]) -> dict:
    """Score predicted clusters against ground truth on the in-scope pair set.

    ``pairs``: deduped candidate pairs (id_lo, id_hi, block_key, …) — the
    labeled pair universe. ``truth``: row_id → true cluster id (ancestor),
    broadcast-sized (evaluation corpora are small; the reference's gold sets
    are too). Returns micro + macro metrics.

    Scale note: both the pair table AND the cluster-assignment table are
    filtered to labeled ids distributed-side; the driver only ever holds
    O(|truth|²-bounded labeled pairs + |truth| cluster rows)."""
    cl = _collect_labeled(clusters, truth, ["row_id", "cluster_id"],
                          id_cols=("row_id",))
    lkeys = cl["row_id"].to_numpy(np.int64)
    lvals = cl["cluster_id"].to_numpy(np.int64)
    lorder = np.argsort(lkeys, kind="stable")
    lkeys, lvals = lkeys[lorder], lvals[lorder]

    pdf = _collect_labeled(pairs, truth, ["id_lo", "id_hi", "block_key"])
    lo = pdf["id_lo"].to_numpy(np.int64)
    hi = pdf["id_hi"].to_numpy(np.int64)
    keys, labs = _truth_arrays(truth)
    lo_lab, _ = _sorted_get(keys, labs, lo)
    hi_lab, _ = _sorted_get(keys, labs, hi)
    pdf["is_match"] = lo_lab == hi_lab
    lo_cl, lo_hit = _sorted_get(lkeys, lvals, lo)
    hi_cl, hi_hit = _sorted_get(lkeys, lvals, hi)
    pdf["pred_match"] = lo_hit & hi_hit & (lo_cl == hi_cl)

    out = micro_pairwise_f1(pdf)
    out.update(macro_pairwise_f1(pdf))
    out["n_pairs"] = len(pdf)
    return out


def blocking_quality(records: ray.data.Dataset, pairs: ray.data.Dataset,
                     cfg=None, *, sample_size: int = 128,
                     strong_threshold: float = 0.8,
                     n_records: int | None = None) -> pd.DataFrame:
    """Blocking-quality metrics — the standard record-linkage evaluation of a
    blocking scheme (Christen 2012: reduction ratio, pairs completeness,
    pairs quality; ≙ the reference's candidate-set coverage concern,
    ``candidate_manager.py:76-103`` — a candidate set that misses gold
    entities caps recall exactly like blocking that misses true pairs).

    - **reduction ratio** (global): 1 − |candidate pairs| / C(n, 2) — how
      much of the quadratic comparison space the blocking pruned.
    - **pairs completeness / quality** (sample-based): ground truth is the
      engine's own pair-score function applied to ALL pairs of a
      deterministic ``sample_size``-record sample (Knuth multiplicative-hash
      rank; odd multiplier ⇒ rank is a bijection of the id, so the sample is
      unique and reproducible). Truth = exact-sha or score ≥ threshold;
      completeness = fraction of truth pairs the blocking surfaced, quality
      = fraction of surfaced sample pairs that are truth. Sample-based truth
      is how ER practice evaluates blocking when no labeled corpus exists —
      exhaustive truth is the very O(n²) the blocking avoids.
    - **strong variants**: the decision threshold admits pairs whose score
      is carried by token-set similarity alone (shared vocabulary in
      template-heavy prose), which the char-shingle LSH bands — by design —
      do not block on; ``pairs_completeness_strong`` re-reads the same
      counts at ``strong_threshold`` (real near-duplicates, where shingle
      collisions make the bands effective), so the pair of numbers
      separates "the blend disagrees with the blocker on marginal pairs"
      from "the blocker misses near-dups".

    Scale shape: the two global counts are streamed aggregates; the sample
    is a two-stage top-k (per-batch partial top-``sample_size`` by rank →
    driver final), so the driver holds O(n_batches × sample_size) slim rows;
    sample sketches are recomputed driver-side through the SAME MinHasher
    code path the distributed stage uses; the candidate∩sample filter is a
    broadcast sorted-id semi-join inside map_batches. Nothing materializes
    the pair table or the input.
    """
    from spel_ray.config import LinkageConfig
    from spel_ray.extension import get_scorer
    from spel_ray.stages.blocking import sha16_bytes
    from spel_ray.stages.minhash import MinHasher, fixed_binary_view, sig_dtype
    from spel_ray.stages.scoring import matches, score_gather
    from spel_ray.state.shuffle import topk_rows

    cfg = cfg or LinkageConfig()
    mult = np.uint64(2654435761)

    # records is often a LAZY fingerprint lineage: counting it here would
    # re-run sha256+normalize over the whole corpus just for a row count —
    # callers that already hold a materialized per-record table (e.g. the
    # linkage run's clusters) should pass n_records instead
    if n_records is None:
        n_records = records.count()
    n_cand = pairs.count()

    sample = pa.schema([("row_id", pa.int64()), ("norm_content", pa.string()),
                        ("n_chars", pa.int64()),
                        ("content_sha256", pa.string()), ("_rk", pa.uint64())])
    by_rank = [("_rk", "ascending")]

    def local_top(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["row_id"], dtype=np.int64).view(np.uint64)
        t = batch.append_column("_rk", pa.array(ids * mult))  # uint64 wrap
        return topk_rows(t.select(sample.names).cast(sample), [], by_rank,
                         sample_size)

    parts = topk_rows(pa.concat_tables(
        [sample.empty_table(),
         *records.map_batches(local_top, batch_format="pyarrow")
                 .iter_batches(batch_size=None, batch_format="pyarrow")]),
        [], by_rank, sample_size).to_pandas()
    s = len(parts)

    dt = sig_dtype(cfg)
    sketched = MinHasher(cfg)(pa.table(
        {"norm_content": pa.array(parts["norm_content"], pa.string())}))
    gold = {"sig": fixed_binary_view(sketched["sig"], cfg.num_perm, dt),
            "sig_tok": fixed_binary_view(sketched["sig_tok"],
                                         cfg.num_perm_tok, dt),
            "n_chars": parts["n_chars"].to_numpy(np.int64),
            "sha16": sha16_bytes(pa.array(parts["content_sha256"],
                                          pa.string())).view(np.uint64)}

    lo, hi = np.triu_indices(s, k=1)
    thr = cfg.score_threshold
    # the CONFIGURED scorer through pair-gen's gather: truth and candidate
    # scores from one function, or completeness can exceed 1.0
    _, exact, score = score_gather(get_scorer(cfg.scorer), cfg,
                                   gold, lo, gold, hi)
    n_truth = int(matches(exact, score, thr).sum())
    n_truth_strong = int(matches(exact, score, strong_threshold).sum())

    sample_ids = np.sort(parts["row_id"].to_numpy(np.int64))
    ids_ref = ray.put(sample_ids)

    def sample_counts(batch: pa.Table) -> pa.Table:
        k = ray.get(ids_ref)
        plo = batch.column("id_lo").to_numpy()
        phi = batch.column("id_hi").to_numpy()
        _, lo_hit = _sorted_get(k, k, plo.astype(np.int64, copy=False))
        _, hi_hit = _sorted_get(k, k, phi.astype(np.int64, copy=False))
        m = batch.filter(pa.array(lo_hit & hi_hit))
        return pa.table({
            "n_cand_sample": pa.array([m.num_rows], pa.int64()),
            "n_matched": pa.array(
                [matches(m["exact"], m["score"], thr).sum()], pa.int64()),
            "n_matched_strong": pa.array(
                [matches(m["exact"], m["score"], strong_threshold).sum()],
                pa.int64()),
        })

    cparts = pairs.map_batches(sample_counts,
                               batch_format="pyarrow").take_all()
    n_cand_sample = sum(p["n_cand_sample"] for p in cparts)
    n_matched = sum(p["n_matched"] for p in cparts)
    n_matched_strong = sum(p["n_matched_strong"] for p in cparts)

    total = n_records * (n_records - 1) / 2.0
    return pd.DataFrame({
        "n_records": pd.Series([n_records], dtype="int64"),
        "n_candidate_pairs": pd.Series([n_cand], dtype="int64"),
        "n_sample": pd.Series([s], dtype="int64"),
        "n_truth_sample": pd.Series([n_truth], dtype="int64"),
        "n_truth_strong": pd.Series([n_truth_strong], dtype="int64"),
        "n_cand_sample": pd.Series([n_cand_sample], dtype="int64"),
        "n_matched_sample": pd.Series([n_matched], dtype="int64"),
        "n_matched_strong": pd.Series([n_matched_strong], dtype="int64"),
        "reduction_ratio": [1.0 - n_cand / total if total else 1.0],
        "pairs_completeness": [n_matched / float(n_truth)
                               if n_truth else 1.0],
        "pairs_completeness_strong": [
            n_matched_strong / float(n_truth_strong)
            if n_truth_strong else 1.0],
        "pairs_quality": [n_matched / float(n_cand_sample)
                          if n_cand_sample else 1.0],
    })
