"""Distributed order statistics — exact quantiles without collecting data.

The quantile threshold ("keep the top X% by quality score") is the other
half of every curation gate; approximate sketches (t-digest) trade accuracy
for one pass, but an EXACT distributed quantile is perfectly expressible in
the engine's own primitives and stays scale-safe:

1. per-batch partial (value, n) counts (``bucketed_aggregate``);
2. the same aggregate's one bucketed shuffle finalizes them;
3. a distributed sort orders the distinct values;
4. per-block summaries (min_v, max_v, n) — ONE ROW PER BLOCK — go to the
   driver, which prefix-sums them to locate the block holding each k-th
   order statistic;
5. only the few touched blocks are re-read (a value-range filter pushed
   through map_batches), never the whole column.

The driver never holds more than (num_blocks + touched-block) rows — the
"collect the column and sort it" anti-pattern never appears.

Definition (mirrored exactly by the SQL oracle): ``quantile(q)`` = the
smallest value whose cumulative count ≥ ``ceil(q * n)`` — the classic
discrete (lower) quantile. NaN/null inputs are EXCLUDED from both the
counts and ``n`` (SQL NULL semantics); -0.0 is folded into +0.0 so equal
values share one bit pattern (bucketing and block-range disjointness
depend on it).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from spel_ray.stages.minhash import fixed_binary_view
from spel_ray.state.shuffle import (bucketed_aggregate, bucketed_groupby,
                                    row_numbers)


def _value_counts(ds: ray.data.Dataset, col: str,
                  num_buckets: int) -> ray.data.Dataset:
    def values(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy().astype(np.float64, copy=False)
        # NaN/null semantics: EXCLUDED, like SQL NULLs in aggregates and
        # ORDER BY-based order statistics — documented contract
        # (the aggregate folds -0.0 into +0.0: equal values share one group)
        return pa.table({"v": pa.array(v[~np.isnan(v)], pa.float64())})

    return bucketed_aggregate(ds.map_batches(values, batch_format="pyarrow"),
                              ["v"], [("n", "v", "count")],
                              num_buckets=num_buckets)


def exact_quantiles(ds: ray.data.Dataset, col: str, qs: list[float], *,
                    num_buckets: int = 16) -> pd.DataFrame:
    """Exact discrete quantiles of ``ds[col]`` (float) for each q in
    ``qs``. Returns a DataFrame (q, value) sorted like ``qs``."""
    counts = _value_counts(ds, col, num_buckets).sort("v").materialize()

    # one summary row per sorted block (block order == value order)
    def summarize(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"min_v": pa.array([], pa.float64()),
                             "max_v": pa.array([], pa.float64()),
                             "n": pa.array([], pa.int64())})
        v = np.asarray(batch["v"], dtype=np.float64)
        return pa.table({
            "min_v": pa.array([float(v[0])], pa.float64()),
            "max_v": pa.array([float(v[-1])], pa.float64()),
            "n": pa.array([int(np.asarray(batch["n"]).sum())], pa.int64()),
        })

    # Ray does NOT preserve block order through map_batches by default
    # (preserve_order off) — re-establish value order on the driver by
    # sorting the per-block summaries on min_v (blocks partition the
    # sorted value space, so min_v orders them totally)
    summary = sorted(
        counts.map_batches(summarize, batch_size=None,
                           batch_format="pyarrow").take_all(),
        key=lambda r: r["min_v"])
    totals = np.array([r["n"] for r in summary], dtype=np.int64)
    n_total = int(totals.sum())
    if n_total == 0:
        return pd.DataFrame({"q": pd.Series(qs, dtype="float64"),
                             "value": pd.Series([np.nan] * len(qs),
                                                dtype="float64")})
    cum = np.cumsum(totals)
    cum_before = np.concatenate([[0], cum[:-1]])

    ks = [max(1, math.ceil(q * n_total)) for q in qs]
    block_of = {k: int(np.searchsorted(cum, k, side="left")) for k in ks}

    # re-read ONLY the touched blocks, in ONE filter pass over the counts
    # dataset (the union of the disjoint block ranges — one scan total,
    # not one per quantile)
    touched = sorted(set(block_of.values()))
    ranges = [(summary[bi]["min_v"], summary[bi]["max_v"]) for bi in touched]

    def in_ranges(b: pa.Table) -> pa.Table:
        mask = None
        for lo, hi in ranges:
            m = pc.and_(pc.greater_equal(b["v"], lo),
                        pc.less_equal(b["v"], hi))
            mask = m if mask is None else pc.or_(mask, m)
        return b.filter(mask)

    rows = counts.map_batches(in_ranges, batch_format="pyarrow") \
                 .to_pandas().sort_values("v").reset_index(drop=True)
    block_rows: dict[int, pd.DataFrame] = {}
    for bi, (lo, hi) in zip(touched, ranges):
        sub = rows[(rows["v"] >= lo) & (rows["v"] <= hi)]
        block_rows[bi] = sub.reset_index(drop=True)

    values = []
    for q, k in zip(qs, ks):
        bi = block_of[k]
        sub = block_rows[bi]
        c = cum_before[bi] + sub["n"].to_numpy().cumsum()
        j = int(np.searchsorted(c, k, side="left"))
        values.append(float(sub["v"].iloc[j]))
    return pd.DataFrame({"q": pd.Series(qs, dtype="float64"),
                         "value": pd.Series(values, dtype="float64")})


# ------------------------------------------------- approximate cardinality
def _clz64(w: np.ndarray) -> np.ndarray:
    """Vectorized count-leading-zeros for uint64 (6-step shift cascade)."""
    x = w.copy()
    bl = np.zeros(len(x), np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = (x >> np.uint64(s)) != 0
        bl[m] += s
        x = np.where(m, x >> np.uint64(s), x)
    bl += (x != 0).astype(np.int64)
    return 64 - bl


def hll_registers(values: "pd.Series | np.ndarray", *, p: int = 12
                  ) -> np.ndarray:
    """One batch's HyperLogLog register array (uint8, m = 2^p) over string
    values: 64-bit SipHash (pandas ``hash_array``, fixed key ⇒
    cross-process stable — the same hash the decontamination rolling fold
    uses), top ``p`` bits pick the register, rho = leading zeros of the
    remaining bits + 1 (Flajolet et al. 2007)."""
    vals = np.asarray(values, dtype=object)
    m = 1 << p
    reg = np.zeros(m, np.uint8)
    if len(vals) == 0:
        return reg
    h = pd.util.hash_array(vals).astype(np.uint64)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    w = h << np.uint64(p)                       # uint64 shift wraps mod 2^64
    rho = np.minimum(_clz64(w) + 1, 64 - p + 1).astype(np.uint8)
    np.maximum.at(reg, idx, rho)
    return reg


def hll_estimate(reg: np.ndarray) -> float:
    """Bias-corrected HLL estimate with the small-range linear-counting
    correction (64-bit hashes need no large-range correction)."""
    m = len(reg)
    alpha = 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m / float(np.sum(np.power(2.0, -reg.astype(np.float64))))
    zeros = int(np.sum(reg == 0))
    if e <= 2.5 * m and zeros:
        e = m * math.log(m / zeros)
    return e


def approx_distinct(ds: ray.data.Dataset, *, value_fn, group_col: str,
                    p: int = 12, num_buckets: int = 8) -> "pd.DataFrame":
    """Per-group approximate distinct count — the 100-TB-scale cardinality
    sketch (an exact per-group COUNT DISTINCT shuffles every value; the
    HLL shuffle moves ONE 2^p-byte register row per (group, batch)).

    ``value_fn(batch) -> (groups: list, values_per_group: list[list])``
    extracts the values to count per group from one Arrow batch. Partials
    are merged with a vectorized per-group register max inside one
    bucketed shuffle keyed on the group, then finalized to estimates."""
    m = 1 << p

    def group_registers(batch: pa.Table) -> pa.Table:
        groups, per_group = value_fn(batch)
        regs = [hll_registers(v, p=p).tobytes() for v in per_group]
        return pa.table({
            "group": pa.array([str(g) for g in groups], pa.string()),
            "reg": pa.array(regs, pa.binary(m)),
        })

    parts = ds.map_batches(group_registers, batch_format="pyarrow")

    def reduce_group(t: pa.Table) -> pa.Table:
        # sort by group, then one register max per run of equal groups
        idx, rank = row_numbers(t, ["group"], [])
        starts = np.flatnonzero(rank == 0)
        regs = fixed_binary_view(t["reg"].take(idx), m, np.uint8)
        return pa.table({
            group_col: t["group"].take(idx.take(pa.array(starts))),
            "n_approx": pa.array([hll_estimate(r) for r in
                                  np.maximum.reduceat(regs, starts)],
                                 pa.float64())})

    out = bucketed_groupby(parts, "group", reduce_group,
                           num_buckets=num_buckets)
    return out.to_pandas().sort_values(group_col).reset_index(drop=True)
