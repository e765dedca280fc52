"""Relational operator pipelines over the driver's TPC-H-ish tables.

Each function takes ``sf_dir`` and returns a Ray Dataset / pandas DataFrame
whose columns EXACTLY match the companion oracle SQL in
``__ray_entry__.oracle_sql()`` (the driver hash-compares values after sorting
columns by name). Aggregate doubles are rounded to 2dp on BOTH sides so
float summation order cannot flip the hash.

These exercise the generic operator surface of SURVEY.md §2 — groupby
aggregate (A3-A8), broadcast join (J1-J4), sort/limit/top-k (K1-K6), distinct
(A8), filter/project maps (M1-M12) — on data the driver can oracle with
DuckDB. All pipelines prune columns at the read; every GROUP BY is one
``bucketed_aggregate`` (a per-batch Arrow partial, then one exchange that
finalizes each bucket), and rounding is a pandas step on the collected
result.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from spel_ray.state.shuffle import (bucketed_aggregate, bucketed_join,
                                    bucketed_topk, collect)


def _read(sf_dir: str, table: str, columns: list[str]) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


# ---------------------------------------------------------------- groupby agg
def q_lineitem_agg(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-style pricing summary: revenue via Arrow kernels in a map,
    then one grouped aggregate (per-batch partial, per-bucket final ≙ metric
    partial+final, reference ``decao_eval.py:1185-1202``)."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount"])

    def revenue(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(batch["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return batch.append_column("revenue", rev)

    keys = ["l_returnflag", "l_linestatus"]
    df = bucketed_aggregate(
        ds.map_batches(revenue, batch_format="pyarrow"), keys,
        [("sum_qty", "l_quantity", "sum"),
         ("sum_price", "l_extendedprice", "sum"),
         ("sum_revenue", "revenue", "sum"), ("n_rows", "l_quantity", "count")],
        num_buckets=16).to_pandas()
    for c in ("sum_qty", "sum_price", "sum_revenue"):
        df[c] = df[c].round(2)
    return df.sort_values(keys).reset_index(drop=True)


def _monthly_totals(sf_dir: str) -> pd.DataFrame:
    """(o_year, o_month, total_price, n_orders) over every order, unrounded
    and unsorted."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def year_month(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_year": pc.cast(pc.year(batch["o_orderdate"]), pa.int64()),
            "o_month": pc.cast(pc.month(batch["o_orderdate"]), pa.int64()),
            "price": batch["o_totalprice"]})

    return bucketed_aggregate(
        ds.map_batches(year_month, batch_format="pyarrow"),
        ["o_year", "o_month"],
        [("total_price", "price", "sum"), ("n_orders", "price", "count")],
        num_buckets=16).to_pandas()


def q_orders_by_month(sf_dir: str) -> pd.DataFrame:
    """Date-part groupby with vectorized Arrow kernels."""
    df = _monthly_totals(sf_dir)
    df["total_price"] = df["total_price"].round(2)
    return df.sort_values(["o_year", "o_month"]).reset_index(drop=True)


# ------------------------------------------------------------ filter / project
def q_filter_project(sf_dir: str) -> pd.DataFrame:
    """Vectorized predicate inside map_batches (never ds.filter(row_fn))."""
    ds = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity", "l_discount"])

    def f(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.greater(batch["l_quantity"], 30.0),
                       pc.less(batch["l_discount"], 0.05))
        t = batch.filter(keep)
        return t.select(["l_orderkey", "l_linenumber", "l_quantity"])

    return ds.map_batches(f, batch_format="pyarrow").to_pandas() \
             .sort_values(["l_orderkey", "l_linenumber"]).reset_index(drop=True)


# ------------------------------------------------------------------ broadcast join
def q_customer_nation(sf_dir: str) -> pd.DataFrame:
    """Broadcast-small-side join (≙ J1/J2 candidate dict probe): nation +
    region are ray.put once, probed per batch — no shuffle."""
    nation = pd.read_parquet(f"{sf_dir}/nation.parquet")
    region = pd.read_parquet(f"{sf_dir}/region.parquet")
    side = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    side_ref = ray.put(dict(zip(side["n_nationkey"].astype("int64"),
                                zip(side["n_name"], side["r_name"]))))

    ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def probe(batch: pa.Table) -> pa.Table:
        lookup = ray.get(side_ref)
        nk = batch["c_nationkey"].to_numpy(zero_copy_only=False)
        names = [lookup[int(k)] for k in nk]
        return pa.table({
            "c_custkey": batch["c_custkey"],
            "n_name": pa.array([a for a, _ in names], pa.string()),
            "r_name": pa.array([b for _, b in names], pa.string()),
            "c_acctbal": batch["c_acctbal"],
        })

    df = bucketed_aggregate(
        ds.map_batches(probe, batch_format="pyarrow"), ["n_name", "r_name"],
        [("total_acctbal", "c_acctbal", "sum"),
         ("n_customers", "c_custkey", "count")], num_buckets=16).to_pandas()
    df["total_acctbal"] = df["total_acctbal"].round(2)
    return df.sort_values(["n_name", "r_name"]).reset_index(drop=True)


def q_orders_customer_join(sf_dir: str) -> pd.DataFrame:
    """Both-sides-large inner join (bucketed co-partition) + grouped
    aggregate."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    j = bucketed_join(orders, cust, "o_custkey", "c_custkey", how="inner",
                      num_buckets=8)
    df = bucketed_aggregate(
        j, ["c_mktsegment"], [("total_price", "o_totalprice", "sum"),
                              ("n_orders", "o_orderkey", "count")],
        num_buckets=16).to_pandas()
    df["total_price"] = df["total_price"].round(2)
    return df.sort_values("c_mktsegment").reset_index(drop=True)


# -------------------------------------------------------------- sort / top-k
def q_top_orders(sf_dir: str) -> pd.DataFrame:
    """Global top-k: a per-batch partial top-k then one final top-k
    (≙ two-stage top-k, reference ``model.py:126-158``)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    out = bucketed_topk(ds, [], [("o_totalprice", "descending"),
                                 ("o_orderkey", "ascending")], 20,
                        num_buckets=1).to_pandas()
    return out[["o_orderkey", "o_totalprice"]]


def q_events_window(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1-hour event-time window per event_type (§2.9 streaming
    analog): vectorized epoch bucketing + one grouped aggregate."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def hour_window(batch: pa.Table) -> pa.Table:
        # µs since epoch → 1h buckets; epochs are post-1970 so truncating
        # int division equals the oracle's floor `//`
        hour = pc.divide(batch["ts"].cast(pa.int64()),
                         pa.scalar(3_600_000_000, pa.int64()))
        return pa.table({"event_type": batch["event_type"],
                         "window_hour": hour, "value": batch["value"]})

    keys = ["event_type", "window_hour"]
    df = bucketed_aggregate(
        ds.map_batches(hour_window, batch_format="pyarrow"), keys,
        [("total_value", "value", "sum"), ("n_events", "value", "count")],
        num_buckets=16).to_pandas()
    df["total_value"] = df["total_value"].round(2)
    return df.sort_values(keys).reset_index(drop=True)


# ------------------------------------------------------------------- distinct
def q_distinct_flags(sf_dir: str) -> pd.DataFrame:
    """Exact distinct via per-batch unique then global dedup (≙ A8 vocab
    build, reference ``data_loader.py:380-390``): a grouped aggregate
    with no aggregates."""
    keys = ["l_returnflag", "l_linestatus"]
    out = bucketed_aggregate(_read(sf_dir, "lineitem", keys), keys, [],
                             num_buckets=16)
    return out.to_pandas().sort_values(keys).reset_index(drop=True)


def q_part_type_stats(sf_dir: str) -> pd.DataFrame:
    """Multi-aggregate groupby with min/max/mean."""
    ds = _read(sf_dir, "part", ["p_type", "p_retailprice", "p_size"])
    df = bucketed_aggregate(
        ds, ["p_type"],
        [("min_price", "p_retailprice", "min"),
         ("max_price", "p_retailprice", "max"),
         ("sum_price", "p_retailprice", "sum"), ("max_size", "p_size", "max"),
         ("n_parts", "p_retailprice", "count")], num_buckets=16).to_pandas()
    for c in ("min_price", "max_price", "sum_price"):
        df[c] = df[c].round(2)
    return df.sort_values("p_type").reset_index(drop=True)


def q_orders_left_join(sf_dir: str) -> pd.DataFrame:
    """LEFT OUTER JOIN driver row (VERDICT r4 missing #3): every customer,
    duplicated per >400k order and null-extended when none exists (nulls
    surfaced as -1 sentinels so the int64 hash compare stays exact, the
    ``asof_join`` convention)."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_totalprice"])

    def big(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["o_totalprice"], 400000.0))

    out = bucketed_join(cust, orders.map_batches(big, batch_format="pyarrow"),
                        "c_custkey", "o_custkey", how="left", num_buckets=16)

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": batch["c_custkey"],
            "c_name": batch["c_name"],
            "o_orderkey": pc.fill_null(batch["o_orderkey"], -1),
            "o_totalprice": pc.fill_null(batch["o_totalprice"], -1.0)})

    df = out.map_batches(fin, batch_format="pyarrow").to_pandas()
    return df.sort_values(["c_custkey", "o_orderkey"]).reset_index(drop=True)


def q_orders_full_join(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER JOIN driver row: customers with c_custkey < 700 against
    >400k orders — unmatched rows surface from BOTH sides (left-only =
    small-key customers without a big order; right-only = big orders of
    custkey ≥ 700), nulls as -1 sentinels."""
    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_totalprice"])

    def small(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["c_custkey"], 700))

    def big(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch["o_totalprice"], 400000.0))

    out = bucketed_join(
        cust.map_batches(small, batch_format="pyarrow"),
        orders.map_batches(big, batch_format="pyarrow"),
        "c_custkey", "o_custkey", how="full", num_buckets=16)

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": pc.fill_null(batch["c_custkey"], -1),
            "o_orderkey": pc.fill_null(batch["o_orderkey"], -1),
            "o_totalprice": pc.fill_null(batch["o_totalprice"], -1.0)})

    df = out.map_batches(fin, batch_format="pyarrow").to_pandas()
    return df.sort_values(["c_custkey", "o_orderkey"]).reset_index(drop=True)


def q_customers_no_orders(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q22 flavor — customers that never placed a large
    (totalprice > 400k) order, via the bucketed anti-join (both sides
    shuffle-co-partitioned; NO broadcast, so the pattern survives two large
    sides). Oracle: NOT EXISTS. (Every customer in this testdata has SOME
    order, so the unfiltered variant would be an empty-result no-op.)"""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def big(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater(batch["o_totalprice"], 400000.0)).select(["o_custkey"])

    out = bucketed_join(cust, orders.map_batches(big, batch_format="pyarrow"),
                        "c_custkey", "o_custkey", how="anti", num_buckets=16)
    return collect(out).to_pandas().sort_values("c_custkey").reset_index(drop=True)


def q_customers_big_orders(sf_dir: str) -> pd.DataFrame:
    """EXISTS companion to ``q_customers_no_orders``: customers with at
    least one >400k order, via the bucketed semi-join."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def big(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater(batch["o_totalprice"], 400000.0)).select(["o_custkey"])

    out = bucketed_join(cust, orders.map_batches(big, batch_format="pyarrow"),
                        "c_custkey", "o_custkey", how="semi", num_buckets=16)
    return collect(out).to_pandas().sort_values("c_custkey").reset_index(drop=True)


def q_revenue_rollup(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP(year, month) over order revenue — month leaves, year
    subtotals, grand total in one result (rolled-up levels carry the -1
    sentinel instead of NULL so the int64 hash compare stays exact). The
    leaf aggregate is the usual grouped aggregate; the rollup
    levels re-aggregate the tiny leaf table, never the input."""
    leaves = _monthly_totals(sf_dir)
    # rollup levels from the (tiny) leaf table — sum in sorted leaf order
    # on BOTH sides so the float partial sums agree bit-for-bit
    leaves = leaves.sort_values(["o_year", "o_month"]).reset_index(drop=True)
    years = leaves.groupby("o_year", sort=True).agg(
        total_price=("total_price", "sum"),
        n_orders=("n_orders", "sum")).reset_index()
    years["o_month"] = np.int64(-1)
    grand = pd.DataFrame({
        "o_year": [np.int64(-1)], "o_month": [np.int64(-1)],
        "total_price": [years.sort_values("o_year")["total_price"].sum()],
        "n_orders": [int(years["n_orders"].sum())]})
    out = pd.concat([leaves, years[leaves.columns], grand[leaves.columns]],
                    ignore_index=True)
    out["total_price"] = out["total_price"].round(2)
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values(["o_year", "o_month"]).reset_index(drop=True)
