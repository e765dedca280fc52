"""The one partial top-k (``state/shuffle.topk_rows`` / ``bucketed_topk``)
against a pandas ``sort_values`` + ``groupby(dropna=False).cumcount()``
model: int, string and float keys with nulls, -0.0 / NaN keys, every k, an
empty table, every batch split and bucket count, and misuse."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

import __ray_entry__ as entrymod
from spel_ray.pipelines import driver_queries as dq
from spel_ray.state.shuffle import bucketed_topk, topk_rows

ORDERS = [[("v", "descending"), ("id", "ascending")],
          [("s", "ascending"), ("w", "descending"), ("id", "descending")]]
KEYS = [[], ["ki"], ["ks"], ["kf"], ["ks", "ki"], ["kf", "ks"]]


def _table(seed: int, n: int) -> pa.Table:
    rng = np.random.default_rng(seed)

    def nulls(p):
        return rng.random(n) < p

    floats = np.array([0.5, -0.0, 0.0, np.nan, -1.5])
    return pa.table({
        "ki": pa.array(rng.integers(-2, 3, n), pa.int64(), mask=nulls(0.1)),
        "ks": pa.array([f"k{i}" for i in rng.integers(0, 4, n)], pa.string(),
                       mask=nulls(0.1)),
        # no null: pandas reads a null float as NaN, one group with NaN
        "kf": pa.array(floats[rng.integers(0, len(floats), n)]),
        "v": pa.array(rng.integers(0, 6, n), pa.int64(), mask=nulls(0.2)),
        "s": pa.array([f"é{i}" for i in rng.integers(0, 3, n)], pa.string(),
                      mask=nulls(0.2)),
        "w": pa.array(rng.integers(-3, 3, n).astype(float)),
        "id": pa.array(rng.permutation(n), pa.int64()),
    })


def _model(t: pa.Table, keys, order, k) -> pd.DataFrame:
    """SQL ``ROW_NUMBER() OVER (PARTITION BY keys ORDER BY order) <= k``,
    rows in (keys, order) order, nulls last."""
    df = t.to_pandas().sort_values(
        keys + [c for c, _ in order],
        ascending=[True] * len(keys) + [d == "ascending" for _, d in order],
        na_position="last")
    rank = (df.groupby(keys, dropna=False, sort=False).cumcount() if keys
            else pd.Series(np.arange(len(df)), index=df.index))
    return df[rank.to_numpy() < k].reset_index(drop=True)


@pytest.mark.parametrize("k", [1, 3, 1000])
@pytest.mark.parametrize("keys", KEYS)
@pytest.mark.parametrize("order", ORDERS)
def test_kernel_matches_pandas_model(keys, order, k):
    t = _table(seed=len(keys) * 7 + k, n=400)
    got = topk_rows(t, keys, order, k)
    assert got.schema == t.schema
    # a column whose kept rows have no null stays int64 (the model: float)
    pd.testing.assert_frame_equal(got.to_pandas(), _model(t, keys, order, k),
                                  check_dtype=False)


def test_kernel_groups_null_and_float_keys_like_sql():
    t = pa.table({"g": pa.array([None, 1, None, 1, 2], pa.int64()),
                  "f": [-0.0, 0.0, float("nan"), -float("nan"), 0.0],
                  "id": pa.array([5, 4, 3, 2, 1], pa.int64())})
    one = [("id", "ascending")]
    assert topk_rows(t, ["g"], one, 1)["id"].to_pylist() == [2, 1, 3]
    # -0.0 / +0.0 are one group, every NaN another
    assert topk_rows(t, ["f"], one, 1)["id"].to_pylist() == [1, 2]
    assert topk_rows(t, [], one, 2)["id"].to_pylist() == [1, 2]


def test_kernel_on_an_empty_table_is_typed():
    t = _table(seed=1, n=10).slice(0, 0)
    for keys in KEYS:
        got = topk_rows(t, keys, ORDERS[0], 3)
        assert got.num_rows == 0 and got.schema == t.schema


@pytest.mark.parametrize("keys", [[], ["ks", "ki"]])
def test_bucketed_topk_invariant_to_blocks_and_buckets(keys):
    t = _table(seed=11, n=500)
    order = ORDERS[0]
    want = _model(t, keys, order, 3)
    for blocks in (1, 3, 7):
        for buckets in (1, 4, 16):
            ds = rd.from_arrow(t, override_num_blocks=blocks)
            out = bucketed_topk(ds, keys, order, 3, num_buckets=buckets)
            got = topk_rows(pa.concat_tables(
                [t.slice(0, 0), *out.iter_batches(batch_size=None,
                                                  batch_format="pyarrow")]),
                keys, order, 3)
            pd.testing.assert_frame_equal(got.to_pandas(), want,
                                          check_dtype=False)


@pytest.mark.parametrize("kw, match", [
    ({"k": 0}, r"got 0\)"),
    ({"order": [("v", "desc")]}, r"got \['desc'\]"),
    ({"order": [("nope", "ascending")]}, r"missing \['nope'\]"),
    ({"keys": ["nope"]}, r"missing \['nope'\]"),
])
def test_misuse_raises_on_the_driver(kw, match):
    ds = rd.from_arrow(_table(seed=2, n=10))
    args = {"keys": ["ki"], "order": ORDERS[0], "k": 2, **kw}
    with pytest.raises(ValueError, match=match):
        bucketed_topk(ds, args["keys"], args["order"], args["k"],
                      num_buckets=4)


def test_topk_per_group_keeps_null_flags(tmp_path):
    """A NULL l_returnflag is a group of its own, as in the registry's
    ``PARTITION BY l_returnflag`` oracle."""
    rng = np.random.default_rng(3)
    n = 40
    flags = [["A", "N", "R", None][i] for i in rng.integers(0, 4, n)]
    pq.write_table(pa.table({
        "l_orderkey": pa.array(np.arange(n) // 4, pa.int64()),
        "l_linenumber": pa.array(np.arange(n) % 4, pa.int32()),
        "l_extendedprice": rng.integers(1, 5, n).astype(float),
        "l_returnflag": pa.array(flags, pa.string()),
    }), tmp_path / "lineitem.parquet")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"read_parquet('{tmp_path}/lineitem.parquet')")
    cols = ["l_orderkey", "l_linenumber"]
    oracle = con.execute(entrymod.oracle_sql()["topk_per_group"]).fetchdf() \
        .sort_values(cols).reset_index(drop=True)
    mine = dq.q_topk_per_group(str(tmp_path)).sort_values(cols) \
        .reset_index(drop=True)
    assert oracle["l_returnflag"].isna().sum() == 3
    pd.testing.assert_frame_equal(mine[oracle.columns], oracle,
                                  check_dtype=False)
