"""The one grouped aggregate (``state/shuffle.bucketed_aggregate``) against a
dict-fold model: int, string and multi-column keys with nulls, every fn,
every batch split and bucket count."""

import math
import operator

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from spel_ray.state.shuffle import (add_bucket_column, bucketed_aggregate,
                                    merge_bucket)

AGGS = [("total", "x", "sum"), ("lo", "y", "min"), ("hi", "x", "max"),
        ("n", "x", "count"), ("hi_y", "y", "max")]
_OPS = {"sum": operator.add, "min": min, "max": max}


def _table(seed: int, n: int) -> pa.Table:
    rng = np.random.default_rng(seed)

    def nulls(p):
        return rng.random(n) < p

    return pa.table({
        "k": pa.array(rng.integers(-3, 4, n), pa.int64(), mask=nulls(0.1)),
        "s": pa.array([f"s{i}" for i in rng.integers(0, 5, n)], pa.string(),
                      mask=nulls(0.1)),
        # integer-valued floats: every summation order gives the same sum
        "x": pa.array(rng.integers(-50, 50, n).astype(float),
                      mask=nulls(0.2)),
        "y": pa.array(rng.integers(-9, 9, n), pa.int32(), mask=nulls(0.2)),
    })


def _fold(t: pa.Table, keys, aggs) -> dict:
    """SQL GROUP BY model: a null key is its own group; sum / min / max skip
    nulls (all-null → None); count is COUNT(*)."""
    out: dict = {}
    for r in t.to_pylist():
        acc = out.setdefault(tuple(r[k] for k in keys),
                             {o: None for o, _, _ in aggs})
        for o, col, fn in aggs:
            v = r[col]
            if fn == "count":
                acc[o] = (acc[o] or 0) + 1
            elif v is not None:
                acc[o] = v if acc[o] is None else _OPS[fn](acc[o], v)
    return out


def _as_dict(rows: list[dict], keys) -> dict:
    return {tuple(r.pop(k) for k in keys): r for r in rows}


# ["s", "k"]: a string key before an int key, the order pyarrow 16's
# grouper mishandles for null keys unless merge_bucket reorders them
@pytest.mark.parametrize("keys", [["k"], ["s"], ["s", "k"], ["k", "s"]])
@pytest.mark.parametrize("blocks", [1, 13])
def test_matches_a_dict_fold(keys, blocks):
    t = _table(seed=len(keys) * 31 + blocks, n=600)
    ds = rd.from_arrow(t, override_num_blocks=blocks)
    rows = bucketed_aggregate(ds, keys, AGGS, num_buckets=7).take_all()
    assert list(rows[0]) == keys + [o for o, _, _ in AGGS]
    got = _as_dict(rows, keys)
    assert got == _fold(t, keys, AGGS)
    assert None in {k[0] for k in got}                  # null group kept


def test_arrow_types_and_distinct():
    t = _table(seed=5, n=300)
    out = bucketed_aggregate(rd.from_arrow(t), ["k", "s"], AGGS,
                             num_buckets=4).materialize()
    schema = out.schema().base_schema
    assert schema.field("k").type == pa.int64()
    assert schema.field("lo").type == pa.int32()     # min keeps the type
    assert schema.field("total").type == pa.float64()
    assert schema.field("n").type == pa.int64()
    distinct = bucketed_aggregate(rd.from_arrow(t), ["k", "s"], [],
                                  num_buckets=4).to_pandas()
    assert list(distinct.columns) == ["k", "s"]
    assert len(distinct) == len(_fold(t, ["k", "s"], []))


def test_same_result_at_every_bucket_count():
    t = _table(seed=9, n=500)
    ds = rd.from_arrow(t, override_num_blocks=5)

    def run(b):
        df = bucketed_aggregate(ds, ["s", "k"], AGGS,
                                num_buckets=b).to_pandas()
        return df.sort_values(["s", "k"]).reset_index(drop=True)

    base = run(1)
    for b in (7, 64):
        pd.testing.assert_frame_equal(run(b), base)


def test_empty_input():
    t = _table(seed=1, n=10).slice(0, 0)
    out = bucketed_aggregate(rd.from_arrow(t), ["k"], AGGS, num_buckets=4)
    assert out.count() == 0


@pytest.mark.parametrize("fn", ["mean", "count_distinct"])
def test_rejects_non_decomposable_fns(fn):
    ds = rd.from_arrow(_table(seed=2, n=10))
    with pytest.raises(ValueError, match="aggregate fn"):
        bucketed_aggregate(ds, ["k"], [("m", "x", fn)], num_buckets=4)


def test_float_keys_hash_and_group_like_sql():
    """0.5, -0.0 / +0.0 and NaN keys: the bucket hash accepts floats (no
    int64 cast), -0.0 groups and buckets with +0.0, every NaN with NaN."""
    nan = float("nan")
    neg_nan = -np.float64("nan")
    keys = [0.5, -0.0, 0.0, nan, neg_nan, 0.5, 0.0, -0.0, nan] * 3
    t = pa.table({"k": pa.array(keys, pa.float64()),
                  "v": pa.array(range(len(keys)), pa.int64())})
    b = np.asarray(add_bucket_column(t, "k", 7)["_bucket"])
    assert len(set(b[[1, 2, 6, 7]])) == 1 and len(set(b[[3, 4, 8]])) == 1

    model = (t.to_pandas().groupby("k", dropna=False, sort=True)
             .agg(s=("v", "sum"), n=("v", "size")).reset_index())
    for nb in (1, 7, 64):
        got = bucketed_aggregate(
            rd.from_arrow(t, override_num_blocks=4), ["k"],
            [("s", "v", "sum"), ("n", "v", "count")],
            num_buckets=nb).to_pandas().sort_values("k").reset_index(drop=True)
        assert len(got) == 3
        assert not any(math.copysign(1, k) < 0 for k in got["k"]
                       if not math.isnan(k))
        pd.testing.assert_frame_equal(got, model, check_dtype=False)


def test_kernel_groups_null_keys_in_any_key_order():
    """Ray-free: every order of mixed-width nullable keys gives one row per
    distinct key tuple (pyarrow 16's grouper alone does not)."""
    import itertools

    rng = np.random.default_rng(4)
    n = 300

    def col(values, typ):
        return pa.array([values[i] for i in rng.integers(0, len(values), n)],
                        typ)

    t = pa.table({"b": col([True, False, None], pa.bool_()),
                  "i4": col([7, 8, None], pa.int32()),
                  "s": col(["a", "bb", None], pa.string()),
                  "i8": col([1, 2, None], pa.int64()),
                  "f": col([0.5, None], pa.float64())})
    for keys in itertools.permutations(t.column_names, 3):
        keys = list(keys)
        got = merge_bucket(t, keys, [("n", "b", "count")])
        assert got.column_names == keys + ["n"]
        assert got.num_rows == len(_fold(t, keys, []))
        assert sum(got["n"].to_pylist()) == n
