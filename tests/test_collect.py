"""collect — the one driver gather (state/shuffle.py)."""

import pyarrow as pa
import pytest
import ray.data as rd

from spel_ray.state.shuffle import collect

SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.string())])


class _Batches:
    """A dataset stand-in: ``iter_batches`` yields ``batches`` lazily, so a
    test can see how many of them a gather pulled."""

    def __init__(self, batches, schema=None):
        self.batches, self.own = batches, schema

    def iter_batches(self, **_):
        return iter(self.batches)

    def schema(self):
        return self.own


def _rows(lo, hi):
    return pa.table({"a": pa.array(range(lo, hi), pa.int64()),
                     "b": pa.array([str(i) for i in range(lo, hi)])})


def test_skips_columnless_empty_block():
    ds = _Batches([_rows(0, 2), pa.table({}), _rows(2, 3)])
    out = collect(ds, SCHEMA)
    assert out.schema == SCHEMA and out["a"].to_pylist() == [0, 1, 2]
    assert collect(ds).equals(out)


def test_all_empty_is_typed():
    typed = rd.from_arrow(SCHEMA.empty_table())
    assert collect(typed).schema == SCHEMA
    assert collect(typed, SCHEMA).num_rows == 0

    def drop_all(t: pa.Table) -> pa.Table:
        return t.filter(pa.array([False] * t.num_rows))

    # a map that keeps no row: Ray cannot type the result, the schema can
    nothing = rd.from_arrow(_rows(0, 5)).map_batches(drop_all,
                                                     batch_format="pyarrow")
    out = collect(nothing, SCHEMA)
    assert out.num_rows == 0 and out.schema == SCHEMA
    assert collect(_Batches([pa.table({})]), SCHEMA).schema == SCHEMA


def test_limit_stops_at_the_first_batch_past_it():
    pulled = []

    def batch(i):
        pulled.append(i)
        return _rows(3 * i, 3 * i + 3)

    assert collect(_Batches(map(batch, range(5))), SCHEMA, limit=4) is None
    assert pulled == [0, 1]              # the 3rd batch is never pulled
    pulled.clear()
    out = collect(_Batches(map(batch, range(5))), SCHEMA, limit=15)
    assert out.num_rows == 15 and pulled == [0, 1, 2, 3, 4]
    assert collect(rd.range(10), limit=9) is None
    assert collect(rd.range(10), limit=10).num_rows == 10


def test_casts_and_selects_else_zero_copy():
    narrow = pa.table({"b": pa.array(["x"]), "a": pa.array([7], pa.int32()),
                       "extra": pa.array([1.5])})
    out = collect(_Batches([narrow, _rows(0, 1)]), SCHEMA)
    assert out.schema == SCHEMA
    assert out.to_pylist() == [{"a": 7, "b": "x"}, {"a": 0, "b": "0"}]

    src = _rows(0, 4)
    out = collect(_Batches([src]), SCHEMA)
    assert out["a"].chunks[-1].buffers()[1].address \
        == src["a"].chunks[0].buffers()[1].address


def test_uncastable_batch_raises():
    bad = pa.table({"a": pa.array(["not an int"]), "b": pa.array(["x"])})
    with pytest.raises(pa.ArrowInvalid):
        collect(_Batches([bad]), SCHEMA)
