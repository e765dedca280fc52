"""Bucketed shuffle — the engine's one wide exchange, and the grouped
aggregate, top-k and joins built on it.

Primitives (no other module shuffles, tags, aggregates, ranks or joins by
hand):

- ``add_bucket_column`` — THE bucket hash: one key column or a list of them
  (int-like, float or string) → uniform id in ``[0, num_buckets)``.
- ``bucketed_groupby(ds, key, fn)`` — the only exchange: key →
  ``hash(key) % num_buckets`` → one sort shuffle on the small bucket id →
  ``fn`` receives an entire bucket as ONE Arrow table, handles all its
  groups vectorized and returns an Arrow table (the one block format).
  ``groupby(key).map_groups(fn)`` would call ``fn`` once per distinct key;
  with millions of tiny groups (LSH blocks, pair keys, graph nodes) that
  per-group Python overhead dominates.
- ``bucketed_aggregate(ds, keys, aggs)`` — SQL ``GROUP BY`` with
  decomposable aggregates (sum / min / max / COUNT(*)): the Ray-free Arrow
  kernel ``merge_bucket`` runs once per input batch as the partial, then
  once per bucket with the partials' merge functions as the final
  (≙ metric partial + final, reference ``decao_eval.py:1185-1202``).
- ``bucketed_topk(ds, keys, order, k)`` — SQL ``ROW_NUMBER() OVER
  (PARTITION BY keys ORDER BY order) <= k``: the Ray-free Arrow kernel
  ``topk_rows`` runs once per input batch as the partial, then once per
  bucket as the final (≙ per-batch top-k → global top-k, reference
  ``model.py:126-158``). ``keys=[]`` is a global top-k. Its ordering
  step, ``row_numbers``, is SQL ``ROW_NUMBER()`` for in-bucket windows.
- ``cogroup(left, right, left_on, right_on, fn)`` — co-partitions two
  datasets on an integer key: ``fn(left_tbl, right_tbl)`` runs once per
  bucket, each side under its own column names.
- ``bucketed_join(..., how=inner|left|full|semi|anti)`` — SQL joins as a
  ``cogroup`` whose per-bucket kernel is the Ray-free ``join_bucket``.
- ``collect(ds, schema)`` — the only driver gather: every row of a dataset
  as one Arrow table, typed even when there are no rows, or None once more
  than ``limit`` rows have arrived.
- ``stable_str_hash`` / ``pair_key`` — cross-process-stable key helpers.

Exchange properties:

- uniformity: keys are already uint64 hashes, so ``key % B`` load-balances;
- skew: a single hot key still lands in one bucket — per-key work is bounded
  by the caller's cap (see pairs.py), never by data size;
- sizing: ``num_buckets`` scales with input size so one bucket fits a task's
  heap (rows_per_bucket ≈ total_rows / B). At cluster scale set
  B ≈ 2-4 × total_cores.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

_MIX = np.uint64(0x9E3779B97F4A7C15)

JOIN_KINDS = ("inner", "left", "full", "semi", "anti")
# the column names a cogroup puts on the wire; payload may not use them
_RESERVED = ("_bucket", "_key", "_l", "_r")


def _canon_float(col: pa.Array) -> pa.Array:
    """Fold -0.0 into +0.0 and every NaN into one NaN: floats that SQL
    groups together share one bit pattern, so they hash and group alike."""
    col = pc.add(col, pa.scalar(0, col.type))
    return pc.if_else(pc.is_nan(col), pa.scalar(np.nan, col.type), col)


def _key_u64(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return stable_str_hash(col.to_pylist()).view(np.uint64)
    if pa.types.is_floating(col.type):
        col = _canon_float(col).cast(pa.float64()).fill_null(0.0)
        return np.asarray(col).view(np.uint64)
    if col.type != pa.int64() or col.null_count:
        col = col.cast(pa.int64()).fill_null(0)
    return np.asarray(col).view(np.uint64)


def add_bucket_column(batch: pa.Table, key: str | list[str],
                      num_buckets: int) -> pa.Table:
    """Append ``_bucket``: a uniform id in [0, num_buckets) hashed from one
    key column or a combined hash of several. Bucketing only needs
    co-location (all rows of a group in one bucket), so a null hashes like
    0 / the empty string. A single non-null int64 key is read with no cast
    or copy — the flagship's hot shuffle."""
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    for c in [key] if isinstance(key, str) else key:
        h ^= _key_u64(batch[c])
        h *= _MIX
        h ^= h >> np.uint64(29)
    bucket = (h % np.uint64(num_buckets)).astype(np.int64)
    return batch.append_column("_bucket", pa.array(bucket, pa.int64()))


def bucketed_groupby(
    ds: ray.data.Dataset,
    key: str | list[str],
    fn: Callable,
    *,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Shuffle rows by hash(key) into ``num_buckets`` groups; ``fn`` gets each
    bucket as one Arrow table (bucket column removed), must itself group by
    ``key`` vectorized and returns an Arrow table. Every group lands wholly
    in one bucket, so per-bucket work is final; a GROUP BY with sum / min /
    max / count is :func:`bucketed_aggregate`.

    Raises TypeError, naming ``fn``, when ``fn`` returns anything other than
    a ``pa.Table``."""
    with_bucket = ds.map_batches(
        partial(add_bucket_column, key=key, num_buckets=num_buckets),
        batch_format="pyarrow", zero_copy_batch=True)

    def run(bucket: pa.Table) -> pa.Table:
        out = fn(bucket.drop_columns(["_bucket"]))
        if not isinstance(out, pa.Table):
            raise TypeError(f"bucket function {run.__name__!r} returned "
                            f"{type(out).__name__}, not a pyarrow.Table")
        return out

    return with_bucket.groupby("_bucket").map_groups(
        _named(run, fn), batch_format="pyarrow")


def with_schema(ds: ray.data.Dataset, schema: pa.Schema) -> ray.data.Dataset:
    """``ds`` plus one typed 0-row block. Ray passes a 0-row block through
    ``map_batches`` without calling the UDF and without its columns, so an
    operator whose result has no rows would otherwise have no schema."""
    return ds.union(ray.data.from_arrow(schema.empty_table()))


def collect(ds: ray.data.Dataset, schema: pa.Schema | None = None, *,
            limit: int | None = None) -> pa.Table | None:
    """Every row of ``ds`` as one Arrow table of ``schema`` on the driver
    (its columns selected and cast; a batch whose types already match is
    kept as is, zero-copy), or None at the first batch that takes the row
    count past ``limit`` — no further batch is pulled. ``schema=None`` is
    the dataset's own: the batches' unified schema, else the one Ray knows
    or fetches (column-less only when Ray knows none). 0-row blocks, which
    may arrive without columns, are skipped."""
    parts, n = [], 0
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        n += b.num_rows
        if limit is not None and n > limit:
            return None
        if b.num_rows:
            parts.append(b)
    if schema is None:
        if parts:
            schema = pa.unify_schemas([p.schema for p in parts])
        else:
            own = ds.schema()
            schema = own.base_schema if own is not None and isinstance(
                own.base_schema, pa.Schema) else pa.schema([])
    return pa.concat_tables([schema.empty_table()] + [
        p if p.schema == schema else p.select(schema.names).cast(schema)
        for p in parts])


def _named(run: Callable, fn: Callable) -> Callable:
    """Name the bucket wrapper ``run`` after the caller's ``fn`` (a
    ``partial`` unwrapped): Ray names a map_groups operator after its
    function, so the exchange reads ``MapBatches(<fn>)`` in a plan's stats
    instead of one anonymous ``MapBatches(run)`` per exchange."""
    base = fn.func if isinstance(fn, partial) else fn
    run.__name__ = getattr(base, "__name__", run.__name__)
    return run


# ------------------------------------------------------------ aggregate
# partial fn → the fn that merges its partials (COUNT(*) partials are summed)
_MERGE = {"sum": "sum", "min": "min", "max": "max", "count": "sum"}


def _row_order(schema: pa.Schema, keys: list[str]) -> list[str]:
    """``keys`` in the order Arrow's row encoder lays them out: wider
    fixed-width keys first, a variable-length key (a 4-byte offset) after a
    4-byte fixed one, bool last. pyarrow 16's grouper misplaces null keys
    when given any other order (a string key before an int64 key splits one
    ``(NULL, 1)`` group in two), so :func:`merge_bucket` groups in this
    order."""
    def width(k: str) -> tuple[int, bool]:
        try:
            return -(schema.field(k).type.bit_width // 8), False
        except ValueError:              # variable-length
            return -4, True
    return sorted(keys, key=width)


def _canon_keys(t: pa.Table, keys: list[str]) -> pa.Table:
    """``t`` with its float key columns canonical (:func:`_canon_float`)."""
    for k in keys:
        if pa.types.is_floating(t.schema.field(k).type):
            t = t.set_column(t.schema.get_field_index(k), k,
                             _canon_float(t[k].combine_chunks()))
    return t


def merge_bucket(t: pa.Table, keys: list[str], aggs) -> pa.Table:
    """One Arrow ``GROUP BY keys`` of a batch or bucket, Ray-free. ``aggs``:
    ``(output, input column, fn)`` triples, ``fn`` one of ``sum`` / ``min``
    / ``max`` / ``count`` (COUNT(*)). Output: the keys, then the outputs in
    ``aggs`` order; a null key is its own group, float keys group -0.0 with
    +0.0 and NaN with NaN. Typed even when ``t`` is empty."""
    t = _canon_keys(t, keys)
    # Arrow names each aggregate column {col}_{fn}; one per distinct name
    names = ["count_all" if fn == "count" else f"{col}_{fn}"
             for _, col, fn in aggs]
    specs = {n: ([], "count_all") if fn == "count" else (col, fn)
             for n, (_, col, fn) in zip(names, aggs)}
    g = t.group_by(_row_order(t.schema, keys), use_threads=False) \
         .aggregate(list(specs.values()))
    return pa.table([g[k] for k in keys] + [g[n] for n in names],
                    names=keys + [out for out, _, _ in aggs])


def bucketed_aggregate(ds: ray.data.Dataset, keys: list[str], aggs, *,
                       num_buckets: int) -> ray.data.Dataset:
    """SQL ``SELECT keys, aggs GROUP BY keys`` in one exchange:
    :func:`merge_bucket` pre-aggregates every input batch, the partials
    shuffle on ``keys``, and :func:`merge_bucket` with each partial's merge
    function (sum→sum, count→sum, min→min, max→max) finalizes each bucket.
    Empty ``aggs`` is ``SELECT DISTINCT keys``. The result is Arrow-typed.

    Raises ValueError (on the driver) for an aggregate other than sum, min,
    max or count."""
    for _, _, fn in aggs:
        if fn not in _MERGE:
            raise ValueError(f"aggregate fn must be one of {sorted(_MERGE)}, "
                             f"got {fn!r}")
    final = [(out, out, _MERGE[fn]) for out, _, fn in aggs]
    parts = ds.map_batches(partial(merge_bucket, keys=keys, aggs=aggs),
                           batch_format="pyarrow")
    return bucketed_groupby(parts, keys,
                            partial(merge_bucket, keys=keys, aggs=final),
                            num_buckets=num_buckets)


# ------------------------------------------------------------ top-k
def row_numbers(t: pa.Table, keys: list[str], order
                ) -> tuple[pa.Array, np.ndarray]:
    """SQL ``ROW_NUMBER() OVER (PARTITION BY keys ORDER BY order) - 1``,
    Ray-free: ``(idx, rank)`` with ``idx`` the row positions of ``t`` in
    ``(keys, order)`` order and ``rank[i]`` the 0-based rank of row
    ``idx[i]`` in its group (a group starts where ``rank == 0``). ``order``
    is ``(column, "ascending" | "descending")`` pairs; ``keys=[]`` is one
    group. Keys group like :func:`merge_bucket`'s; nulls in an ``order``
    column sort last (a NaN just before them). End ``order`` with a unique
    column: a total order makes the result partitioning-free."""
    canon = _canon_keys(t, keys)
    idx = pc.sort_indices(canon, sort_keys=[(c, "ascending") for c in keys]
                          + list(order), null_placement="at_end")
    # a group starts where any key's (null-aware) dictionary code changes
    start = np.zeros(len(idx), dtype=bool)
    start[:1] = True
    for c in keys:
        col = canon[c].take(idx).combine_chunks()
        code = np.asarray(
            pc.dictionary_encode(col, null_encoding="encode").indices)
        start[1:] |= code[1:] != code[:-1]
    pos = np.arange(len(idx))
    return idx, pos - np.maximum.accumulate(np.where(start, pos, 0))


def topk_rows(t: pa.Table, keys: list[str], order, k: int) -> pa.Table:
    """The first ``k`` rows of each distinct ``keys`` tuple under ``order``
    (:func:`row_numbers` rank < ``k``), Ray-free, in ``(keys, order)`` order
    and typed even when empty; ``keys=[]`` is one global top-k."""
    idx, rank = row_numbers(t, keys, order)
    return t.take(idx.filter(pa.array(rank < k)))


def bucketed_topk(ds: ray.data.Dataset, keys: list[str], order, k: int, *,
                  num_buckets: int) -> ray.data.Dataset:
    """SQL ``QUALIFY ROW_NUMBER() OVER (PARTITION BY keys ORDER BY order)
    <= k`` in one exchange: :func:`topk_rows` cuts every batch, the partials
    shuffle on ``keys`` (all to bucket 0 when ``keys=[]``), and
    :func:`topk_rows` finalizes each bucket. Blocks are Arrow, each in
    ``(keys, order)`` order. Raises ValueError (on the driver) for k < 1, a
    direction other than ascending / descending, or a column the dataset's
    known schema lacks."""
    sch = ds.schema(fetch_if_missing=False)
    missing = sorted(set(keys + [c for c, _ in order]) - set(sch.names)) \
        if sch is not None else []
    bad = [d for _, d in order if d not in ("ascending", "descending")]
    if k < 1 or bad or missing:
        raise ValueError(f"bucketed_topk needs k >= 1 (got {k}), ascending "
                         f"or descending (got {bad}) and known columns "
                         f"(missing {missing})")
    fn = partial(topk_rows, keys=keys, order=order, k=k)
    return bucketed_groupby(ds.map_batches(fn, batch_format="pyarrow"), keys,
                            fn, num_buckets=num_buckets)


# ------------------------------------------------------------ two-sided
def _identity(batch: pa.Table) -> pa.Table:
    return batch


def _row_type(ds: ray.data.Dataset) -> pa.StructType | None:
    """A side's row as a nullable Arrow struct type. Free when Ray knows the
    schema statically (parquet reads, ``from_arrow``, materialized data);
    otherwise one ``limit(1)`` run of the side's plan, typed by Arrow even
    for pandas-backed blocks. None: an empty side Ray cannot type."""
    sch = ds.schema(fetch_if_missing=False)
    if sch is None or not isinstance(sch.base_schema, pa.Schema):
        sch = ds.map_batches(_identity, batch_format="pyarrow").schema()
    if sch is None:         # no rows: only the schema a source declares
        sch = ds.schema()
    if sch is None or not isinstance(sch.base_schema, pa.Schema):
        return None
    return pa.struct([f.with_nullable(True) for f in sch.base_schema])


def _validate(ltype: pa.StructType | None, rtype: pa.StructType | None,
              left_on: str, right_on: str, merged: bool) -> None:
    """Every misuse check of cogroup / bucketed_join, on the driver, before
    any task runs. ``merged``: the output puts both sides' columns side by
    side (inner/left/full), so they must not overlap."""
    for side, typ, key in (("left", ltype, left_on),
                           ("right", rtype, right_on)):
        if typ is None:
            raise ValueError(f"{side} side is empty and has no schema")
        names = [f.name for f in typ]
        for c in names:
            if c in _RESERVED:
                raise ValueError(f"{side} column {c!r} is reserved by the "
                                 f"exchange ({', '.join(_RESERVED)})")
        if key not in names:
            raise ValueError(f"{side} key {key!r} is not a column of {names}")
        if not pa.types.is_integer(typ.field(key).type):
            raise ValueError(f"{side} key {key!r} must be integer-typed, "
                             f"got {typ.field(key).type}")
    if merged:
        overlap = sorted({f.name for f in ltype}
                         & {f.name for f in rtype if f.name != right_on})
        if overlap:
            raise ValueError(f"left and right output columns overlap: "
                             f"{overlap}")


def _cogroup(left: ray.data.Dataset, ltype: pa.StructType,
             right: ray.data.Dataset, rtype: pa.StructType,
             left_on: str, right_on: str, fn: Callable,
             num_buckets: int) -> ray.data.Dataset:
    """Each side's row packs into ONE nullable struct column (``_l`` /
    ``_r``): same-named columns on the two sides never collide, and the
    other side is a single null column instead of one per payload column.
    The bucket key ``_key`` is the join key with NULL co-located at 0; the
    kernel sees the original, nullable key inside the struct."""
    def tag(key: str, own: pa.StructType, other: pa.StructType, is_left: bool):
        def f(batch: pa.Table) -> pa.Table:
            row = pa.StructArray.from_arrays(
                [batch[c.name].combine_chunks().cast(c.type) for c in own],
                fields=list(own))
            null = pa.nulls(batch.num_rows, other)
            return pa.table({
                "_key": pc.fill_null(pc.cast(batch[key], pa.int64()), 0),
                "_l": row if is_left else null,
                "_r": null if is_left else row})
        return f

    def side(t: pa.Table, col: str) -> pa.Table:
        s = t[col]
        return pa.Table.from_struct_array(
            s.filter(pc.is_valid(s)).combine_chunks())

    both = left.map_batches(tag(left_on, ltype, rtype, True),
                            batch_format="pyarrow").union(
        right.map_batches(tag(right_on, rtype, ltype, False),
                          batch_format="pyarrow"))

    def run(t: pa.Table):
        return fn(side(t, "_l"), side(t, "_r"))

    return bucketed_groupby(both, "_key", _named(run, fn),
                            num_buckets=num_buckets)


def cogroup(left: ray.data.Dataset, right: ray.data.Dataset,
            left_on: str, right_on: str, fn: Callable, *,
            num_buckets: int = 64) -> ray.data.Dataset:
    """Co-partition two datasets on an integer key in ONE exchange:
    ``fn(left_tbl, right_tbl)`` runs once per bucket with every left and
    every right row whose key hashes there, each side an Arrow table under
    its own column names (typed even when a side has no rows in the bucket),
    and returns that bucket's output as an Arrow table. NULL keys of both
    sides share one bucket; matching semantics are ``fn``'s.

    Raises ValueError (on the driver) for a reserved column name, a missing
    or non-integer key, or a side that is empty with no schema; TypeError
    (from the bucket task) when ``fn`` returns anything but a
    ``pa.Table``."""
    ltype, rtype = _row_type(left), _row_type(right)
    _validate(ltype, rtype, left_on, right_on, merged=False)
    return _cogroup(left, ltype, right, rtype, left_on, right_on, fn,
                    num_buckets)


def bucketed_join(left: ray.data.Dataset, right: ray.data.Dataset,
                  left_on: str, right_on: str, *, how: str = "inner",
                  num_buckets: int = 64) -> ray.data.Dataset:
    """SQL join of two arbitrarily large datasets on an integer key: one
    co-partition exchange (no broadcast), then ``join_bucket`` per bucket.

    Output: left columns + right columns except ``right_on`` (semi/anti:
    left columns only); nulls are typed. A NULL key matches nothing.
    semi/anti ship only each right batch's distinct keys. An empty left
    that Ray cannot type yields itself (nothing can match) unless
    ``how="full"``."""
    if how not in JOIN_KINDS:
        raise ValueError(f"how must be one of {JOIN_KINDS}, got {how!r}")
    ltype = _row_type(left)
    if ltype is None and how != "full":
        return left
    rtype = _row_type(right)
    _validate(ltype, rtype, left_on, right_on,
              merged=how in ("inner", "left", "full"))
    if how in ("semi", "anti"):
        right = right.map_batches(
            partial(merge_bucket, keys=[right_on], aggs=[]),
            batch_format="pyarrow")
        rtype = pa.struct([rtype.field(right_on)])
    return _cogroup(left, ltype, right, rtype, left_on, right_on,
                    partial(join_bucket, left_on=left_on, right_on=right_on,
                            how=how),
                    num_buckets)


def _int_keys(col) -> tuple[np.ndarray, np.ndarray]:
    col = pc.cast(col, pa.int64())
    return (np.asarray(pc.fill_null(col, 0), dtype=np.int64),
            np.asarray(pc.is_null(col), dtype=bool))


def join_bucket(left: pa.Table, right: pa.Table, left_on: str,
                right_on: str, how: str) -> pa.Table:
    """One co-partitioned bucket of :func:`bucketed_join`, Ray-free: a
    vectorized sorted-key range join (stable argsort of the right keys,
    searchsorted + repeat — no per-row Python). SQL semantics: a NULL key
    matches nothing; ``left``/``full``/``anti`` keep unmatched (incl.
    NULL-keyed) left rows, ``full`` also unmatched right rows, with the
    other side's columns null."""
    lkeys, lnull = _int_keys(left[left_on])
    rkeys, rnull = _int_keys(right[right_on])
    valid = np.flatnonzero(~rnull)
    order = valid[np.argsort(rkeys[valid], kind="stable")]
    rk = rkeys[order]
    lo = np.searchsorted(rk, lkeys, side="left")
    cnt = np.where(lnull, 0, np.searchsorted(rk, lkeys, side="right") - lo)
    if how in ("semi", "anti"):
        return left.filter(pa.array((cnt > 0) == (how == "semi")))
    rep = cnt if how == "inner" else np.maximum(cnt, 1)  # miss → one row
    hit = np.repeat(cnt > 0, rep)
    offs = (np.arange(rep.sum(), dtype=np.int64)
            - np.repeat(np.cumsum(rep) - rep, rep))
    # a miss row points nowhere: guard the gather when order is empty
    rtake = (order[np.where(hit, np.repeat(lo, rep) + offs, 0)] if len(order)
             else np.zeros(len(hit), np.int64))
    payload = right.drop_columns([right_on])
    cols = (left.take(np.repeat(np.arange(left.num_rows), rep)).columns
            + payload.take(pa.array(rtake, pa.int64(), mask=~hit)).columns)
    out = pa.Table.from_arrays(cols, names=left.column_names
                               + payload.column_names)
    if how != "full":
        return out
    r_hit = np.isin(rkeys, lkeys[~lnull]) & ~rnull
    extra = payload.take(np.flatnonzero(~r_hit))
    extra = pa.Table.from_arrays(
        [pa.nulls(extra.num_rows, f.type) for f in left.schema]
        + extra.columns, names=out.column_names)
    return pa.concat_tables([out, extra])


def stable_str_hash(values) -> np.ndarray:
    """(n,) int64 cross-process-stable hash of a string sequence (crc32) —
    THE bucket key for string-keyed shuffles. Python's ``hash()`` is
    per-process (PYTHONHASHSEED) and would split one key across buckets;
    None hashes like the empty string."""
    from zlib import crc32

    vals = list(values)
    return np.fromiter((crc32((v or "").encode()) for v in vals),
                       dtype=np.int64, count=len(vals))


def pair_key(id_lo: np.ndarray, id_hi: np.ndarray) -> np.ndarray:
    """Deterministic int64 hash of an id pair (the order-independent edge
    checksum of connected components)."""
    a = id_lo.astype(np.int64).view(np.uint64) * _MIX
    b = id_hi.astype(np.int64).view(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    h = a ^ (b >> np.uint64(1))
    h ^= h >> np.uint64(31)
    return h.view(np.int64)
