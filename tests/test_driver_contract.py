"""Driver-contract conformance: queries() vs oracle_sql() on sf0.001 —
a fast local mirror of the driver's CORRECTNESS harness."""

import os

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entrymod
from spel_ray.state.shuffle import bucketed_join

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * "
                  f"FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    if not isinstance(df, pd.DataFrame):
        df = df.to_pandas()
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    for c in df.columns:
        if df[c].dtype.kind in "iu":
            df[c] = df[c].astype("int64")
        elif df[c].dtype.kind == "f":
            df[c] = df[c].round(6)
    return df


def test_every_oracle_has_a_query():
    qs = entrymod.queries()
    assert set(entrymod.oracle_sql()) <= set(qs)


# fast, representative subset (the full matrix runs in the driver)
ORACLED = ["lineitem_agg", "filter_project", "top_orders", "distinct_flags",
           "union_names", "sessionize", "token_counts", "doc_lengths",
           "ann_topk", "events_window", "asof_join", "train_split",
           "blocking_quality", "cluster_sizes", "linkage_docs_incremental",
           "sorted_neighborhood", "customers_no_orders",
           "customers_big_orders", "event_gaps", "gopher_rules",
           "running_revenue", "revenue_rollup", "exact_dedup_docs",
           "order_ranks", "tfidf_top_terms", "approx_distinct_tokens",
           "substring_dedup", "linkage_docs_verified"]
# oracled by a golden parquet captured at sf0.01, so checked at that scale
GOLDEN_SF = os.path.join(os.path.dirname(SF), "sf0.01")
GOLDEN = ["align_segmentations"]


def _check_oracle(con, name, sf):
    mine = _canon(entrymod.queries()[name](sf))
    oracle = _canon(con.execute(entrymod.oracle_sql()[name]).fetchdf())
    assert list(mine.columns) == list(oracle.columns)
    assert mine.shape == oracle.shape
    pd.testing.assert_frame_equal(mine, oracle, check_dtype=False,
                                  atol=1e-6, rtol=1e-9)


@pytest.mark.parametrize("name", ORACLED)
def test_query_matches_oracle(con, name):
    _check_oracle(con, name, SF)


@pytest.mark.parametrize("name", GOLDEN)
def test_query_matches_golden(name):
    _check_oracle(duckdb.connect(), name, GOLDEN_SF)


def test_null_group_keys_match_the_oracle(tmp_path):
    """A NULL group key is its own group, as in the oracle's GROUP BY (a
    pandas final would drop it)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    flags = ["A", None, "A", "N", None, "R"]
    pq.write_table(pa.table({
        "l_returnflag": pa.array(flags, pa.string()),
        "l_linestatus": pa.array(["F", "O", None, None, "O", "F"],
                                 pa.string()),
        "l_quantity": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        "l_extendedprice": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
        "l_discount": [0.0, 0.1, 0.2, 0.0, 0.05, 0.1],
    }), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(5), pa.int64()),
        "lang": pa.array(["en", None, "en", None, "de"], pa.string()),
    }), tmp_path / "documents.parquet")
    c = duckdb.connect()
    for t in ("lineitem", "documents"):
        c.execute(f"CREATE VIEW {t} AS SELECT * "
                  f"FROM read_parquet('{tmp_path}/{t}.parquet')")
    for name in ("lineitem_agg", "lang_distribution"):
        mine = _canon(entrymod.queries()[name](str(tmp_path)))
        oracle = _canon(c.execute(entrymod.oracle_sql()[name]).fetchdf())
        assert mine.isna().any().any(), name
        pd.testing.assert_frame_equal(mine, oracle, check_dtype=False,
                                      atol=1e-6, rtol=1e-9)


def test_rows_only_queries_run():
    qs = entrymod.queries()
    for name in ["langid", "minhash_dedup_docs", "ann_topk_lsh",
                 "candidate_resolution"]:
        out = qs[name](SF)
        df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
        assert len(df) > 0


def test_entry_smoke():
    r = entrymod.entry()
    df = r.to_pandas()
    assert len(df) >= 1
    assert set(df.columns) == {"row_id", "cluster_id"}


# the former per-kind join entry points, now one bucketed_join
def anti_join(left, right, left_on, right_on, **kw):
    return bucketed_join(left, right, left_on, right_on, how="anti", **kw)


def semi_join(left, right, left_on, right_on, **kw):
    return bucketed_join(left, right, left_on, right_on, how="semi", **kw)


def left_outer_join(left, right, left_on, right_on, *, full=False, **kw):
    return bucketed_join(left, right, left_on, right_on,
                         how="full" if full else "left", **kw)


def test_anti_join_edge_cases():
    """Bucketed anti-join: exact NOT EXISTS semantics, incl. the all-matched
    (empty-result) and empty-right edges."""
    import pyarrow as pa
    import ray.data as rd

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "v": ["a", "b", "c", "d"]}))
    right = rd.from_arrow(pa.table({"rk": pa.array([2, 4, 4], pa.int64())}))
    out = anti_join(left, right, "k", "rk", num_buckets=4).to_pandas()
    assert sorted(out["k"]) == [1, 3]

    # empty right → everything survives
    empty_r = rd.from_arrow(pa.table({"rk": pa.array([], pa.int64())}))
    assert anti_join(left, empty_r, "k", "rk", num_buckets=4).count() == 4

    # right covers left → empty result
    full_r = rd.from_arrow(pa.table({"rk": pa.array([1, 2, 3, 4], pa.int64())}))
    assert anti_join(left, full_r, "k", "rk", num_buckets=4).count() == 0


def test_join_null_key_semantics():
    """SQL EXISTS/NOT EXISTS null semantics: a NULL key matches nothing —
    anti keeps the row, semi drops it; NULL right keys match nothing."""
    import pyarrow as pa
    import ray.data as rd

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, None, 3], pa.int64()),
        "v": ["a", "b", "c"]}))
    right = rd.from_arrow(pa.table({
        "rk": pa.array([None, 3], pa.int64())}))
    anti = anti_join(left, right, "k", "rk", num_buckets=2).to_pandas()
    assert sorted(anti["v"]) == ["a", "b"]       # NULL row kept; 3 matched
    semi = semi_join(left, right, "k", "rk", num_buckets=2).to_pandas()
    assert sorted(semi["v"]) == ["c"]


def test_bucket_count_invariance():
    """Partitioning-independence (the scale-safety claim every bucketed
    operator makes): changing num_buckets must not change RESULTS, only
    the physical exchange — pinned for the round-5 operators on inputs
    with duplicates, misses and empty docs."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from spel_ray.functions.substring import dedup_repeated_substrings
    from spel_ray.state.shuffle import cogroup

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 2, 3, None], pa.int64()),
        "v": ["a", "b", "c", "d", "e"]}))
    right = rd.from_arrow(pa.table({
        "rk": pa.array([2, 2, 9], pa.int64()), "w": ["x", "y", "z"]}))
    a = canon(left_outer_join(left, right, "k", "rk", full=True,
                              num_buckets=2).to_pandas())
    b = canon(left_outer_join(left, right, "k", "rk", full=True,
                              num_buckets=7).to_pandas())
    assert a.equals(b)

    # every join kind and cogroup: identical results at B ∈ {1, 7, 64}
    def sizes(lt: pa.Table, rt: pa.Table) -> pa.Table:
        keys = sorted({k for k in lt["k"].to_pylist() + rt["rk"].to_pylist()
                       if k is not None})
        return pa.table({
            "key": pa.array(keys, pa.int64()),
            "n_left": [lt["k"].to_pylist().count(k) for k in keys],
            "n_right": [rt["rk"].to_pylist().count(k) for k in keys]})

    for how in ("inner", "left", "full", "semi", "anti"):
        runs = [canon(bucketed_join(left, right, "k", "rk", how=how,
                                    num_buckets=nb).to_pandas())
                for nb in (1, 7, 64)]
        assert runs[0].equals(runs[1]) and runs[0].equals(runs[2]), how
    runs = [canon(cogroup(left, right, "k", "rk", sizes,
                          num_buckets=nb).to_pandas()) for nb in (1, 7, 64)]
    assert runs[0].equals(runs[1]) and runs[0].equals(runs[2])
    assert runs[0]["key"].tolist() == [1, 2, 3, 9]
    assert runs[0]["n_right"].tolist() == [0, 2, 0, 1]

    # an empty side still yields the typed output schema
    empty_l = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                      "v": pa.array([], pa.string())}))
    empty_r = rd.from_arrow(pa.table({"rk": pa.array([], pa.int64()),
                                      "w": pa.array([], pa.string())}))
    payload = ["k", "v", "w"]
    for how, lhs, rhs, names, n in [
            ("inner", empty_l, right, payload, 0),
            ("left", empty_l, right, payload, 0),
            ("full", empty_l, right, payload, 3),
            ("semi", empty_l, right, ["k", "v"], 0),
            ("anti", empty_l, right, ["k", "v"], 0),
            ("inner", left, empty_r, payload, 0),
            ("left", left, empty_r, payload, 5),
            ("full", left, empty_r, payload, 5),
            ("semi", left, empty_r, ["k", "v"], 0),
            ("anti", left, empty_r, ["k", "v"], 5)]:
        for nb in (1, 7, 64):
            out = bucketed_join(lhs, rhs, "k", "rk", how=how, num_buckets=nb)
            assert out.schema().names == names, (how, nb)
            assert out.count() == n, (how, nb)
    for lhs, rhs in [(empty_l, right), (left, empty_r)]:
        out = cogroup(lhs, rhs, "k", "rk", sizes, num_buckets=7)
        assert out.schema().names == ["key", "n_left", "n_right"]

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": ["one two three four " * 8,          # shared boilerplate
                 "one two three four " * 8 + "tail five six seven eight",
                 "unique body " + "alpha beta gamma delta " * 6,
                 "", "short", "one two three four " * 8],
    }))
    x = canon(dedup_repeated_substrings(docs, window=4,
                                        num_buckets=2).to_pandas())
    y = canon(dedup_repeated_substrings(docs, window=4,
                                        num_buckets=16).to_pandas())
    assert x.equals(y)


def test_left_and_full_outer_join_semantics():
    """LEFT: every left row survives (duplicated per match, null-extended
    on miss; NULL left keys match nothing but still surface). FULL: also
    the unmatched right rows, incl. NULL-keyed ones, left-null-extended."""
    import pyarrow as pa
    import ray.data as rd

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, None, 3, 4], pa.int64()),
        "v": ["a", "b", "c", "d"]}))
    right = rd.from_arrow(pa.table({
        "rk": pa.array([3, 3, None, 9], pa.int64()),
        "w": ["x", "y", "z", "q"]}))

    lj = left_outer_join(left, right, "k", "rk", num_buckets=2) \
        .to_pandas().sort_values(["v", "w"], na_position="last")
    # 1→miss, None→miss, 3→two matches, 4→miss
    assert list(lj["v"]) == ["a", "b", "c", "c", "d"]
    assert list(lj["w"].fillna("-")) == ["-", "-", "x", "y", "-"]

    fj = left_outer_join(left, right, "k", "rk", full=True, num_buckets=2) \
        .to_pandas()
    assert len(fj) == 7                      # 5 left rows + right z, q
    right_only = fj[fj["v"].isna()]
    assert sorted(right_only["w"]) == ["q", "z"]
    assert right_only["k"].isna().all()


def _join_sides():
    import pyarrow as pa
    import ray.data as rd

    left = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                   "v": ["a", "b"]}))
    right = rd.from_arrow(pa.table({"rk": pa.array([2], pa.int64()),
                                    "w": ["x"]}))
    return left, right


def test_join_rejects_reserved_column():
    """A payload column named like the exchange's own wire columns fails
    loudly, naming the column — for cogroup and every join kind."""
    import pyarrow as pa
    import ray.data as rd

    from spel_ray.state.shuffle import cogroup

    left, right = _join_sides()
    bad = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                  "_key": pa.array([7], pa.int64())}))
    with pytest.raises(ValueError, match="'_key' is reserved"):
        cogroup(bad, right, "k", "rk", lambda lt, rt: lt, num_buckets=2)
    for how in ("inner", "semi"):
        with pytest.raises(ValueError, match="'_key' is reserved"):
            bucketed_join(bad, right, "k", "rk", how=how, num_buckets=2)


def test_join_rejects_overlapping_output_columns():
    """Joins that put both sides' columns side by side refuse a column
    present on both (the right key itself is dropped, so it may repeat)."""
    import pyarrow as pa
    import ray.data as rd

    left, _ = _join_sides()
    right = rd.from_arrow(pa.table({"k": pa.array([2], pa.int64()),
                                    "v": ["x"]}))
    for how in ("inner", "left", "full"):
        with pytest.raises(ValueError, match=r"overlap: \['v'\]"):
            bucketed_join(left, right, "k", "k", how=how, num_buckets=2)
    # semi/anti output only the left columns: no overlap possible
    assert bucketed_join(left, right, "k", "k", how="semi",
                         num_buckets=2).count() == 1


def test_join_rejects_non_integer_key():
    """The co-partition key must be integer-typed, on either side."""
    import pyarrow as pa
    import ray.data as rd

    from spel_ray.state.shuffle import cogroup

    left, right = _join_sides()
    with pytest.raises(ValueError, match="left key 'v' must be integer"):
        bucketed_join(left, right, "v", "rk", how="left", num_buckets=2)
    str_right = rd.from_arrow(pa.table({"rk": ["2"]}))
    with pytest.raises(ValueError, match="right key 'rk' must be integer"):
        cogroup(left, str_right, "k", "rk", lambda lt, rt: lt,
                num_buckets=2)
    with pytest.raises(ValueError, match="how must be one of"):
        bucketed_join(left, right, "k", "rk", how="cross", num_buckets=2)


def test_cogroup_kernel_must_return_arrow():
    """A bucket function's output is an Arrow table: a cogroup kernel that
    returns a DataFrame fails its task with TypeError, naming itself."""
    def to_frame(lt, rt):
        return lt.to_pandas()

    from spel_ray.state.shuffle import cogroup

    left, right = _join_sides()
    with pytest.raises(TypeError, match="'to_frame' returned DataFrame"):
        cogroup(left, right, "k", "rk", to_frame, num_buckets=2).materialize()
