"""Pair generation: the one in-block pair kernel (all-pairs for small blocks,
chain for hot blocks), the one pair merge (FIXTURES.md §5 overlap-merge
fixture), and every pair producer built on them."""

import hashlib
import itertools

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from spel_ray.config import LinkageConfig
from spel_ray.extension import get_scorer
from spel_ray.stages.pairs import (PAIR_MERGE, PAIR_SCHEMA, block_pairs,
                                   bucket_pairs, gen_and_score_bucket)
from spel_ray.state.shuffle import merge_bucket

CFG = LinkageConfig(max_block_pairs_n=4)
PAIR_KEYS = ["id_lo", "id_hi"]


def _block_rows(block_key, ids, sig_fill):
    dt = np.uint16 if CFG.sig_bytes == 2 else np.uint32
    sig = np.full(CFG.num_perm, sig_fill, dtype=dt).tobytes()
    sig_t = np.full(CFG.num_perm_tok, sig_fill, dtype=dt).tobytes()
    n = len(ids)
    return pa.table({
        "block_key": pa.array(np.full(n, block_key, dtype=np.int64)),
        "row_id": pa.array(np.array(ids, dtype=np.int64)),
        "sig": pa.array([sig] * n, pa.binary(len(sig))),
        "sig_tok": pa.array([sig_t] * n, pa.binary(len(sig_t))),
        "n_chars": pa.array(np.full(n, 100, dtype=np.int64)),
        "sha16": pa.array([b"x" * 16] * n, pa.binary(16)),
    })


def _gen(t):
    out = gen_and_score_bucket(t, CFG, get_scorer(CFG.scorer))
    assert out.schema == PAIR_SCHEMA
    return out.to_pandas()


def test_all_pairs_small_block():
    out = _gen(_block_rows(1, [30, 10, 20], 7))
    got = set(zip(out["id_lo"], out["id_hi"]))
    assert got == {(10, 20), (10, 30), (20, 30)}
    assert not out["capped"].any()
    # identical sigs + identical sha → exact, score 1.0
    assert out["exact"].all() and (out["score"] == 1.0).all()


def test_hot_block_chain_cap():
    ids = list(range(100, 110))  # n=10 > cap=4
    out = _gen(_block_rows(2, ids, 3))
    assert len(out) == 9  # chain, not C(10,2)=45
    assert out["capped"].all()
    got = sorted(zip(out["id_lo"], out["id_hi"]))
    assert got == [(i, i + 1) for i in range(100, 109)]


def test_singleton_block_no_pairs():
    out = _gen(_block_rows(3, [5], 1))
    assert len(out) == 0


def test_multiple_blocks_in_bucket():
    t = pa.concat_tables([_block_rows(1, [1, 2], 7), _block_rows(2, [8, 9], 9)])
    out = _gen(t)
    assert set(zip(out["id_lo"], out["id_hi"])) == {(1, 2), (8, 9)}


def test_empty_bucket_is_typed():
    assert len(_gen(_block_rows(1, [], 0))) == 0


def test_merge_vote_max_score_wins():
    t = pa.table({
        "id_lo": [1, 1, 1, 3], "id_hi": [2, 2, 2, 4],
        "block_key": [11, 12, 13, 20],
        "jac": [0.5, 0.9, 0.7, 0.2],
        "exact": [False, False, True, False],
        "score": [0.5, 0.9, 1.0, 0.2],
        "capped": [True, False, False, False],
    })
    out = merge_bucket(t, PAIR_KEYS, PAIR_MERGE).to_pandas() \
        .set_index(["id_lo", "id_hi"])
    r = out.loc[(1, 2)]
    assert r["score"] == 1.0 and r["jac"] == 0.9 and bool(r["exact"])
    assert r["n_blocks"] == 3
    assert not bool(r["capped"])  # uncapped evidence exists
    assert out.loc[(3, 4)]["n_blocks"] == 1


def _brute_force(keys, ids, cap):
    """Model of the kernel: per key, the distinct ids sorted; all pairs up
    to ``cap`` members, the id-adjacent chain above it."""
    out = set()
    for k in set(keys):
        members = sorted({i for kk, i in zip(keys, ids) if kk == k})
        n = len(members)
        pairs = (itertools.combinations(members, 2) if n <= cap
                 else zip(members, members[1:]))
        out |= {(k, a, b, n > cap) for a, b in pairs}
    return out


def _random_cases():
    rng = np.random.default_rng(0)
    cases = [(np.zeros(0, np.int64), np.zeros(0, np.int64), 3)]  # 0 rows
    for _ in range(200):
        n = int(rng.integers(0, 40))
        cases.append((rng.integers(-3, 4, n), rng.integers(0, 12, n),
                      int(rng.integers(1, 8))))
    return cases


def test_block_pairs_matches_brute_force():
    for keys, ids, cap in _random_cases():
        got = set()
        for rows, a, b, capped in block_pairs(keys, ids, cap):
            assert len(set(keys[rows])) == 1         # one block per yield
            assert (np.diff(ids[rows]) > 0).all()    # distinct, id-sorted
            assert (a < b).all()
            got |= {(int(keys[rows[0]]), int(ids[rows[x]]), int(ids[rows[y]]),
                     capped) for x, y in zip(a, b)}
        assert got == _brute_force(keys.tolist(), ids.tolist(), cap)

        lo, hi, capped = bucket_pairs(keys, ids, cap)
        assert lo.dtype == hi.dtype == np.int64 and capped.dtype == bool
        assert (ids[lo] < ids[hi]).all() and (keys[lo] == keys[hi]).all()
        assert {(int(keys[x]), int(ids[x]), int(ids[y]), bool(c))
                for x, y, c in zip(lo, hi, capped)} == got
        assert len(lo) == len(got)                   # no duplicate pair


def _loop_block_pairs(keys, ids, cap: int):
    """The per-block generator and loop the vectorized ``bucket_pairs``
    replaced, kept verbatim as the reference model."""
    keys = np.asarray(keys, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    order = np.lexsort((ids, keys))
    k, i = keys[order], ids[order]
    distinct = np.ones(len(k), dtype=bool)
    distinct[1:] = (k[1:] != k[:-1]) | (i[1:] != i[:-1])
    sel, k = order[distinct], k[distinct]
    first = np.ones(len(k), dtype=bool)
    first[1:] = k[1:] != k[:-1]
    starts = np.flatnonzero(first)
    sizes = np.diff(np.r_[starts, len(k)])
    multi = sizes > 1
    for start, n in zip(starts[multi].tolist(), sizes[multi].tolist()):
        if n <= cap:
            a, b = np.triu_indices(n, k=1)
        else:   # hot block: connectivity chain, O(n) not O(n^2)
            a = np.arange(n - 1)
            b = a + 1
        yield sel[start:start + n], a, b, n > cap


def _loop_bucket_pairs(keys, ids, cap: int):
    lo, hi, capped = ([np.zeros(0, np.int64)], [np.zeros(0, np.int64)],
                      [np.zeros(0, bool)])
    for rows, a, b, c in _loop_block_pairs(keys, ids, cap):
        lo.append(rows[a])
        hi.append(rows[b])
        capped.append(np.full(len(a), c))
    return np.concatenate(lo), np.concatenate(hi), np.concatenate(capped)


def _assert_same(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def _edge_cases():
    big = np.iinfo(np.int64)
    return [
        # one block exactly at cap 4, one at cap + 1, in shuffled order
        (np.r_[[7] * 4, [9] * 5],
         np.r_[[4, 1, 3, 2], [15, 11, 14, 12, 13]], 4),
        # negative and extreme keys and ids
        (np.array([-5, -5, big.min, big.min, big.max, big.max, -1]),
         np.array([3, -2, big.max, 0, -7, big.min, 1]), 64),
        # repeated (key, id) rows, in a full block and a capped one
        (np.array([1, 1, 1, 1, 2, 2, 2, 2, 2]),
         np.array([5, 5, 6, 5, 8, 8, 9, 10, 9]), 2),
        (np.zeros(0, np.int64), np.zeros(0, np.int64), 0),     # 0 rows
        (np.array([3, 3, 3, 3]), np.array([1, 1, 1, 1]), 1),   # one member
    ]


def test_bucket_pairs_equals_the_per_block_loop():
    cases = _random_cases() + _edge_cases()
    for keys, ids, cap in cases:
        for c in (cap, 0, 1, 64):
            _assert_same(bucket_pairs(keys, ids, c),
                         _loop_bucket_pairs(keys, ids, c))
    # a chunked Arrow key column, as simhash_candidates passes
    keys, ids, _ = _edge_cases()[0]
    chunked = pa.chunked_array([keys[:3], keys[3:]], pa.int64())
    for c in (0, 1, 64):
        _assert_same(bucket_pairs(chunked, ids, c),
                     _loop_bucket_pairs(keys, ids, c))


def test_bucket_pairs_makes_no_per_block_call(monkeypatch):
    """One pass over all blocks: no ``triu_indices`` call per block."""
    rng = np.random.default_rng(5)
    keys, ids = rng.integers(0, 300, 2000), rng.integers(0, 5000, 2000)
    want = _loop_bucket_pairs(keys, ids, 8)
    assert want[2].any() and not want[2].all()       # full and capped blocks

    def no_per_block_call(*args, **kwargs):
        raise AssertionError("np.triu_indices called")

    monkeypatch.setattr(np, "triu_indices", no_per_block_call)
    _assert_same(bucket_pairs(keys, ids, 8), want)


# sha256 of the merged flagship pair table on the 2k fixture, every column,
# rows sorted by (id_lo, id_hi); unchanged since the per-block loop
FLAGSHIP_PAIRS_SHA256 = \
    "cc8ba35b9360997bbad4ee72a7199ddcfd0222c11f7bf6f5a5e2cbb0b3293dc7"


def test_flagship_pairs_pinned():
    from spel_ray.pipelines.linkage import linkage_stats, run_linkage
    from spel_ray.sources.synth import generate_code_table

    res = run_linkage(rd.from_arrow(generate_code_table(2000, seed=42)),
                      LinkageConfig())
    p = pa.concat_tables(list(res.pairs.iter_batches(
        batch_size=None, batch_format="pyarrow")))
    p = p.sort_by([("id_lo", "ascending"), ("id_hi", "ascending")])
    assert p.num_rows == 8006
    digest = hashlib.sha256(repr(p.to_pydict()).encode()).hexdigest()
    assert digest == FLAGSHIP_PAIRS_SHA256
    # the stats count edges by the same match rule the edge filter uses
    assert linkage_stats(res)["edges_over_threshold"] == res.edges.count()


def test_merge_bucket_matches_a_dict_fold():
    rng = np.random.default_rng(1)
    n = 20_000
    lo = rng.integers(0, 60, n)
    t = pa.table({
        "id_lo": pa.array(lo, pa.int64()),
        "id_hi": pa.array(lo + rng.integers(1, 60, n), pa.int64()),
        "block_key": pa.array(rng.integers(-1000, 1000, n), pa.int64()),
        "jac": pa.array(rng.random(n)),
        "exact": pa.array(rng.random(n) < 0.1),
        "score": pa.array(rng.random(n)),
        "capped": pa.array(rng.random(n) < 0.5),
    })
    fold = {}
    for r in t.to_pylist():
        k = (r["id_lo"], r["id_hi"])
        f = fold.setdefault(k, {"block_key": r["block_key"], "jac": r["jac"],
                                "exact": r["exact"], "score": r["score"],
                                "capped": r["capped"], "n_blocks": 0})
        f["block_key"] = min(f["block_key"], r["block_key"])
        f["jac"] = max(f["jac"], r["jac"])
        f["exact"] = f["exact"] or r["exact"]
        f["score"] = max(f["score"], r["score"])
        f["capped"] = f["capped"] and r["capped"]
        f["n_blocks"] += 1
    out = merge_bucket(t, PAIR_KEYS, PAIR_MERGE)
    assert out.schema == PAIR_SCHEMA.append(pa.field("n_blocks", pa.int64()))
    got = {(r.pop("id_lo"), r.pop("id_hi")): r for r in out.to_pylist()}
    assert got == fold

    empty = merge_bucket(t.slice(0, 0), PAIR_KEYS, PAIR_MERGE)
    assert empty.num_rows == 0 and empty.schema == out.schema


def test_mine_hard_negatives_ranks_near_misses():
    """T5 analog: the top hard negatives are the highest-scoring pairs
    strictly below the edge threshold, never exact or accepted pairs."""
    import pyarrow as pa
    import ray.data as rd

    from spel_ray.config import LinkageConfig
    from spel_ray.stages.pairs import mine_hard_negatives

    cfg = LinkageConfig()
    pairs = rd.from_arrow(pa.table({
        "id_lo": [1, 2, 3, 4, 5],
        "id_hi": [11, 12, 13, 14, 15],
        "block_key": [0] * 5,
        "jac": [0.9, 0.41, 0.40, 0.2, 1.0],
        "exact": [False, False, False, False, True],
        "score": [0.9, 0.41, 0.40, 0.2, 1.0],
        "capped": [False] * 5,
    }))
    out = mine_hard_negatives(pairs, cfg, n=2).to_pandas()
    # 0.9 is an accepted edge, 1.0 is exact; hardest negatives are .41, .40
    assert list(out["id_lo"]) == [2, 3]
    assert list(out["score"]) == [0.41, 0.40]


def test_mine_hard_negatives_tie_break_is_partition_invariant():
    """ADVICE r2 #1: at a quantized-score tie the selected set must be the
    lexicographically-first pairs, independent of partitioning."""
    import pyarrow as pa
    import ray.data as rd

    from spel_ray.config import LinkageConfig
    from spel_ray.stages.pairs import mine_hard_negatives

    cfg = LinkageConfig()
    n_rows = 40
    base = pa.table({
        "id_lo": list(range(n_rows)),
        "id_hi": [i + 100 for i in range(n_rows)],
        "block_key": [0] * n_rows,
        "jac": [0.4] * n_rows,
        "exact": [False] * n_rows,
        "score": [0.4] * n_rows,            # everything tied
        "capped": [False] * n_rows,
    })
    outs = []
    for parts in (1, 3, 7):
        ds = rd.from_arrow(base).repartition(parts)
        out = mine_hard_negatives(ds, cfg, n=5).to_pandas()
        outs.append(list(zip(out["id_lo"], out["id_hi"])))
    assert outs[0] == outs[1] == outs[2] == [(i, i + 100) for i in range(5)]


# ----------------------------------------------- every producer, any buckets
def _sorted(ds):
    return ds.to_pandas().sort_values(["id_lo", "id_hi"]) \
        .reset_index(drop=True)


def _simhash():
    from spel_ray.functions.dedup import add_simhash, simhash_candidates

    base = ("the quick brown fox jumps over the lazy dog and then runs far "
            "away into the deep green forest before nightfall comes")
    texts = (["identical boilerplate text for every row"] * 8   # hot
             + [base, base, base.replace("lazy", "sleepy")]     # 4 segments
             + [f"unrelated document number {i} about {i * 7} things"
                for i in range(10)])
    ds = add_simhash(rd.from_arrow(pa.table({
        "doc_id": pa.array(range(100, 100 + len(texts)), pa.int64()),
        "text": texts})))
    return lambda nb: simhash_candidates(ds, max_segment_rows=5,
                                         num_buckets=nb)


def _embedding():
    from spel_ray.functions.dedup import embedding_neardup_pairs

    rng = np.random.default_rng(3)
    vecs = np.vstack([np.tile(rng.standard_normal(8), (6, 1)),    # hot
                      rng.standard_normal((20, 8))])
    vecs[7] = vecs[6] + 0.01 * rng.standard_normal(8)  # near, every table
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64()))}))
    return lambda nb: embedding_neardup_pairs(ds, threshold=0.9,
                                              max_bucket_rows=4,
                                              num_buckets=nb)


def _chunks():
    from spel_ray.stages.chunker import chunk_level_pairs

    shared = " ".join(f"common{i}" for i in range(40))
    rows = [(i, shared + " " + " ".join(f"own{i}x{j}" for j in range(40)))
            for i in range(1, 7)]                       # 6 records share
    rows += [(7, " ".join(f"noise{j}" for j in range(80)))]
    ds = rd.from_arrow(pa.table({
        "row_id": pa.array([r[0] for r in rows], pa.int64()),
        "norm_content": pa.array([r[1] for r in rows], pa.string())}))
    return lambda nb: chunk_level_pairs(ds, CFG, window=16, overlap=4,
                                        num_buckets=nb)


def _flagship(tiny_code_table):
    from spel_ray.pipelines.linkage import link_head
    from spel_ray.stages.pairs import scored_candidate_pairs

    _, blocks = link_head(rd.from_arrow(tiny_code_table), CFG)
    blocks = blocks.materialize()
    return lambda nb: scored_candidate_pairs(blocks, CFG, num_buckets=nb)


PRODUCERS = {"simhash": _simhash, "embedding": _embedding,
             "chunks": _chunks, "flagship": _flagship}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_pair_producers_are_bucket_invariant(name, tiny_code_table):
    make = PRODUCERS[name]
    run = make(tiny_code_table) if name == "flagship" else make()
    want = _sorted(run(1))
    assert len(want) and want[["id_lo", "id_hi"]].duplicated().sum() == 0
    assert (want["id_lo"] < want["id_hi"]).all()
    if "capped" in want:                 # the hot block took the chain
        assert want["capped"].any() and not want["capped"].all()
    if name == "flagship":               # a pair met in several blocks
        assert (want["n_blocks"] > 1).any()
    if name == "chunks":
        assert (want["n_shared_chunks"] > 1).any()
    for nb in (7, 64):
        pd.testing.assert_frame_equal(_sorted(run(nb)), want,
                                      obj=f"{name} num_buckets={nb}")
