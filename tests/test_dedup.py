"""Dedup family: exact, MinHash clusters, SimHash candidates, n-gram Jaccard,
embedding near-dup."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from spel_ray.functions.dedup import (
    add_simhash, embedding_neardup_pairs, exact_dedup, minhash_dedup,
    ngram_jaccard, simhash64, simhash_candidates)


def _docs():
    base = ("the quick brown fox jumps over the lazy dog and then runs far "
            "away into the deep green forest before nightfall comes")
    return rd.from_arrow(pa.table({
        "doc_id": [10, 11, 12, 13, 14],
        "text": [base,
                 base,                                  # exact dup of 10
                 base.replace("lazy", "sleepy"),        # near dup of 10
                 "completely different text about databases and queries etc",
                 ""],
    }))


def test_exact_dedup_keeps_min_id():
    out = exact_dedup(_docs(), num_buckets=4).to_pandas()
    assert sorted(out["doc_id"]) == [10, 12, 13, 14]  # 11 removed


def test_exact_dedup_takes_pandas_backed_input():
    """A pandas-backed input has a schema Ray knows, but not an Arrow one."""
    docs = _docs().to_pandas().sample(frac=1.0, random_state=3)
    out = exact_dedup(rd.from_pandas(docs), num_buckets=4).to_pandas()
    assert sorted(out["doc_id"]) == [10, 12, 13, 14]  # 11 removed


def test_minhash_dedup_clusters_near_dups():
    out = minhash_dedup(_docs(), num_buckets=4).to_pandas()
    lab = dict(zip(out["doc_id"], out["cluster_id"]))
    assert lab[10] == lab[11] == lab[12] == 10
    assert lab[13] == 13
    assert lab[14] == 14


def test_simhash_hamming_properties():
    a = simhash64("the quick brown fox jumps over the lazy dog again today")
    b = simhash64("the quick brown fox jumps over the sleepy dog again today")
    c = simhash64("databases love vectorized execution and columnar storage")
    ham_ab = bin(a ^ b).count("1")
    ham_ac = bin(a ^ c).count("1")
    assert ham_ab < ham_ac
    assert simhash64("x") == simhash64("x")


def test_batch_simhash_matches_reference_impl():
    from spel_ray.functions.dedup import batch_simhash64
    texts = ["the quick brown fox", "the quick brown fox",
             "databases love vectorized execution", "", None,
             "Mixed CASE Words repeated repeated repeated"]
    got = batch_simhash64(texts)
    want = np.array([simhash64(t) for t in texts], dtype=np.uint64)
    assert (got == want).all()


def test_simhash_hot_segment_chain_capped():
    """A 3000-row identical-content segment must NOT be silently dropped:
    the chain-cap keeps the bucket connected and flags it capped."""
    n = 3000
    ds = rd.from_arrow(pa.table({
        "doc_id": list(range(n)),
        "text": ["identical boilerplate text for every row"] * n,
    }))
    out = simhash_candidates(add_simhash(ds), num_buckets=4,
                             max_hamming=3).to_pandas()
    assert out["capped"].all()
    # chain over sorted ids connects the whole segment
    got = set(zip(out["id_lo"], out["id_hi"]))
    assert got == {(i, i + 1) for i in range(n - 1)}


def test_simhash_candidates():
    out = simhash_candidates(add_simhash(_docs()), num_buckets=4,
                             max_hamming=3).to_pandas()
    got = set(zip(out["id_lo"], out["id_hi"]))
    assert (10, 11) in got  # identical
    assert all(lo < hi for lo, hi in got)


def test_ngram_jaccard():
    assert ngram_jaccard("a b c d e", "a b c d e") == 1.0
    assert ngram_jaccard("", "") == 1.0
    assert 0 < ngram_jaccard("a b c d e f", "a b c d x f") < 1.0
    assert ngram_jaccard("a b c", "x y z") == 0.0


def test_embedding_neardup():
    rng = np.random.default_rng(3)
    base = rng.standard_normal(16)
    rows = {
        "vec_id": [1, 2, 3],
        "embedding": [base.tolist(),
                      (base + 0.01 * rng.standard_normal(16)).tolist(),
                      rng.standard_normal(16).tolist()],
    }
    ds = rd.from_arrow(pa.table(rows))
    out = embedding_neardup_pairs(ds, threshold=0.95).to_pandas()
    assert set(zip(out["id_lo"], out["id_hi"])) == {(1, 2)}


def _snm_bruteforce(ids, texts, w):
    """Driver model of sorted-neighborhood pairs: sort by (normalized
    32-char key, id), then every pair within ``w`` positions."""
    import re

    import pandas as pd

    key = [re.sub(r"\s+", " ", x or "").strip()[:32] for x in texts]
    arr = pd.DataFrame({"id": ids, "key": key}) \
        .sort_values(["key", "id"])["id"].to_numpy()
    return pd.DataFrame(
        [(min(a, b), max(a, b), d)
         for d in range(1, w + 1)
         for a, b in zip(arr[:-d], arr[d:])],
        columns=["id_lo", "id_hi", "dist"], dtype="int64") \
        .sort_values(["id_lo", "id_hi", "dist"]).reset_index(drop=True)


def _snm(ds, **kw):
    from spel_ray.functions.dedup import sorted_neighborhood_pairs

    return sorted_neighborhood_pairs(ds, **kw).to_pandas() \
        .sort_values(["id_lo", "id_hi", "dist"]).reset_index(drop=True)


def test_sorted_neighborhood_matches_bruteforce():
    """Distributed SNM == driver brute force (sort + window pairs) at every
    bucket count and two input partitionings: one range per row group, many
    tiny ranges whose window spans several of them, and more hash buckets
    than ranges, so several ranges share a bucket."""
    import pandas as pd

    rng = np.random.default_rng(5)
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    texts = [" ".join(rng.choice(words, size=rng.integers(3, 9)))
             for _ in range(300)]
    ids = rng.permutation(900)[:300].astype(np.int64)
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts)})
    w = 4
    ref = _snm_bruteforce(ids, texts, w)
    for blocks in (1, 5):
        ds = rd.from_arrow(t).repartition(blocks)
        for nb in (1, 2, 9, 64):
            pd.testing.assert_frame_equal(
                _snm(ds, window=w, num_buckets=nb), ref)


def test_sorted_neighborhood_edge_cases():
    import pandas as pd

    from spel_ray.functions.dedup import sorted_neighborhood_pairs

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}))
    assert sorted_neighborhood_pairs(empty, window=3).count() == 0

    one = rd.from_arrow(pa.table({"doc_id": [7], "text": ["only row"]}))
    assert sorted_neighborhood_pairs(one, window=3).count() == 0

    # nulls and empty strings sort first, deterministically
    t = pa.table({"doc_id": [1, 2, 3], "text": [None, "", "zzz"]})
    out = _snm(rd.from_arrow(t), window=2)
    assert len(out) == 3    # all C(3,2) pairs within window 2

    # duplicate keys (ties broken by id), nulls, empty texts and keys that
    # agree past the 8-byte surrogate; n < window and n > window
    ids = [40, 3, 17, 8, 25, 11, 30, 2, 19, 5]
    texts = ["dup", "dup", None, "", "dup", "  dup  ", None,
             "prefix-shared-a", "prefix-shared-b", ""]
    for n, w in ((4, 6), (10, 3)):
        t = pa.table({"doc_id": pa.array(ids[:n], pa.int64()),
                      "text": pa.array(texts[:n], pa.string())})
        for nb in (1, 3, 16):
            pd.testing.assert_frame_equal(
                _snm(rd.from_arrow(t).repartition(2), window=w,
                     num_buckets=nb),
                _snm_bruteforce(ids[:n], texts[:n], w))


def test_snm_surrogate_large_string_offsets():
    """large_string columns carry int64 offsets — surrogates must match the
    (order-preserving) string-typed result exactly."""
    import numpy as np
    import pyarrow as pa

    from spel_ray.functions.dedup import _key_surrogates

    keys = ["apple", "banana", "cherry", "aardvark", "", "zeta " * 10]
    small = _key_surrogates(pa.array(keys, pa.string()))
    large = _key_surrogates(pa.array(keys, pa.large_string()))
    assert np.array_equal(small, large)
