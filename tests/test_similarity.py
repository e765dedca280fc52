"""ANN top-k: brute force is exact; LSH recalls most of brute force."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from spel_ray.functions import similarity
from spel_ray.functions.similarity import (
    ann_topk_bruteforce, ann_topk_ivf, ann_topk_lsh, embeddings,
    hyperplane_keys, train_ivf_centroids)


def _corpus(n=200, dim=16, seed=5):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim))
    return rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array([r.tolist() for r in m],
                              pa.list_(pa.float32())),
    })), m


def test_bruteforce_matches_numpy():
    ds, m = _corpus()
    q = m[:3]
    out = ann_topk_bruteforce(ds, q, np.arange(3), k=5, batch_size=64)
    # exact reference
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    # the Arrow column is float32 — normalize the same quantization
    m32 = np.vstack([np.asarray(r, dtype=np.float32) for r in m]).astype(np.float64)
    mn = m32 / np.linalg.norm(m32, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = qn @ mn.T
    for qi in range(3):
        expect = list(np.argsort(-sims[qi], kind="stable")[:5])
        got = out[out["query_id"] == qi].sort_values("rank")["vec_id"].tolist()
        assert got == expect
        # self must rank first with cosine ~1
        assert got[0] == qi
        assert out[(out["query_id"] == qi) & (out["rank"] == 1)]["cosine"].iloc[0] > 0.999


def test_ivf_centroids_are_unit_norm():
    ds, _ = _corpus(n=200)
    cent = train_ivf_centroids(ds, n_centroids=8)
    assert cent.shape == (8, 16)
    assert np.allclose(np.linalg.norm(cent, axis=1), 1.0, atol=1e-9)


def test_ivf_recall_and_true_scores():
    ds, m = _corpus(n=300)
    q = m[:5]
    exact = ann_topk_bruteforce(ds, q, np.arange(5), k=10)
    approx = ann_topk_ivf(ds, q, np.arange(5), k=10, n_centroids=8, nprobe=4)
    recall = 0.0
    for qi in range(5):
        e = set(exact[exact["query_id"] == qi]["vec_id"])
        a = set(approx[approx["query_id"] == qi]["vec_id"])
        recall += len(e & a) / len(e)
    assert recall / 5 >= 0.5
    merged = approx.merge(exact, on=["query_id", "vec_id"],
                          suffixes=("_a", "_e"))
    assert (merged["cosine_a"] == merged["cosine_e"]).all()
    # the query's own vector probes its own centroid → self always found
    for qi in range(5):
        assert qi in set(approx[approx["query_id"] == qi]["vec_id"])


def test_lsh_recall():
    ds, m = _corpus(n=300)
    q = m[:5]
    exact = ann_topk_bruteforce(ds, q, np.arange(5), k=10)
    approx = ann_topk_lsh(ds, q, np.arange(5), k=10, n_planes=4, n_tables=16)
    recall = 0
    for qi in range(5):
        e = set(exact[exact["query_id"] == qi]["vec_id"])
        a = set(approx[approx["query_id"] == qi]["vec_id"])
        recall += len(e & a) / len(e)
    assert recall / 5 >= 0.5  # loose: 4-bit × 16 tables on random data
    # every approx hit must carry the true cosine (no fake scores)
    merged = approx.merge(exact, on=["query_id", "vec_id"],
                          suffixes=("_a", "_e"))
    assert (merged["cosine_a"] == merged["cosine_e"]).all()


def test_ann_recall_gates():
    """Quantitative gate (VERDICT r2 'next round' #3): at the driver's
    production parameters, both approximate paths must reach recall@10
    ≥ 0.9 vs the oracled brute force on the driver's own test corpus.
    Everything is deterministic (fixed seeds + fixed parquet), so the
    bounds are stable, not flaky."""
    import spel_ray.pipelines.driver_queries as dq
    from spel_ray.functions.similarity import ann_recall

    sf = "/root/testdata/sf0.01"
    exact = dq.q_ann_topk(sf)
    lsh = ann_recall(dq.q_ann_topk_lsh(sf), exact, k=10)
    ivf = ann_recall(dq.q_ann_topk_ivf(sf), exact, k=10)
    # LSH must be EXACTLY 1.0: the driver oracles ann_topk_lsh against the
    # exact brute-force SQL, which is only valid at full recall (the
    # documented coupling in __ray_entry__.oracle_sql). If this ever dips
    # after a testdata regeneration, demote that oracle entry to rows-only.
    assert (lsh["recall"] == 1.0).all(), lsh
    assert ivf["recall"].min() >= 0.9, ivf


def test_embeddings_decode_flat_and_rejects_ragged():
    """list<float> → (n, dim) float64 in one flatten + reshape; a sliced
    column decodes its own rows; ragged or null rows raise."""
    col = pa.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                   pa.list_(pa.float32()))
    assert embeddings(col.slice(1)).tolist() == [[3.0, 4.0], [5.0, 6.0]]
    assert embeddings(col).dtype == np.float64
    fixed = pa.array([[1.0, 2.0]], pa.list_(pa.float64(), 2))
    assert embeddings(fixed).shape == (1, 2)
    assert embeddings(pa.array([], pa.list_(pa.float32()))).shape == (0, 0)
    for bad in ([[1.0, 2.0], [3.0]], [[1.0, 2.0], None]):
        with pytest.raises(ValueError, match="one length"):
            embeddings(pa.array(bad, pa.list_(pa.float32())))


def test_partial_topk_bounds_collected_rows(monkeypatch):
    """Every ANN path cuts each batch to per-query top-k before the driver
    collect: collected partial rows <= batches x queries x k."""
    n, n_q, k = 3000, 6, 4
    ds, m = _corpus(n=n, dim=16)
    q = m[:n_q]
    seen = []
    real = similarity._merge_topk

    def spy(parts, query_ids, k_):
        seen.append(parts.num_rows)
        return real(parts, query_ids, k_)

    monkeypatch.setattr(similarity, "_merge_topk", spy)
    exact = ann_topk_bruteforce(ds, q, np.arange(n_q), k=k, batch_size=1000)
    ann_topk_ivf(ds, q, np.arange(n_q), k=k, n_centroids=8, nprobe=8)
    ann_topk_lsh(ds, q, np.arange(n_q), k=k, n_planes=2, n_tables=4)
    # brute force: 3 batches of 1000; IVF/LSH: one 4096-row batch
    assert seen[0] <= 3 * n_q * k
    assert seen[1] <= 1 * n_q * k and seen[2] <= 1 * n_q * k
    assert (exact.groupby("query_id").size() == k).all()


def test_ann_empty_corpus_and_candidate_free_batches():
    """No corpus rows, or batches whose buckets meet no query, give the
    typed (query_id, vec_id, cosine, rank) frame, never a crash."""
    _, m = _corpus(n=50)
    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32()))}))
    cols = ["query_id", "vec_id", "cosine", "rank"]
    for out in (ann_topk_bruteforce(empty, m[:2], np.arange(2)),
                ann_topk_lsh(empty, m[:2], np.arange(2))):
        assert list(out.columns) == cols and out.empty
    ds, _ = _corpus(n=50, seed=9)
    out = ann_topk_lsh(ds, -m[:2], np.arange(2), n_planes=16, n_tables=1)
    assert list(out.columns) == cols
    assert out["rank"].between(1, 10).all()


def test_hyperplane_keys_match_both_former_kernels():
    """The one hyperplane key kernel equals the former LSB-first einsum keys
    exactly and buckets rows exactly as the former MSB-first loop did."""
    rng = np.random.default_rng(0)
    emb = rng.standard_normal((300, 5))
    planes = rng.standard_normal((7, 4, 5))
    keys = hyperplane_keys(emb, planes)
    signs = np.einsum("nd,tpd->ntp", emb, planes) > 0
    lsb = (signs * (1 << np.arange(4))).sum(axis=2)
    assert np.array_equal(keys, (lsb << 6) | np.arange(7))
    msb = (signs * (1 << np.arange(4)[::-1])).sum(axis=2)
    assert np.array_equal(keys[:, None, :] == keys[None, :, :],
                          msb[:, None, :] == msb[None, :, :])
