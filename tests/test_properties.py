"""Property-based tests (hypothesis) for the core kernels.

These mirror the reference's inline invariant asserts (SURVEY.md §5.3) as
generative checks: estimator accuracy, clustering equivalence against a
trivial reference implementation, and id stability.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spel_ray.config import LinkageConfig
from spel_ray.functions.strings import levenshtein
from spel_ray.stages.clustering import _local_union_find
from spel_ray.stages.minhash import MinHasher

CFG = LinkageConfig()
MH = MinHasher(CFG)


@st.composite
def join_tables(draw):
    """Small random left/right tables with nullable int keys in a narrow
    range (forcing duplicates, misses, and both-side null keys)."""
    keys = st.one_of(st.none(), st.integers(0, 6))
    lk = draw(st.lists(keys, min_size=0, max_size=12))
    rk = draw(st.lists(keys, min_size=0, max_size=12))
    return lk, rk


def _sql_join_expected(lk, rk, how):
    """Independent nested-loop SQL model: NULL keys match nothing; inner
    keeps matches; left/full keep every left row (null-extended on a miss);
    full also keeps every unmatched right row; semi/anti keep the left rows
    that EXIST / do NOT EXIST in the right."""
    rows = []
    r_used = [False] * len(rk)
    for i, k in enumerate(lk):
        hits = [j for j, r in enumerate(rk) if k is not None and r == k]
        for j in hits:
            r_used[j] = True
        if how in ("semi", "anti"):
            if bool(hits) == (how == "semi"):
                rows.append((k, i, None, None))
            continue
        rows.extend((k, i, rk[j], j) for j in hits)
        if not hits and how != "inner":
            rows.append((k, i, None, None))
    if how == "full":
        rows.extend((None, None, r, j) for j, r in enumerate(rk)
                    if not r_used[j])
    return sorted(rows, key=lambda x: tuple(-1 if v is None else v
                                            for v in x))


@settings(max_examples=60, deadline=None)
@given(join_tables(), st.sampled_from(["inner", "left", "full", "semi",
                                       "anti"]))
def test_outer_join_bucket_matches_sql_semantics(tables, how):
    """The per-bucket join kernel must reproduce SQL INNER/LEFT/FULL JOIN
    and EXISTS/NOT EXISTS on arbitrary duplicate/null-laden key multisets
    (single bucket = the whole relation; bucketing only partitions by key
    hash)."""
    import pyarrow as pa

    from spel_ray.state.shuffle import join_bucket

    lk, rk = tables
    left = pa.table({"k": pa.array(lk, pa.int64()),
                     "v": pa.array(range(len(lk)), pa.int64())})
    right = pa.table({"rk": pa.array(rk, pa.int64()),
                      "w": pa.array(range(len(rk)), pa.int64())})
    out = join_bucket(left, right, "k", "rk", how)
    want_cols = ["k", "v"] if how in ("semi", "anti") else ["k", "v", "w"]
    assert out.column_names == want_cols
    w = (out["w"].to_pylist() if "w" in out.column_names
         else [None] * out.num_rows)
    got = sorted(zip(out["k"].to_pylist(), out["v"].to_pylist(),
                     [None if j is None else rk[j] for j in w], w),
                 key=lambda x: tuple(-1 if v is None else v for v in x))
    assert got == _sql_join_expected(lk, rk, how)


@st.composite
def text_pair(draw):
    base = draw(st.text(alphabet=st.characters(codec="ascii",
                                               categories=["L", "N", "P", "Zs"]),
                        min_size=30, max_size=300))
    # mutate a copy with a few edits
    edits = draw(st.integers(0, 6))
    other = base
    for _ in range(edits):
        if len(other) < 5:
            break
        i = draw(st.integers(0, len(other) - 1))
        other = other[:i] + draw(st.text(min_size=0, max_size=3)) + other[i + 1:]
    return base, other


@settings(max_examples=30, deadline=None)
@given(text_pair())
def test_minhash_estimates_true_jaccard(pair):
    a, b = pair
    ha = set(MH.shingle_hashes(a).tolist())
    hb = set(MH.shingle_hashes(b).tolist())
    true_j = len(ha & hb) / max(len(ha | hb), 1)
    est = float((MH.signature(a) == MH.signature(b)).mean())
    # 64 perms → std ≈ sqrt(j(1-j)/64) ≤ 0.0625; allow 4 sigma
    assert abs(est - true_j) <= 0.27


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                min_size=0, max_size=120))
def test_union_find_matches_naive_reference(edge_list):
    edges = [(a, b) for a, b in edge_list if a != b]
    if not edges:
        return
    a = np.array([e[0] for e in edges], dtype=np.int64)
    b = np.array([e[1] for e in edges], dtype=np.int64)
    nodes, root = _local_union_find(a, b)

    # naive reference: repeated relabeling to fixpoint
    lab = {n: n for n in set(a.tolist()) | set(b.tolist())}
    changed = True
    while changed:
        changed = False
        for x, y in edges:
            m = min(lab[x], lab[y])
            if lab[x] != m or lab[y] != m:
                lab[x] = lab[y] = m
                changed = True
        # propagate through labels
        for n in lab:
            while lab[n] != lab[lab[n]]:
                lab[n] = lab[lab[n]]
                changed = True

    got = dict(zip(nodes.tolist(), root.tolist()))
    assert got == lab


@settings(max_examples=30, deadline=None)
@given(st.text(max_size=60), st.text(max_size=60))
def test_levenshtein_metric_properties(a, b):
    d = levenshtein(a, b)
    assert d == levenshtein(b, a)
    assert (d == 0) == (a == b)
    assert d <= max(len(a), len(b))
    assert d >= abs(len(a) - len(b))


@settings(max_examples=20, deadline=None)
@given(st.text(max_size=200))
def test_signatures_deterministic_and_shape(t):
    s1 = MH.signature(t)
    s2 = MinHasher(CFG).signature(t)
    assert (s1 == s2).all()
    ts = MH.token_signature(t)
    assert ts.shape == (CFG.num_perm_tok,)


@st.composite
def segmentations(draw):
    """Two random span partitions of the same token stream, with optional
    per-span label noise (gold labels by position bucket)."""
    n_tokens = draw(st.integers(1, 60))
    tokens = [f"t{i}" for i in range(n_tokens)]

    def partition():
        spans, i = [], 0
        while i < n_tokens:
            w = draw(st.integers(1, 8))
            spans.append(" ".join(tokens[i:i + w]))
            i += w
        return spans

    gold = [(s, s.split()[0]) for s in partition()]
    pred = [(s, s.split()[0]) for s in partition()]
    return gold, pred


@settings(max_examples=40, deadline=None)
@given(segmentations())
def test_align_spans_total_and_complete(seg):
    """Any two partitions of the same token stream must align with full
    coverage, zero drift, and every unit label-correct (labels are the
    first token of each span, which both sides share at span starts only
    when boundaries agree — so 'match' units must be correct and the walk
    must consume every span exactly once in order)."""
    from spel_ray.stages.align import align_spans

    gold, pred = seg
    out = align_spans(gold, pred)
    # totality: no drift, no one-sided tails (same underlying stream)
    assert all(r["status"] not in ("drift", "gold_only", "pred_only")
               for r in out)
    # coverage: every span index appears, in nondecreasing order
    g_seen = [r["gold_idx"] for r in out]
    p_seen = [r["pred_idx"] for r in out]
    assert sorted(set(g_seen)) == list(range(len(gold)))
    assert sorted(set(p_seen)) == list(range(len(pred)))
    assert g_seen == sorted(g_seen) and p_seen == sorted(p_seen)
    # exact-boundary units are matches and correct
    for r in out:
        if r["status"] == "match":
            assert r["correct"]


@st.composite
def scored_pairs(draw):
    n = draw(st.integers(3, 60))
    ids = list(range(2 * n))
    rows = []
    for i in range(n):
        a, b = ids[2 * i], ids[2 * i + 1]
        rows.append((a, b, draw(st.floats(0.0, 1.0, allow_nan=False))))
    # truth: roughly half the pairs are matches
    truth = {}
    for i, (a, b, _) in enumerate(rows):
        truth[a] = i
        truth[b] = i if draw(st.booleans()) else -i - 1
    return rows, truth


@settings(max_examples=25, deadline=None)
@given(scored_pairs())
def test_threshold_sweep_best_is_optimal(sp):
    """The sweep's best F1 must equal the brute-force maximum over every
    candidate threshold."""
    import pyarrow as pa
    import ray.data as rd

    from spel_ray.stages.evaluate import threshold_sweep

    rows, truth = sp
    pairs = rd.from_arrow(pa.table({
        "id_lo": [r[0] for r in rows],
        "id_hi": [r[1] for r in rows],
        "score": [r[2] for r in rows],
    }))
    _, best = threshold_sweep(pairs, truth)
    y = np.array([truth[a] == truth[b] for a, b, _ in rows])
    s = np.array([r[2] for r in rows])
    if not y.any():
        assert best["threshold"] is None
        return
    brute = 0.0
    for t in np.unique(s):
        pred = s >= t
        tp = int((pred & y).sum())
        prec = tp / max(int(pred.sum()), 1)
        rec = tp / int(y.sum())
        if prec + rec:
            brute = max(brute, 2 * prec * rec / (prec + rec))
    assert abs(best["f1"] - brute) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(max_size=20), min_size=0, max_size=30))
def test_snm_surrogate_preserves_key_order(keys):
    """If surrogate(a) < surrogate(b) then a < b as strings (UTF-8 byte
    order == code-point order; equal surrogates may hide longer-key ties,
    which the full-key local sort resolves) — the invariant
    sorted-neighborhood range partitioning rests on."""
    import pyarrow as pa

    from spel_ray.functions.dedup import _key_surrogates

    sur = _key_surrogates(pa.array(keys, pa.string()))
    for i in range(len(keys)):
        for j in range(len(keys)):
            if sur[i] < sur[j]:
                assert keys[i] < keys[j], (keys[i], keys[j])
