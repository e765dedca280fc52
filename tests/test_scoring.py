"""Sketch scorer, exact verifier and the bucketed content join."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from spel_ray.config import LinkageConfig
from spel_ray.stages.scoring import (
    BorderlineVerifier, score_pair_arrays, verify_borderline)
from spel_ray.state.shuffle import bucketed_join

CFG = LinkageConfig()


def _sig(fill, n):
    return np.full((1, n), fill, dtype=np.uint32)


def test_score_pair_arrays_blend():
    same = _sig(7, CFG.num_perm)
    diff = _sig(9, CFG.num_perm)
    tok_same = _sig(7, CFG.num_perm_tok)
    n = np.array([100])
    jac, exact, score = score_pair_arrays(
        CFG, same, same, tok_same, tok_same, n, n, np.array([False]))
    assert jac[0] == 1.0 and not exact[0]
    assert score[0] == 1.0  # full agreement, equal lengths
    jac2, _, score2 = score_pair_arrays(
        CFG, same, diff, tok_same, tok_same, n, n, np.array([False]))
    assert jac2[0] == 0.0
    # only token view agrees → score = tok_weight
    assert score2[0] == CFG.tok_weight
    # sha equality overrides everything
    _, exact3, score3 = score_pair_arrays(
        CFG, same, diff, tok_same, tok_same, n, n, np.array([True]))
    assert exact3[0] and score3[0] == 1.0


def test_length_ratio_gates_score():
    same = _sig(7, CFG.num_perm)
    tok = _sig(7, CFG.num_perm_tok)
    _, _, balanced = score_pair_arrays(
        CFG, same, same, tok, tok, np.array([100]), np.array([100]),
        np.array([False]))
    _, _, skewed = score_pair_arrays(
        CFG, same, same, tok, tok, np.array([10]), np.array([1000]),
        np.array([False]))
    assert skewed[0] < balanced[0]


def test_borderline_verifier_direct():
    v = BorderlineVerifier(CFG)
    batch = pa.table({
        "id_lo": [1, 3], "id_hi": [2, 4],
        "exact": [False, False], "score": [0.5, 0.5],
        "content_lo": ["def f(a, b): return a + b", "alpha beta gamma"],
        "content_hi": ["def f(a, b): return a + b", "delta epsilon zeta"],
    })
    out = v(batch)
    assert isinstance(out, pa.Table)     # Arrow in, Arrow out
    out = out.to_pandas()
    assert out.loc[0, "score"] > 0.9     # identical
    assert out.loc[1, "score"] < 0.4     # disjoint tokens
    assert out["verified"].all()
    assert "content_lo" not in out.columns


def test_bucketed_content_join_resolves_and_keeps_misses():
    left = rd.from_arrow(pa.table({
        "id_lo": pa.array([11, 12, 99], pa.int64()),
        "score": pa.array([0.5, 0.6, 0.7], pa.float64()),
    }))
    records = rd.from_arrow(pa.table({
        "row_id": pa.array([11, 12], pa.int64()),
        "norm_content": pa.array(["aaa", "bbb"], pa.string()),
    }))
    content = records.rename_columns({"norm_content": "content_lo"})
    out = bucketed_join(left, content, "id_lo", "row_id", how="left",
                        num_buckets=4).to_pandas().set_index("id_lo")
    assert out.loc[11, "content_lo"] == "aaa"
    assert out.loc[12, "content_lo"] == "bbb"
    assert pd.isna(out.loc[99, "content_lo"])  # miss kept, null content
    assert len(out) == 3


@pytest.mark.parametrize("scores,expect_verified", [
    ([0.9, 0.1], [False, False]),   # nothing borderline
    ([0.5, 0.6], [True, True]),     # everything borderline
    ([], []),                       # no pairs at all
])
def test_verify_borderline_band_edges(scores, expect_verified):
    """Either branch of the split may be empty and schema-less — the union
    must still produce the full column set."""
    cfg = LinkageConfig(use_verifier=True, verify_low=0.4, verify_high=0.8)
    n = len(scores)
    pairs = rd.from_arrow(pa.table({
        "id_lo": pa.array(list(range(1, n + 1)), pa.int64()),
        "id_hi": pa.array(list(range(101, 101 + n)), pa.int64()),
        "block_key": pa.array([0] * n, pa.int64()),
        "jac": pa.array(scores, pa.float64()),
        "exact": pa.array([False] * n),
        "score": pa.array(scores, pa.float64()),
        "capped": pa.array([False] * n),
        "n_blocks": pa.array([1] * n, pa.int64()),
    }))
    records = rd.from_arrow(pa.table({
        "row_id": pa.array(list(range(1, 10)) + list(range(101, 110)), pa.int64()),
        "norm_content": pa.array(["x y z"] * 18, pa.string()),
    }))
    out = verify_borderline(pairs, records, cfg, num_buckets=4).to_pandas()
    if not expect_verified:
        assert len(out) == 0   # empty input → empty (possibly column-less) out
    else:
        assert sorted(out["verified"]) == sorted(expect_verified)


def test_verify_borderline_only_touches_band():
    cfg = LinkageConfig(use_verifier=True, verify_low=0.4, verify_high=0.8)
    pairs = rd.from_arrow(pa.table({
        "id_lo": pa.array([1, 3, 5], pa.int64()),
        "id_hi": pa.array([2, 4, 6], pa.int64()),
        "block_key": pa.array([0, 0, 0], pa.int64()),
        "jac": pa.array([0.9, 0.5, 0.1], pa.float64()),
        "exact": pa.array([False, False, False]),
        "score": pa.array([0.9, 0.5, 0.1], pa.float64()),
        "capped": pa.array([False, False, False]),
        "n_blocks": pa.array([1, 1, 1], pa.int64()),
    }))
    records = rd.from_arrow(pa.table({
        "row_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "norm_content": pa.array(["x y z"] * 6, pa.string()),
    }))
    out = verify_borderline(pairs, records, cfg, num_buckets=4) \
        .to_pandas().set_index("id_lo")
    # only the 0.5 pair was re-scored (identical contents → ~1.0)
    assert not out.loc[1, "verified"] and out.loc[1, "score"] == 0.9
    assert out.loc[3, "verified"] and out.loc[3, "score"] > 0.9
    assert not out.loc[5, "verified"] and out.loc[5, "score"] == 0.1
