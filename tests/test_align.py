"""Fuzzy ordered alignment (J6): split/merge repair over misaligned span
streams (reference ``utils.py:425-545`` semantics, recast for the engine)."""

import pandas as pd
import pyarrow as pa
import ray.data as rd

from spel_ray.stages.align import (
    align_gold_pred, align_spans, alignment_report)


def test_exact_match():
    out = align_spans([("New York", "LOC"), ("said", "O")],
                      [("New York", "LOC"), ("said", "O")])
    assert [r["status"] for r in out] == ["match", "match"]
    assert all(r["correct"] for r in out)


def test_whitespace_insensitive_match():
    out = align_spans([("New  York", "LOC")], [("New York", "LOC")])
    assert out[0]["status"] == "match" and out[0]["correct"]


def test_split_pred_repair():
    """One predicted span covers two gold spans → split_pred then repaired."""
    out = align_spans([("New", "B"), ("York City", "I")],
                      [("New York City", "LOC")])
    assert [r["status"] for r in out] == ["split_pred", "repaired"]
    assert [(r["gold_idx"], r["pred_idx"]) for r in out] == [(0, 0), (1, 0)]


def test_split_gold_and_merge_repair():
    """One gold span covers two predicted spans (the reference's
    merge-next-prediction repair): both preds align against the one gold."""
    out = align_spans([("New York City", "LOC")],
                      [("New", "LOC"), ("York City", "LOC")])
    assert [r["status"] for r in out] == ["split_gold", "repaired"]
    assert [(r["gold_idx"], r["pred_idx"]) for r in out] == [(0, 0), (0, 1)]
    assert all(r["correct"] for r in out)


def test_label_mismatch_not_correct():
    out = align_spans([("Paris", "LOC")], [("Paris", "PER")])
    assert out[0]["status"] == "match" and not out[0]["correct"]


def test_drift_resync():
    """Mojibake-style drift: common prefix emitted as drift, streams
    resynchronize and later spans still match."""
    out = align_spans([("café au lait", "A"), ("bon", "B")],
                      [("cafe au lait", "A"), ("bon", "B")])
    assert out[0]["status"] == "drift" and not out[0]["correct"]
    assert out[-1]["status"] == "match" and out[-1]["correct"]


def test_one_sided_tails():
    out = align_spans([("a", "X"), ("b", "Y")], [("a", "X")])
    assert out[-1]["status"] == "gold_only"
    out = align_spans([("a", "X")], [("a", "X"), ("b", "Y")])
    assert out[-1]["status"] == "pred_only"


def test_total_progress_on_garbage():
    """Completely unrelated streams must terminate (drift consumes both)."""
    out = align_spans([("xxxx", "A")] * 3, [("yyy", "B")] * 5)
    assert out  # did not hang / raise
    assert all(r["status"] in ("drift", "gold_only", "pred_only") for r in out)


def test_distributed_alignment_and_report():
    gold = rd.from_arrow(pa.table({
        "doc_id": [1, 1, 2], "span_idx": [0, 1, 0],
        "text": ["New York City", "is big", "hello world"],
        "label": ["LOC", "O", "O"],
    }))
    pred = rd.from_arrow(pa.table({
        "doc_id": [1, 1, 1, 2], "span_idx": [0, 1, 2, 0],
        "text": ["New", "York City", "is big", "hello world"],
        "label": ["LOC", "LOC", "O", "O"],
    }))
    out = align_gold_pred(gold, pred, num_buckets=2).to_pandas()
    d1 = out[out["doc_id"] == 1].sort_values(["gold_idx", "pred_idx"])
    assert list(d1["status"]) == ["split_gold", "repaired", "match"]
    d2 = out[out["doc_id"] == 2]
    assert list(d2["status"]) == ["match"]
    rep = alignment_report(align_gold_pred(gold, pred, num_buckets=2))
    assert rep["aligned_units"] == 4
    assert rep["accuracy"] == 1.0
    assert rep["counts"]["match"] == 2
    # no spans at all: the report's driver gather stays typed
    none = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()), "span_idx": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()), "label": pa.array([], pa.string()),
    }))
    assert alignment_report(align_gold_pred(none, none, num_buckets=2)) == {
        "counts": {}, "aligned_units": 0, "accuracy": 0.0}


# ------------------------- M5: subword↔word alignment w/ lookahead repair
def test_subword_alignment_clean():
    from spel_ray.stages.align import subword_word_alignment

    words = ["loading", "records", "now"]
    pieces = ["load", "ing", "rec", "ords", "now"]
    assert subword_word_alignment(pieces, words) == [(0, 2), (2, 4), (4, 5)]


def test_subword_alignment_repairs_boundary_drift():
    """Reference ``utils.py:101-112``: a piece straddling a word boundary is
    repaired by splitting a 2..6-piece window 1/rest between the two words."""
    from spel_ray.stages.align import subword_word_alignment

    # "don" / "'t" drifted to pieces ["do", "n'", "t"]: no span of pieces
    # ever equals "don", so the walk drifts; the repair matches the
    # 3-piece window "don't" against words "don"+"'t" and splits 1/2
    words = ["don", "'t", "stop"]
    pieces = ["do", "n'", "t", "st", "op"]
    out = subword_word_alignment(pieces, words, max_grow=10)
    assert out == [(0, 1), (1, 3), (3, 5)]     # resynchronized after repair


def test_subword_alignment_whitespace_insensitive_repair():
    from spel_ray.stages.align import subword_word_alignment

    # window join carries an internal space: only the squashed comparison
    # (the reference's replace(" ", "")) can match it
    words = ["ab", "cd"]
    pieces = ["a b", "cd"]
    out = subword_word_alignment(pieces, words, max_grow=4)
    assert out == [(0, 1), (1, 2)]


def test_subword_alignment_unrepairable_raises():
    import pytest

    from spel_ray.stages.align import subword_word_alignment

    with pytest.raises(ValueError, match="drift"):
        subword_word_alignment(["ab"], ["xyz", "qq"], max_grow=4)
    with pytest.raises(ValueError, match="no following word"):
        subword_word_alignment(["ab"], ["xyz"], max_grow=4)
