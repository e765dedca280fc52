"""Fuzzy ordered gold↔predicted segmentation alignment (J6).

Engine recast of the reference's hardest operator — the ordered merge-join
of two phrase streams with split/merge repair of misaligned spans
(reference ``utils.py:425-545``): two segmentations of the same underlying
text rarely share span boundaries (tokenization drift, chunking), so the
comparison walks both streams with two pointers over the
whitespace-insensitive text (the reference's ``replace(" ", "")`` equality),
repairing as it goes:

- **match**    — both spans cover identical squashed text;
- **split_pred** — one predicted span covers a gold span plus more: the
  prefix is emitted against the gold span, the remainder stays current
  (≙ the reference's "potentially missed a span" branch);
- **split_gold** — one gold span covers a predicted span plus more: emitted
  and the gold remainder stays (≙ "potentially over-generated span", which
  also subsumes the merge-next-pred repair — consuming the gold remainder
  against following predicted spans IS the merge);
- **drift**    — neither is a prefix of the other: the longest common
  prefix is emitted as a mismatched unit and both sides resynchronize past
  it (the reference raises here; a data-scale engine must not).

Distributed shape: both sides are colocated per document key via the
bucketed shuffle and aligned with one vectorized-per-bucket pass — the
per-doc walk is O(total squashed chars).
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

ALIGN_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("gold_idx", pa.int64()),
    ("pred_idx", pa.int64()), ("gold_label", pa.string()),
    ("pred_label", pa.string()), ("status", pa.string()),
    ("correct", pa.bool_())])


def _squash(s: str | None) -> str:
    return "".join((s or "").split())


def align_spans(gold: list[tuple[str, str]],
                pred: list[tuple[str, str]]) -> list[dict]:
    """Align two ordered span lists of (text, label) for ONE document.

    Returns one row per aligned unit: (gold_idx, pred_idx, gold_label,
    pred_label, status, correct). ``correct`` = labels equal AND the unit is
    not a drift. Unconsumed tail spans are emitted as one-sided units
    (status ``gold_only`` / ``pred_only``)."""
    out: list[dict] = []
    g_id = p_id = 0
    g_rem: str | None = None
    p_rem: str | None = None
    while g_id < len(gold) and p_id < len(pred):
        g_txt = g_rem if g_rem is not None else _squash(gold[g_id][0])
        p_txt = p_rem if p_rem is not None else _squash(pred[p_id][0])
        if not g_txt:       # empty gold span: consume
            g_id += 1
            g_rem = None
            continue
        if not p_txt:
            p_id += 1
            p_rem = None
            continue
        gl, pl = gold[g_id][1], pred[p_id][1]
        if g_txt == p_txt:
            status = "match" if g_rem is None and p_rem is None else "repaired"
            out.append({"gold_idx": g_id, "pred_idx": p_id, "gold_label": gl,
                        "pred_label": pl, "status": status,
                        "correct": gl == pl})
            g_id += 1
            p_id += 1
            g_rem = p_rem = None
        elif p_txt.startswith(g_txt):     # pred span spills past this gold
            out.append({"gold_idx": g_id, "pred_idx": p_id, "gold_label": gl,
                        "pred_label": pl, "status": "split_pred",
                        "correct": gl == pl})
            p_rem = p_txt[len(g_txt):]
            g_id += 1
            g_rem = None
        elif g_txt.startswith(p_txt):     # gold span spills past this pred
            out.append({"gold_idx": g_id, "pred_idx": p_id, "gold_label": gl,
                        "pred_label": pl, "status": "split_gold",
                        "correct": gl == pl})
            g_rem = g_txt[len(p_txt):]
            p_id += 1
            p_rem = None
        else:                             # tokenization drift: resync past
            k = 0                         # the longest common prefix
            m = min(len(g_txt), len(p_txt))
            while k < m and g_txt[k] == p_txt[k]:
                k += 1
            out.append({"gold_idx": g_id, "pred_idx": p_id, "gold_label": gl,
                        "pred_label": pl, "status": "drift",
                        "correct": False})
            if k == 0:                    # no overlap at all: drop both
                g_id += 1
                p_id += 1
                g_rem = p_rem = None
            else:
                g_rem, p_rem = g_txt[k:], p_txt[k:]
                if not g_rem:
                    g_id += 1
                    g_rem = None
                if not p_rem:
                    p_id += 1
                    p_rem = None
    while g_id < len(gold):
        out.append({"gold_idx": g_id, "pred_idx": -1,
                    "gold_label": gold[g_id][1], "pred_label": "",
                    "status": "gold_only", "correct": False})
        g_id += 1
    while p_id < len(pred):
        out.append({"gold_idx": -1, "pred_idx": p_id,
                    "gold_label": "", "pred_label": pred[p_id][1],
                    "status": "pred_only", "correct": False})
        p_id += 1
    return out


def align_gold_pred(gold: ray.data.Dataset, pred: ray.data.Dataset, *,
                    doc_col: str = "doc_id", idx_col: str = "span_idx",
                    text_col: str = "text", label_col: str = "label",
                    num_buckets: int = 32) -> ray.data.Dataset:
    """Distributed fuzzy alignment: one co-partition exchange (``cogroup``)
    colocates BOTH span streams by document (≙ reference
    ``groupby(doc).map_groups`` zipper join J3/J6); each bucket aligns all
    its documents in one pass.

    Ordering comes from the explicit ``idx_col``, never block order
    (SURVEY.md §7.4)."""
    from spel_ray.state.shuffle import cogroup

    def spans(t: pa.Table) -> dict:
        """doc → its (text, label) spans in ``idx_col`` order; a span with
        a null doc belongs to no document."""
        t = t.sort_by([(doc_col, "ascending"), (idx_col, "ascending")])
        out: dict = {}
        for doc, text, label in zip(*(t[c].to_pylist()
                                      for c in (doc_col, text_col,
                                                label_col))):
            if doc is not None:
                out.setdefault(doc, []).append((text, label))
        return out

    def resolve(g: pa.Table, p: pa.Table) -> pa.Table:
        g_spans, p_spans = spans(g), spans(p)
        rows: list[dict] = []
        for doc in sorted(g_spans.keys() | p_spans.keys()):
            for r in align_spans(g_spans.get(doc, []), p_spans.get(doc, [])):
                r["doc_id"] = doc
                rows.append(r)
        return pa.Table.from_pylist(rows, schema=ALIGN_SCHEMA)

    return cogroup(gold, pred, doc_col, doc_col, resolve,
                   num_buckets=num_buckets)


def subword_word_alignment(pieces: list[str], words: list[str], *,
                           max_grow: int = 1000,
                           lookahead: int = 5) -> list[tuple[int, int]]:
    """M5: two-pointer subword↔word alignment with bounded-lookahead drift
    repair (reference ``utils.py:81-113``).

    Walks the subword ``pieces`` growing a span ``[start, end)`` until its
    joined text equals the current word; when a span grows past
    ``max_grow`` pieces without matching (tokenizer drift — typically one
    piece straddling a word boundary), the repair tries windows of
    ``2..2+lookahead-1`` pieces against the next TWO words joined,
    whitespace-insensitively, and on a hit splits the window 1 piece /
    rest between the two words — exactly the reference's recovery. Returns
    one ``(start, end)`` piece span per word; raises ``ValueError`` when
    even the repair cannot resynchronize (the reference would spin
    forever — a data-scale engine surfaces the record instead)."""
    def _join(ps: list[str]) -> str:
        return "".join(ps).strip()

    mapping: list[tuple[int, int]] = []
    start = end = 0
    wp = 0
    while len(mapping) != len(words):
        cur = _join(pieces[start:end])
        if cur == words[wp]:
            mapping.append((start, end))
            wp += 1
            start = end
            continue
        end += 1
        if end - start <= max_grow and end <= len(pieces):
            continue
        # bounded-lookahead repair: one piece belongs to word wp, the next
        # 1+i pieces to word wp+1 (whitespace-insensitive comparison)
        if wp + 1 >= len(words):
            raise ValueError(
                f"alignment drift at word {wp} ({words[wp]!r}) with no "
                f"following word to repair against")
        target = _squash(words[wp] + words[wp + 1])
        for i in range(lookahead):
            window = _join(pieces[start:start + 2 + i])
            if window == words[wp] + words[wp + 1] \
                    or _squash(window) == target:
                mapping.append((start, start + 1))
                mapping.append((start + 1, start + 2 + i))
                wp += 2
                start = end = start + 2 + i
                break
        else:
            raise ValueError(
                f"alignment drift at word {wp} ({words[wp]!r}) not "
                f"repairable within lookahead={lookahead}")
    return mapping


def alignment_report(aligned: ray.data.Dataset) -> dict:
    """Micro summary over an alignment run: per-status counts + span-level
    accuracy over two-sided units (partial per batch, final on driver)."""
    def status_counts(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("status", sort=False).agg(
            n=("status", "size"), n_correct=("correct", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False) \
                       .replace_schema_metadata(None)

    parts = aligned.map_batches(status_counts, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("status").sum()
    counts = {s: int(n) for s, n in agg["n"].items()}
    two_sided = {s: c for s, c in counts.items()
                 if s not in ("gold_only", "pred_only")}
    n2 = sum(two_sided.values())
    n_correct = int(agg["n_correct"].sum())
    return {
        "counts": counts,
        "aligned_units": n2,
        "accuracy": round(n_correct / n2, 5) if n2 else 0.0,
    }
