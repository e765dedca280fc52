"""Normalizer + fingerprint stage (M4 analog: comment/whitespace-aware
shingling view with the sha256 raw-content invariant)."""

import hashlib

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from spel_ray.stages.fingerprint import (
    _norm_ws, fingerprint, fingerprint_batch, row_id_batch,
    strip_code_comments, text_record_batch)
from tests.conftest import row_id_of


def test_strip_code_comments_per_lang():
    content = pa.array([
        "x = 1  # trailing\n# full line\ny = 2",
        "int a = 1; // c-style\n/* block\n comment */\nint b = 2;",
        "SELECT 1 -- sql comment\nFROM t",
        "# not a comment in unknown lang",
    ])
    langs = pa.array(["python", "java", "sql", "weird"])
    out = strip_code_comments(content, langs).to_pylist()
    assert "#" not in out[0] and "x = 1" in out[0] and "y = 2" in out[0]
    assert "//" not in out[1] and "block" not in out[1] and "int b = 2;" in out[1]
    assert "--" not in out[2] and "FROM t" in out[2]
    assert out[3] == "# not a comment in unknown lang"   # untouched


def test_strip_code_comments_batch_equals_row_by_row():
    """One mixed batch strips each row exactly as a one-row call does:
    every lang with comment syntax (the ``#`` family, the C family with its
    block comments, sql), an unknown lang, null langs and null content, as
    plain and as chunked input."""
    from spel_ray.stages.fingerprint import _COMMENT_CHAIN

    bodies = ["x = 1  # hash\ny = 2", "a /* one\n two */ b // slash\nc",
              "SELECT 1 -- dash\nFROM t", None, "",
              "keep -- # // /* */ all"]
    langs = [*_COMMENT_CHAIN, "weird", None, None]
    rows = [(b, lg) for lg in langs for b in bodies]
    content = pa.array([b for b, _ in rows], pa.string())
    lang = pa.array([lg for _, lg in rows], pa.string())
    want = [strip_code_comments(content.slice(i, 1), lang.slice(i, 1))
            .to_pylist()[0] for i in range(len(rows))]
    assert want[bodies.index("x = 1  # hash\ny = 2")] == "x = 1   \ny = 2"
    h = len(rows) // 3
    for c, lg in ((content, lang),
                  (pa.chunked_array([content[:h], content[h:]]),
                   pa.chunked_array([lang[:2 * h], lang[2 * h:]]))):
        assert strip_code_comments(c, lg).to_pylist() == want


def test_comment_churn_does_not_change_norm_content():
    """Two files differing only in comments must share norm_content (the
    reason the normalizer exists) while keeping distinct sha256."""
    rows = pa.table({
        "repo": ["r", "r"], "path": ["a.py", "b.py"], "commit": ["c1", "c2"],
        "lang": ["python", "python"],
        "content": ["def f(x):\n    return x + 1\n",
                    "# added note\ndef f(x):  # inline\n    return x + 1\n"],
    })
    out = fingerprint_batch(rows, strip_comments=True)
    ncs = out["norm_content"].to_pylist()
    assert ncs[0] == ncs[1]
    shas = out["content_sha256"].to_pylist()
    assert shas[0] != shas[1]
    # invariant: sha256 is over the RAW content
    assert shas[1] == hashlib.sha256(rows["content"][1].as_py().encode()).hexdigest()


def test_fingerprint_stage_respects_flag():
    rows = pa.table({
        "repo": ["r"], "path": ["a.py"], "commit": ["c"],
        "lang": ["python"], "content": ["x = 1  # comment"],
    })
    on = fingerprint(rd.from_arrow(rows), strip_comments=True).to_pandas()
    off = fingerprint(rd.from_arrow(rows), strip_comments=False).to_pandas()
    assert "comment" not in on["norm_content"][0]
    assert "comment" in off["norm_content"][0]
    assert on["content_sha256"][0] == off["content_sha256"][0]
    assert on["n_chars"][0] == off["n_chars"][0]


# --- the buffer kernels against the forms they replaced --------------------

def _norm_ws_regex(col):
    """The whitespace view as first defined: RE2 ``\\s+`` → one space, then
    trim."""
    return pc.utf8_trim_whitespace(
        pc.replace_substring_regex(col, pattern=r"\s+", replacement=" "))


_WS_TEXT = st.one_of(st.none(), st.lists(st.sampled_from(
    [" ", "  ", "\t", "\n", "\v", "\f", "\r", "\x1c", "\x1d", "\x1e",
     "\x1f", "\x85", "\xa0", "\u2028", "\u3000", "\x00", "a", "bc", "é",
     "日"]), max_size=12).map("".join))


@settings(max_examples=200, deadline=None)
@given(st.lists(_WS_TEXT, max_size=10),
       st.sampled_from(["plain", "chunked", "large"]))
def test_norm_ws_matches_regex(texts, layout):
    """ASCII control bytes (``\\v`` included, which RE2's ``\\s`` lacks),
    Unicode spaces, empty strings and nulls normalize as the regex does."""
    col = pa.array(texts, pa.large_string() if layout == "large"
                   else pa.string())
    if layout == "chunked":
        col = pa.chunked_array([col[:len(texts) // 2], col[len(texts) // 2:]])
    want = _norm_ws_regex(col).to_pylist()
    assert _norm_ws(col).to_pylist() == want


def _sha_hex(t):
    """Per-row content sha256 as first written: null read as ``""``."""
    return hashlib.sha256((t or "").encode()).hexdigest()


_PART = st.one_of(st.none(), st.text(max_size=8))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_PART, _PART, _PART, _PART), max_size=12),
       st.sampled_from(["plain", "chunked", "sliced", "large"]))
def test_row_ids_and_sha_match_hashlib(rows, layout):
    """Row ids and content sha256 equal the per-row ``hashlib`` forms for
    null repo, path, commit and content, over chunked, sliced and
    ``large_string`` columns."""
    cols = list(zip(*rows)) if rows else [(), (), (), ()]

    def column(values):
        if layout == "large":
            return pa.array(values, pa.large_string())
        if layout == "sliced":
            return pa.array(["pad", *values], pa.string()).slice(1)
        if layout == "chunked":
            h = len(values) // 2
            return pa.chunked_array([values[:h], values[h:]], pa.string())
        return pa.array(values, pa.string())

    t = pa.table(dict(zip(["repo", "path", "commit", "content"],
                          map(column, cols))))
    want_ids = [row_id_of(r, p, c) for r, p, c, _ in rows]
    want_sha = [_sha_hex(b) for *_, b in rows]
    assert row_id_batch(t)["row_id"].to_pylist() == want_ids
    fp = fingerprint_batch(t, strip_comments=False)
    assert fp["row_id"].to_pylist() == want_ids
    assert fp["content_sha256"].to_pylist() == want_sha
    tr = text_record_batch(t.append_column("id", pa.array(
        range(t.num_rows), pa.int64())), "content", "id", "txt")
    assert tr["content_sha256"].to_pylist() == want_sha
