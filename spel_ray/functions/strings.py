"""String-similarity kernels used by the exact verifier.

All batch-oriented: one call scores a list of pairs. Jaro-Winkler and
Levenshtein follow the standard published definitions (Winkler 1990;
Wagner-Fischer DP); Levenshtein runs the DP with numpy row vectors so the
inner loop is O(len) vector ops, not O(len²) Python.
"""

from __future__ import annotations

import re

import numpy as np

# identifier / number tokens; the bytes form matches ``\d`` in ASCII only
TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+")
TOKEN_RE_BYTES = re.compile(TOKEN_RE.pattern.encode())


def token_jaccard_pairs(a_list: list[str], b_list: list[str]) -> np.ndarray:
    """Jaccard over identifier/number token sets, per pair."""
    out = np.empty(len(a_list), dtype=np.float64)
    for i, (a, b) in enumerate(zip(a_list, b_list)):
        ta, tb = set(TOKEN_RE.findall(a)), set(TOKEN_RE.findall(b))
        if not ta and not tb:
            out[i] = 1.0
        else:
            inter = len(ta & tb)
            out[i] = inter / (len(ta) + len(tb) - inter)
    return out


def jaro(a: str, b: str) -> float:
    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return 1.0
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    ba = np.frombuffer(a.encode("utf-16-le"), dtype=np.uint16)
    bb = np.frombuffer(b.encode("utf-16-le"), dtype=np.uint16)
    # surrogate pairs would desync lengths; fall back to codepoint arrays
    if len(ba) != la or len(bb) != lb:
        ba = np.array([ord(c) for c in a], dtype=np.uint32)
        bb = np.array([ord(c) for c in b], dtype=np.uint32)
    match_b = np.zeros(lb, dtype=bool)
    match_a = np.zeros(la, dtype=bool)
    m = 0
    for i in range(la):
        lo = max(0, i - window)
        hi = min(lb, i + window + 1)
        seg = (bb[lo:hi] == ba[i]) & ~match_b[lo:hi]
        j = np.flatnonzero(seg)
        if len(j):
            match_b[lo + j[0]] = True
            match_a[i] = True
            m += 1
    if m == 0:
        return 0.0
    sa = ba[match_a]
    sb = bb[match_b]
    t = int((sa != sb).sum()) // 2
    return (m / la + m / lb + (m - t) / m) / 3.0


def jaro_winkler(a: str, b: str, p: float = 0.1, max_prefix: int = 4,
                 boost_threshold: float = 0.7) -> float:
    """Classic Winkler form: the common-prefix bonus applies only when the
    Jaro similarity clears ``boost_threshold`` (Winkler 1990) — also
    bit-identical to DuckDB's ``jaro_winkler_similarity`` (verified over a
    test matrix incl. asymmetric lengths), which makes verifier scores
    SQL-oracle-able. Sole divergence: ('','') is 1.0 here, 0.0 in DuckDB
    (the oracle special-cases it)."""
    j = jaro(a, b)
    if j <= boost_threshold:
        return j
    prefix = 0
    for ca, cb in zip(a[:max_prefix], b[:max_prefix]):
        if ca != cb:
            break
        prefix += 1
    return j + prefix * p * (1.0 - j)


def jaro_winkler_pairs(a_list: list[str], b_list: list[str]) -> np.ndarray:
    return np.array([jaro_winkler(a, b) for a, b in zip(a_list, b_list)],
                    dtype=np.float64)


def levenshtein(a: str, b: str) -> int:
    """Wagner-Fischer with numpy row vectors (O(len_a) vector ops)."""
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    bb = np.array([ord(c) for c in b], dtype=np.uint32)
    prev = np.arange(lb + 1, dtype=np.int64)
    ar = np.arange(lb + 1, dtype=np.int64)
    for i, ca in enumerate(a, start=1):
        sub = prev[:-1] + (bb != ord(ca))        # substitution / match
        dele = prev[1:] + 1                      # deletion from a
        tmp = np.concatenate(([i], np.minimum(sub, dele)))
        # insertion is the prefix recurrence cur[j] = min(tmp[j], cur[j-1]+1)
        # = min_{k<=j}(tmp[k] + (j-k)) = accumulate-min(tmp - j) + j
        prev = np.minimum.accumulate(tmp - ar) + ar
    return int(prev[lb])


def levenshtein_ratio(a: str, b: str) -> float:
    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(la, lb)


# --------------------------------------------------------------- mojibake
# Common double-encoding artifacts (UTF-8 bytes read back as latin-1 /
# cp1252) — the engine analog of the reference's detokenizer repair table
# (reference ``span_annotation.py:44-46``: 'A-circumflex pound'->'pound'
# etc.). The general repair below inverts the full corruption class; the
# table lists high-frequency cases for the mixed clean+corrupt fallback.
MOJIBAKE_TABLE = {
    "Â£": "£",    # pound
    "Â°": "°",    # degree
    "Â®": "®",    # (R)
    "Â©": "©",    # (C)
    "â€™": "’",   # right single quote
    "â€˜": "‘",   # left single quote
    "â€œ": "“",   # left double quote
    "â€\x9d": "”",     # right double quote
    "â€“": "–",   # en dash
    "â€”": "—",   # em dash
    "â€¦": "…",   # ellipsis
    "Ã©": "é", "Ã¨": "è",
    "Ã¼": "ü", "Ã¶": "ö",
    "Ã¤": "ä", "Ã±": "ñ",
    "Ã§": "ç", "Ã ": "à",
}

_MOJIBAKE_HINT = re.compile("[ÂÃâ]")


def fix_mojibake(text: str) -> str:
    """Repair UTF-8-decoded-as-cp1252 mojibake when (and only when) the
    inverse round-trip produces strictly valid UTF-8; otherwise apply the
    table for partial repairs. Idempotent on clean text."""
    if not text or not _MOJIBAKE_HINT.search(text):
        return text
    try:
        repaired = text.encode("cp1252", errors="strict").decode(
            "utf-8", errors="strict")
    except (UnicodeEncodeError, UnicodeDecodeError):
        # mixed clean+corrupt text: targeted table repairs only
        for bad, good in MOJIBAKE_TABLE.items():
            text = text.replace(bad, good)
        return text
    return repaired


def fix_mojibake_batch(texts: list[str | None]) -> list[str]:
    """Batch form for map_batches — the hint regex short-circuits the
    overwhelmingly common clean case to one C scan per row."""
    return [fix_mojibake(t) if t else (t or "") for t in texts]
