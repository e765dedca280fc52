"""MinHash / LSH unit fixtures (FIXTURES.md §5: 6 hand-written strings with
known shared shingles; band collisions for the near-duplicates only), and
the batch sketch kernel against pinned digests and the per-row model."""

import hashlib
import re

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spel_ray.config import LinkageConfig
from spel_ray.sources.synth import generate_code_table
from spel_ray.stages import minhash
from spel_ray.stages.fingerprint import fingerprint_batch
from spel_ray.stages.minhash import (_EMPTY_SENTINEL, MinHasher,
                                     _bytes_and_offsets, _token_spans,
                                     fixed_binary_view, sig_dtype)

CFG = LinkageConfig()

S = [
    "def load_table(path): return read_parquet(path)  # loader",
    "def load_table(path): return read_parquet(path)  # loader v2",   # near-dup of 0
    "class StreamMerger: pass",
    "the quick brown fox jumps over the lazy dog",
    "the quick brown fox jumped over the lazy dogs",                  # near-dup of 3
    "completely unrelated content with no shared shingles at all!!",
]


def test_signature_deterministic():
    mh = MinHasher(CFG)
    a = mh.signature(S[0])
    b = MinHasher(CFG).signature(S[0])
    assert (a == b).all()
    assert a.dtype == np.uint64 and a.shape == (CFG.num_perm,)


def test_jaccard_estimates_order():
    mh = MinHasher(CFG)
    sig = [mh.signature(s) for s in S]

    def est(i, j):
        return (sig[i] == sig[j]).mean()

    assert est(0, 1) > 0.7
    assert est(3, 4) > 0.5
    assert est(0, 2) < 0.2
    assert est(3, 5) < 0.2
    assert est(0, 0) == 1.0


def test_band_collisions_near_dups_only():
    mh = MinHasher(CFG)
    bands = [set(map(int, mh.band_hashes(mh.signature(s)) *
                     np.arange(1, CFG.bands + 1, dtype=np.uint64)))
             for s in S]
    # near-dup pairs share at least one (band, hash); use positioned hashes
    def share(i, j):
        bi = mh.band_hashes(mh.signature(S[i]))
        bj = mh.band_hashes(mh.signature(S[j]))
        return bool((bi == bj).any())

    assert share(0, 1)
    assert share(3, 4)
    assert not share(0, 3)
    assert not share(2, 5)
    assert not share(0, 5)


def test_short_and_empty_strings():
    mh = MinHasher(CFG)
    for s in ["", "a", "ab", "abcdef"]:
        sig = mh.signature(s)
        assert sig.shape == (CFG.num_perm,)
        assert (sig == MinHasher(CFG).signature(s)).all()


# --- the batch kernel against the per-row sketch it replaced ---------------

# sha256 of the concatenated sig / sig_tok bytes of the 2k fixture, taken
# from the per-row sketch before the batch kernel replaced it
PINNED = {
    2: ("168ad4818fe057ff1ab5944896267ed087af35fa4f3d8c87b48803c5945f8a06",
        "210a68d60323acb490309f70c901b8228a1d5918ad3266b4ff8817d757a4eadf"),
    4: ("e6b628f1e09668d31de99c4915479184ea5a02f62ba62aafe90112972f708dd7",
        "a610e810e16caaf747fba75116ef73e92314e5ed72578dbed14207d141bcf835"),
}


@pytest.fixture(scope="module")
def fixture_2k():
    return fingerprint_batch(generate_code_table(2000, seed=42))


@pytest.mark.parametrize("sig_bytes", [2, 4])
def test_signature_bytes_pinned(fixture_2k, sig_bytes):
    out = MinHasher(LinkageConfig(sig_bytes=sig_bytes))(fixture_2k)
    got = tuple(hashlib.sha256(b"".join(out[c].to_pylist())).hexdigest()
                for c in ("sig", "sig_tok"))
    assert got == PINNED[sig_bytes]


# The token rule the per-row sketch ran through ``re.findall``; the batch
# kernel scans byte classes instead (``_token_spans``), so the reference
# model keeps its own copy of the regex.
TOKEN_RE = re.compile(rb"[A-Za-z_][A-Za-z_0-9]*|\d+")


class RowSketch:
    """The per-row sketch the batch kernel replaced, kept verbatim as the
    reference model. Shares the permutation tables of a MinHasher."""

    def __init__(self, mh: MinHasher):
        self.cfg, self.A, self.B = mh.cfg, mh.A, mh.B
        self.At, self.Bt = mh.At, mh.Bt
        self.powers, self.token_re = mh.powers, TOKEN_RE

    def shingle_hashes(self, text: str) -> np.ndarray:
        """Unique uint64 hashes of the char-k shingles of ``text``."""
        k = self.cfg.shingle_k
        b = np.frombuffer(text.encode("utf-8", errors="ignore"), dtype=np.uint8)
        if len(b) < k:  # incl. empty: pad to exactly one window
            pad = np.zeros(k, dtype=np.uint8)
            pad[: len(b)] = b
            b = pad
        win = np.lib.stride_tricks.sliding_window_view(b, k).astype(np.uint64)
        h = (win * self.powers[None, :]).sum(axis=1, dtype=np.uint64)
        # xorshift finalizer for better low-bit mixing
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        return np.unique(h)

    def signature(self, text: str) -> np.ndarray:
        """(num_perm,) uint64 MinHash signature."""
        h = self.shingle_hashes(text)
        # (P, S) broadcast, min over shingles
        m = self.A[:, None] * h[None, :] + self.B[:, None]
        return m.min(axis=1)

    def token_hashes(self, text: str) -> np.ndarray:
        toks = set(self.token_re.findall(text.encode("utf-8", errors="ignore")))
        if not toks:
            return np.array([_EMPTY_SENTINEL], dtype=np.uint64)
        return np.fromiter(
            (int.from_bytes(hashlib.md5(t).digest()[:8], "little")
             for t in toks),
            dtype=np.uint64, count=len(toks))

    def token_signature(self, text: str) -> np.ndarray:
        h = self.token_hashes(text)
        m = self.At[:, None] * h[None, :] + self.Bt[:, None]
        return m.min(axis=1)


EDGE_TEXTS = [
    "", None, "a", "ab", "abc", "abcd", "abcde", "abcdef",   # shorter than k
    "abcdefg",                                             # exactly k
    "déjà vu — naïve façade, 日本語のテキスト 🙂 x1 y_2",       # multi-byte
    "def f(x):\n    return x + 1\n" * 360,                 # ~10k chars
    "abcdefg", "", None,                                   # duplicates
    "!@#$%^&*()[]{};:'\",.<>/?\\|`~-=+ \t\n",                # punctuation
    "é", "日本", "12 345 0x1f _a a_ 9lives",
    "\v", "a\vb  c",                                       # \v: not RE2's \s
]


@pytest.mark.parametrize("chunk_windows", [5, 1 << 16])
@pytest.mark.parametrize("sig_bytes", [2, 4])
def test_batch_kernel_matches_row_sketch(monkeypatch, chunk_windows,
                                         sig_bytes):
    """The batch kernel equals the per-row model on every edge case, also
    when chunking splits the batch into many chunks."""
    monkeypatch.setattr(minhash, "_CHUNK_WINDOWS", chunk_windows)
    cfg = LinkageConfig(sig_bytes=sig_bytes)
    mh = MinHasher(cfg)
    ref = RowSketch(mh)
    texts = EDGE_TEXTS + ["x" * 70_000]      # longer than one chunk
    sig, tok = mh.minima(pa.array(texts, pa.string()))
    want_sig = np.stack([ref.signature(t or "") for t in texts])
    want_tok = np.stack([ref.token_signature(t or "") for t in texts])
    assert (sig == want_sig).all() and (tok == want_tok).all()

    out = mh(pa.table({"norm_content": pa.array(texts, pa.string())}))
    dt = sig_dtype(cfg)
    assert (fixed_binary_view(out["sig"], cfg.num_perm, dt)
            == want_sig.astype(dt)).all()
    assert (fixed_binary_view(out["sig_tok"], cfg.num_perm_tok, dt)
            == want_tok.astype(dt)).all()

    for t in texts:                      # the per-text views
        t = t or ""
        assert (mh.signature(t) == ref.signature(t)).all()
        assert (mh.token_signature(t) == ref.token_signature(t)).all()
        assert (mh.shingle_hashes(t) == ref.shingle_hashes(t)).all()


def test_batch_kernel_reads_any_string_layout():
    """Chunked, sliced and large_string columns sketch like a plain one."""
    mh = MinHasher(CFG)
    texts = EDGE_TEXTS[:12]
    want = mh.minima(pa.array(texts, pa.string()))
    for col in (pa.chunked_array([texts[:5], texts[5:]], pa.string()),
                pa.array(["pad"] + texts, pa.string()).slice(1),
                pa.array(texts, pa.large_string())):
        got = mh.minima(col)
        assert (got[0] == want[0]).all() and (got[1] == want[1]).all()
    sig, tok = mh.minima(pa.array([], pa.string()))
    assert sig.shape == (0, CFG.num_perm) and tok.shape == (0, CFG.num_perm_tok)


@pytest.mark.parametrize("rows_per_call", [1, 7, 2048])
def test_sketch_invariant_to_batch_boundaries(fixture_2k, rows_per_call):
    t = fixture_2k.slice(0, 300)
    mh = MinHasher(CFG)
    want = mh(t)
    got = pa.concat_tables([mh(t.slice(i, rows_per_call))
                            for i in range(0, t.num_rows, rows_per_call)])
    assert got["sig"].equals(want["sig"])
    assert got["sig_tok"].equals(want["sig_tok"])


# --- the token scan against re.findall ------------------------------------

_TOKEN_BYTES = st.lists(st.one_of(
    st.binary(max_size=6),                                  # any byte
    st.sampled_from([b"9lives", b"0x1f", b"int32_t", b"_", b"x9", b"007",
                     b"12ab34", b" ", b"\x00", b"\xc3\xa9", b"\xff"])),
    max_size=12).map(b"".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(_TOKEN_BYTES, max_size=8), st.binary(max_size=3))
def test_token_spans_match_findall(rows, pad):
    """One scan over a chunk's bytes finds each row's ``re.findall``
    tokens: random bytes with non-ASCII and NUL, digit-then-identifier
    runs, tokens that touch a row boundary, empty and separator-only
    rows, and rows that start past the buffer's first byte."""
    data = np.frombuffer(pad + b"".join(rows), np.uint8)
    offs = np.cumsum([len(pad)] + [len(r) for r in rows]).astype(np.int64)
    ts, te = _token_spans(data, offs)
    got = [bytes(data[a:b]) for a, b in zip(ts, te)]
    assert got == [t for r in rows for t in TOKEN_RE.findall(r)]
    rows_of = np.searchsorted(offs, ts, side="right") - 1
    assert [int((rows_of == i).sum()) for i in range(len(rows))] == \
        [len(TOKEN_RE.findall(r)) for r in rows]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(max_size=30), _TOKEN_BYTES.map(
    lambda b: b.decode("utf-8", errors="ignore"))), max_size=10))
def test_token_minima_match_row_sketch(texts):
    """The token signatures of a batch equal the per-row model's
    (``set(findall)`` then md5 per token, ``_EMPTY_SENTINEL`` when none)."""
    mh = MinHasher(CFG)
    ref = RowSketch(mh)
    _, tok = mh.minima(pa.array(texts, pa.string()))
    want = np.stack([ref.token_signature(t or "") for t in texts]) \
        if texts else np.zeros((0, CFG.num_perm_tok), np.uint64)
    assert (tok == want).all()


def test_bytes_and_offsets_reads_any_layout():
    want = [b"ab", b"", b"c\x00d"]
    for col in (pa.array(want, pa.binary()),
                pa.array([b"pad"] + want, pa.large_binary()).slice(1),
                pa.chunked_array([want[:1], want[1:]], pa.binary())):
        data, offs = _bytes_and_offsets(col)
        assert [bytes(data[a:b]) for a, b in zip(offs[:-1], offs[1:])] == want
    data, offs = _bytes_and_offsets(pa.chunked_array([], pa.string()))
    assert len(data) == 0 and offs.tolist() == [0]
