"""MinHash signatures + LSH band keys (vectorized, numpy-only).

The engine analog of the reference's subword-level top-k candidate tagging
over a fixed vocabulary (reference ``model.py:161-186``): a cheap per-record
sketch whose collisions define the candidate set. A pair of records is a
candidate iff they share at least one blocking key — exactly the reference's
candidate-set restriction (``candidate_manager.py:76-103``).

Implementation notes (all public-knowledge techniques — Broder '97 MinHash,
Leskovec et al. MMDS ch.3 LSH banding):

- char-k shingles are hashed with a polynomial rolling hash over the UTF-8
  bytes (base 257, uint64 wraparound) and an xorshift finalizer;
- ``num_perm`` permutations are the standard universal family
  ``h_i(x) = a_i * x + b_i (mod 2^64)`` with seeded odd multipliers, min
  over each record's shingles;
- band keys are ``b{band}:{hash(sig[band*r:(band+1)*r])}`` so distinct bands
  never collide with each other.

One batch kernel (:meth:`MinHasher.minima`) sketches a whole Arrow column
straight from its buffers: each distinct text once (dictionary-encode, then
gather back by index), one rolling hash over the concatenated bytes of a
chunk of rows, and per permutation one pass over every window of the chunk
followed by a segmented min (``np.minimum.reduceat`` at the row starts).
Tokens come from one byte-class scan over every distinct text
(:func:`_token_spans`, equal to ``re.findall`` row by row) and one
``dictionary_encode`` over the scanned bytes, so md5 runs once per distinct
token. No Python loop runs per row: the loops run over permutations and
chunks, plus one ``hashlib.md5`` call per distinct token. The per-text
methods (``signature``, ``token_signature``, ``shingle_hashes``) are views
of the same kernel.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from spel_ray.config import LinkageConfig

_EMPTY_SENTINEL = np.uint64(0x9E3779B97F4A7C15)

# Shingle windows per kernel chunk. Each uint64 work array is then 512 KiB,
# so the per-permutation passes run in L2 cache: on the 4k-row bench table
# (single-threaded, Xeon) the sketch took 0.44-0.52 s at 2^16 windows,
# 0.56-0.58 s at 2^18 and 0.88-0.95 s at 2^22 (32 MiB arrays). A row with
# more windows forms its own chunk.
_CHUNK_WINDOWS = 1 << 16


def _bytes_and_offsets(col: pa.Array | pa.ChunkedArray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(uint8 data, int64 offsets) of a null-free string or binary column:
    row i is ``data[offsets[i]:offsets[i + 1]]``."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return np.zeros(0, np.uint8), np.zeros(1, np.int64)
    large = pa.types.is_large_string(col.type) or \
        pa.types.is_large_binary(col.type)
    offs = np.frombuffer(col.buffers()[1], np.int64 if large else np.int32)
    offs = offs[col.offset: col.offset + len(col) + 1].astype(np.int64)
    buf = col.buffers()[2]
    data = np.frombuffer(buf, np.uint8) if buf is not None \
        else np.zeros(0, np.uint8)
    return data, offs


def _text_bytes(text: str) -> tuple[np.ndarray, np.ndarray]:
    """One text as a one-row (data, offsets) kernel input."""
    b = np.frombuffer(text.encode("utf-8", errors="ignore"), np.uint8)
    return b, np.array([0, len(b)], np.int64)


def _run_bounds(cls: np.ndarray, row_start: np.ndarray):
    """(starts, ends) of the maximal runs of True in the bool array ``cls``
    that stay inside one row (``row_start[i]``: a row starts at byte i)."""
    n = len(cls)
    cut = row_start.copy()
    cut[1:n] |= ~cls[:-1]
    start = np.flatnonzero(cls & cut[:n])
    cut = row_start[1:].copy()
    cut[:n - 1] |= ~cls[1:]
    return start, np.flatnonzero(cls & cut) + 1


def _token_spans(data: np.ndarray, offs: np.ndarray):
    """(start, end) byte positions, in order, of the matches of
    ``[A-Za-z_][A-Za-z_0-9]*|\\d+`` (over bytes, so ``\\d`` is ASCII) in the
    rows ``data[offs[i]:offs[i + 1]]`` — ``re.findall`` over every row in
    one vectorized scan. A maximal ``[A-Za-z_0-9]`` run inside a row yields
    its leading digit run, if it starts with a digit, and then the rest of
    the run; every other byte (non-ASCII and NUL included) and every row
    boundary separates tokens."""
    lo, hi = int(offs[0]), int(offs[-1])
    b = data[lo:hi]
    digit = (b - np.uint8(ord("0"))) < 10
    word = digit | ((b | np.uint8(0x20)) - np.uint8(ord("a")) < 26) | \
        (b == ord("_"))
    row_start = np.zeros(len(b) + 1, bool)
    row_start[offs - lo] = True
    start, end = _run_bounds(word, row_start)
    # a word run that starts with a digit also starts a digit run: its
    # leading digits end where that digit run ends
    lead = digit[start]
    digit_end = _run_bounds(digit, row_start)[1]
    mid = end.copy()
    mid[lead] = digit_end[np.searchsorted(digit_end, start[lead],
                                          side="right")]
    split = mid < end
    per_run = 1 + split
    first = np.cumsum(per_run) - per_run
    ts = np.empty(len(start) + int(split.sum()), np.int64)
    te = np.empty_like(ts)
    ts[first], te[first] = start, mid
    ts[first[split] + 1], te[first[split] + 1] = mid[split], end[split]
    return ts + lo, te + lo


def _token_vocab(data: np.ndarray, ts: np.ndarray,
                 te: np.ndarray) -> np.ndarray:
    """uint64 hash of each token ``data[ts[j]:te[j]]``: the little-endian
    first 8 bytes of its md5, bit-identical to DuckDB's
    ``md5_number_upper`` (the same cross-engine oracle-able scheme as the
    SimHash word hash and the shingle fingerprints). md5 runs once per
    distinct token: one ``dictionary_encode`` of a binary array laid over
    ``data`` itself with offsets token, gap, token, … (no byte is copied)
    names them, and its even codes gather the hashes back."""
    if len(ts) == 0:
        return np.zeros(0, np.uint64)
    bounds = np.empty(2 * len(ts), np.int64)
    bounds[0::2], bounds[1::2] = ts, te
    enc = pa.Array.from_buffers(
        pa.large_binary(), len(bounds) - 1,
        [None, pa.py_buffer(bounds), pa.py_buffer(data)]).dictionary_encode()
    codes = np.asarray(enc.indices)[0::2]
    used = np.zeros(len(enc.dictionary), bool)
    used[codes] = True
    used = np.flatnonzero(used)
    words, offs = _bytes_and_offsets(enc.dictionary.take(used))
    mv = memoryview(words)
    digests = b"".join([hashlib.md5(mv[a:b]).digest() for a, b in
                        zip(offs[:-1].tolist(), offs[1:].tolist())])
    vocab = np.empty(len(enc.dictionary), np.uint64)
    vocab[used] = np.frombuffer(digests, "<u8")[0::2]
    return vocab[codes]


def _segment_min(x: np.ndarray, starts: np.ndarray, A: np.ndarray,
                 B: np.ndarray) -> np.ndarray:
    """(rows, P) uint64: per row, the min of ``A[p] * x + B[p]`` over its
    segment ``x[starts[i]:starts[i + 1]]`` (every segment non-empty). One
    pass over all rows per permutation."""
    out = np.empty((len(A), len(starts)), np.uint64)
    v = np.empty_like(x)
    for p in range(len(A)):
        np.multiply(x, A[p], out=v)
        v += B[p]
        np.minimum.reduceat(v, starts, out=out[p])
    return out.T


class MinHasher:
    """Stateful sketcher: permutation tables built once (per actor / per
    process), applied per batch. Usable directly as a map_batches callable."""

    def __init__(self, cfg: LinkageConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        # odd multipliers for the universal hash family
        self.A = (rng.integers(1, 2**63, size=cfg.num_perm, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
        self.B = rng.integers(0, 2**63, size=cfg.num_perm, dtype=np.uint64)
        # independent family for the word-token signature
        self.At = (rng.integers(1, 2**63, size=cfg.num_perm_tok, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
        self.Bt = rng.integers(0, 2**63, size=cfg.num_perm_tok, dtype=np.uint64)
        k = cfg.shingle_k
        # polynomial rolling-hash power vector (base 257, uint64 wraparound)
        self.powers = np.power(np.uint64(257), np.arange(k, dtype=np.uint64),
                               dtype=np.uint64)
        self.band_pows = np.power(np.uint64(1099511628211),
                                  np.arange(cfg.rows_per_band, dtype=np.uint64),
                                  dtype=np.uint64)

    def _shingles(self, data: np.ndarray, offs: np.ndarray):
        """(window hashes, row starts) of the char-k shingles of the rows
        ``data[offs[i]:offs[i + 1]]`` (contiguous). A row shorter than k is
        zero-padded to exactly one window. Windows are not deduplicated: the
        min over a multiset equals the min over its set."""
        k = self.cfg.shingle_k
        lens = np.diff(offs)
        b = data[offs[0]:offs[-1]]
        short = np.flatnonzero(lens < k)
        if len(short):
            b = np.insert(b, np.repeat(offs[short + 1] - offs[0],
                                       k - lens[short]), 0)
        b = b.astype(np.uint64)
        n_win = len(b) - k + 1
        h = b[:n_win] * self.powers[0]
        tmp = np.empty_like(h)
        for t in range(1, k):
            np.multiply(b[t:t + n_win], self.powers[t], out=tmp)
            h += tmp
        # xorshift finalizer for better low-bit mixing
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        # drop the k-1 windows that straddle each row boundary
        row_starts = np.concatenate(([0], np.cumsum(np.maximum(lens, k))[:-1]))
        keep = np.ones(n_win, bool)
        keep[(row_starts[1:, None] - k + 1 + np.arange(k - 1)).ravel()] = False
        return h[keep], row_starts - np.arange(len(lens)) * (k - 1)

    def _tokens(self, data: np.ndarray, offs: np.ndarray):
        """(token hashes, row starts) of each row's identifier/number tokens
        (``[A-Za-z_][A-Za-z_0-9]*|\\d+`` over its bytes; every row in one
        scan, :func:`_token_spans`) — the engine's word-level view (≙ the
        reference's word granularity above subwords,
        ``span_annotation.py:66-121``). Tokens are not deduplicated per row:
        the min over a multiset equals the min over its set. A row without
        tokens gets the one hash ``_EMPTY_SENTINEL``."""
        ts, te = _token_spans(data, offs)
        counts = np.bincount(np.searchsorted(offs, ts, side="right") - 1,
                             minlength=len(offs) - 1)
        first = np.cumsum(counts) - counts
        h = np.insert(_token_vocab(data, ts, te), first[counts == 0],
                      _EMPTY_SENTINEL)
        slots = np.maximum(counts, 1)
        return h, np.cumsum(slots) - slots

    def _sketch(self, data: np.ndarray, offs: np.ndarray):
        """(rows, num_perm) and (rows, num_perm_tok) uint64 minima of the
        rows ``data[offs[i]:offs[i + 1]]``, in chunks of at most
        ``_CHUNK_WINDOWS`` shingle windows. The tokens of all rows are found
        and hashed once, then cut at the same chunk bounds."""
        cfg, k = self.cfg, self.cfg.shingle_k
        m = len(offs) - 1
        sig = np.empty((m, cfg.num_perm), np.uint64)
        tok = np.empty((m, cfg.num_perm_tok), np.uint64)
        ends = np.cumsum(np.maximum(np.diff(offs), k) - k + 1)
        th, tstarts = self._tokens(data, offs)
        tstarts = np.append(tstarts, len(th))
        r0 = 0
        while r0 < m:
            done = ends[r0 - 1] if r0 else 0
            r1 = max(int(np.searchsorted(ends, done + _CHUNK_WINDOWS,
                                         side="right")), r0 + 1)
            chunk = offs[r0:r1 + 1]
            sig[r0:r1] = _segment_min(*self._shingles(data, chunk),
                                      self.A, self.B)
            t0 = tstarts[r0]
            tok[r0:r1] = _segment_min(th[t0:tstarts[r1]], tstarts[r0:r1] - t0,
                                      self.At, self.Bt)
            r0 = r1
        return sig, tok

    def minima(self, texts: pa.Array | pa.ChunkedArray):
        """(n, num_perm) and (n, num_perm_tok) uint64 MinHash minima of a
        string column, null read as empty — THE sketch kernel.
        Each distinct text is sketched once and gathered back by its
        dictionary index."""
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        enc = texts.fill_null(pa.scalar("", texts.type)).dictionary_encode()
        sig, tok = self._sketch(*_bytes_and_offsets(enc.dictionary))
        idx = np.asarray(enc.indices)
        return sig[idx], tok[idx]

    def shingle_hashes(self, text: str) -> np.ndarray:
        """Unique uint64 hashes of the char-k shingles of ``text``."""
        return np.unique(self._shingles(*_text_bytes(text))[0])

    def signature(self, text: str) -> np.ndarray:
        """(num_perm,) uint64 MinHash signature."""
        return self._sketch(*_text_bytes(text))[0][0]

    def token_signature(self, text: str) -> np.ndarray:
        """(num_perm_tok,) uint64 MinHash over the token set — a colocated
        stand-in for exact token Jaccard at pair-scoring time."""
        return self._sketch(*_text_bytes(text))[1][0]

    def band_hashes(self, sig: np.ndarray) -> np.ndarray:
        """(bands,) uint64 — one hash per LSH band of the signature."""
        cfg = self.cfg
        bands = sig.reshape(cfg.bands, cfg.rows_per_band)
        return (bands * self.band_pows[None, :]).sum(axis=1, dtype=np.uint64)

    # --- map_batches entry: adds 'sig' + 'sig_tok' (fixed-size binary) ---
    # Signatures store the LOW cfg.sig_bytes bytes of the uint64 minima:
    # the Jaccard estimator only tests per-permutation EQUALITY, and a
    # false k-bit collision has probability 2^-8k per slot (2^-16 at the
    # default — estimate bias ~1.5e-5, far below the decision margin),
    # while the exploded shuffle payload shrinks proportionally.
    #
    # Kernel shape, measured single-threaded on the 4k-row bench table: the
    # per-row loop (encode, sliding window, np.unique, a (P × S)
    # broadcast-min, md5 per token) took 1.53-1.75 s; this kernel, a 1-D
    # pass + reduceat per permutation over cache-sized chunks, 0.44-0.52 s.
    # An (S × P) matrix reduced with reduceat along axis 0 is the slow
    # variant: it made the whole kernel 3.2-3.4 s against the per-row
    # loop's 1.2-1.4 s.
    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs, toks = self.minima(batch["norm_content"])
        dt = sig_dtype(self.cfg)
        n, w = batch.num_rows, self.cfg.sig_bytes
        out = batch.append_column("sig", pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(self.cfg.num_perm * w), n,
            [None, pa.py_buffer(sigs.astype(dt).tobytes())]))
        return out.append_column("sig_tok", pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(self.cfg.num_perm_tok * w), n,
            [None, pa.py_buffer(toks.astype(dt).tobytes())]))


def fixed_binary_view(col: pa.ChunkedArray | pa.Array, width_units: int,
                      dtype) -> np.ndarray:
    """(n, width_units) view of a fixed_size_binary column — pure buffer
    arithmetic, no per-row Python objects. The one helper behind every
    signature/sha view in the engine."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    buf = col.buffers()[1]
    if buf is None or len(col) == 0:
        return np.zeros((0, width_units), dtype=dtype)
    arr = np.frombuffer(buf, dtype=dtype)
    off = col.offset * width_units        # account for array offset
    n = len(col)
    return arr[off: off + n * width_units].reshape(n, width_units)


def sig_dtype(cfg: LinkageConfig):
    """numpy dtype of stored signature slots for this config."""
    return np.uint16 if cfg.sig_bytes == 2 else np.uint32
