"""Stage 1 — normalize + fingerprint (the engine's M0 slice).

Analog of the reference's unicode/Moses normalizer + vocab fingerprinting
(reference ``utils.py:254-277``): here the normalizer collapses whitespace for
shingling, and the fingerprint is ``sha256(content)`` — the per-row invariant
the north_rule requires preserved through every stage.

``row_id`` is derived (not positional): int63 from sha256(repo|path|commit),
so it is stable across runs, partitionings and resumes. Note: 63-bit ids have
birthday collisions around 10^9 rows; at true 10^12 scale switch ID_BITS to a
128-bit decimal or keep the composite key — the pipeline only relies on ids
being unique and orderable.
"""

from __future__ import annotations

import hashlib
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from spel_ray.stages.minhash import _bytes_and_offsets


def _norm_ws(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Collapse whitespace runs to single spaces and trim — shingling view
    only; sha256 is always over the raw content.

    The whitespace set is RE2's ``\\s`` (``[\\t\\n\\f\\r ]``): the
    definition is ``utf8_trim_whitespace(replace_substring_regex(col,
    r"\\s+", " "))``. The fast form splits on ASCII whitespace and joins
    with one space, which is the same on every row except those holding
    ``\\v`` (in Arrow's ASCII set, not in RE2's ``\\s``), so only those
    rows run the regex. Nulls stay null."""
    fast = pc.utf8_trim_whitespace(
        pc.binary_join(pc.ascii_split_whitespace(col),
                       pa.scalar(" ", col.type)))
    has_vt = pc.fill_null(pc.match_substring(col, "\v"), False)
    if not pc.any(has_vt).as_py():
        return fast
    if isinstance(col, pa.ChunkedArray):
        col, fast, has_vt = (c.combine_chunks() for c in (col, fast, has_vt))
    slow = pc.utf8_trim_whitespace(pc.replace_substring_regex(
        col.filter(has_vt), pattern=r"\s+", replacement=" "))
    return pc.replace_with_mask(fast, has_vt, slow)


# Per-lang comment syntax for the normalizer (the engine analog of the
# reference's ~40-entry substitution-table normalizer, reference
# ``utils.py:254-277``): comment churn is the single most common benign
# mutation between near-duplicate source files, so the shingling view strips
# comments BEFORE whitespace collapse. Regex-level stripping deliberately
# ignores string-literal corner cases — both members of a near-dup pair get
# the identical treatment, which is all a blocking/scoring view needs.
_HASH_COMMENT = (r"#[^\n]*",)
# block comments first, then line comments
_C_COMMENT = (r"(?s)/\*.*?\*/", r"//[^\n]*")
# each lang's regex chain, in the order its rows run it; other langs have
# none
_COMMENT_CHAIN = {
    **dict.fromkeys(["python", "py", "ruby", "rb", "sh", "bash", "yaml"],
                    _HASH_COMMENT),
    **dict.fromkeys(["java", "js", "ts", "go", "rust", "rs", "c", "cpp", "cs"],
                    _C_COMMENT),
    "sql": (r"--[^\n]*",),
}


def strip_code_comments(content: pa.ChunkedArray | pa.Array,
                        langs: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Remove line/block comments from ``content`` per-row according to
    ``langs`` — vectorized: rows are grouped by the regex chain their lang
    runs (``_COMMENT_CHAIN``: the C family, the ``#`` family and sql make
    three chains however many langs a batch holds), each group runs
    its chain as whole-array Arrow kernels, and one take stitches the
    groups back. Rows of a null or unknown lang pass through untouched."""
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    if isinstance(langs, pa.ChunkedArray):
        langs = langs.combine_chunks()
    n = len(content)
    d = langs.dictionary_encode()
    chains = [_COMMENT_CHAIN.get(u, ()) for u in d.dictionary.to_pylist()]
    # group 0 is the empty chain (sorted first), which null langs join too
    groups = sorted(set(chains) | {()})
    if n == 0 or len(groups) == 1:
        return content
    code = np.array([groups.index(c) for c in chains] + [0], dtype=np.int64)
    row_group = code[np.asarray(d.indices.fill_null(len(chains)),
                                dtype=np.int64)]
    parts: list[pa.Array] = []
    order: list[np.ndarray] = []
    for g, chain in enumerate(groups):
        idx = np.flatnonzero(row_group == g)
        if len(idx) == 0:
            continue
        sub = content if len(idx) == n else content.take(pa.array(idx))
        for pat in chain:
            sub = pc.replace_substring_regex(sub, pattern=pat, replacement=" ")
        if len(idx) == n:
            return sub
        parts.append(sub)
        order.append(idx)
    inv = np.empty(n, dtype=np.int64)
    inv[np.concatenate(order)] = np.arange(n, dtype=np.int64)
    return pa.concat_arrays(parts).take(pa.array(inv))


def _sha256_digests(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """(n, 32) uint8 sha256 digests of a string column, null read as ``""``
    — THE sha256 loop over row bytes: hashlib over memoryview slices of the
    Arrow data buffer, no per-row Python strings."""
    data, offs = _bytes_and_offsets(col.fill_null(""))
    mv = memoryview(data)
    digests = b"".join([hashlib.sha256(mv[a:b]).digest() for a, b in
                        zip(offs[:-1].tolist(), offs[1:].tolist())])
    return np.frombuffer(digests, np.uint8).reshape(-1, 32)


def _sha256_hex(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Lowercase hex sha256 of each row (null read as ``""``) as a string
    column — ``hashlib.sha256(text.encode()).hexdigest()`` per row."""
    digests = _sha256_digests(col)
    n = len(digests)
    return pa.StringArray.from_buffers(
        n, pa.py_buffer(np.arange(0, 64 * n + 1, 64, dtype=np.int32)),
        pa.py_buffer(digests.tobytes().hex().encode()))


def _row_ids(repo, path, commit) -> np.ndarray:
    """THE row-id derivation (one definition — pair generation and cluster
    assignment must agree or every record silently becomes a singleton):
    int63 of the big-endian first 8 bytes of
    ``sha256(f"{repo}\\x00{path}\\x00{commit}")``. A null part reads as
    ``"None"``, as the f-string renders it."""
    key = pc.binary_join_element_wise(
        *(pc.cast(c, pa.large_string()) for c in (repo, path, commit)),
        pa.scalar("\x00", pa.large_string()), null_handling="replace",
        null_replacement="None")
    first8 = np.ascontiguousarray(_sha256_digests(key)[:, :8])
    return (first8.view(">u8").ravel() & np.uint64(0x7FFFFFFFFFFFFFFF)
            ).astype(np.int64)


def row_id_batch(batch: pa.Table) -> pa.Table:
    """(repo, path, commit) → row_id only — the slim id pass for consumers
    (cluster assignment) that never need content, sha, or normalization."""
    row_ids = _row_ids(batch["repo"], batch["path"], batch["commit"])
    return pa.table({"row_id": pa.array(row_ids, pa.int64())})


def row_ids(ds: ray.data.Dataset, *, batch_size: int = 8192) -> ray.data.Dataset:
    """Slim (row_id) dataset. The select_columns BEFORE any map lets Ray
    push the projection into the parquet read — content bytes never leave
    storage for this pass."""
    return ds.select_columns(["repo", "path", "commit"]).map_batches(
        row_id_batch, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True)


def fingerprint_batch(batch: pa.Table, *, strip_comments: bool = True) -> pa.Table:
    """Arrow in / Arrow out: adds row_id, content_sha256, norm_content, n_chars.

    ``norm_content`` (the shingling view) is comment-stripped per lang when
    ``strip_comments`` — sha256 and n_chars stay over the RAW content (the
    per-row invariant is untouched); null content counts as ``""``.
    ``row_id`` reads a null repo, path or commit as ``"None"``
    (:func:`_row_ids`). Both sha256 passes hash the Arrow buffers
    directly."""
    row_ids = _row_ids(batch["repo"], batch["path"], batch["commit"])

    view = batch["content"]
    if strip_comments and "lang" in batch.column_names:
        view = strip_code_comments(view, batch["lang"])
    out = batch.append_column("row_id", pa.array(row_ids, pa.int64()))
    out = out.append_column("content_sha256", _sha256_hex(batch["content"]))
    out = out.append_column("norm_content", _norm_ws(view))
    out = out.append_column("n_chars", pc.cast(
        pc.utf8_length(batch["content"]), pa.int64()).fill_null(0))
    # parquet-inherited pandas metadata makes the schema unhashable for
    # Ray's schema dedup (benign but log-spamming) — drop it
    return out.replace_schema_metadata(None)


def text_record_batch(batch: pa.Table, text_col: str, id_col: str,
                      lang: str) -> pa.Table:
    """Plain text (``id_col``, ``text_col``) → the record shape
    :func:`fingerprint_batch` produces (row_id, lang, content_sha256,
    norm_content, n_chars), so near-dup over documents or chunks runs the
    same blocking stages as code rows. ``id_col`` becomes row_id as is;
    every row is tagged ``lang``; sha256 and n_chars are over the raw
    text, a null text counting as ``""``."""
    texts = batch[text_col]
    return pa.table({
        "row_id": batch[id_col],
        "lang": pa.array([lang] * batch.num_rows, pa.string()),
        "content_sha256": _sha256_hex(texts),
        "norm_content": _norm_ws(texts),
        "n_chars": pc.cast(pc.utf8_length(texts), pa.int64()).fill_null(0),
    })


def fingerprint(ds: ray.data.Dataset, *, batch_size: int = 2048,
                strip_comments: bool = True) -> ray.data.Dataset:
    """Stateless map_batches — pure, zero-copy Arrow."""
    return ds.map_batches(
        partial(fingerprint_batch, strip_comments=strip_comments),
        batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True)
