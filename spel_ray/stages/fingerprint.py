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


def _norm_ws(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Collapse whitespace runs to single spaces and trim — shingling view
    only; sha256 is always over the raw content."""
    return pc.utf8_trim_whitespace(
        pc.replace_substring_regex(col, pattern=r"\s+", replacement=" ")
    )


# Per-lang comment syntax for the normalizer (the engine analog of the
# reference's ~40-entry substitution-table normalizer, reference
# ``utils.py:254-277``): comment churn is the single most common benign
# mutation between near-duplicate source files, so the shingling view strips
# comments BEFORE whitespace collapse. Regex-level stripping deliberately
# ignores string-literal corner cases — both members of a near-dup pair get
# the identical treatment, which is all a blocking/scoring view needs.
_LINE_COMMENT = {
    "python": r"#[^\n]*", "py": r"#[^\n]*", "ruby": r"#[^\n]*",
    "rb": r"#[^\n]*", "sh": r"#[^\n]*", "bash": r"#[^\n]*",
    "yaml": r"#[^\n]*",
    "java": r"//[^\n]*", "js": r"//[^\n]*", "ts": r"//[^\n]*",
    "go": r"//[^\n]*", "rust": r"//[^\n]*", "rs": r"//[^\n]*",
    "c": r"//[^\n]*", "cpp": r"//[^\n]*", "cs": r"//[^\n]*",
    "sql": r"--[^\n]*",
}
_BLOCK_COMMENT_LANGS = {"java", "js", "ts", "go", "rust", "rs", "c", "cpp", "cs"}
_BLOCK_COMMENT = r"(?s)/\*.*?\*/"


def strip_code_comments(content: pa.ChunkedArray | pa.Array,
                        langs: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Remove line/block comments from ``content`` per-row according to
    ``langs`` — vectorized: rows are grouped by DISTINCT lang (dictionary
    encode), each group gets its regex chain as whole-array Arrow kernels,
    and the groups are stitched back with one take. Unknown langs pass
    through untouched."""
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    if isinstance(langs, pa.ChunkedArray):
        langs = langs.combine_chunks()
    n = len(content)
    if n == 0:
        return content
    d = langs.dictionary_encode()
    uniq = d.dictionary.to_pylist()
    if not any((u or "") in _LINE_COMMENT for u in uniq):
        return content
    # null langs: fill the index with a sentinel so they take the untouched
    # path (a null dictionary index would otherwise cast to garbage int64)
    codes = np.asarray(d.indices.fill_null(-1), dtype=np.int64)
    parts: list[pa.Array] = []
    order: list[np.ndarray] = []
    null_idx = np.flatnonzero(codes == -1)
    if len(null_idx):
        sub = content.take(pa.array(null_idx))
        parts.append(sub.combine_chunks()
                     if isinstance(sub, pa.ChunkedArray) else sub)
        order.append(null_idx)
    for code, lang in enumerate(uniq):
        idx = np.flatnonzero(codes == code)
        if len(idx) == 0:
            continue
        sub = content.take(pa.array(idx))
        lang = lang or ""
        if lang in _BLOCK_COMMENT_LANGS:
            sub = pc.replace_substring_regex(
                sub, pattern=_BLOCK_COMMENT, replacement=" ")
        pat = _LINE_COMMENT.get(lang)
        if pat is not None:
            sub = pc.replace_substring_regex(sub, pattern=pat, replacement=" ")
        if isinstance(sub, pa.ChunkedArray):
            sub = sub.combine_chunks()
        parts.append(sub)
        order.append(idx)
    cat = pa.concat_arrays(parts)
    inv = np.empty(n, dtype=np.int64)
    inv[np.concatenate(order)] = np.arange(n, dtype=np.int64)
    return cat.take(pa.array(inv))


def _row_ids_np(repo: list, path: list, commit: list) -> np.ndarray:
    """THE row-id derivation (one definition — pair generation and cluster
    assignment must agree or every record silently becomes a singleton)."""
    row_ids = np.empty(len(repo), dtype=np.int64)
    for i, (r, p, c) in enumerate(zip(repo, path, commit)):
        key = f"{r}\x00{p}\x00{c}".encode()
        row_ids[i] = int.from_bytes(
            hashlib.sha256(key).digest()[:8], "big") & 0x7FFFFFFFFFFFFFFF
    return row_ids


def row_id_batch(batch: pa.Table) -> pa.Table:
    """(repo, path, commit) → row_id only — the slim id pass for consumers
    (cluster assignment) that never need content, sha, or normalization."""
    row_ids = _row_ids_np(batch["repo"].to_pylist(),
                          batch["path"].to_pylist(),
                          batch["commit"].to_pylist())
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
    per-row invariant is untouched); null content counts as ``""``."""
    content = batch["content"].to_pylist()
    row_ids = _row_ids_np(batch["repo"].to_pylist(),
                          batch["path"].to_pylist(),
                          batch["commit"].to_pylist())
    shas = [hashlib.sha256((body or "").encode()).hexdigest()
            for body in content]

    view = batch["content"]
    if strip_comments and "lang" in batch.column_names:
        view = strip_code_comments(view, batch["lang"])
    out = batch.append_column("row_id", pa.array(row_ids, pa.int64()))
    out = out.append_column("content_sha256", pa.array(shas, pa.string()))
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
    shas = [hashlib.sha256((t or "").encode()).hexdigest()
            for t in texts.to_pylist()]
    return pa.table({
        "row_id": batch[id_col],
        "lang": pa.array([lang] * batch.num_rows, pa.string()),
        "content_sha256": pa.array(shas, pa.string()),
        "norm_content": _norm_ws(texts),
        "n_chars": pc.cast(pc.utf8_length(texts), pa.int64()).fill_null(0),
    })


def fingerprint(ds: ray.data.Dataset, *, batch_size: int = 2048,
                strip_comments: bool = True) -> ray.data.Dataset:
    """Stateless map_batches — pure, zero-copy Arrow."""
    return ds.map_batches(
        partial(fingerprint_batch, strip_comments=strip_comments),
        batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True)
