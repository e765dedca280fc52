"""PII / secret scrubbing — the redaction pass of a training-data pipeline.

Sensitive spans (emails, bearer/API tokens, IPv4s, AWS key ids, long hex
secrets) are replaced with typed placeholders BEFORE any content leaves the
curation pipeline. Engine analog of the reference's normalization /
substitution-table family (reference ``utils.py:254-277``) applied to the
safety-critical case.

Every pattern is a single C-regex kernel over the whole column (one
``pyarrow.compute.replace_substring_regex`` call per rule — RE2, identical
semantics to DuckDB's ``regexp_replace(..., 'g')``, which makes the operator
exactly SQL-oracle-able). Rules apply in a FIXED order so overlapping
matches resolve deterministically on both engines.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

# ordered (name, pattern, replacement): specific → generic, so e.g. an AWS
# key id is tagged as such before the generic hex rule could eat it.
# RE2-only syntax (no lookbehind) — shared verbatim with the SQL oracle.
SCRUB_RULES: list[tuple[str, str, str]] = [
    ("email",
     r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
     "<EMAIL>"),
    ("aws_key",
     r"\bAKIA[0-9A-Z]{16}\b",
     "<AWS_KEY>"),
    ("bearer",
     r"\b[Bb]earer +[A-Za-z0-9._~+/-]{16,}=*",
     "<TOKEN>"),
    ("ipv4",
     r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b",
     "<IP>"),
    ("hex_secret",
     r"\b[0-9a-fA-F]{32,}\b",
     "<HEX_SECRET>"),
]


def scrub_text(col: pa.ChunkedArray | pa.Array) -> pa.Array | pa.ChunkedArray:
    """Apply every rule in order — pure Arrow kernels, zero Python rows."""
    out = col
    for _name, pattern, repl in SCRUB_RULES:
        out = pc.replace_substring_regex(out, pattern=pattern,
                                         replacement=repl)
    return out


def scrub_table(batch: pa.Table, *, text_col: str = "text",
                id_col: str = "doc_id") -> pa.Table:
    """One batch of the redaction pass — THE scrub definition (the Dataset
    wrapper and the property tests both call this, so tests exercise the
    exact production kernel). Counts ACTUAL replacements: matches of each
    rule's pattern on the text as it stands before that rule's pass —
    counting placeholder substrings afterwards would misattribute
    pre-existing literal '<EMAIL>' etc. as redactions."""
    cur = batch[text_col]
    n = None
    for _name, pattern, repl in SCRUB_RULES:
        c = pc.count_substring_regex(cur, pattern)
        n = c if n is None else pc.add(n, c)
        cur = pc.replace_substring_regex(cur, pattern=pattern,
                                         replacement=repl)
    return pa.table({
        id_col: batch[id_col],
        text_col: cur,
        "n_redactions": pc.cast(n, pa.int64()),
    })


def scrub_documents(ds: ray.data.Dataset, *, text_col: str = "text",
                    id_col: str = "doc_id") -> ray.data.Dataset:
    """documents → (doc_id, text, n_redactions): the scrubbed text plus an
    observability count (curation pipelines audit how much was redacted —
    a cap that silently rewrites data is the thing the repo never does)."""
    return ds.map_batches(
        scrub_table, fn_kwargs={"text_col": text_col, "id_col": id_col},
        batch_format="pyarrow")
