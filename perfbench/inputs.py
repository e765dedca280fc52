"""Seeded benchmark inputs, generated outside every timed region and cached
under the benchmark's own directory, keyed by kind, size and seed.

The same seed always gives byte-identical tables. Generation happens
before set-up starts, so a cold cache never lands in ``setup_s``.
"""

from __future__ import annotations

import datetime as dt
import os
import shutil
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

CODE_COLUMNS = ["repo", "path", "commit", "lang", "content"]


def _cached(path: Path, write) -> Path:
    """Create ``path`` (a directory) once via ``write(tmp_dir)``, atomically."""
    if path.is_dir():
        return path
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    write(tmp)
    try:
        os.replace(tmp, path)
    except OSError:                 # another process finished first
        shutil.rmtree(tmp, ignore_errors=True)
    return path


PART = "part-0000.parquet"


def _write(t: pa.Table, d: Path) -> None:
    # small row groups, so override_num_blocks can split one file
    pq.write_table(t, d / PART, row_group_size=256)


def code_table(n_rows: int, seed: int) -> pa.Table:
    """Synthetic labelled code table with rows in a seeded random order
    (the generator emits its hot boilerplate block last; shuffling keeps
    every slice of the table representative)."""
    from spel_ray.sources.synth import generate_code_table

    t = generate_code_table(n_rows, seed)
    perm = np.random.default_rng(seed + 1).permutation(t.num_rows)
    return t.take(pa.array(perm))


def code_dir(data: Path, n_rows: int, seed: int) -> Path:
    """Parquet directory holding ``code_table(n_rows, seed)``."""
    return _cached(data / f"code_n{n_rows}_s{seed}",
                   lambda d: _write(code_table(n_rows, seed), d))


def delta_files(data: Path, n_base: int, n_delta: int, n_deltas: int,
               seed: int) -> tuple[Path, list[Path]]:
    """Parquet files of a base table plus ``n_deltas`` disjoint increments
    held out from the tail of one seeded table, so increments carry
    near-duplicates of base rows."""
    total = n_base + n_delta * n_deltas
    key = f"delta_b{n_base}_d{n_delta}x{n_deltas}_s{seed}"

    def write(d: Path) -> None:
        t = code_table(total, seed)
        (d / "base").mkdir()
        _write(t.slice(0, n_base), d / "base")
        for i in range(n_deltas):
            (d / f"delta{i}").mkdir()
            _write(t.slice(n_base + i * n_delta, n_delta), d / f"delta{i}")

    root = _cached(data / key, write)
    return (root / "base" / PART,
            [root / f"delta{i}" / PART for i in range(n_deltas)])


# ------------------------------------------------------------- serving ops
def mutate(rng: np.random.Generator, content: str) -> str:
    """One or two small edits: duplicate, drop or annotate a line."""
    lines = content.split("\n")
    for _ in range(int(rng.integers(1, 3))):
        i = int(rng.integers(len(lines)))
        kind = int(rng.integers(3))
        if kind == 0:
            lines.insert(i, lines[i])
        elif kind == 1 and len(lines) > 2:
            del lines[i]
        else:
            lines.insert(i, f"# note {int(rng.integers(10_000))}")
    return "\n".join(lines)


def serve_ops(t: pa.Table, seed: int, n_reads: int, n_adds: int,
              batch: int) -> tuple[list[dict], list[pa.Table]]:
    """Seeded read batches (mutated copies of corpus rows, as content +
    lang lists) and add batches (mutated versions of corpus rows under
    their own (repo, path, commit) key, i.e. upserts)."""
    rng = np.random.default_rng(seed + 7)
    content = t["content"].to_pylist()
    lang = t["lang"].to_pylist()
    reads = []
    for _ in range(n_reads):
        idx = rng.integers(0, t.num_rows, batch)
        reads.append({"contents": [mutate(rng, content[i]) for i in idx],
                      "langs": [lang[i] for i in idx]})
    adds = []
    for _ in range(n_adds):
        idx = rng.choice(t.num_rows, batch, replace=False)
        rows = t.select(CODE_COLUMNS).take(pa.array(idx))
        adds.append(rows.set_column(
            CODE_COLUMNS.index("content"), "content",
            pa.array([mutate(rng, content[i]) for i in idx], pa.string())))
    return reads, adds


# ------------------------------------------------------------ ops tables
_WORDS = ("key agg row scan slow fast table value part hash merge batch "
          "spark a the line sort window order data column join small "
          "customer query big group stream vector filter").split()
_LANGS = ["en", "zh", "es", "de", "fr"]
_LANG_P = [0.44, 0.15, 0.14, 0.14, 0.13]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]


def _ops_tables(seed: int, n_customers: int, n_orders: int, n_docs: int,
                n_vecs: int, dim: int = 64) -> dict[str, pa.Table]:
    rng = np.random.default_rng(seed + 11)
    customer = pa.table({
        "c_custkey": pa.array(np.arange(n_customers), pa.int64()),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_customers)]),
        "c_nationkey": pa.array(rng.integers(0, 25, n_customers), pa.int32()),
        "c_acctbal": pa.array(np.round(rng.uniform(-999.99, 9999.99,
                                                   n_customers), 2)),
        "c_mktsegment": pa.array(rng.choice(_SEGMENTS, n_customers)),
    })
    start = dt.datetime(1992, 1, 1)
    days = rng.integers(0, 3500, n_orders)
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n_orders), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n_customers, n_orders),
                              pa.int64()),
        "o_orderstatus": pa.array(rng.choice(["F", "O", "P"], n_orders)),
        "o_totalprice": pa.array(np.round(rng.uniform(900.0, 500_000.0,
                                                      n_orders), 2)),
        "o_orderdate": pa.array([start + dt.timedelta(days=int(d))
                                 for d in days], pa.timestamp("us")),
        "o_orderpriority": pa.array(rng.choice(_PRIORITIES, n_orders)),
    })
    # documents: a third are light edits of an earlier document, so the
    # near-duplicate operators find real work
    texts: list[str] = []
    for i in range(n_docs):
        if i >= 20 and rng.random() < 0.33:
            words = texts[int(rng.integers(i))].split()
            j = int(rng.integers(len(words)))
            words[j] = _WORDS[int(rng.integers(len(_WORDS)))]
            texts.append(" ".join(words))
        else:
            n = int(rng.integers(10, 90))
            texts.append(" ".join(rng.choice(_WORDS, n)))
    documents = pa.table({
        "doc_id": pa.array(np.arange(n_docs), pa.int64()),
        "text": pa.array(texts),
        "lang": pa.array(rng.choice(_LANGS, n_docs, p=_LANG_P)),
        "source": pa.array([f"src{i % 20}" for i in range(n_docs)]),
        "n_chars": pa.array([len(s) for s in texts], pa.int64()),
    })
    # embeddings: tight clusters of ~50 around random centres, so every
    # query's exact top-10 sits well inside its own cluster
    n_clusters = max(2, n_vecs // 50)
    labels = rng.integers(0, n_clusters, n_vecs)
    centres = rng.standard_normal((n_clusters, dim))
    vecs = centres[labels] + 0.15 * rng.standard_normal((n_vecs, dim))
    vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)) \
        .astype(np.float32)
    embeddings = pa.table({
        "vec_id": pa.array(np.arange(n_vecs), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })
    return {"customer": customer, "orders": orders, "documents": documents,
            "embeddings": embeddings}


def ops_dir(data: Path, seed: int, *, n_customers: int, n_orders: int,
            n_docs: int, n_vecs: int) -> Path:
    """Directory of ``<table>.parquet`` files in the driver-table schema."""
    key = f"ops_c{n_customers}_o{n_orders}_d{n_docs}_v{n_vecs}_s{seed}"

    def write(d: Path) -> None:
        for name, t in _ops_tables(seed, n_customers, n_orders, n_docs,
                                   n_vecs).items():
            pq.write_table(t, d / f"{name}.parquet")

    return _cached(data / key, write)
