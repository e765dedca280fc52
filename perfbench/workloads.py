"""The two workloads. Each one is a class with ``prepare`` (seeded inputs,
outside every timed region) and ``run`` (set-up, warm-up, the closed loop
and the output checks). Every call into the engine goes through its public
module functions, so the spans below sit at layer boundaries without any
tracing inside ``spel_ray``.

Load shape: one single-threaded driver process, a closed loop with one
client; each op starts after the previous one returned.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import inputs
from perfbench.harness import Tracer, median, peak_rss_mb, tail, timed

# Input sizes per scale. "tiny" exists for the benchmark's own tests.
SIZES = {
    "full": {"batch_rows": 4000, "delta_rows": 40, "serve_rows": 5000,
             "read_batches": 64, "add_batches": 64,
             "ops": {"n_customers": 1500, "n_orders": 15000, "n_docs": 500,
                     "n_vecs": 500}},
    "tiny": {"batch_rows": 300, "delta_rows": 10, "serve_rows": 300,
             "read_batches": 8, "add_batches": 4,
             "ops": {"n_customers": 150, "n_orders": 1500, "n_docs": 120,
                     "n_vecs": 120}},
}
SERVE_BATCH = 16      # queries per link_many call and rows per add
ADD_EVERY = 5         # every 5th serving op is an add
N_SHARDS = 2
SHARD_CPUS = 0.5      # per shard actor, so Ray Data keeps CPUs for tasks
WARMUP_SERVE_OPS = 2 * ADD_EVERY
OPS_QUERIES = [
    "orders_customer_join", "orders_left_join", "customers_no_orders",
    "customers_big_orders", "sorted_neighborhood", "ann_topk",
    "ann_topk_ivf_exact", "ann_topk_lsh", "linkage_docs_verified",
]


@dataclass
class Ctx:
    data: Path                    # input cache and scratch directory
    seed: int
    seconds: float
    trace: bool
    blocks: int
    buckets: int
    scale: str = "full"
    tracer: Tracer = field(default_factory=Tracer)
    t_start: float = 0.0          # set-up clock start (before ray.init)

    def size(self, key):
        return SIZES[self.scale][key]


@dataclass
class Report:
    setup_s: float
    op_s: list[float]             # primary-op latencies
    items: int                    # rows / queries handled by timed ops
    busy_s: float                 # summed latency of those timed ops
    rss_mb: float
    attempted: int
    failed: int
    layers: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Columns sorted by name, ints as int64, floats as float64, rows
    sorted by the non-float columns (floats break remaining ties)."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype.kind in "iu":
            df[c] = df[c].astype("int64")
        elif df[c].dtype.kind == "f":
            df[c] = df[c].astype("float64")
    keys = [c for c in df.columns if df[c].dtype.kind != "f"]
    keys += [c for c in df.columns if c not in keys]
    return df.sort_values(keys).reset_index(drop=True)


def digest(df: pd.DataFrame) -> str:
    """Order-independent value hash of an integer/string result frame."""
    df = canon(df)
    h = hashlib.sha256()
    for c in df.columns:
        h.update(c.encode())
        h.update(df[c].astype(str).str.cat(sep="\x1f").encode())
    return h.hexdigest()


# DuckDB evaluates list_cosine_similarity over FLOAT lists in float32, the
# engine in float64; a value rounded to 5 decimals can land one unit apart
# at a rounding boundary, so floats match within 1.5 units of the 5th place.
FLOAT_ATOL = 1.5e-5


def same_values(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    """Equal columns and rows; floats within ``FLOAT_ATOL``."""
    a, b = canon(got), canon(want)
    if list(a.columns) != list(b.columns) or len(a) != len(b):
        return False
    for c in a.columns:
        if a[c].dtype.kind == "f" or b[c].dtype.kind == "f":
            if not np.allclose(a[c].to_numpy(float), b[c].to_numpy(float),
                               rtol=0.0, atol=FLOAT_ATOL, equal_nan=True):
                return False
        elif not (a[c].astype(str).to_numpy()
                  == b[c].astype(str).to_numpy()).all():
            return False
    return True


def cluster_digest(clusters) -> str:
    """Hash of the (row_id, cluster_id) assignment of a clusters Dataset."""
    return digest(clusters.to_pandas()[["row_id", "cluster_id"]])


def closed_loop(seconds: float, step, *, min_ops: int = 1) -> None:
    """Call ``step(i)`` back to back until ``seconds`` have passed and at
    least ``min_ops`` calls were made.

    Objects alive before the loop (inputs, expected results) are frozen
    out of the garbage collector first, so the benchmark's own heap does
    not lengthen the collections that run inside timed ops."""
    gc.collect()
    gc.freeze()
    t0 = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - t0 < seconds:
        step(i)
        i += 1


def _ds_stats(ds) -> str:
    try:
        return ds.stats()
    except Exception as e:   # noqa: BLE001 - stats are diagnostics only
        return f"unavailable: {e!r}"


def _overhead(traced: list[float], plain: list[float]) -> float:
    return median(traced) - median(plain) if traced and plain else 0.0


# ================================================================ link-batch
class LinkBatch:
    """One op = one full ``run_linkage`` over the seeded code table.

    The traced run also measures two more layers, each checked:

    - incremental: one held-out delta (1% of the table, from the tail of
      the same seeded table, so it carries near-duplicates) is absorbed
      with ``incremental_link`` against the state of a traced op and must
      cluster like ``run_linkage`` over table ∪ delta;
    - operators: one pass over ``OPS_QUERIES`` on seeded driver-schema
      tables, each result equal to its DuckDB oracle."""

    def prepare(self, ctx: Ctx) -> None:
        self.n = ctx.size("batch_rows")
        base, deltas = inputs.delta_files(ctx.data, self.n,
                                          ctx.size("delta_rows"), 1, ctx.seed)
        self.path, self.delta = str(base), str(deltas[0])
        if ctx.trace:
            self.ops_dir = str(inputs.ops_dir(ctx.data, ctx.seed,
                                              **ctx.size("ops")))
        t = pq.read_table(self.path, columns=["repo", "path", "commit",
                                               "ancestor_id"])
        from spel_ray.stages.fingerprint import row_id_batch
        rid = row_id_batch(t)["row_id"].to_pylist()
        self.truth = dict(zip(rid, t["ancestor_id"].to_pylist()))

    def _read(self, ctx: Ctx, path=None):
        from spel_ray.sources.code_table import read_code_table
        return read_code_table(path or self.path,
                               override_num_blocks=ctx.blocks)

    def op(self, ctx: Ctx):
        from spel_ray import LinkageConfig
        from spel_ray.pipelines.linkage import run_linkage
        res = run_linkage(self._read(ctx), LinkageConfig(),
                          num_buckets=ctx.buckets)
        res.clusters.count()
        return res

    def traced_op(self, ctx: Ctx, stats: dict):
        """``run_linkage``'s default path, stage by stage, materialized at
        each boundary so every layer gets its own span."""
        from spel_ray import LinkageConfig
        from spel_ray.pipelines.linkage import LinkageResult
        from spel_ray.stages.blocking import block_keys
        from spel_ray.stages.clustering import (assign_clusters,
                                                connected_components)
        from spel_ray.stages.fingerprint import fingerprint, row_ids
        from spel_ray.stages.pairs import scored_candidate_pairs
        from spel_ray.stages.scoring import edges_from_pairs

        cfg = LinkageConfig()
        tr = ctx.tracer
        with tr.span("linkage"):
            ds = self._read(ctx)
            with tr.span("fingerprint"):
                records = fingerprint(ds, batch_size=cfg.batch_size,
                                      strip_comments=cfg.strip_comments
                                      ).materialize()
            with tr.span("blocking"):
                blocks = block_keys(records, cfg).materialize()
            with tr.span("pairs"):
                pairs = scored_candidate_pairs(
                    blocks, cfg, num_buckets=ctx.buckets).materialize()
            with tr.span("scoring"):
                edges = edges_from_pairs(pairs, cfg).materialize()
            with tr.span("clustering.components"):
                star = connected_components(
                    edges, num_buckets=ctx.buckets,
                    max_rounds=cfg.max_cc_rounds,
                    driver_threshold=cfg.cc_driver_threshold).materialize()
            with tr.span("clustering.assign"):
                clusters = assign_clusters(row_ids(ds), star,
                                           num_buckets=ctx.buckets
                                           ).materialize()
        for name, d in (("fingerprint", records), ("blocking", blocks),
                        ("pairs", pairs), ("scoring", edges),
                        ("clustering.components", star),
                        ("clustering.assign", clusters)):
            stats[name] = _ds_stats(d)
        return LinkageResult(records=records, pairs=pairs, edges=edges,
                             clusters=clusters), blocks

    def run(self, ctx: Ctx) -> Report:
        from spel_ray.stages.evaluate import evaluate_clusters

        warm = self.op(ctx)
        setup_s = time.perf_counter() - ctx.t_start
        f1 = evaluate_clusters(warm.pairs, warm.clusters, self.truth)["f1"]
        ref = cluster_digest(warm.clusters)
        failed = int(f1 < 0.99)
        attempted = 1
        plain: list[float] = []
        traced: list[float] = []
        last: dict = {}
        ds_stats: dict = {}

        def step(i: int) -> None:
            nonlocal failed, attempted
            if ctx.trace and i % 2 == 1:
                ctx.tracer.op_id = i
                dt, (res, blocks) = timed(
                    lambda: self.traced_op(ctx, ds_stats))
                traced.append(dt)
                last.update(res=res, blocks=blocks)
            else:
                dt, res = timed(lambda: self.op(ctx))
                plain.append(dt)
            attempted += 1
            failed += int(cluster_digest(res.clusters) != ref)

        closed_loop(ctx.seconds, step, min_ops=2 if ctx.trace else 1)
        rep = Report(setup_s, plain, self.n * len(plain), sum(plain),
                     peak_rss_mb(), attempted, failed)
        if ctx.trace:
            rep.layers = self._layers(ctx, last, traced, plain)
            for layers, attempted, failed in (self._incremental(ctx, last),
                                              ops_layers(ctx, self.ops_dir)):
                rep.layers.update(layers)
                rep.attempted += attempted
                rep.failed += failed
            rep.trace = {"ds_stats": ds_stats, "f1": f1}
        return rep

    def _incremental(self, ctx: Ctx, last) -> tuple[dict, int, int]:
        """Absorb the held-out delta into the traced op's state (block rows
        and clusters) and check it against a batch run over table ∪ delta."""
        from spel_ray import LinkageConfig
        from spel_ray.pipelines.incremental import incremental_link
        from spel_ray.pipelines.linkage import run_linkage
        from spel_ray.stages.clustering import connected_components

        cfg, tr = LinkageConfig(), ctx.tracer
        with tr.span("incremental"):
            res = incremental_link(self._read(ctx, self.delta),
                                   last["blocks"], last["res"].clusters, cfg,
                                   num_buckets=ctx.buckets)
            res.clusters.count()
        with tr.span("incremental.components"):
            connected_components(res.edges, num_buckets=ctx.buckets,
                                 max_rounds=cfg.max_cc_rounds,
                                 driver_threshold=cfg.cc_driver_threshold
                                 ).materialize()
        full = run_linkage(self._read(ctx, [self.path, self.delta]), cfg,
                           num_buckets=ctx.buckets)
        failed = int(cluster_digest(res.clusters)
                     != cluster_digest(full.clusters))
        return {
            "incremental.s": median(tr.durations("incremental")),
            "incremental.pairs": res.pairs.count(),
            "incremental.cc_edges": res.edges.count(),
            "incremental.components_s":
                median(tr.durations("incremental.components")),
        }, 1, failed

    def _layers(self, ctx, last, traced, plain) -> dict:
        from spel_ray.pipelines.linkage import linkage_stats
        tr = ctx.tracer
        res, blocks = last["res"], last["blocks"]
        st = linkage_stats(res)
        n_pairs = st["pairs"]
        n_edges = res.edges.count()
        stage_names = ["fingerprint", "blocking", "pairs", "scoring",
                       "clustering.components", "clustering.assign"]
        stage_sum = median([sum(v) for v in zip(
            *[tr.durations(s) for s in stage_names])])
        return {
            "fingerprint.s": median(tr.durations("fingerprint")),
            "fingerprint.rows": res.records.count(),
            "blocking.s": median(tr.durations("blocking")),
            "blocking.block_rows": blocks.count(),
            "blocking.bytes": blocks.size_bytes(),
            "pairs.s": median(tr.durations("pairs")),
            "pairs.candidates": n_pairs,
            "pairs.capped_fraction": st["capped_fraction"],
            "scoring.s": median(tr.durations("scoring")),
            "scoring.edges": n_edges,
            "scoring.accept_ratio": n_edges / n_pairs if n_pairs else 0.0,
            "clustering.components_s":
                median(tr.durations("clustering.components")),
            "clustering.assign_s": median(tr.durations("clustering.assign")),
            "clustering.clusters": int(
                res.clusters.to_pandas()["cluster_id"].nunique()),
            "trace.overhead_s": _overhead(traced, plain),
            "trace.stage_share": stage_sum / median(plain) if plain else 0.0,
        }


# =============================================================== serve-mixed
class ServeMixed:
    """A fixed, seeded op sequence against a serving index: every 5th op
    upserts 16 mutated records into the live ``LinkageIndex``; the other
    ops are ``link_many`` batches of 16 queries, alternating between the
    live index and a ``ShardedLinkageIndex(n_shards=2)``."""

    def prepare(self, ctx: Ctx) -> None:
        n = ctx.size("serve_rows")
        self.path = str(inputs.code_dir(ctx.data, n, ctx.seed))
        corpus = pq.read_table(self.path).select(inputs.CODE_COLUMNS)
        self.corpus = corpus
        self.reads, self.adds = inputs.serve_ops(
            corpus, ctx.seed, ctx.size("read_batches"),
            ctx.size("add_batches"), SERVE_BATCH)

    def run(self, ctx: Ctx) -> Report:
        import shutil

        from spel_ray import LinkageConfig
        from spel_ray.serving import LinkageIndex, ShardedLinkageIndex
        from spel_ray.sources.code_table import read_code_table
        from spel_ray.stages.blocking import BlockKeyExploder
        from spel_ray.stages.minhash import MinHasher

        cfg = LinkageConfig()
        self._sketch, self._explode = MinHasher(cfg), BlockKeyExploder(cfg)
        index_dir = ctx.data / f"index_{ctx.seed}_{time.time_ns()}"
        t0 = time.perf_counter()
        live = LinkageIndex.build(
            read_code_table(self.path, override_num_blocks=ctx.blocks), cfg)
        sharded = ShardedLinkageIndex.build(
            read_code_table(self.path, override_num_blocks=ctx.blocks), cfg,
            n_shards=N_SHARDS, num_cpus=SHARD_CPUS, index_dir=str(index_dir))
        build_s = time.perf_counter() - t0
        # expected hits of every read batch on the unmodified corpus: the
        # sharded index never receives adds, so it must keep answering these
        expected = [live.link_many(b["contents"], b["langs"])
                    for b in self.reads]
        corpus = {k: i for i, k in enumerate(zip(
            *(self.corpus[c].to_pylist() for c in ("repo", "path",
                                                    "commit"))))}
        rows = self.corpus.to_pylist()
        lat = {"single": [], "sharded": [], "add": []}
        traced_reads: list[float] = []
        feat: list[float] = []
        rtt: list[float] = []
        hits: list[int] = []
        shards: list[int] = []
        counts = {"attempted": 0, "failed": 0}
        n_read = n_add = 0

        def serve_op(i: int, timed_run: bool) -> None:
            nonlocal n_read, n_add
            counts["attempted"] += 1
            if i % ADD_EVERY == ADD_EVERY - 1:
                batch = self.adds[n_add % len(self.adds)]
                n_add += 1
                dt, n = timed(lambda: live.add(batch))
                for r in batch.to_pylist():
                    rows[corpus[(r["repo"], r["path"], r["commit"])]] = r
                counts["failed"] += int(n != batch.num_rows)
                if timed_run:
                    lat["add"].append(dt)
                return
            b = n_read % len(self.reads)
            q = self.reads[b]
            use_sharded = n_read % 2 == 1
            n_read += 1
            if use_sharded:
                dt, got = timed(lambda: sharded.link_many(q["contents"],
                                                          q["langs"]))
                counts["failed"] += int(got != expected[b])
                if timed_run:
                    lat["sharded"].append(dt)
                    if ctx.trace:
                        self._sharded_layers(cfg, live, q, dt, got, rtt,
                                             hits, shards)
                return
            traced = ctx.trace and (n_read // 2) % 2 == 1
            if traced:
                with ctx.tracer.span("serving.link_many"):
                    dt, got = timed(lambda: live.link_many(q["contents"],
                                                           q["langs"]))
            else:
                dt, got = timed(lambda: live.link_many(q["contents"],
                                                       q["langs"]))
            counts["failed"] += int(len(got) != len(q["contents"]))
            if timed_run:
                (traced_reads if traced else lat["single"]).append(dt)
                if ctx.trace:
                    feat.append(self._featurize_s(ctx, cfg, q))

        t1 = time.perf_counter()
        for i in range(WARMUP_SERVE_OPS):
            serve_op(i, False)
        warm_s = time.perf_counter() - t1
        setup_s = (t0 - ctx.t_start) + build_s + warm_s
        closed_loop(ctx.seconds, lambda i: serve_op(WARMUP_SERVE_OPS + i, True))
        rss = peak_rss_mb()
        # the live index must answer exactly like an index rebuilt from
        # the final corpus; each differing read batch is a failed op
        import ray.data
        rebuilt = LinkageIndex.build(
            ray.data.from_arrow(pa.Table.from_pylist(rows)), cfg)
        for q in self.reads[:min(len(self.reads), 16)]:
            counts["attempted"] += 1
            counts["failed"] += int(
                live.link_many(q["contents"], q["langs"])
                != rebuilt.link_many(q["contents"], q["langs"]))
        shutil.rmtree(index_dir, ignore_errors=True)

        n_queries = SERVE_BATCH * (len(lat["single"]) + len(traced_reads)
                                   + len(lat["sharded"]))
        busy_s = sum(sum(v) for v in lat.values()) + sum(traced_reads)
        rep = Report(setup_s, lat["single"], n_queries, busy_s, rss,
                     counts["attempted"], counts["failed"])
        if ctx.trace:
            rep.layers = self._layers(lat, feat, rtt, hits, shards,
                                      traced_reads)
        return rep

    def _query_rows(self, cfg, q) -> pa.Table:
        """The query-side calls of ``link_many`` on one batch: fingerprint,
        MinHash and block-key explode."""
        from spel_ray.stages.fingerprint import fingerprint_batch

        n = len(q["contents"])
        tbl = pa.table({
            "repo": ["q"] * n, "path": [f"q{i}" for i in range(n)],
            "commit": [str(i) for i in range(n)], "lang": q["langs"],
            "content": q["contents"]})
        return self._explode(self._sketch(fingerprint_batch(
            tbl, strip_comments=cfg.strip_comments)))

    def _featurize_s(self, ctx: Ctx, cfg, q) -> float:
        with ctx.tracer.span("serving.featurize"):
            dt, _ = timed(lambda: self._query_rows(cfg, q))
        return dt

    def _sharded_layers(self, cfg, live, q, dt, got, rtt, hits,
                        shards) -> None:
        """Round-trip cost (sharded minus single on the same batch), hits
        and key-owning shards per query."""
        single_s, _ = timed(lambda: live.link_many(q["contents"],
                                                   q["langs"]))
        rtt.append(dt - single_s)
        hits.extend(len(h) for h in got)
        rows = self._query_rows(cfg, q)
        df = pd.DataFrame({"row_id": np.asarray(rows["row_id"]),
                           "shard": np.asarray(rows["block_key"]) % N_SHARDS})
        per_query = df.groupby("row_id")["shard"].nunique()
        shards.extend(per_query.tolist()
                      + [0] * (len(q["contents"]) - len(per_query)))

    @staticmethod
    def _layers(lat, feat, rtt, hits, shards, traced_reads) -> dict:
        out = {
            "serving.featurize_ms": median(feat) * 1e3,
            "serving.probe_ms": (median(lat["single"]) - median(feat)) * 1e3,
            "serving.sharded_rtt_ms": median(rtt) * 1e3,
            "serving.hits_per_query": float(np.mean(hits)) if hits else 0.0,
            "serving.shards_per_query":
                float(np.mean(shards)) if shards else 0.0,
            "trace.overhead_s":
                _overhead(traced_reads, lat["single"]),
        }
        for kind, key in (("single", "read"), ("sharded", "sharded"),
                          ("add", "add")):
            xs = [x * 1e3 for x in lat[kind]]
            q, v = tail(xs)
            out[f"serving.{key}_samples"] = len(xs)
            out[f"serving.{key}_tail_q"] = q
            out[f"serving.{key}_tail_ms"] = v
            if key != "read":
                out[f"serving.{key}_ms"] = median(xs)
        return out


# ============================================================ operator pass
def ops_layers(ctx: Ctx, ops_dir: str) -> tuple[dict, int, int]:
    """One traced pass over the registry queries that share the relational
    joins, the sorted-neighbourhood shuffle, the three top-k paths and the
    verified linkage join; each result is checked against its DuckDB
    oracle. Returns (per-query seconds, attempted, failed)."""
    import __ray_entry__ as entry

    queries = entry.queries()
    got = {}
    for name in OPS_QUERIES:
        with ctx.tracer.span(f"ops.{name}"):
            df = queries[name](ops_dir)
        got[name] = df if isinstance(df, pd.DataFrame) else df.to_pandas()
    want = _oracle(entry, ops_dir)
    failed = sum(not same_values(got[n], want[n]) for n in OPS_QUERIES)
    return ({f"ops.{n}_s": median(ctx.tracer.durations(f"ops.{n}"))
             for n in OPS_QUERIES}, len(OPS_QUERIES), failed)


def _oracle(entry, ops_dir: str) -> dict[str, pd.DataFrame]:
    """Each query's DuckDB oracle result over the same parquet."""
    import duckdb

    sql = entry.oracle_sql()
    con = duckdb.connect()
    try:
        for t in ("customer", "orders", "documents", "embeddings"):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{ops_dir}/{t}.parquet')")
        return {n: con.execute(sql[n]).fetchdf() for n in OPS_QUERIES}
    finally:
        con.close()


WORKLOADS = {"link-batch": LinkBatch, "serve-mixed": ServeMixed}
