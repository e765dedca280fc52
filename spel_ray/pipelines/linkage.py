"""The flagship pipeline: blocking → pairwise scoring → transitive clustering.

End-to-end recast of the reference's serving pipeline (reference
``server.py:118-143`` → ``utils.py:280-397`` → ``candidate_manager.py:76-103``)
as Ray-Data stages:

    read_parquet (prune columns)
      → fingerprint          (map_batches, Arrow, sha256 row invariant)
      → minhash + block keys (map_batches, numpy sketches)
      → pair-gen + score     (bucketed groupby #1, skew-capped)
      → duplicate-pair merge (bucketed groupby #2, conflict vote)
      → borderline verify    (hash join on content, actor pool) [optional]
      → threshold edges
      → connected components (driver union-find, or hash-to-min rounds)
      → cluster assignment   (min-label: on the driver below
                              cc_driver_threshold, else bucketed)

Every stage streams; nothing materializes the full input except the edge set
inside the fixpoint loop (edges ≪ input) and the row ids (8 bytes each) that
assignment gathers on the driver below ``cc_driver_threshold``.

The chain is written once, as :func:`link_head` (fingerprint → block rows)
and :func:`link_tail` (pairs → edges → components → assignment). Every entry
point runs it — ``run_linkage``, ``run_linkage_sharded``,
``incremental_link``, ``minhash_dedup``, the serving index builds and
``chunk_level_pairs`` (head only) — and differs only in its stage runner:
lazy, pinned at chosen stages, or checkpointed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.dataset import MaterializedDataset

from spel_ray.config import LinkageConfig
from spel_ray.stages.blocking import block_keys, elect_band_carriers
from spel_ray.stages.clustering import assign_clusters, connected_components
from spel_ray.stages.fingerprint import (fingerprint, row_ids,
                                         text_record_batch)
from spel_ray.stages.pairs import scored_candidate_pairs
from spel_ray.stages.scoring import (edges_from_pairs, matches,
                                    verify_borderline)
from spel_ray.state.shuffle import (bucketed_groupby, collect, merge_bucket,
                                    topk_rows)


@dataclass
class LinkageResult:
    records: ray.data.Dataset       # fingerprinted input (row_id, sha, …)
    pairs: ray.data.Dataset         # deduped scored candidate pairs
    edges: ray.data.Dataset         # thresholded (lo, hi)
    clusters: ray.data.Dataset      # (row_id, cluster_id)
    stats: dict = field(default_factory=dict)


# A stage runner ``stage(name, fn) -> Dataset`` decides what happens at each
# named step of the chain: compute in place, pin, or checkpoint
# (``CheckpointedRun.run_stage``). The chain itself is written once below.
def pin_at(*names: str):
    """Runner that materializes the named stages — the points where a result
    has several consumers and must run exactly once — and leaves the rest
    lazy. A stage that already returns a ``MaterializedDataset`` (e.g.
    ``assign_clusters``' driver branch) is kept as is: ``materialize()``
    would run its plan again."""
    def run(name: str, fn) -> ray.data.Dataset:
        ds = fn()
        if name not in names or isinstance(ds, MaterializedDataset):
            return ds
        return ds.materialize()
    return run


def empty_clusters(id_col: str = "row_id") -> ray.data.Dataset:
    """Typed 0-row (id_col, cluster_id) — what clustering no records gives."""
    return ray.data.from_arrow(pa.table({id_col: pa.array([], pa.int64()),
                                         "cluster_id": pa.array([], pa.int64())}))


def link_head(ds: ray.data.Dataset, cfg: LinkageConfig, *, stage=pin_at(),
              elect=None, text: tuple[str, str, str] | None = None):
    """The chain's head: fingerprint → block rows. Returns (records, blocks).

    ``text=(text_col, id_col, lang)`` fingerprints plain text
    (:func:`text_record_batch`) instead of a code table. ``elect``:
    records → band-carrier ref (``elect_band_carriers``), called only when
    block rows are computed, so a resume past ``block_keys`` skips the
    election's corpus pass."""
    def fp():
        if text is None:
            return fingerprint(ds, batch_size=cfg.batch_size,
                               strip_comments=cfg.strip_comments)
        return ds.map_batches(text_record_batch, batch_format="pyarrow",
                              fn_args=text)

    records = stage("fingerprint", fp)
    blocks = stage("block_keys", lambda: block_keys(
        records, cfg, carriers_ref=elect(records) if elect else None))
    return records, blocks


def link_tail(records: ray.data.Dataset, blocks: ray.data.Dataset,
              ids: ray.data.Dataset, cfg: LinkageConfig, *, num_buckets: int,
              stage=pin_at(), verify: bool = False,
              prior_edges: ray.data.Dataset | None = None) -> LinkageResult:
    """The chain's tail: block rows → scored pairs (→ borderline verify
    against ``records``) → threshold edges (∪ ``prior_edges``) → connected
    components → min-label clusters over ``ids`` (row_id …).

    Clusters over no ids come back typed (row_id, cluster_id int64); the
    check reads a schema that is free on pinned or checkpointed data."""
    pairs = stage("pairs", lambda: scored_candidate_pairs(
        blocks, cfg, num_buckets=num_buckets))
    if verify:
        pairs = stage("verify", lambda: verify_borderline(
            pairs, records, cfg, num_buckets=max(8, num_buckets // 2)))

    def edges_fn():
        edges = edges_from_pairs(pairs, cfg)
        return edges if prior_edges is None else edges.union(prior_edges)

    edges = stage("edges", edges_fn)
    star = stage("components", lambda: connected_components(
        edges, num_buckets=num_buckets, max_rounds=cfg.max_cc_rounds,
        driver_threshold=cfg.cc_driver_threshold))
    clusters = stage("clusters", lambda: assign_clusters(
        ids, star, num_buckets=num_buckets,
        driver_threshold=cfg.cc_driver_threshold))
    if clusters.schema(fetch_if_missing=False) is None:
        clusters = empty_clusters()
    return LinkageResult(records=records, pairs=pairs, edges=edges,
                         clusters=clusters)


def run_linkage(ds: ray.data.Dataset, cfg: LinkageConfig | None = None,
                *, num_buckets: int = 64,
                checkpoint_dir: str | None = None) -> LinkageResult:
    """Run the full linkage pipeline over a code table
    (repo, path, commit, lang, content).

    With ``checkpoint_dir`` set, each stage writes per-partition Parquet +
    a manifest and a rerun resumes from the last complete stage
    (see state/checkpoint.py). Every manifest records ``ds``'s sorted input
    files (``Dataset.input_files()``), and a stage written over other files
    is recomputed. In-memory inputs (``from_arrow``, ``from_pandas`` …) have
    no input files — nor, as Ray reports it, does a read with a map on top —
    so their checkpoints are not identity-checked: reuse a
    ``checkpoint_dir`` only for the same such table."""
    cfg = cfg or LinkageConfig()
    # the verifier's content join probes records twice — pin once instead of
    # re-reading + re-hashing per consumer (at very large scale, run with a
    # checkpoint_dir: stage parquet replaces object-store pinning). Without
    # the verifier the default path never pins content: blocking consumes
    # records as one stream and assignment re-derives the (cheap) id pass.
    pin_records = cfg.use_verifier
    if checkpoint_dir is not None:
        from spel_ray.state.checkpoint import CheckpointedRun
        # a stage checkpoint is reused only over the same input files
        stage = partial(CheckpointedRun(checkpoint_dir, cfg).run_stage,
                        inputs=sorted(ds.input_files()))
    else:
        # the merged pair set has several consumers (edges, evaluation,
        # optional verify) — pin it (slim rows, far smaller than the input)
        # so blocking/pair-gen runs exactly once
        stage = pin_at("pairs", "verify", "clusters",
                       *(["fingerprint"] if pin_records else []))
    elect = partial(elect_band_carriers, cfg=cfg,
                    num_buckets=max(8, num_buckets // 2)) \
        if cfg.suppress_dup_bands else None
    records, blocks = link_head(ds, cfg, stage=stage, elect=elect)
    # assignment only needs row_id: when records are lazy (not pinned, not
    # checkpointed) a slim 3-column pruned read re-derives ids instead of
    # re-running sha256+normalize over all content
    lazy = checkpoint_dir is None and not pin_records
    return link_tail(records, blocks, row_ids(ds) if lazy else records, cfg,
                     num_buckets=num_buckets, stage=stage,
                     verify=cfg.use_verifier)


def cluster_report(res: LinkageResult, *, num_buckets: int = 16,
                   top_n: int = 10) -> dict:
    """Cluster-level observability (≙ the reference's metric bundles A5):
    size distribution, singleton fraction, largest clusters. One bucketed
    count pass over the slim (row_id, cluster_id) table; the histogram is
    tiny and finalizes on the driver."""
    largest = [("size", "descending"), ("cluster_id", "ascending")]
    cols = ["size", "n_clusters", "cluster_id"]

    def bucket_summary(t: pa.Table) -> pa.Table:
        """Each cluster lives wholly in one bucket (keyed by cluster_id),
        so the bucket can finalize: emit its (size → count) histogram plus
        its local top_n largest — the driver merges num_buckets tiny
        summaries, never one row per cluster (corpus-scale). Histogram
        rows carry cluster_id -1, top rows count 0 clusters."""
        sizes = merge_bucket(t, ["cluster_id"],
                             [("size", "cluster_id", "count")])
        hist = merge_bucket(sizes, ["size"], [("n_clusters", "size", "count")])
        top = topk_rows(sizes, [], largest, top_n)
        return pa.concat_tables([
            hist.append_column("cluster_id",
                               pa.array(np.full(hist.num_rows, -1))),
            top.append_column("n_clusters",
                              pa.array(np.zeros(top.num_rows, np.int64)))
               .select(cols)])

    summary = bucketed_groupby(
        res.clusters.select_columns(["cluster_id"]), "cluster_id",
        bucket_summary, num_buckets=num_buckets)
    parts = collect(summary, pa.schema([(c, pa.int64()) for c in cols]))
    hist = merge_bucket(parts, ["size"], [("n", "n_clusters", "sum")]) \
        .sort_by("size")
    hist = dict(zip(hist["size"].to_pylist(), hist["n"].to_pylist()))
    top = topk_rows(parts.filter(pc.equal(parts["n_clusters"], 0)), [],
                    largest, top_n)
    n_clusters = sum(hist.values())
    return {
        "n_records": sum(s * c for s, c in hist.items()),
        "n_clusters": n_clusters,
        "singleton_fraction": round(hist.get(1, 0) / n_clusters, 5)
        if n_clusters else 0.0,
        "size_histogram": hist,
        "largest": [{"cluster_id": c, "size": s} for c, s in
                    zip(top["cluster_id"].to_pylist(),
                        top["size"].to_pylist())],
    }


def linkage_stats(res: LinkageResult, cfg: LinkageConfig | None = None) -> dict:
    """Observability over a finished run — most importantly the skew cap:
    how many merged pairs came only from capped (hot) blocks, so a capped
    shuffle never reads as 'covered everything' when it didn't
    (SURVEY.md §7.4 'log what was capped')."""
    thr = (cfg or LinkageConfig()).score_threshold

    def pair_counts(batch: pa.Table) -> pa.Table:
        return pa.table({
            "n": [batch.num_rows],
            "n_capped": [pc.sum(pc.cast(batch["capped"], pa.int64())).as_py() or 0],
            "n_exact": [pc.sum(pc.cast(batch["exact"], pa.int64())).as_py() or 0],
            "n_edges_thr": [int(matches(batch["exact"], batch["score"],
                                        thr).sum())],
        })

    parts = collect(res.pairs.map_batches(pair_counts, batch_format="pyarrow"),
                    pa.schema([(c, pa.int64()) for c in
                               ("n", "n_capped", "n_exact", "n_edges_thr")]))
    n, capped, exact, edges = (pc.sum(c).as_py() or 0 for c in parts.columns)
    return {
        "pairs": n,
        "capped_pairs": capped,
        "capped_fraction": round(capped / n, 5) if n else 0.0,
        "exact_pairs": exact,
        "edges_over_threshold": edges,
        "records": res.clusters.count(),
    }
