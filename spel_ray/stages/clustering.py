"""Transitive clustering — distributed connected components over edge lists.

The engine analog of the reference's span aggregation (adjacent words with
equal resolved annotation collapse into one phrase, reference
``span_annotation.py:9-63``, ``utils.py:389-397``) lifted to cluster
granularity: records connected by accepted edges collapse into one cluster,
labeled by the minimum row id (the canonical-representative rule, ≙ canonical
redirects, reference ``configuration.py:39-45``).

Algorithm: **hash-to-min with per-bucket union-find contraction** (the
map-reduce CC family of Rastogi et al., "Finding Connected Components in
Map-Reduce in Logarithmic Rounds", ICDE 2013, and Kiveris et al., SoCC 2014 —
public knowledge). Each round:

1. every canonical edge (lo, hi) is emitted in both directions (node, nbr) so
   an edge reaches the bucket of *each* endpoint;
2. one bucketed shuffle groups by node hash; inside a bucket a local
   union-find contracts the entire bucket subgraph and emits the spanning
   star (min-member, member) per local component.

Replacing each bucket's subgraph by its spanning star preserves global
connectivity (the buckets partition the directed edge set, and a spanning
structure per part keeps every part's vertex set connected), and labels only
ever decrease toward the component minimum, so the edge set converges to the
per-component star in O(log n) rounds. Convergence is detected by an
order-independent (count, checksum) signature of the round's output. One
shuffle per round; the driver loop only materializes the (small) edge set —
mirroring the reference's per-epoch reload fixpoint
(``finetune_step_1.py:97-104``).

Assignment labels each id with the minimum of itself and its star root: one
``merge_bucket`` min on the driver when the star and the ids fit under the
driver threshold, else one bucketed min-label shuffle of the same kernel.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from spel_ray.state.shuffle import (bucketed_aggregate, bucketed_groupby,
                                    merge_bucket, pair_key)


def _local_union_find(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components over edge arrays; returns (unique_nodes,
    root_per_node) with each root the minimum node id of its component.

    Fully vectorized label propagation with pointer jumping (no per-edge
    Python loop): alternate `minimum.at` edge relaxation with `label[label]`
    path halving until fixpoint — O(E) numpy work per round, O(log n)
    rounds."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    n = len(nodes)
    ia = inv[: len(a)]
    ib = inv[len(a):]
    label = np.arange(n, dtype=np.int64)
    while True:
        # relax every edge toward the smaller endpoint label
        la = label[ia]
        lb = label[ib]
        m = np.minimum(la, lb)
        before = label.copy()
        np.minimum.at(label, ia, m)
        np.minimum.at(label, ib, m)
        # pointer jumping: compress chains label <- label[label]
        while True:
            nl = label[label]
            if np.array_equal(nl, label):
                break
            label = nl
        if np.array_equal(before, label):
            break
    return nodes, nodes[label]


def _star(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Edge arrays → spanning star edges (root=lo, member=hi) of each
    component; typed when empty."""
    nodes, root = _local_union_find(a, b)
    keep = root != nodes
    return pa.table({"lo": pa.array(root[keep], pa.int64()),
                     "hi": pa.array(nodes[keep], pa.int64())})


def _contract_bucket(t: pa.Table) -> pa.Table:
    """Bucket of directed rows (node, nbr) → the spanning star edges of
    each local component."""
    return _star(t["node"].to_numpy(), t["nbr"].to_numpy())


def _to_directed(batch: pa.Table) -> pa.Table:
    lo = np.asarray(batch["lo"])
    hi = np.asarray(batch["hi"])
    return pa.table({
        "node": pa.array(np.concatenate([lo, hi]), pa.int64()),
        "nbr": pa.array(np.concatenate([hi, lo]), pa.int64()),
    })


def _checksum(edges: ray.data.Dataset) -> tuple[int, int]:
    """(row count, order-independent uint64 checksum) of an edge set."""
    def edge_checksum(batch: pa.Table) -> pa.Table:
        pk = pair_key(np.asarray(batch["lo"]), np.asarray(batch["hi"]))
        s = int(pk.view(np.uint64).sum(dtype=np.uint64))
        return pa.table({"s": pa.array([s], pa.uint64()),
                         "c": pa.array([batch.num_rows], pa.int64())})

    parts = edges.map_batches(edge_checksum, batch_format="pyarrow").take_all()
    total = sum(int(p["s"]) for p in parts) % (1 << 64)
    count = sum(int(p["c"]) for p in parts)
    return count, total


def _gather(ds: ray.data.Dataset, cols: list[str],
            limit: int | None = None) -> pa.Table | None:
    """``cols`` of ``ds`` as one int64 table on the driver, or None as soon
    as more than ``limit`` rows have arrived."""
    typed = pa.schema([(c, pa.int64()) for c in cols])
    parts, n = [typed.empty_table()], 0
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        n += b.num_rows
        if limit is not None and n > limit:
            return None
        if b.num_rows:          # a 0-row block may carry no columns
            parts.append(b.select(cols).cast(typed))
    return pa.concat_tables(parts)


def _driver_components(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Small-edge-set fast path: one union-find on the driver.

    Edges are 16 bytes/row, so the cutoff (default 5M rows = 80 MB) keeps
    this well inside driver memory; the distributed rounds take over beyond
    it. This is the hybrid the Ray guide prescribes for connected components
    ("union-find on the driver only if the candidate set is provably
    small")."""
    t = _gather(edges, ["lo", "hi"])
    return ray.data.from_arrow(_star(t["lo"].to_numpy(), t["hi"].to_numpy()))


def connected_components(edges: ray.data.Dataset, *, num_buckets: int = 64,
                         max_rounds: int = 50,
                         driver_threshold: int = 5_000_000
                         ) -> ray.data.Dataset:
    """Edge list (lo, hi) → star edges (root, member) at fixpoint.

    Below ``driver_threshold`` edges: driver-side union-find (one pass).
    Above: one bucketed shuffle per hash-to-min round; the driver loop is the
    fixpoint control the survey flags as the hard part of iteration in a DAG
    engine (SURVEY.md §7.4)."""
    # edge rows are 16 bytes — pin once so the count probe and the chosen
    # branch don't each re-execute the whole upstream pair pipeline
    edges = edges.materialize()
    n = edges.count()
    if n == 0:          # typed, though Ray may hand back column-less blocks
        return ray.data.from_arrow(_star(*[np.zeros(0, np.int64)] * 2))
    if driver_threshold > 0 and n <= driver_threshold:
        return _driver_components(edges)
    cur = edges
    prev_sig: tuple[int, int] | None = None
    for _ in range(max_rounds):
        directed = cur.map_batches(_to_directed, batch_format="pyarrow")
        contracted = bucketed_groupby(directed, "node", _contract_bucket,
                                      num_buckets=num_buckets)
        cur = contracted.materialize()
        sig = _checksum(cur)
        if sig == prev_sig:
            break
        prev_sig = sig
    return cur


def assign_clusters(records: ray.data.Dataset, star_edges: ray.data.Dataset,
                    *, num_buckets: int = 64,
                    driver_threshold: int = 5_000_000) -> ray.data.Dataset:
    """(row_id …) × star edges → (row_id, cluster_id): one row per distinct
    row id or star member, labelled with the minimum of itself and its
    roots — no join. When the star and the ids each fit in
    ``driver_threshold`` rows (0 never fits), one ``merge_bucket`` min on the
    driver returns one typed block; else one bucketed min-label shuffle runs
    the same kernel."""
    def self_label(batch: pa.Table) -> pa.Table:
        ids = batch["row_id"]
        return pa.table({"row_id": ids, "cluster_id": ids})

    def edge_label(batch: pa.Table) -> pa.Table:
        return pa.table({"row_id": batch["hi"], "cluster_id": batch["lo"]})

    # the star is already computed (a driver table, materialized rounds or a
    # checkpoint read), so its count is free
    if driver_threshold > 0 and star_edges.count() <= driver_threshold:
        ids = _gather(records.select_columns(["row_id"]), ["row_id"],
                      driver_threshold)
        if ids is not None:
            star = _gather(star_edges, ["lo", "hi"])
            return ray.data.from_arrow(merge_bucket(
                pa.concat_tables([self_label(ids), edge_label(star)]),
                ["row_id"], [("cluster_id", "cluster_id", "min")]))

    base = records.select_columns(["row_id"]).map_batches(
        self_label, batch_format="pyarrow")
    from_edges = star_edges.map_batches(edge_label, batch_format="pyarrow")

    return bucketed_aggregate(base.union(from_edges), ["row_id"],
                              [("cluster_id", "cluster_id", "min")],
                              num_buckets=num_buckets)
