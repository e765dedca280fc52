"""Incremental linkage — absorb a new batch of records into an existing
clustered corpus without re-scoring old-old pairs.

The recurring-ingest shape of a training-data pipeline (daily crawl deltas
against a petabyte corpus): the previous run's block rows and clusters are
the carried state (both already checkpointed by ``run_linkage``'s
``checkpoint_dir``), the increment runs the chain's head, and the chain's
tail then scores only pairs touching at least one NEW row — the old-old
verdicts are already encoded as cluster membership edges:

    new blocks  = link_head(increment): fingerprint + block_keys
    all blocks  = prev blocks (is_new=False) ∪ new blocks (is_new=True)
    link_tail   = bucketed pair-gen (old-old pairs skipped)
                  → thresholded new edges ∪ prev membership edges
                  → connected components + min-label assignment

Semantics note (documented approximation): inside a hot block over the cap,
the connectivity chain is computed over the merged membership, so old-old
adjacencies that the previous run chained are represented only through the
previous clusters — identical results to a full rerun whenever hot-block
chain pairs scored above threshold (exact duplicates always do).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from spel_ray.config import LinkageConfig
from spel_ray.pipelines.linkage import (LinkageResult, link_head, link_tail,
                                        pin_at)


def _tag(ds: ray.data.Dataset, flag: bool) -> ray.data.Dataset:
    def with_is_new(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "is_new", pa.array(np.full(batch.num_rows, flag)))
    return ds.map_batches(with_is_new, batch_format="pyarrow")


def incremental_link(new_ds: ray.data.Dataset,
                     prev_blocks: ray.data.Dataset,
                     prev_clusters: ray.data.Dataset,
                     cfg: LinkageConfig | None = None, *,
                     num_buckets: int = 64) -> LinkageResult:
    """Absorb ``new_ds`` (input_hint schema) into the clustered corpus.

    ``prev_blocks``: the previous run's exploded block rows (the
    ``block_keys`` checkpoint). ``prev_clusters``: (row_id, cluster_id).
    Returns a LinkageResult whose ``clusters`` covers old ∪ new rows."""
    cfg = cfg or LinkageConfig()

    new_records, new_blocks = link_head(new_ds, cfg)
    new_blocks = _tag(new_blocks, True)
    old_blocks = _tag(prev_blocks, False)
    # align column order for the union (prev blocks always have a schema;
    # an EMPTY increment leaves new_blocks schema-less)
    cols = sorted(old_blocks.columns())
    if new_blocks.columns() is None:
        all_blocks = old_blocks.select_columns(cols)
    else:
        all_blocks = old_blocks.select_columns(cols).union(
            new_blocks.select_columns(cols))

    def membership(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.not_equal(batch["row_id"], batch["cluster_id"]))
        return pa.table({"lo": t["cluster_id"], "hi": t["row_id"]})

    all_ids = prev_clusters.select_columns(["row_id"]).union(
        new_records.select_columns(["row_id"]))
    return link_tail(
        new_records, all_blocks, all_ids, cfg, num_buckets=num_buckets,
        stage=pin_at("pairs", "edges", "clusters"),
        prior_edges=prev_clusters.map_batches(membership,
                                              batch_format="pyarrow"))
