"""Candidate pairs: the one in-block pair kernel, the one pair merge, and the
flagship's pair-gen + first-pass scoring built on them.

Every pair producer in the engine — the flagship linkage, SimHash segments
(``functions/dedup.simhash_candidates``), embedding LSH buckets
(``embedding_neardup_pairs``) and the chunk vote
(``stages/chunker.chunk_level_pairs``) — is "enumerate the pairs inside each
block, then merge duplicate pairs". Both halves are written once, here:

- **In-block enumeration** (:func:`bucket_pairs`, Ray-free). A bucket's
  ``(key, id)`` rows are deduped and sorted by id within each block. A block
  with n ≤ cap members yields all C(n,2) pairs. A hot block (boilerplate
  content, dense LSH band) yields a sorted *chain* (r0,r1),(r1,r2)…: n-1
  edges that preserve connectivity for transitive clustering while bounding
  a hot key at O(n) instead of O(n²). Chain pairs carry ``capped=True`` so
  the cap is observable, not silent. Every block's pairs come from one numpy
  pass; on the perfbench 4k table (8 buckets, cap 64, one Xeon core) that
  took pair enumeration from 0.50-0.63 s per op (a ``triu_indices`` call per
  block) to 17-27 ms, and flagship pair-gen from 0.60-0.77 s to 0.11-0.15 s.
  :func:`block_pairs` yields the same pairs per block, for a per-block matmul.
- **Pair merge** (:func:`merge_pairs`). A pair colliding in several blocks
  is emitted once per shared block; the engine's one grouped aggregate
  (``state/shuffle.bucketed_aggregate`` on ``(id_lo, id_hi)``: a per-batch
  partial, then a per-bucket final) folds it to one row with the caller's
  aggregates (the flagship keeps max score / any exact and counts
  supporting blocks) — the engine's analog of the reference's
  overlapping-chunk conflict vote
  (reference ``utils.py:230-251``, ``:316-328``).

The flagship scores inside pair-gen: the MinHash-Jaccard estimate needs only
the two signatures, which are already colocated in the block, so pairs are
scored the moment they are formed and only the slim scored edge
``PAIR_SCHEMA`` leaves the bucket task. Signatures never shuffle twice.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import ray.data

from spel_ray.config import LinkageConfig
from spel_ray.extension import get_scorer
from spel_ray.stages.blocking import block_features
from spel_ray.stages.scoring import matches, score_gather
from spel_ray.state.shuffle import (bucketed_aggregate, bucketed_groupby,
                                    bucketed_topk)

# one scored candidate pair, as pair-gen emits it (the merge adds n_blocks)
PAIR_SCHEMA = pa.schema([
    ("id_lo", pa.int64()), ("id_hi", pa.int64()), ("block_key", pa.int64()),
    ("jac", pa.float64()), ("exact", pa.bool_()), ("score", pa.float64()),
    ("capped", pa.bool_()),
])

# the flagship's duplicate-pair vote: (output, input column, aggregate fn);
# capped takes MIN so uncapped evidence wins if any block was enumerated in full
PAIR_MERGE = [("block_key", "block_key", "min"), ("jac", "jac", "max"),
              ("exact", "exact", "max"), ("score", "score", "max"),
              ("capped", "capped", "min"), ("n_blocks", "block_key", "count")]


def _blocks(keys, ids):
    """The kernels' prelude: sort by (key, id), drop repeated rows →
    ``(sel, starts, sizes)``, the input positions in that order and each
    block's start in ``sel`` and member count."""
    keys = np.asarray(keys, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    order = np.lexsort((ids, keys))
    k, i = keys[order], ids[order]
    distinct = np.ones(len(k), dtype=bool)
    distinct[1:] = (k[1:] != k[:-1]) | (i[1:] != i[:-1])
    sel, k = order[distinct], k[distinct]
    first = np.ones(len(k), dtype=bool)
    first[1:] = k[1:] != k[:-1]
    starts = np.flatnonzero(first)
    return sel, starts, np.diff(np.r_[starts, len(k)])


def block_pairs(keys, ids, cap: int):
    """The in-block pair kernel, block by block: one bucket's ``(key, id)``
    rows (any order, repeats allowed) → for each block with ≥ 2 distinct
    ids, one ``(rows, a, b, capped)``.

    ``rows`` are input positions of the block's members, one per distinct id,
    sorted by id; ``a < b`` index ``rows``. n ≤ ``cap`` members give all
    C(n,2) pairs, more give the n-1 chain of id-adjacent members with
    ``capped`` True. A 0-row bucket yields nothing."""
    sel, starts, sizes = _blocks(keys, ids)
    multi = sizes > 1
    for start, n in zip(starts[multi].tolist(), sizes[multi].tolist()):
        if n <= cap:
            a, b = np.triu_indices(n, k=1)
        else:   # hot block: connectivity chain, O(n) not O(n^2)
            a = np.arange(n - 1)
            b = a + 1
        yield sel[start:start + n], a, b, n > cap


def bucket_pairs(keys, ids, cap: int):
    """Every block's pairs in one pass: ``(lo, hi, capped)``, ``lo``/``hi``
    input positions (``ids[lo] < ids[hi]``), one capped flag per pair, in
    :func:`block_pairs` order. Member j of an n-member block leads n-1-j
    pairs (row-major ``triu``) if n ≤ ``cap``, else 1 unless it is last (the
    chain): ``lo`` repeats each member that often, and ``hi`` is ``lo + 1``
    plus the pair's rank in its leader's run. Memory is O(rows + pairs)."""
    sel, starts, sizes = _blocks(keys, ids)
    n = np.repeat(sizes, sizes)
    j = np.arange(len(sel)) - np.repeat(starts, sizes)
    full = n <= cap
    cnt = np.where(full, n - 1 - j, j < n - 1)
    lo = np.repeat(np.arange(len(sel)), cnt)
    hi = lo + 1 + np.arange(len(lo)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return sel[lo], sel[hi], ~full[lo]


def merge_pairs(pairs: ray.data.Dataset, aggs, *,
                num_buckets: int) -> ray.data.Dataset:
    """Pairs (``id_lo < id_hi`` plus payload) → one row per pair, aggregated
    by ``aggs`` (``(output, input column, fn)`` triples, see
    ``state/shuffle.merge_bucket``) in one exchange keyed on the pair
    itself."""
    return bucketed_aggregate(pairs, ["id_lo", "id_hi"], aggs,
                              num_buckets=num_buckets)


def gen_and_score_bucket(t: pa.Table, cfg: LinkageConfig, scorer) -> pa.Table:
    """One bucket of block rows → scored candidate pairs (``PAIR_SCHEMA``).

    Arrow-native on purpose: the rows are read through
    ``blocking.block_features`` as numpy buffer views; a pandas conversion
    would materialize one Python bytes object per row and dominate the task
    (measured ~6× the useful compute)."""
    f = block_features(t, cfg)
    ids = f["row_id"]
    lo, hi, capped = bucket_pairs(f["block_key"], ids, cfg.max_block_pairs_n)
    # incremental mode: when an ``is_new`` column is present, old-old pairs
    # are skipped — their verdicts are already encoded in the previous run's
    # cluster membership edges (see pipelines/incremental.py)
    if "is_new" in t.column_names:
        new = np.asarray(t["is_new"], dtype=bool)
        keep = new[lo] | new[hi]
        lo, hi, capped = lo[keep], hi[keep], capped[keep]
    if len(lo) == 0:
        return PAIR_SCHEMA.empty_table()

    # ``scorer`` (§2.10) rides the closure from scored_candidate_pairs
    jac, exact, score = score_gather(scorer, cfg, f, lo, f, hi)
    return pa.table([ids[lo], ids[hi], f["block_key"][lo], jac, exact, score,
                     capped],
                    schema=PAIR_SCHEMA)


def mine_hard_negatives(pairs: ray.data.Dataset, cfg: LinkageConfig,
                        n: int = 1000) -> ray.data.Dataset:
    """Global top-n highest-scoring NON-matches (score below the edge
    threshold, not exact) — the engine's T5 analog (reference hard-negative
    miner ``model.py:126-158``: per-batch top-k → global top-k). These are
    the pairs a threshold-calibration or training loop wants to look at.

    One global :func:`bucketed_topk`: each batch keeps its top n, then one
    bucket keeps the top n of those — the full pair set is never globally
    sorted. The output is in rank order.

    Determinism: sketch-blend scores are heavily quantized (MinHash
    agreement is k/num_perm), so ties at the cutoff are common; ties break
    lexicographically on (id_lo, id_hi) so the selected set is
    independent of partitioning/parallelism (ADVICE r2 #1)."""
    if pairs.schema() is None:              # no pairs at all
        return pairs
    thr = cfg.score_threshold

    def non_matches(batch: pa.Table) -> pa.Table:
        keep = ~matches(batch["exact"], batch["score"], thr)
        return batch.filter(keep).select(["id_lo", "id_hi", "score"])

    return bucketed_topk(
        pairs.map_batches(non_matches, batch_format="pyarrow"), [],
        [("score", "descending"), ("id_lo", "ascending"),
         ("id_hi", "ascending")], n, num_buckets=1)


def scored_candidate_pairs(block_rows: ray.data.Dataset, cfg: LinkageConfig,
                           *, num_buckets: int = 64) -> ray.data.Dataset:
    """block rows → deduped scored candidate pairs (``PAIR_SCHEMA`` +
    ``n_blocks``).

    Two bucketed shuffles: (1) by block_key for pair-gen + score, (2) by the
    pair for the duplicate merge."""
    scorer = get_scorer(cfg.scorer)      # resolve on the driver (§2.10)
    pairs = bucketed_groupby(block_rows, "block_key",
                             partial(gen_and_score_bucket, cfg=cfg,
                                     scorer=scorer),
                             num_buckets=num_buckets)
    return merge_pairs(pairs, PAIR_MERGE, num_buckets=num_buckets)
