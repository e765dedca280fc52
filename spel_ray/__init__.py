"""spel_ray — a Ray-Data-native record-linkage / data-processing engine.

Re-expresses the capabilities of the reference (shavarani/SpEL: subword-level
span tagging over a fixed candidate set + span aggregation; see SURVEY.md) as a
blocking + pairwise-scoring + transitive-clustering pipeline over Parquet
source-code tables, built Ray-Data-first:

- ``ray.data.read_parquet`` streams Arrow blocks (zero-copy batches),
- ``map_batches(batch_format="pyarrow")`` computes fingerprints, MinHash-LSH
  band keys and ``(lang, sha256-prefix)`` exact blocking keys,
- pair-gen is one unsalted ``bucketed_groupby`` on the block key (the
  engine's one hash exchange, ``state/shuffle.py``); a hot block emits a
  sorted-id chain flagged ``capped`` instead of all its pairs, and one
  bucketed aggregate merges a pair met in several blocks,
- a vectorized scorer (plus an actor-pool verifier for borderline pairs)
  scores candidate edges,
- transitive clustering is hash-to-min connected components: each round is
  one bucketed shuffle whose buckets each contract their subgraph with a
  local union-find, and an edge set below ``cc_driver_threshold`` runs one
  union-find on the driver instead (``stages/clustering.py``).

Everything here derives from public knowledge only (Ray / Arrow docs, the
public reference repo, published papers).
"""

from spel_ray.config import LinkageConfig
from spel_ray.extension import (
    Blocker, PairScorer, register_blocker, register_scorer)

__all__ = ["LinkageConfig", "PairScorer", "Blocker",
           "register_scorer", "register_blocker"]
__version__ = "0.2.0"
