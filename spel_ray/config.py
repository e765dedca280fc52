"""Pipeline configuration.

The analog of the reference's config surface (``configuration.py`` +
checkpoint-selection flags, reference ``server.py:69-78``): one frozen
dataclass that every stage takes explicitly, so a pipeline run is fully
described by (input paths, LinkageConfig, checkpoint dir).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class LinkageConfig:
    """Knobs for the blocking + scoring + clustering pipeline.

    Defaults are tuned for near-duplicate source files (50-4000 chars, 0-5
    small edits from a shared ancestor — see FIXTURES.md §1). At 100 TB the
    same defaults hold: block size / pair caps bound worst-case work per
    group independent of total data size.
    """

    # --- shingling / MinHash (blocking sketch) ---
    shingle_k: int = 7              # char-shingle width over normalized content
    num_perm: int = 64              # MinHash permutations = bands * rows_per_band
    bands: int = 16                 # LSH bands; pair collides if any band matches
    rows_per_band: int = 4
    num_perm_tok: int = 24          # word-token MinHash (cheap in-block verifier)
    sig_bytes: int = 2              # bytes stored per signature slot (2 or 4).
    # The Jaccard estimator only tests per-slot EQUALITY; a false 16-bit
    # collision has probability 2^-16 per slot (estimate bias ~1.5e-5 —
    # far below the decision margin) while the exploded shuffle payload,
    # the hottest all-to-all in the pipeline, nearly halves.
    seed: int = 42

    strip_comments: bool = True     # strip per-lang line/block comments from
    # the shingling view (norm_content) — comment churn is the most common
    # benign near-dup mutation; sha256 stays over raw content

    # --- exact blocking ---
    sha_prefix_len: int = 16        # (lang, sha256[:p]) exact key, catches identical content
    suppress_dup_bands: bool = False  # opt-in: globally elect ONE band-carrier
    # per duplicate content (slim pre-pass + broadcast), so duplicate members
    # emit only their exact key. Deterministic (election is global, not
    # per-batch). Big win on duplicate-heavy corpora; costs one extra slim
    # pass over the input. The broadcast carrier map must fit driver memory
    # (guarded by max_carrier_broadcast).
    max_carrier_broadcast: int = 5_000_000

    # --- pair generation / skew handling ---
    max_block_pairs_n: int = 64     # blocks with <= n rows emit all C(n,2) pairs
    # Blocks larger than max_block_pairs_n emit a sorted chain (r0,r1),(r1,r2)...
    # instead of all pairs: n-1 edges preserve connectivity for transitive
    # clustering while bounding a hot key's output at O(n) instead of O(n^2).

    # --- scoring ---
    score_threshold: float = 0.42   # combined score >= threshold -> edge
    # (calibrated on the labeled fixture: non-match scores top out ~0.28,
    # match scores bottom out ~0.52 — 0.42 splits with margin on both sides)
    char_weight: float = 0.6        # char-shingle jaccard weight in the blend
    tok_weight: float = 0.4         # token jaccard weight
    verify_low: float = 0.35        # borderline band sent to the exact verifier
    verify_high: float = 0.80
    use_verifier: bool = False      # exact content verifier (actor pool +
    # content join) — opt-in precision pass; the default pipeline verifies
    # with the colocated token MinHash instead (no extra shuffle)

    # --- extension surface (§2.10): registry names, see spel_ray/extension ---
    scorer: str = "sketch-blend"    # PairScorer registry entry
    blocker: str = "lsh-minhash"    # Blocker registry entry

    # --- clustering ---
    max_cc_rounds: int = 50         # safety bound on fixpoint rounds
    cc_driver_threshold: int = 5_000_000   # edge sets below this run driver-side
    # union-find (edges are 16 bytes each — 5M edges = 80 MB); above it the
    # distributed hash-to-min rounds take over. It also bounds the star and
    # the row ids that cluster assignment gathers on the driver (else: shuffle)

    # --- execution ---
    batch_size: int = 2048          # rows per map_batches call for sketching
    pair_batch_size: int = 2048     # pairs per verifier batch
    scorer_concurrency: int = 16    # verifier actor-pool MAX (autoscales from 1)

    def __post_init__(self) -> None:
        if self.bands * self.rows_per_band != self.num_perm:
            raise ValueError(
                f"bands*rows_per_band must equal num_perm "
                f"({self.bands}*{self.rows_per_band} != {self.num_perm})"
            )
        if self.sig_bytes not in (2, 4):
            raise ValueError(f"sig_bytes must be 2 or 4, got {self.sig_bytes}")
        if not 1 <= self.sha_prefix_len <= 16:
            raise ValueError(
                f"sha_prefix_len must be in 1..16 (the exact key hashes at "
                f"most the first 64 sha bits), got {self.sha_prefix_len}")
        if self.suppress_dup_bands and self.blocker != "lsh-minhash":
            raise ValueError(
                f"suppress_dup_bands elects band carriers for the default "
                f"'lsh-minhash' blocker only; blocker={self.blocker!r} would "
                f"ignore them")

    def fingerprint(self) -> str:
        """Stable hash of the config — part of every checkpoint manifest."""
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


DEFAULT_CONFIG = LinkageConfig()
