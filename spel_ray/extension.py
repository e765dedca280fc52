"""User-extension surface (§2.10) — Scorer / Blocker protocols + registries.

The engine analog of the reference's plugin API: a subclassable annotator
(reference ``model.py:424-439``) selected from a registry by name
(reference ``server.py:57-66``). Here the two pluggable stages are:

- **PairScorer** — scores colocated candidate pairs from their sketch
  features inside the pair-gen bucket task (≙ the reference's overridable
  ``get_model_logits_inference`` scoring hook);
- **Blocker** — maps a fingerprinted record batch to exploded
  ``(block_key, row features)`` rows (≙ the candidate-set construction).

A custom implementation registers under a name and is selected purely via
``LinkageConfig(scorer=..., blocker=...)`` — no stage edits. Because the
config string participates in ``cfg.fingerprint()``, checkpoints key
correctly on the plugin choice. A registration is seen only by the
process that ran it, so lookups happen DRIVER-side and the instances ride
task closures and serving-actor arguments. The blocker is resolved in one
place, ``stages/blocking.blocker_for``, which batch linkage, serving
queries and serving upserts all run; every scorer call is
``stages/scoring.score_gather``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Protocol, runtime_checkable

import numpy as np
import pyarrow as pa

from spel_ray.config import LinkageConfig
from spel_ray.stages.blocking import LshBlocker
from spel_ray.stages.scoring import score_pair_arrays


@runtime_checkable
class PairScorer(Protocol):
    """Scores aligned candidate-pair feature arrays.

    All inputs are (n, ·) numpy arrays colocated by pair generation; the
    return is ``(char_jac_est, exact, score)`` — three (n,) arrays. The
    implementation must be deterministic (pure function of the inputs)."""

    def score_pairs(self, cfg: LinkageConfig, *,
                    sig_lo: np.ndarray, sig_hi: np.ndarray,
                    tok_lo: np.ndarray, tok_hi: np.ndarray,
                    n_lo: np.ndarray, n_hi: np.ndarray,
                    sha_eq: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ...


@runtime_checkable
class Blocker(Protocol):
    """map_batches callable: fingerprinted records → exploded block rows.

    Must emit rows in ``spel_ray.stages.blocking.block_schema(cfg)``
    (block_key, row_id, sig, sig_tok, n_chars, sha16) so pair generation,
    scoring and serving stay plugin-agnostic. Block membership must be a
    pure per-row function (never depend on batch boundaries — determinism
    across parallelism levels depends on it)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ...


_SCORER_FACTORIES: dict[str, Callable[[], PairScorer]] = {}
_BLOCKER_FACTORIES: dict[str, Callable[[LinkageConfig], Blocker]] = {}


def register_scorer(name: str):
    """Decorator: register a PairScorer factory (class or zero-arg callable).

    Re-registering a name takes effect at the next lookup. Note
    ``cfg.fingerprint()`` only captures the *name* — register behavior
    changes under versioned names (e.g. ``myscorer-v2``) or stale
    checkpoints will be reused."""
    def deco(factory):
        _SCORER_FACTORIES[name] = factory
        return factory
    return deco


def register_blocker(name: str):
    """Decorator: register a Blocker factory taking the LinkageConfig."""
    def deco(factory):
        _BLOCKER_FACTORIES[name] = factory
        return factory
    return deco


def get_scorer(name: str) -> PairScorer:
    """A new instance of the scorer registered under ``name``."""
    try:
        factory = _SCORER_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown scorer {name!r}; registered: "
            f"{sorted(_SCORER_FACTORIES)}") from None
    return factory()    # a factory's own KeyError must not read as 'unknown'


def get_blocker_factory(name: str) -> Callable[[LinkageConfig], Blocker]:
    try:
        return _BLOCKER_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown blocker {name!r}; registered: "
            f"{sorted(_BLOCKER_FACTORIES)}") from None


# --------------------------------------------------------------- defaults
@register_scorer("sketch-blend")
class SketchBlendScorer:
    """Default: char/token MinHash blend softly gated by length ratio
    (see stages/scoring.score_pair_arrays)."""

    def score_pairs(self, cfg, **pair):
        return score_pair_arrays(cfg, **pair)


# the default Blocker: MinHash sketch + exact / LSH band keys
register_blocker("lsh-minhash")(LshBlocker)
