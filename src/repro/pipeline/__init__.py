"""Staged mapping pipeline with content-addressed stage artifacts.

The paper's pass is a five-stage chain — block-size selection, iteration
tagging, dependence lift, hierarchical distribution, local scheduling —
and for years of this repo's growth that chain existed in three parallel
copies (the mapper, the experiment harness, the service engine), each
with whole-result-only caching.  This package is the single copy: an
explicit :class:`~repro.pipeline.core.Stage` sequence driven by
:class:`~repro.pipeline.core.MappingPipeline`, where every stage
produces an immutable artifact keyed by

    (stage, program digest, nest, per-stage knob tuple, machine fact)

so a request that only changes a *late* knob (α/β, balance threshold,
local scheduling on/off) replays from the deepest cached stage instead
of re-tagging from scratch.  The knob tuple is cumulative — a stage's
key covers its own knobs plus every upstream stage's — which is exactly
the invalidation the chain needs: changing the block size invalidates
everything, changing α/β invalidates only the schedule.  The machine
fact is likewise only what the stage (or one upstream) reads of the
machine, so a new machine re-runs distribution and scheduling and keeps
tagging and dependence analysis.

Layout:

* :mod:`repro.pipeline.knobs` — the canonical :class:`Knobs` dataclass
  every cache key in the repo derives its knob tuple from;
* :mod:`repro.pipeline.artifacts` — the immutable, fingerprinted stage
  outputs (:class:`TagArtifact`, :class:`GroupArtifact`,
  :class:`DependenceArtifact`, :class:`TreeAssignment`, and the plan);
* :mod:`repro.pipeline.store` — the in-process LRU artifact store;
* :mod:`repro.pipeline.persist` — the optional persistent plan tier of
  the service (same content-fingerprint discipline as
  :mod:`repro.experiments.cache`);
* :mod:`repro.pipeline.core` — the stages and :class:`MappingPipeline`,
  which runs them.

See ``docs/ARCHITECTURE.md`` for the full diagram.
"""

from repro.pipeline.artifacts import (
    BlockChoice,
    DependenceArtifact,
    GroupArtifact,
    PlanArtifact,
    TagArtifact,
    TreeAssignment,
)
from repro.pipeline.core import MappingPipeline, Stage
from repro.pipeline.knobs import STAGE_KNOBS, STAGE_ORDER, Knobs
from repro.pipeline.persist import PlanStore
from repro.pipeline.store import ArtifactStore, default_store, reset_default_store

__all__ = [
    "ArtifactStore",
    "BlockChoice",
    "DependenceArtifact",
    "GroupArtifact",
    "Knobs",
    "MappingPipeline",
    "PlanArtifact",
    "PlanStore",
    "STAGE_KNOBS",
    "STAGE_ORDER",
    "Stage",
    "TagArtifact",
    "TreeAssignment",
    "default_store",
    "reset_default_store",
]
