"""Per-request pipeline execution for the mapping service.

:func:`compute_mapping` runs the staged mapping pipeline
(:class:`~repro.pipeline.core.MappingPipeline`) for one validated
request and returns the JSON-serializable payload the server caches and
ships; :func:`baseline_mapping` is the cheap fallback used under
deadline pressure (the Base scheme — a contiguous block distribution
needs no tagging, clustering or scheduling, so it costs microseconds
where the pipeline costs milliseconds).

Requests share the process-wide artifact store, so two requests that
differ only in late knobs (α/β, the balance threshold) replay the early
stages from cache even when their content keys differ — that reuse sits
*under* the server's content tier, which still provides exact
whole-payload hits.  :func:`stored_mapping` reads the disk tier (the
:class:`~repro.pipeline.persist.PlanStore`) that :func:`compute_mapping`
and :func:`compute_remap` write through to.

Both entry points produce the same payload shape, with the plan
serialized through :mod:`repro.runtime.serialize` so a client can
reconstruct and validate an
:class:`~repro.mapping.distribute.ExecutablePlan` from the response.
"""

from __future__ import annotations

import time

from repro import obs
from repro.mapping.baselines import base_plan
from repro.mapping.distribute import ExecutablePlan, MappingResult
from repro.pipeline.core import MappingPipeline
from repro.pipeline.store import default_store
from repro.poly.runs import run_points
from repro.runtime.serialize import plan_to_dict
from repro.service.protocol import MappingRequest, RemapRequest


def _payload(
    request: MappingRequest, plan: ExecutablePlan, stats: dict
) -> dict:
    stats = dict(stats)
    stats.update(
        iterations=request.nest.iteration_count(),
        cores=request.machine.num_cores,
        rounds=plan.num_rounds,
        per_core_iterations=[
            sum(map(run_points, core_rounds)) for core_rounds in plan.rounds
        ],
    )
    return {
        "scheme": plan.label,
        "nest": request.nest.name,
        "machine": request.machine.name,
        "mapping": plan_to_dict(plan),
        "stats": stats,
    }


def _stats(result: MappingResult, elapsed_ms: float) -> dict:
    """The ``stats`` of a pipeline-computed payload."""
    return {
        "groups": len(result.group_set),
        "blocks": result.partition.num_blocks,
        "block_size": result.partition.block_size,
        "pipeline_ms": round(elapsed_ms, 3),
        "timings_ms": {
            phase: round(seconds * 1e3, 3)
            for phase, seconds in result.timings.items()
        },
    }


def _plan_key(request: MappingRequest) -> tuple:
    """The disk tier's key of ``request``'s plan."""
    pipeline = MappingPipeline(request.machine, request.knobs)
    return pipeline.plan_key(request.program, request.nest)


def stored_mapping(request: MappingRequest, plans) -> dict | None:
    """The payload of ``request``'s plan in the disk tier ``plans``, or
    ``None``.

    ``plans`` is the shared :class:`~repro.pipeline.persist.PlanStore`:
    a hit serves the persisted final plan (computed before a restart, or
    by a sibling worker process of the shard) without running any stage.
    """
    started = time.perf_counter()
    plan = plans.get(_plan_key(request), request.machine, request.nest)
    if plan is None:
        obs.count("service.plan_tier.misses")
        return None
    obs.count("service.plan_tier.hits")
    elapsed_ms = (time.perf_counter() - started) * 1e3
    return _payload(
        request, plan, {"pipeline_ms": round(elapsed_ms, 3), "plan_tier": "disk"}
    )


def compute_mapping(request: MappingRequest, plans=None) -> dict:
    """Run the staged pipeline; the result is the cacheable response body.

    A computed plan is written through to ``plans``, the optional disk
    tier, for later restarts and the shard's sibling workers.
    """
    pipeline = MappingPipeline(request.machine, request.knobs, store=default_store())
    started = time.perf_counter()
    with obs.span(
        "service.pipeline",
        nest=request.nest.name,
        machine=request.machine.name,
    ):
        result = pipeline.map_nest(request.program, request.nest)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    obs.count("service.pipeline.runs")
    plan = result.plan()
    if plans is not None:
        plans.put(pipeline.plan_key(request.program, request.nest), plan)
    return _payload(request, plan, _stats(result, elapsed_ms))


def compute_remap(remap: RemapRequest, plans=None) -> dict:
    """Incrementally remap one nest after an event (``POST /remap``).

    Maps the post state through the shared artifact store with the
    remapper's own :func:`~repro.remap.core.replay`: stages whose keys
    the event left alone hit, dirtied ones recompute.  The result is
    the exact payload a ``/map`` of the post state would produce,
    extended with a ``"remap"`` stanza accounting for what was replayed
    vs recomputed, and stating the post state as ``post`` in the body's
    own fields: the caller merges it into its next ``/remap`` body.

    No cache tier is consulted: the point of the endpoint is an honest
    incremental recompute of the post state (a computed plan is still
    written through to ``plans`` for later ``/map`` traffic).
    """
    from repro.remap.core import replay

    post = remap.post
    started = time.perf_counter()
    results, replayed, recomputed = replay(
        post.program, post.machine, {post.nest.name: post.knobs},
        default_store(), remap.event["kind"],
    )
    elapsed_ms = (time.perf_counter() - started) * 1e3
    result = results[post.nest.name]
    plan = result.plan()
    if plans is not None:
        plans.put(_plan_key(post), plan)
    payload = _payload(post, plan, _stats(result, elapsed_ms))
    payload["remap"] = {
        "event": remap.event,
        "stages_replayed": replayed,
        "stages_recomputed": recomputed,
        "pre_machine": remap.pre_machine,
        "machine": post.machine.name,
        "cores": post.machine.num_cores,
        "post": remap.post_fields,
    }
    return payload


def baseline_mapping(request: MappingRequest) -> dict:
    """The degradation fallback: the Base scheme's contiguous chunks."""
    started = time.perf_counter()
    with obs.span(
        "service.baseline",
        nest=request.nest.name,
        machine=request.machine.name,
    ):
        plan = base_plan(request.nest, request.machine)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    obs.count("service.baseline.runs")
    return _payload(request, plan, {"pipeline_ms": round(elapsed_ms, 3)})
