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
stages from cache even when their full-response cache keys differ —
that reuse sits *under* the response-level
:class:`~repro.service.mapcache.MappingCache`, which still provides
exact whole-payload hits.

Both entry points produce the same payload shape, with the plan
serialized through :mod:`repro.runtime.serialize` so a client can
reconstruct and validate an
:class:`~repro.mapping.distribute.ExecutablePlan` from the response.
"""

from __future__ import annotations

import time

from repro import obs
from repro.mapping.baselines import base_plan
from repro.mapping.distribute import ExecutablePlan
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


def compute_mapping(request: MappingRequest, plans=None) -> dict:
    """Run the staged pipeline; the result is the cacheable response body.

    ``plans`` optionally names the shared
    :class:`~repro.pipeline.persist.PlanStore` disk tier: a hit serves
    the persisted final plan (possibly computed by a sibling worker
    process of the shard) without running any stage, and a computed plan
    is written through for the siblings.
    """
    pipeline = MappingPipeline(
        request.machine, request.knobs, store=default_store(), plans=plans
    )
    if plans is not None:
        plan_key = pipeline.plan_key(request.program, request.nest)
        started = time.perf_counter()
        cached = plans.get(plan_key, request.machine, request.nest)
        if cached is not None:
            obs.count("service.plan_tier.hits")
            elapsed_ms = (time.perf_counter() - started) * 1e3
            return _payload(
                request, cached,
                {"pipeline_ms": round(elapsed_ms, 3), "plan_tier": "disk"},
            )
        obs.count("service.plan_tier.misses")
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
        plans.put(plan_key, plan)
    stats = {
        "groups": len(result.group_set),
        "blocks": result.partition.num_blocks,
        "block_size": result.partition.block_size,
        "pipeline_ms": round(elapsed_ms, 3),
        "timings_ms": {
            phase: round(seconds * 1e3, 3)
            for phase, seconds in result.timings.items()
        },
    }
    return _payload(request, plan, stats)


def compute_remap(remap: RemapRequest, plans=None) -> dict:
    """Incrementally remap one nest after an event (``POST /remap``).

    Carries the machine-independent stage prefix from the pre-state's
    keys to the post-state's when the topology changed (see
    :func:`repro.remap.core.carry_prefix`), then maps the post state
    with the shared artifact store — replayed stages hit, dirtied ones
    recompute.  The result is the exact payload a ``/map`` of the post
    state would produce, extended with a ``"remap"`` stanza accounting
    for what was replayed vs recomputed.

    The response-level mapping cache and the plan disk tier are *not*
    consulted: the point of the endpoint is an honest incremental
    recompute of the post state (a computed plan is still written
    through to ``plans`` for later ``/map`` traffic).
    """
    from repro.remap.core import carry_prefix

    pre, post = remap.pre, remap.post
    store = default_store()
    carried = 0
    if pre.topology_key != post.topology_key:
        carried = carry_prefix(
            store, post.program, post.nest,
            pre.machine, post.machine, pre.knobs, post.knobs,
        )
    replayed = recomputed = 0

    def observe(stage: str, hit: bool) -> None:
        nonlocal replayed, recomputed
        if hit:
            replayed += 1
        else:
            recomputed += 1

    kind = remap.event.get("kind", "unknown")
    pipeline = MappingPipeline(
        post.machine, post.knobs, store=store, observer=observe
    )
    started = time.perf_counter()
    with obs.span(
        "service.remap",
        nest=post.nest.name,
        machine=post.machine.name,
        event=kind,
    ) as sp:
        result = pipeline.map_nest(post.program, post.nest)
        sp.tag(replayed=replayed, recomputed=recomputed, carried=carried)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    obs.count("remap.stages_replayed", replayed)
    obs.count("remap.stages_recomputed", recomputed)
    obs.count(f"remap.events.{kind}")
    plan = result.plan()
    if plans is not None:
        plans.put(pipeline.plan_key(post.program, post.nest), plan)
    stats = {
        "groups": len(result.group_set),
        "blocks": result.partition.num_blocks,
        "block_size": result.partition.block_size,
        "pipeline_ms": round(elapsed_ms, 3),
        "timings_ms": {
            phase: round(seconds * 1e3, 3)
            for phase, seconds in result.timings.items()
        },
    }
    payload = _payload(post, plan, stats)
    payload["remap"] = {
        "event": remap.event,
        "stages_replayed": replayed,
        "stages_recomputed": recomputed,
        "carried": carried,
        "pre_machine": pre.machine.name,
        "machine": post.machine.name,
        "cores": post.machine.num_cores,
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
