"""The comparison schemes of Section 4.1: Base, Base+, Local.

All schemes execute the *same* iteration set per core as each other (the
paper stresses this); they differ only in how iterations are partitioned
across cores and ordered within a core:

* **Base** — the original code, merely parallelized: contiguous chunks of
  the lexicographic iteration order, one per core, executed in original
  order (what a static OpenMP schedule does).
* **Base+** — Base's distribution, but each core's chunk is reordered by
  conventional locality optimization (legal loop permutation + iteration
  space tiling with an L1-fitted tile).
* **Local** — Base's distribution, but each core's iterations are grouped
  by data-block tag and the groups are scheduled with the Figure 7 local
  reorganization (the paper's "Local" bar in Figure 15).
"""

from __future__ import annotations

from repro import obs
from repro.errors import MappingError
from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.groups import IterationGroup
from repro.blocks.tagger import tag_iterations
from repro.ir.loops import LoopNest
from repro.mapping.dependence import build_group_dependence_graph
from repro.mapping.distribute import ExecutablePlan
from repro.mapping.schedule import schedule_groups
from repro.poly.runs import RunCodec, run_points, split_runs
from repro.topology.tree import Machine


def _chunk_sizes(count: int, num_cores: int) -> list[int]:
    """Balanced contiguous chunk sizes: the first ``count % num_cores``
    cores take one extra iteration."""
    if num_cores <= 0:
        raise MappingError("need at least one core")
    return [
        count // num_cores + (1 if core < count % num_cores else 0)
        for core in range(num_cores)
    ]


def chunk_iterations(
    nest: LoopNest, num_cores: int
) -> list[list[tuple[int, ...]]]:
    """Contiguous, balanced chunks of the lexicographic iteration order."""
    points = list(nest.iterations())
    chunks: list[list[tuple[int, ...]]] = []
    start = 0
    for size in _chunk_sizes(len(points), num_cores):
        chunks.append(points[start : start + size])
        start += size
    return chunks


def base_plan(nest: LoopNest, machine: Machine) -> ExecutablePlan:
    """Base: block distribution, original intra-core order, no barriers.

    Cuts K's own runs at the chunk boundaries; K is never enumerated.
    """
    with obs.span("plan.base", nest=nest.name, cores=machine.num_cores):
        codec = RunCodec.of(nest.space)
        runs = codec.space_runs(nest.space)
        chunks = split_runs(runs, _chunk_sizes(run_points(runs), machine.num_cores))
        rounds = tuple((chunk,) for chunk in chunks)
    return ExecutablePlan(machine, nest, rounds, "base").counted()


def base_plus_plan(
    nest: LoopNest,
    machine: Machine,
    tile_sizes: tuple[int, ...] | None = None,
) -> ExecutablePlan:
    """Base+: Base's distribution with permutation + tiling per core.

    The permutation is the best legal locality permutation; the tile size
    defaults to the Section 4.1-style fit against the L1 capacity (callers
    sweeping tile sizes through the simulator can pass one explicitly,
    mimicking the paper's empirical selection).
    """
    from repro.transforms.permute import best_locality_permutation
    from repro.transforms.tiling import select_tile_sizes, tiled_order

    perm = best_locality_permutation(nest)
    if tile_sizes is None:
        l1 = machine.cache_path(0)[0].spec.size_bytes
        tile_sizes = select_tile_sizes(nest, l1)
    chunks = chunk_iterations(nest, machine.num_cores)
    return ExecutablePlan.from_points(
        machine,
        nest,
        [[tiled_order(chunk, tile_sizes, perm)] for chunk in chunks],
        "base+",
    )


def local_plan(
    nest: LoopNest,
    machine: Machine,
    partition: DataBlockPartition,
    alpha: float = 0.5,
    beta: float = 0.5,
) -> ExecutablePlan:
    """Local: default distribution + Figure 7 local reorganization.

    Groups are computed globally by tag, then cut at the Base chunk
    boundaries so each core executes exactly Base's iteration set; the
    per-core (sub)groups are then scheduled with the α/β-weighted local
    scheduler.
    """
    group_set = tag_iterations(nest, partition)
    chunks = chunk_iterations(nest, machine.num_cores)
    owner: dict[tuple[int, ...], int] = {}
    for core, chunk in enumerate(chunks):
        for point in chunk:
            owner[point] = core

    assignments: list[list[IterationGroup]] = [[] for _ in range(machine.num_cores)]
    for group in group_set.groups:
        by_core: dict[int, list[tuple[int, ...]]] = {}
        for point in group.iterations:
            by_core.setdefault(owner[point], []).append(point)
        for core, points in by_core.items():
            assignments[core].append(
                IterationGroup(group.tag, points, group.write_tag, group.read_tag)
            )

    graph = None
    if not nest.parallel:
        flat = [g for groups in assignments for g in groups]
        raw = build_group_dependence_graph(nest, flat)
        # The chunk cut can split a dependence cycle across cores; merge
        # within-core SCC members only (cross-core cycles would change the
        # distribution, which Local must not do), then keep the DAG edges.
        if raw.has_cycle():
            ident_core = {g.ident: core for core, gs in enumerate(assignments) for g in gs}
            merged_assignments: list[list[IterationGroup]] = []
            flat2, dag = raw.acyclified(flat)
            # Re-home merged groups by their first iteration's owner.
            merged_assignments = [[] for _ in range(machine.num_cores)]
            for g in flat2:
                merged_assignments[owner[g.iterations[0]]].append(g)
            assignments = merged_assignments
            graph = dag
        else:
            graph = raw

    group_rounds = schedule_groups(assignments, machine, graph, alpha, beta)
    if graph is None or graph.num_edges == 0:
        # Dependence-free: no barriers needed (see TopologyAwareMapper).
        group_rounds = [
            [[g for rnd in core_rounds for g in rnd]] for core_rounds in group_rounds
        ]
    plan = ExecutablePlan.from_group_rounds(machine, nest, group_rounds, "local")
    return plan
