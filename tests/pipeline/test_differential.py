"""The staged pipeline is bit-identical to the pre-refactor chain.

``reference_map_nest`` below is a verbatim port of the monolithic
``TopologyAwareMapper.map_nest`` body as it existed before the pipeline
extraction (obs spans and timings stripped; they cannot affect the
plan), minus the refinement pass the mapper no longer runs.  The
randomized suite drives both implementations over (program, machine,
knob) triples and requires identical ``ExecutablePlan.rounds`` — the
strongest equivalence the simulator can observe.  Two integration
checks extend the property to the real consumers: the experiment
harness's ``ta``/``ta+s`` schemes and the service engine's response
payload.
"""

from __future__ import annotations

import random

import pytest

from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.tagger import choose_block_size, tag_iterations
from repro.lang import compile_source
from repro.mapping.clustering import hierarchical_distribute
from repro.mapping.dependence import (
    build_group_dependence_graph,
    merge_dependent_groups,
)
from repro.mapping.distribute import ExecutablePlan, TopologyAwareMapper
from repro.mapping.schedule import dependence_only_schedule, schedule_groups
from repro.pipeline import ArtifactStore, Knobs, MappingPipeline
from repro.topology.cache import CacheSpec
from repro.topology.tree import Machine, TopologyNode


def reference_map_nest(machine, program, nest, knobs: Knobs) -> ExecutablePlan:
    """The pre-pipeline chain, ported verbatim (minus instrumentation)."""
    block_size = knobs.block_size
    if block_size is None:
        l1 = machine.cache_path(0)[0].spec.size_bytes
        block_size = choose_block_size(program, nest, l1)
    arrays = [program.arrays[a.name] for a in nest.arrays()]
    partition = DataBlockPartition(arrays, block_size)

    group_set = tag_iterations(nest, partition, max_groups=knobs.max_groups)

    groups = list(group_set.groups)
    graph = None
    if not nest.parallel:
        raw = build_group_dependence_graph(nest, groups)
        if knobs.dependence_policy == "co-cluster":
            groups = merge_dependent_groups(groups, raw)
        else:
            groups, graph = raw.acyclified(groups)

    assignments = hierarchical_distribute(
        groups, machine, knobs.balance_threshold, knobs.cluster_strategy
    )

    if knobs.local_scheduling:
        group_rounds = schedule_groups(
            assignments, machine, graph, knobs.alpha, knobs.beta
        )
        if graph is None or graph.num_edges == 0:
            group_rounds = [
                [[g for rnd in core_rounds for g in rnd]]
                for core_rounds in group_rounds
            ]
    else:
        group_rounds = dependence_only_schedule(assignments, machine, graph)

    label = "topology-aware+sched" if knobs.local_scheduling else "topology-aware"
    return ExecutablePlan.from_group_rounds(machine, nest, group_rounds, label)


def tree_machine(name: str, cores: int, l2_degree: int) -> Machine:
    """A fig9-style machine: private L1s, shared L2s, one L3 root."""
    l1 = CacheSpec("L1", 1024, 2, 32, 2)
    l2 = CacheSpec("L2", 4096, 4, 32, 8)
    l3 = CacheSpec("L3", 16384, 8, 32, 20)
    leaves = [
        TopologyNode.cache(l1, [TopologyNode.core(i)]) for i in range(cores)
    ]
    l2s = [
        TopologyNode.cache(l2, leaves[i : i + l2_degree])
        for i in range(0, cores, l2_degree)
    ]
    root = TopologyNode.cache(l3, l2s) if len(l2s) > 1 else l2s[0]
    return Machine(name, 2.0, 100, root, sockets=1)


MACHINES = (
    tree_machine("diff2", 2, 2),
    tree_machine("diff4", 4, 2),
    tree_machine("diff8", 8, 2),
    tree_machine("diff6", 6, 3),
)


def banded_program(m: int, k: int, parallel: bool):
    keyword = "parallel for" if parallel else "for"
    source = f"""
    param k = {k};
    array B[{m}];
    {keyword} (j = 2*k; j < {m} - 2*k; j++)
      B[j] = B[j] + B[2*k + j] + B[j - 2*k];
    """
    return compile_source(source, name=f"band{m}k{k}{int(parallel)}")


def stencil_program(n: int):
    source = f"""
    array U[{n + 2}][{n + 2}];
    array V[{n + 2}][{n + 2}];
    parallel for (i = 1; i <= {n}; i++)
      for (j = 1; j <= {n}; j++)
        V[i][j] = U[i][j] + U[i - 1][j] + U[i + 1][j];
    """
    return compile_source(source, name=f"stencil{n}")


PROGRAMS = (
    banded_program(48, 4, True),
    banded_program(64, 2, True),
    banded_program(40, 2, False),
    banded_program(56, 4, False),
    stencil_program(10),
    stencil_program(16),
)


def random_knobs(rng: random.Random) -> Knobs:
    alpha = rng.choice((0.1, 0.3, 0.5, 0.9))
    return Knobs(
        block_size=rng.choice((None, 32, 64)),
        balance_threshold=rng.choice((0.01, 0.05, 0.10, 0.25)),
        alpha=alpha,
        beta=round(1.0 - alpha, 6),
        local_scheduling=rng.random() < 0.5,
        dependence_policy=rng.choice(("barrier", "co-cluster")),
        cluster_strategy=rng.choice(("greedy", "kl")),
    )


class TestDifferential:
    def test_randomized_triples_bit_identical(self):
        """>= 40 random (program, machine, knobs): identical plan rounds."""
        rng = random.Random(20260806)
        store = ArtifactStore(capacity=1024)
        checked = 0
        for trial in range(48):
            program = rng.choice(PROGRAMS)
            machine = rng.choice(MACHINES)
            knobs = random_knobs(rng)
            nest = program.nests[0]

            expected = reference_map_nest(machine, program, nest, knobs)
            got = MappingPipeline(machine, knobs, store=store).map_nest(
                program, nest
            ).plan()

            context = f"trial {trial}: {program.name}/{machine.name}/{knobs}"
            assert got.label == expected.label, context
            assert got.rounds == expected.rounds, context
            got.verify_complete()
            checked += 1
        assert checked >= 40

    def test_mapper_facade_matches_reference(self, fig9_machine, fig5_program):
        """TopologyAwareMapper (the stable front door) delegates faithfully."""
        for local in (False, True):
            knobs = Knobs(block_size=32, local_scheduling=local)
            expected = reference_map_nest(
                fig9_machine, fig5_program, fig5_program.nests[0], knobs
            )
            got = TopologyAwareMapper(
                fig9_machine, block_size=32, local_scheduling=local
            ).map_nest(fig5_program, fig5_program.nests[0])
            assert got.plan().rounds == expected.rounds
            assert set(got.timings) == {
                "partition", "tagging", "dependence", "clustering", "scheduling",
            }

    def test_harness_schemes_match_reference(self, fig9_machine):
        """run_scheme's ta/ta+s plans come out of the same pipeline."""
        from repro.experiments import harness
        from repro.workloads import workload

        harness.clear_cache()
        app = workload("h264")
        machine = harness.sim_machine(fig9_machine)
        for scheme, local in (("ta", False), ("ta+s", True)):
            mapping = harness.mapping_for(app, machine, harness.scheme_knobs(app, scheme))
            knobs = Knobs(
                block_size=app.block_size(),
                balance_threshold=harness.BALANCE_THRESHOLD,
                local_scheduling=local,
            )
            expected = reference_map_nest(
                machine, app.program(), app.nest(), knobs
            )
            assert mapping.plan().rounds == expected.rounds
        harness.clear_cache()

    def test_engine_payload_matches_pipeline(self, fig5_program):
        """compute_mapping ships exactly the pipeline's plan."""
        from repro.runtime.serialize import plan_to_dict, program_to_dict
        from repro.service.engine import compute_mapping
        from repro.service.protocol import parse_request

        request = parse_request(
            {
                "program": program_to_dict(fig5_program),
                "machine": "dunnington",
                "scale": 32.0,
                "knobs": {"block_size": 32, "local_scheduling": True},
            }
        )
        payload = compute_mapping(request)
        expected = reference_map_nest(
            request.machine,
            request.program,
            request.nest,
            request.knobs,
        )
        assert payload["mapping"] == plan_to_dict(expected)
        assert payload["stats"]["per_core_iterations"] == [
            len(expected.core_iterations(core))
            for core in range(len(expected.rounds))
        ]


@pytest.mark.perf_smoke
class TestDifferentialSmoke:
    def test_single_triple_quick(self, two_core_machine):
        program = PROGRAMS[0]
        knobs = Knobs(block_size=32, local_scheduling=True)
        expected = reference_map_nest(
            two_core_machine, program, program.nests[0], knobs
        )
        got = MappingPipeline(two_core_machine, knobs).map_nest(
            program, program.nests[0]
        )
        assert got.plan().rounds == expected.rounds
