"""Unit tests for working-set / replication analysis."""

import pytest

from repro.blocks.datablocks import DataBlockPartition
from repro.lang import compile_source
from repro.mapping import TopologyAwareMapper, base_plan
from repro.analysis import analyze_plan, replication_factor, sharing_matrix


@pytest.fixture(scope="module")
def mirror_setup():
    m = 1024
    program = compile_source(
        f"""
        array Q[{m}];
        array F[{m}];
        parallel for (j = 0; j < {m}; j++)
          F[j] = F[j] + Q[j] + Q[{m - 1} - j];
        """,
        name="mirror",
    )
    partition = DataBlockPartition(list(program.arrays.values()), 512)
    return program, partition


class TestReplication:
    def test_base_replicates_mirror_reads(self, mirror_setup, fig9_machine):
        program, partition = mirror_setup
        nest = program.nests[0]
        base = base_plan(nest, fig9_machine)
        mapper = TopologyAwareMapper(fig9_machine, block_size=512, balance_threshold=0.02)
        ta = mapper.map_nest(program, nest).plan()
        base_rep = replication_factor(base, partition, "L2")
        ta_rep = replication_factor(ta, partition, "L2")
        # The mirrored Q reads force Base to pull each Q block under both
        # L2s; TopologyAware co-locates the mirror pairs.
        assert base_rep > ta_rep
        assert ta_rep == pytest.approx(1.0, abs=0.2)

    def test_replication_at_least_one(self, mirror_setup, fig9_machine):
        program, partition = mirror_setup
        plan = base_plan(program.nests[0], fig9_machine)
        for level in ("L1", "L2", "L3"):
            assert replication_factor(plan, partition, level) >= 1.0

    def test_single_shared_level_is_one(self, mirror_setup, fig9_machine):
        program, partition = mirror_setup
        plan = base_plan(program.nests[0], fig9_machine)
        # Everything sits under the single L3: no replication possible.
        assert replication_factor(plan, partition, "L3") == pytest.approx(1.0)


class TestSharingMatrix:
    def test_symmetric_with_self_counts(self, mirror_setup, fig9_machine):
        program, partition = mirror_setup
        plan = base_plan(program.nests[0], fig9_machine)
        matrix = sharing_matrix(plan, partition)
        n = len(matrix)
        for a in range(n):
            for b in range(n):
                assert matrix[a][b] == matrix[b][a]
            assert matrix[a][a] >= max(matrix[a])


class TestAnalyzePlan:
    def test_alignment_improves_with_topology_aware(self, mirror_setup, fig9_machine):
        program, partition = mirror_setup
        nest = program.nests[0]
        base = analyze_plan(base_plan(nest, fig9_machine), partition)
        mapper = TopologyAwareMapper(fig9_machine, block_size=512, balance_threshold=0.02)
        ta = analyze_plan(mapper.map_nest(program, nest).plan(), partition)
        assert ta.sharing_alignment >= base.sharing_alignment

    def test_table_renders(self, mirror_setup, fig9_machine):
        program, partition = mirror_setup
        analysis = analyze_plan(base_plan(program.nests[0], fig9_machine), partition)
        text = analysis.table()
        assert "replication" in text and "alignment" in text

    def test_core_block_counts(self, mirror_setup, fig9_machine):
        program, partition = mirror_setup
        analysis = analyze_plan(base_plan(program.nests[0], fig9_machine), partition)
        assert len(analysis.core_block_counts) == 4
        assert all(c > 0 for c in analysis.core_block_counts)

    def test_core_tags_computed_once(self, mirror_setup, fig9_machine, monkeypatch):
        """Every level's replication reuses the one per-core tag pass."""
        from repro.analysis import workingset

        calls = []
        core_tags = workingset._core_tags

        def counted(plan, partition):
            calls.append(plan.label)
            return core_tags(plan, partition)

        monkeypatch.setattr(workingset, "_core_tags", counted)
        program, partition = mirror_setup
        plan = base_plan(program.nests[0], fig9_machine)
        analysis = analyze_plan(plan, partition)
        assert len(calls) == 1
        assert analysis.replication == {
            level: replication_factor(plan, partition, level)
            for level in fig9_machine.cache_levels()
        }


#: analyze_plan on sim-scaled dunnington for two indirect nests, at each
#: workload's block size: (core block counts, replication per level,
#: affinity sharing, non-affinity sharing) per scheme.
ANALYSIS_PINS = {
    ("spmv_random", "ta+s"): (
        (12, 11, 17, 11, 12, 11, 12, 12, 12, 12, 12, 11),
        {"L1": 1.5934065934065933, "L2": 1.2637362637362637, "L3": 1.0},
        55,
        0,
    ),
    ("mesh_edge", "ta+s"): (
        (12, 8, 8, 14, 8, 14, 12, 10, 8, 16, 12, 10),
        {"L1": 1.434782608695652, "L2": 1.173913043478261, "L3": 1.0},
        48,
        0,
    ),
    ("spmv_random", "base"): (
        (12, 12, 18, 12, 12, 18, 12, 11, 18, 12, 12, 12),
        {"L1": 1.7692307692307692, "L2": 1.3736263736263736, "L3": 1.10989010989011},
        61,
        14,
    ),
    ("mesh_edge", "base"): (
        (12, 16, 16, 12, 16, 16, 12, 16, 16, 12, 16, 12),
        {"L1": 1.8695652173913044, "L2": 1.565217391304348, "L3": 1.173913043478261},
        76,
        76,
    ),
}


@pytest.mark.parametrize("name, scheme", sorted(ANALYSIS_PINS))
def test_indirect_plan_analysis_matches_pin(name, scheme):
    from repro.experiments import harness
    from repro.pipeline import MappingPipeline
    from repro.topology.machines import dunnington
    from repro.workloads import workload

    app = workload(name)
    machine = harness.sim_machine(dunnington())
    program, nest = app.program(), app.nest()
    if scheme == "base":
        plan = base_plan(nest, machine)
    else:
        pipeline = MappingPipeline(machine, harness.scheme_knobs(app, scheme))
        plan = pipeline.map_nest(program, nest).plan()
    arrays = [program.arrays[a.name] for a in nest.arrays()]
    result = analyze_plan(plan, DataBlockPartition(arrays, app.block_size()))
    assert (
        result.core_block_counts,
        result.replication,
        result.affinity_sharing,
        result.non_affinity_sharing,
    ) == ANALYSIS_PINS[name, scheme]
