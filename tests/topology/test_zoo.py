"""The machine zoo: every fixture ingests, digests are pinned, and the
resulting machines run the mapping pipeline end-to-end."""

import pytest

from repro.errors import TopologyError
from repro.lang import compile_source
from repro.mapping import TopologyAwareMapper
from repro.topology.ingest.zoo import zoo_dir, zoo_entries, zoo_machine, zoo_names
from repro.topology.tree import machine_digest

pytestmark = pytest.mark.skipif(zoo_dir() is None, reason="no fixture corpus")


def small_program():
    return compile_source(
        """
        param n = 64;
        array A[64];
        parallel for (i = 1; i < n - 1; i++)
          A[i] = A[i] + A[i - 1] + A[i + 1];
        """,
        name="zoo-smoke",
    )


def test_corpus_is_present_and_big_enough():
    assert len(zoo_entries()) >= 6


def test_every_fixture_ingests_and_digest_matches():
    for name, entry in zoo_entries().items():
        machine = zoo_machine(name)
        assert machine.num_cores >= 1
        assert machine.core_ids() == tuple(range(machine.num_cores))
        assert entry.expected_digest, f"{name}: manifest has no pinned digest"
        assert machine_digest(machine) == entry.expected_digest, (
            f"{name}: ingest pipeline changed the machine tree"
        )
        if entry.cores is not None:
            assert machine.num_cores == entry.cores


def test_case_insensitive_lookup():
    name = zoo_names()[0]
    assert machine_digest(zoo_machine(name.upper())) == machine_digest(
        zoo_machine(name)
    )


def test_unknown_name_lists_known():
    with pytest.raises(TopologyError, match="unknown zoo machine"):
        zoo_machine("cray-1")


def test_expected_asymmetry():
    assert not zoo_machine("biglittle").is_level_uniform()
    assert zoo_machine("nehalem-ep").is_level_uniform()


def test_smt_merge_folds_threads():
    entry = zoo_entries()["smt2server"]
    assert entry.smt_policy == "merge"
    machine = zoo_machine("smt2server")
    assert machine.num_cores == 8  # 16 hw threads folded 2:1


@pytest.mark.parametrize("name", zoo_names())
def test_zoo_machine_maps_end_to_end(name):
    machine = zoo_machine(name)
    program = small_program()
    mapper = TopologyAwareMapper(machine, block_size=32)
    result = mapper.map_nest(program, program.nests[0])
    assert len(result.group_rounds) == machine.num_cores
    mapped = sum(
        g.size for rounds in result.group_rounds for rnd in rounds for g in rnd
    )
    assert mapped == program.nests[0].iteration_count()
