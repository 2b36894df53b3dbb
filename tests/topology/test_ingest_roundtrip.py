"""Property tests: ingestion is order-insensitive and round-trippable.

The structural digest of an ingested machine must not depend on the
order the dump's files happen to be listed in (tar member order,
directory listing order, dict insertion order) — only on the topology
itself.  And an ingested machine must survive the dict serialization
round-trip and core removal while staying mappable.
"""

import io
import os
import tarfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import compile_source
from repro.mapping import TopologyAwareMapper
from repro.runtime.serialize import machine_from_dict, machine_to_dict
from repro.topology.ingest import NormalizeOptions, ingest_sysfs
from repro.topology.ingest.zoo import zoo_dir, zoo_machine, zoo_names
from repro.topology.tree import machine_digest

needs_corpus = pytest.mark.skipif(zoo_dir() is None, reason="no fixture corpus")


def dump_files():
    """A small asymmetric dump as a {relpath: content} dict."""
    files = {}
    for cpu in range(4):
        pkg = 0 if cpu < 2 else 1
        files[f"cpu{cpu}/topology/physical_package_id"] = str(pkg)
        files[f"cpu{cpu}/topology/core_cpus_list"] = str(cpu)
        files[f"cpu{cpu}/cache/index0/level"] = "1"
        files[f"cpu{cpu}/cache/index0/type"] = "Data"
        files[f"cpu{cpu}/cache/index0/size"] = "32K"
        files[f"cpu{cpu}/cache/index0/shared_cpu_list"] = str(cpu)
    # Package 0 shares an L2; package 1 has private L2s plus an L3.
    for cpu in (0, 1):
        files[f"cpu{cpu}/cache/index1/level"] = "2"
        files[f"cpu{cpu}/cache/index1/type"] = "Unified"
        files[f"cpu{cpu}/cache/index1/size"] = "2M"
        files[f"cpu{cpu}/cache/index1/shared_cpu_list"] = "0-1"
    for cpu in (2, 3):
        files[f"cpu{cpu}/cache/index1/level"] = "2"
        files[f"cpu{cpu}/cache/index1/type"] = "Unified"
        files[f"cpu{cpu}/cache/index1/size"] = "512K"
        files[f"cpu{cpu}/cache/index1/shared_cpu_list"] = str(cpu)
        files[f"cpu{cpu}/cache/index2/level"] = "3"
        files[f"cpu{cpu}/cache/index2/type"] = "Unified"
        files[f"cpu{cpu}/cache/index2/size"] = "8M"
        files[f"cpu{cpu}/cache/index2/shared_cpu_list"] = "2-3"
    return files


def tar_from(files, order, tmp_path, tag):
    """Write the dump as a tar whose members appear in the given order."""
    path = str(tmp_path / f"dump-{tag}.tar")
    with tarfile.open(path, "w") as tar:
        for key in order:
            data = (files[key] + "\n").encode()
            info = tarfile.TarInfo(f"sys/devices/system/cpu/{key}")
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    return path


#: Pin the machine name so the digest reflects only the topology, not
#: the dump's filesystem path (the default name derives from the path).
PINNED = NormalizeOptions(name="roundtrip")


class TestOrderInsensitivity:
    @settings(max_examples=20, deadline=None)
    @given(order=st.permutations(sorted(dump_files())))
    def test_tar_member_order_does_not_change_digest(self, tmp_path_factory, order):
        files = dump_files()
        tmp_path = tmp_path_factory.mktemp("shuffle")
        baseline = machine_digest(
            ingest_sysfs(tar_from(files, sorted(files), tmp_path, "sorted"), PINNED)
        )
        shuffled = machine_digest(
            ingest_sysfs(tar_from(files, order, tmp_path, "shuffled"), PINNED)
        )
        assert shuffled == baseline

    def test_dir_vs_tar_digest(self, tmp_path):
        files = dump_files()
        for rel, value in files.items():
            path = tmp_path / "d" / "sys" / "devices" / "system" / "cpu" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(value + "\n")
        from_dir = machine_digest(ingest_sysfs(str(tmp_path / "d"), PINNED))
        from_tar = machine_digest(
            ingest_sysfs(tar_from(files, sorted(files), tmp_path, "t"), PINNED)
        )
        assert from_dir == from_tar


@needs_corpus
class TestSerializeRoundTrip:
    def test_every_zoo_machine_survives_dict_round_trip(self):
        for name in zoo_names():
            machine = zoo_machine(name)
            rebuilt = machine_from_dict(machine_to_dict(machine))
            assert machine_digest(rebuilt) == machine_digest(machine)
            assert rebuilt.name == machine.name
            assert rebuilt.memory_latency == machine.memory_latency


@needs_corpus
class TestDegradedStillMappable:
    @settings(max_examples=10, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=5), max_size=3))
    def test_without_cores_on_asymmetric_machine(self, dead):
        """Killing any up-to-3 cores of the ingested big.LITTLE machine
        leaves a machine the mapper still schedules completely."""
        machine = zoo_machine("biglittle")
        dead = {d for d in dead if d < machine.num_cores}
        if len(dead) >= machine.num_cores:
            dead.pop()
        degraded = machine.without_cores(sorted(dead))
        assert degraded.num_cores == machine.num_cores - len(dead)
        program = compile_source(
            """
            param n = 48;
            array A[48];
            parallel for (i = 1; i < n - 1; i++)
              A[i] = A[i] + A[i - 1];
            """,
            name="degraded-smoke",
        )
        result = TopologyAwareMapper(degraded, block_size=32).map_nest(
            program, program.nests[0]
        )
        mapped = sum(
            g.size for rounds in result.group_rounds for rnd in rounds for g in rnd
        )
        assert mapped == program.nests[0].iteration_count()


def test_live_sys_digest_is_stable_across_loads():
    if not os.path.isdir("/sys/devices/system/cpu/cpu0"):
        pytest.skip("no live sysfs")
    first = machine_digest(ingest_sysfs("/sys"))
    second = machine_digest(ingest_sysfs("/sys"))
    assert first == second
