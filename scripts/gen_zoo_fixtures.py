#!/usr/bin/env python3
"""Generate the machine-zoo sysfs fixture corpus.

Writes deterministic ``.tar.gz`` sysfs dumps plus the ``zoo.json``
manifest into ``tests/topology/fixtures/``.  Deterministic means:
member names sorted, all metadata zeroed, gzip timestamp zeroed — the
same script always produces byte-identical archives, so the corpus can
be regenerated and diffed.

Each synthetic machine exercises a different real-world wrinkle the
ingest pipeline must absorb (see the table in ``docs/TOPOLOGY.md``):
package-id fallbacks, hex-mask-only sharing files, SMT sibling files,
offline and holey cpu numbering, asymmetric big.LITTLE trees, split
L1i/L1d, and missing associativity attributes.

Usage::

    PYTHONPATH=src python scripts/gen_zoo_fixtures.py [--out DIR]
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import os
import sys
import tarfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.topology.ingest.normalize import NormalizeOptions, normalize  # noqa: E402
from repro.topology.ingest.sysfs import load_sysfs  # noqa: E402
from repro.topology.tree import machine_digest  # noqa: E402

KB = 1024


def cpu_list(cpus) -> str:
    """Render a kernel cpu-list string ("0-3,8")."""
    cpus = sorted(cpus)
    chunks = []
    start = prev = cpus[0]
    for cpu in cpus[1:]:
        if cpu == prev + 1:
            prev = cpu
            continue
        chunks.append(f"{start}-{prev}" if prev > start else f"{start}")
        start = prev = cpu
    chunks.append(f"{start}-{prev}" if prev > start else f"{start}")
    return ",".join(chunks)


def cpu_mask(cpus) -> str:
    value = 0
    for cpu in cpus:
        value |= 1 << cpu
    return f"{value:x}"


class Dump:
    """A synthetic sysfs dump being assembled file by file."""

    def __init__(self):
        self.files: dict[str, str] = {}

    def put(self, path: str, value) -> None:
        self.files[f"sys/devices/system/cpu/{path}"] = f"{value}\n"

    def cpu(
        self,
        cpu: int,
        *,
        package: int | None = None,
        package_cpus=None,
        siblings=None,
        siblings_file: str = "core_cpus_list",
        online: bool | None = None,
        max_freq_khz: int | None = None,
    ) -> None:
        base = f"cpu{cpu}"
        if online is not None:
            self.put(f"{base}/online", 1 if online else 0)
            if not online:
                return
        topo = f"{base}/topology"
        if package is not None:
            self.put(f"{topo}/physical_package_id", package)
        if package_cpus is not None:
            self.put(f"{topo}/package_cpus_list", cpu_list(package_cpus))
        if siblings is not None:
            if siblings_file.endswith("_list"):
                self.put(f"{topo}/{siblings_file}", cpu_list(siblings))
            else:
                self.put(f"{topo}/{siblings_file}", cpu_mask(siblings))
        if max_freq_khz is not None:
            self.put(f"{base}/cpufreq/cpuinfo_max_freq", max_freq_khz)

    def cache(
        self,
        cpu: int,
        index: int,
        *,
        level: int,
        ctype: str,
        size_kb: int,
        shared,
        ways: int | None = None,
        line: int | None = 64,
        mask_only: bool = False,
    ) -> None:
        base = f"cpu{cpu}/cache/index{index}"
        self.put(f"{base}/level", level)
        self.put(f"{base}/type", ctype)
        self.put(f"{base}/size", f"{size_kb}K")
        if mask_only:
            self.put(f"{base}/shared_cpu_map", cpu_mask(shared))
        else:
            self.put(f"{base}/shared_cpu_list", cpu_list(shared))
        if line is not None:
            self.put(f"{base}/coherency_line_size", line)
        if ways is not None:
            self.put(f"{base}/ways_of_associativity", ways)

    def to_targz(self) -> bytes:
        tar_buffer = io.BytesIO()
        with tarfile.open(fileobj=tar_buffer, mode="w") as tar:
            for name in sorted(self.files):
                data = self.files[name].encode("ascii")
                info = tarfile.TarInfo(name)
                info.size = len(data)
                info.mtime = 0
                info.uid = info.gid = 0
                info.uname = info.gname = "root"
                info.mode = 0o644
                tar.addfile(info, io.BytesIO(data))
        out = io.BytesIO()
        with gzip.GzipFile(fileobj=out, mode="wb", mtime=0) as gz:
            gz.write(tar_buffer.getvalue())
        return out.getvalue()


def harpertown2s() -> Dump:
    """Harpertown-era 2-socket: pairwise L2s, no L3, split L1i/L1d.

    Exercises the package_cpus_list fallback (no physical_package_id).
    """
    dump = Dump()
    for cpu in range(8):
        pkg = range(0, 4) if cpu < 4 else range(4, 8)
        dump.cpu(cpu, package_cpus=pkg, siblings=[cpu], max_freq_khz=3_200_000)
        dump.cache(cpu, 0, level=1, ctype="Data", size_kb=32, shared=[cpu], ways=8)
        dump.cache(cpu, 1, level=1, ctype="Instruction", size_kb=32, shared=[cpu], ways=8)
        pair = [cpu & ~1, cpu | 1]
        dump.cache(cpu, 2, level=2, ctype="Unified", size_kb=6144, shared=pair, ways=24)
    return dump


def nehalem_ep() -> Dump:
    """Nehalem-like 2-socket: private L1/L2, socket L3 via hex masks only."""
    dump = Dump()
    for cpu in range(8):
        pkg = 0 if cpu < 4 else 1
        dump.cpu(cpu, package=pkg, siblings=[cpu], max_freq_khz=2_900_000)
        dump.cache(cpu, 0, level=1, ctype="Data", size_kb=32, shared=[cpu], ways=8)
        dump.cache(cpu, 1, level=1, ctype="Instruction", size_kb=32, shared=[cpu], ways=4)
        dump.cache(cpu, 2, level=2, ctype="Unified", size_kb=256, shared=[cpu], ways=8)
        socket = range(0, 4) if pkg == 0 else range(4, 8)
        dump.cache(cpu, 3, level=3, ctype="Unified", size_kb=8192, shared=socket,
                   ways=16, mask_only=True)
    return dump


def epyc2p() -> Dump:
    """EPYC-style 2-socket NUMA: 32 cpus, L3 per 4-core complex (8 LLCs)."""
    dump = Dump()
    for cpu in range(32):
        pkg = 0 if cpu < 16 else 1
        dump.cpu(cpu, package=pkg, siblings=[cpu], max_freq_khz=2_450_000)
        dump.cache(cpu, 0, level=1, ctype="Data", size_kb=32, shared=[cpu], ways=8)
        dump.cache(cpu, 1, level=1, ctype="Instruction", size_kb=64, shared=[cpu], ways=4)
        dump.cache(cpu, 2, level=2, ctype="Unified", size_kb=512, shared=[cpu], ways=8)
        ccx = range(cpu - cpu % 4, cpu - cpu % 4 + 4)
        dump.cache(cpu, 3, level=3, ctype="Unified", size_kb=16384, shared=ccx, ways=16)
    return dump


def biglittle() -> Dump:
    """big.LITTLE phone SoC: 4 LITTLE cores share an L2, 2 big cores have
    private L2s, one cluster L3.  Asymmetric tree; ways files absent on
    the LITTLE cluster (common on ARM dumps)."""
    dump = Dump()
    for cpu in range(6):
        big = cpu >= 4
        dump.cpu(cpu, package=0, siblings=[cpu],
                 max_freq_khz=2_800_000 if big else 1_800_000)
        dump.cache(cpu, 0, level=1, ctype="Data",
                   size_kb=64 if big else 32, shared=[cpu],
                   ways=4 if big else None)
        dump.cache(cpu, 1, level=1, ctype="Instruction",
                   size_kb=64 if big else 32, shared=[cpu], ways=4)
        if big:
            dump.cache(cpu, 2, level=2, ctype="Unified", size_kb=1024,
                       shared=[cpu], ways=8)
        else:
            dump.cache(cpu, 2, level=2, ctype="Unified", size_kb=512,
                       shared=range(0, 4), ways=None)
        dump.cache(cpu, 3, level=3, ctype="Unified", size_kb=4096,
                   shared=range(0, 6), ways=16)
    return dump


def smt2server() -> Dump:
    """SMT-2 single-socket server: 8 physical cores, siblings (i, i+8),
    L1/L2 shared per sibling pair, one socket-wide L3."""
    dump = Dump()
    for cpu in range(16):
        pair = sorted([cpu % 8, cpu % 8 + 8])
        dump.cpu(cpu, package=0, siblings=pair, max_freq_khz=3_000_000)
        dump.cache(cpu, 0, level=1, ctype="Data", size_kb=48, shared=pair, ways=12)
        dump.cache(cpu, 1, level=1, ctype="Instruction", size_kb=32, shared=pair, ways=8)
        dump.cache(cpu, 2, level=2, ctype="Unified", size_kb=1280, shared=pair, ways=20)
        dump.cache(cpu, 3, level=3, ctype="Unified", size_kb=24576, shared=range(16),
                   ways=12)
    return dump


def unicore() -> Dump:
    """Single-core degenerate machine: the root is its own L2."""
    dump = Dump()
    dump.cpu(0, package=0, siblings=[0], max_freq_khz=1_500_000)
    dump.cache(0, 0, level=1, ctype="Data", size_kb=32, shared=[0], ways=4)
    dump.cache(0, 1, level=1, ctype="Instruction", size_kb=32, shared=[0], ways=4)
    dump.cache(0, 2, level=2, ctype="Unified", size_kb=512, shared=[0], ways=8)
    return dump


def holeysrv() -> Dump:
    """Holey numbering and hot-unplug: cpus 6-7 absent entirely, cpu3
    offline, sharing described via thread_siblings_list (legacy file)."""
    dump = Dump()
    cpus = [0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13]
    for cpu in cpus:
        if cpu == 3:
            dump.cpu(cpu, online=False)
            continue
        pkg = 0 if cpu < 6 else 1
        dump.cpu(cpu, package=pkg, siblings=[cpu],
                 siblings_file="thread_siblings_list",
                 online=(None if cpu == 0 else True), max_freq_khz=2_600_000)
        dump.cache(cpu, 0, level=1, ctype="Data", size_kb=32, shared=[cpu], ways=8)
        triple = [c for c in cpus if c // 3 == cpu // 3]
        dump.cache(cpu, 1, level=2, ctype="Unified", size_kb=2048, shared=triple,
                   ways=16)
        pkg_cpus = [c for c in cpus if (0 if c < 6 else 1) == pkg]
        dump.cache(cpu, 2, level=3, ctype="Unified", size_kb=12288, shared=pkg_cpus,
                   ways=12)
    return dump


#: name -> (builder, description, manifest extras)
ZOO = {
    "harpertown2s": (
        harpertown2s,
        "Harpertown-era 2-socket, 8 cores, pairwise L2, no L3 (memory root)",
        {},
    ),
    "nehalem-ep": (
        nehalem_ep,
        "Nehalem-like 2-socket, 8 cores, private L1/L2, socket L3 (hex masks)",
        {},
    ),
    "epyc2p": (
        epyc2p,
        "EPYC-style 2-socket NUMA, 32 cores, L3 per 4-core complex",
        {},
    ),
    "biglittle": (
        biglittle,
        "big.LITTLE SoC, 4 LITTLE sharing L2 + 2 big with private L2, cluster L3",
        {},
    ),
    "smt2server": (
        smt2server,
        "Single-socket SMT-2 server, 8 physical cores x 2 threads, socket L3",
        {},
    ),
    "unicore": (
        unicore,
        "Single-core machine, L2 root (degenerate tree)",
        {},
    ),
    "holeysrv": (
        holeysrv,
        "2-socket server with holey cpu numbering (no cpu6-7) and cpu3 offline",
        {},
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(__file__), "..", "tests", "topology", "fixtures"
        ),
    )
    parser.add_argument("--check", action="store_true",
                        help="verify committed archives match regeneration")
    args = parser.parse_args(argv)
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)

    manifest = {"machines": {}}
    failures = 0
    for name, (builder, description, extras) in sorted(ZOO.items()):
        blob = builder().to_targz()
        filename = f"{name}.tar.gz"
        path = os.path.join(out_dir, filename)
        if args.check:
            with open(path, "rb") as fh:
                if fh.read() != blob:
                    print(f"STALE {filename}: regeneration differs", file=sys.stderr)
                    failures += 1
        else:
            with open(path, "wb") as fh:
                fh.write(blob)
        entry = {
            "file": filename,
            "description": description,
            "smt_policy": extras.get("smt_policy", "merge"),
        }
        options = NormalizeOptions(smt_policy=entry["smt_policy"], name=name)
        machine = normalize(load_sysfs(path), options)
        entry["expected_digest"] = machine_digest(machine)
        entry["cores"] = machine.num_cores
        manifest["machines"][name] = entry
        print(f"{name:14s} {machine.num_cores:3d} cores  digest {entry['expected_digest']}")

    manifest_path = os.path.join(out_dir, "zoo.json")
    rendered = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    if args.check:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            if fh.read() != rendered:
                print("STALE zoo.json: regeneration differs", file=sys.stderr)
                failures += 1
    else:
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
