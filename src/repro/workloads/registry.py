"""Workload registry — our Table 2, plus the irregular suite.

Each :class:`Workload` couples one application's kernel source with its
metadata (suite, sequential/parallel origin, description) and lazily
compiles it through the full frontend.  The paper's Table 2 lists the
application, its suite, whether it arrived sequential or parallel, and
its data set size; :func:`application_table` renders the same columns for
our kernels.

Two workload populations live here:

* the twelve **paper applications** (:func:`paper_workloads`) — affine
  kernels mirroring Table 2; the figure experiments run exactly these;
* the **irregular suite** (suite ``"irregular"``) — kernels with
  data-dependent subscripts through recorded index arrays.  They map
  through the same tagging path as the affine twelve; the offset
  evaluators gather through the index arrays.  Those arrays are part of
  the workload (``index_data``) and are deterministic, so mapping them
  is as reproducible as the affine twelve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import UnknownWorkloadError, WorkloadError
from repro.ir.loops import LoopNest, Program
from repro.lang import compile_source
from repro.workloads import kernels

#: Suite name of the indirect-subscript kernels (everything else is affine).
IRREGULAR_SUITE = "irregular"


@dataclass(frozen=True)
class Workload:
    """One application of the evaluation suite."""

    name: str
    suite: str
    kind: str  # 'parallel' or 'sequential' (origin, per Table 2)
    description: str
    source: str
    num_blocks: int
    #: Recorded index-array contents, as hashable (name, values) pairs;
    #: empty for affine kernels.
    index_data: tuple[tuple[str, tuple[int, ...]], ...] = field(default=())

    def program(self) -> Program:
        return _compile(self.name, self.source, self.index_data)

    def nest(self) -> LoopNest:
        program = self.program()
        if len(program.nests) != 1:
            raise WorkloadError(
                f"workload {self.name!r} compiles to {len(program.nests)} "
                "nests; pick one explicitly via .program().nest(name)"
            )
        return program.nests[0]

    def data_bytes(self) -> int:
        return self.program().total_data_bytes()

    def block_size(self) -> int:
        """Default tagging block size: data size over the block budget."""
        size = self.data_bytes() // self.num_blocks
        return max(64, (size // 64) * 64)


@lru_cache(maxsize=None)
def _compile(
    name: str, source: str, index_data: tuple[tuple[str, tuple[int, ...]], ...]
) -> Program:
    if index_data:
        return compile_source(
            source, name=name, index_data={k: list(v) for k, v in index_data}
        )
    return compile_source(source, name=name)


def _build() -> dict[str, Workload]:
    entries = [
        ("applu", "SpecOMP", "parallel", "SSOR solver, 5-point stencil sweep", kernels.applu),
        ("galgel", "SpecOMP", "parallel", "fluid dynamics, oscillatory instability (mirrored modes)", kernels.galgel),
        ("equake", "SpecOMP", "parallel", "seismic wave propagation, long-reach symmetric band", kernels.equake),
        ("cg", "NAS", "parallel", "conjugate gradient, banded sparse matrix-vector", kernels.cg),
        ("sp", "NAS", "parallel", "scalar penta-diagonal solver, wide vertical band", kernels.sp),
        ("bodytrack", "Parsec", "parallel", "body tracking, flipped-frame differencing", kernels.bodytrack),
        ("facesim", "Parsec", "parallel", "face simulation, symmetric mesh operator", kernels.facesim),
        ("freqmine", "Parsec", "parallel", "frequent itemset mining, folded transaction scan", kernels.freqmine),
        ("namd", "Spec2006", "sequential", "molecular dynamics, symmetric pair forces", kernels.namd),
        ("povray", "Spec2006", "sequential", "ray tracing, diagonal/mirrored buffer gathers", kernels.povray),
        ("mesa", "local", "sequential", "3-D graphics, texture swizzle", kernels.mesa),
        ("h264", "local", "sequential", "video encoding, motion-search window", kernels.h264),
        ("spmv_banded", IRREGULAR_SUITE, "parallel", "sparse matrix-vector, banded random sparsity (gather)", kernels.spmv_banded),
        ("spmv_random", IRREGULAR_SUITE, "parallel", "sparse matrix-vector, block-random sparsity (BSR gather)", kernels.spmv_random),
        ("mesh_edge", IRREGULAR_SUITE, "sequential", "unstructured-mesh edge flux, patchwise edge list (scatter)", kernels.mesh_edge),
        ("histogram", IRREGULAR_SUITE, "sequential", "histogram accumulation into banked data-dependent bins", kernels.histogram),
        ("csr_sweep", IRREGULAR_SUITE, "sequential", "CSR neighborhood sweep over a community graph (2-D index)", kernels.csr_sweep),
    ]
    table: dict[str, Workload] = {}
    for name, suite, kind, description, builder in entries:
        built = builder()
        if len(built) == 3:
            source, num_blocks, index_data = built
            frozen = tuple(
                (arr, tuple(values)) for arr, values in sorted(index_data.items())
            )
        else:
            source, num_blocks = built
            frozen = ()
        table[name] = Workload(
            name, suite, kind, description, source, num_blocks, frozen
        )
    return table


WORKLOADS: dict[str, Workload] = _build()


def workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise UnknownWorkloadError(name, sorted(WORKLOADS)) from None


def all_workloads(suite: str | None = None) -> list[Workload]:
    """Every registered workload, optionally filtered by suite name."""
    if suite is None:
        return list(WORKLOADS.values())
    return [w for w in WORKLOADS.values() if w.suite == suite]


def paper_workloads() -> list[Workload]:
    """The twelve affine Table 2 applications the figures run."""
    return [w for w in WORKLOADS.values() if w.suite != IRREGULAR_SUITE]


def irregular_workloads() -> list[Workload]:
    """The irregular suite (indirect subscripts)."""
    return all_workloads(IRREGULAR_SUITE)


def suites() -> list[str]:
    """Distinct suite names, in registry order."""
    seen: dict[str, None] = {}
    for w in WORKLOADS.values():
        seen.setdefault(w.suite, None)
    return list(seen)


def application_table(suite: str | None = None) -> str:
    """Render our Table 2 (name, suite, origin, data size, iterations)."""
    from repro.util.tables import format_table

    rows = []
    for w in all_workloads(suite):
        nest = w.nest()
        rows.append(
            (
                w.name,
                w.suite,
                w.kind,
                f"{w.data_bytes() / 1024:.0f}KB",
                nest.iteration_count(),
                len(nest.accesses),
                w.description,
            )
        )
    return format_table(
        ["application", "suite", "origin", "data", "iterations", "refs", "description"],
        rows,
        title="Table 2: applications (scaled kernels; see DESIGN.md substitutions)",
    )
