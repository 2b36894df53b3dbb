"""The evaluation workloads: the paper's Table 2 plus the irregular suite.

The paper evaluates on applu, galgel, equake (SpecOMP), cg, sp (NAS),
bodytrack, facesim, freqmine (Parsec), namd, povray (Spec2006), and two
locally maintained codes (mesa, H.264).  We cannot ship those programs,
so each application is represented by an affine loop-nest kernel that
models the *data-sharing structure* of its dominant phase — which is the
only property the paper's pass consumes (its input is the iteration
space, the affine references, and the cache topology).  Data sizes are
scaled to the simulated machines so that the data-to-cache-capacity
ratios sit in the regime the paper studies (working sets exceeding the
aggregate last-level capacity).

Beyond Table 2, the ``irregular`` suite adds kernels with data-dependent
subscripts (SpMV, mesh edge update, histogram, CSR sweep) that read
through index arrays; see ``docs/WORKLOADS.md``.

See :data:`repro.workloads.registry.WORKLOADS` for the full table and
:func:`repro.workloads.registry.workload` to fetch one by name.
"""

from repro.workloads.registry import (
    IRREGULAR_SUITE,
    WORKLOADS,
    Workload,
    all_workloads,
    application_table,
    irregular_workloads,
    paper_workloads,
    suites,
    workload,
)

__all__ = [
    "IRREGULAR_SUITE",
    "WORKLOADS",
    "Workload",
    "all_workloads",
    "application_table",
    "irregular_workloads",
    "paper_workloads",
    "suites",
    "workload",
]
