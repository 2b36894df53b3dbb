"""Exception taxonomy for the ``repro`` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch one type at an API boundary.
Subsystems raise more specific subclasses; the class names mirror the
package layout (``poly`` -> :class:`PolyhedralError`, ``lang`` ->
:class:`FrontendError`, and so on).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class PolyhedralError(ReproError):
    """Errors from the polyhedral substrate (``repro.poly``)."""


class EmptySetError(PolyhedralError):
    """An operation required a non-empty integer set but got an empty one."""


class UnboundedSetError(PolyhedralError):
    """Enumeration or code generation was requested for an unbounded set."""


class FrontendError(ReproError):
    """Base class for frontend (``repro.lang``) errors."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column is not None else "") + f": {message}"
        super().__init__(message)


class LexError(FrontendError):
    """A character sequence could not be tokenized."""


class ParseError(FrontendError):
    """The token stream does not form a valid program."""


class SemanticError(FrontendError):
    """The program parsed but violates a static-semantics rule.

    Examples: use of an undeclared array, a non-affine subscript
    expression, or a loop bound referencing an inner loop variable.
    """


class IRError(ReproError):
    """Errors constructing or manipulating the loop-nest IR."""


class DependenceError(IRError):
    """Dependence analysis was asked something it cannot answer."""


class TopologyError(ReproError):
    """Malformed cache hierarchy descriptions (``repro.topology``)."""


class UnknownMachineError(TopologyError):
    """A machine name/spec did not resolve to any builtin or zoo machine.

    ``known`` lists every name that would have worked, so CLIs can print
    the menu and exit with a usage error instead of a generic failure.
    """

    def __init__(self, spec: str, known: list[str]):
        self.spec = spec
        self.known = list(known)
        super().__init__(
            f"unknown machine {spec!r}; known: {', '.join(self.known)} "
            f"(also sysfs:<path> and lscpu:<path>)"
        )


class BlockingError(ReproError):
    """Errors in data-block partitioning or iteration tagging."""


class KernelError(ReproError):
    """Errors from the vectorized kernel layer (``repro.kernels``):
    unknown backend names or a requested backend that is unavailable."""


class MappingError(ReproError):
    """Errors from the distribution/scheduling algorithms (``repro.mapping``)."""


class ScheduleError(MappingError):
    """A legal schedule could not be constructed (e.g. dependence cycle
    spanning cores that the cycle-merging pass failed to collapse)."""


class TransformError(ReproError):
    """A loop transformation (``repro.transforms``) is illegal or
    inapplicable to the given nest."""


class SimulationError(ReproError):
    """Errors from the multicore cache simulator (``repro.sim``)."""


class RemapError(ReproError):
    """Errors from the online incremental remapper (``repro.remap``):
    malformed events, a core-loss event naming unknown or already-dead
    cores, or a hot-plug for cores that never went away."""


class WorkloadError(ReproError):
    """An unknown workload was requested or a workload failed to build."""


class UnknownWorkloadError(WorkloadError):
    """A workload name did not resolve to any registry entry.

    ``known`` lists every registered name, so CLIs can print the menu and
    exit with a usage error — the workload twin of
    :class:`UnknownMachineError`.
    """

    def __init__(self, name: str, known: list[str]):
        self.name = name
        self.known = list(known)
        super().__init__(
            f"unknown workload {name!r}; known: {', '.join(self.known)}"
        )


class ExperimentError(ReproError):
    """An experiment harness was misconfigured."""
