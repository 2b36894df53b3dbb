"""Shared fixtures: small machines and the paper's running examples."""

from __future__ import annotations

import pytest

from repro.blocks.groups import IterationGroup
from repro.lang import compile_source
from repro.topology.cache import CacheSpec
from repro.topology.tree import Machine, TopologyNode


def bench_machine(cores: int = 8) -> Machine:
    """A ``cores``-core, three-level tree (private L1s, paired L2s, one L3)."""
    l1 = CacheSpec("L1", 1024, 2, 32, 2)
    l2 = CacheSpec("L2", 4096, 4, 32, 8)
    l3 = CacheSpec("L3", 16384, 8, 32, 20)
    leaves = [TopologyNode.cache(l1, [TopologyNode.core(i)]) for i in range(cores)]
    l2s = [TopologyNode.cache(l2, leaves[i : i + 2]) for i in range(0, cores, 2)]
    return Machine(f"bench{cores}", 2.0, 100, TopologyNode.cache(l3, l2s), sockets=1)


@pytest.fixture(autouse=True)
def _reset_group_idents():
    """Start every test with a fresh ident sequence.

    Group idents are process-global; without the reset, tests that pin
    ident values (or orders derived from them) would depend on which
    tests ran before them.  The process-wide pipeline artifact store is
    dropped too: its entries reference pre-reset idents (the reset bumps
    the ident epoch, so they would only miss — but letting them pile up
    across thousands of tests wastes memory for nothing).
    """
    from repro.pipeline import reset_default_store

    IterationGroup.reset_idents()
    reset_default_store()
    yield


@pytest.fixture
def fig9_machine() -> Machine:
    """The paper's Figure 9 target: L3 root, two L2s, four cores."""
    l1 = CacheSpec("L1", 1024, 2, 32, 2)
    l2 = CacheSpec("L2", 4096, 4, 32, 8)
    l3 = CacheSpec("L3", 16384, 8, 32, 20)
    cores = [TopologyNode.core(i) for i in range(4)]
    l1s = [TopologyNode.cache(l1, [c]) for c in cores]
    l2s = [TopologyNode.cache(l2, l1s[0:2]), TopologyNode.cache(l2, l1s[2:4])]
    root = TopologyNode.cache(l3, l2s)
    return Machine("fig9", 2.0, 100, root, sockets=1)


@pytest.fixture
def two_core_machine() -> Machine:
    """Minimal machine: two cores sharing one L2, private L1s."""
    l1 = CacheSpec("L1", 512, 2, 32, 2)
    l2 = CacheSpec("L2", 2048, 4, 32, 8)
    cores = [TopologyNode.core(0), TopologyNode.core(1)]
    l1s = [TopologyNode.cache(l1, [c]) for c in cores]
    root = TopologyNode.cache(l2, l1s)
    return Machine("tiny2", 1.0, 50, root, sockets=1)


FIG5_K = 4
FIG5_M = 48


@pytest.fixture
def fig5_program():
    """The paper's Figure 5 loop (banded B updates), in-bounds variant."""
    k, m = FIG5_K, FIG5_M
    source = f"""
    param k = {k};
    param m = {m};
    array B[{m}];
    parallel for (j = 2*k; j < m - 2*k; j++)
      B[j] = B[j] + B[2*k + j] + B[j - 2*k];
    """
    return compile_source(source, name="fig5")


@pytest.fixture
def fig4_program():
    """The paper's Figure 4 fragment (2-D array reference)."""
    source = """
    param Q1 = 4;
    param Q2 = 6;
    array A[10][10];
    parallel for (i1 = 0; i1 < Q1; i1++)
      for (i2 = 2; i2 < Q2 + 2; i2++)
        A[i1 + 1][i2 - 1] = A[i1 + 1][i2 - 1] + 1;
    """
    return compile_source(source, name="fig4")


@pytest.fixture
def stencil_program():
    """A small 2-D stencil used across mapping/sim tests."""
    n = 24
    source = f"""
    array U[{n + 2}][{n + 2}];
    array V[{n + 2}][{n + 2}];
    parallel for (i = 1; i <= {n}; i++)
      for (j = 1; j <= {n}; j++)
        V[i][j] = U[i][j] + U[i - 1][j] + U[i + 1][j];
    """
    return compile_source(source, name="stencil")


@pytest.fixture
def dependent_program():
    """A loop with genuine loop-carried dependencies (flow at distance 2k)."""
    source = """
    param k = 2;
    array B[40];
    for (j = 4; j < 36; j++)
      B[j] = B[j] + B[j - 2*k];
    """
    return compile_source(source, name="dep")
