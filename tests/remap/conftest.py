"""Shared fixtures for the remapper tests: one small parallel stencil
and one sequential banded loop on the 8-core bench machine."""

from __future__ import annotations

import pytest

from repro.lang import compile_source
from repro.pipeline.knobs import Knobs

from tests.conftest import bench_machine

STENCIL_SOURCE = """
array U[14][14];
array V[14][14];
parallel for (i = 1; i <= 12; i++)
  for (j = 1; j <= 12; j++)
    V[i][j] = U[i][j] + U[i - 1][j] + U[i + 1][j] + U[i][j - 1];
"""

# 192 elements: the smallest banded size whose group dependence graph
# schedules across every machine state the differential histories visit
# (some smaller sizes hit cross-core cycles — a mapper property).
BANDED_SOURCE = """
param k = 2;
array B[192];
for (j = 4; j < 188; j++)
  B[j] = B[j] + B[j - 2*2];
"""


@pytest.fixture
def stencil_program():
    return compile_source(STENCIL_SOURCE, name="stencil")


@pytest.fixture
def banded_program():
    return compile_source(BANDED_SOURCE, name="banded")


@pytest.fixture
def machine():
    return bench_machine(8)


@pytest.fixture
def knobs():
    return Knobs(block_size=64, alpha=0.5, beta=0.5, local_scheduling=True)
