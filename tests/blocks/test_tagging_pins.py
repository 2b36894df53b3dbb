"""Tagging pinned across commits, on both backends.

Every registered workload, affine and irregular, is tagged at its
``Workload.block_size()`` with the scalar oracle (``backend="python"``)
and, when numpy is importable, with the vectorized backend.  The two
must give identical groups: tag, write and read tags, iterations and
group order.  The scalar result's ``TagArtifact`` fingerprint must equal
the digest below, so a change to how any reference's offsets are
evaluated shows up here even when the code that produced the old groups
is gone.

To re-pin after a deliberate change, run this module as a script from
the repository root (``PYTHONPATH=src:. python
tests/blocks/test_tagging_pins.py``).
"""

from __future__ import annotations

import pytest

from repro.blocks.datablocks import DataBlockPartition
from repro.blocks.groups import IterationGroup
from repro.blocks.tagger import tag_iterations
from repro.kernels import have_numpy
from repro.pipeline.artifacts import TagArtifact
from repro.workloads.registry import WORKLOADS

PINS = {
    "applu": "7def9f3db8039f18",
    "galgel": "4caf9cd993010c0b",
    "equake": "5f2199e574e426f1",
    "cg": "8df138fd4b3158ec",
    "sp": "c0142293ff4af047",
    "bodytrack": "6171861c66b559c0",
    "facesim": "ce0533ee24297036",
    "freqmine": "29eb6c7d0c3181ec",
    "namd": "1ed190a7e1f2ba1c",
    "povray": "59402087b5c42cc8",
    "mesa": "cd0e59b915b8bdfb",
    "h264": "63e0305c314be7b9",
    "spmv_banded": "8d33cfa16c6b65ec",
    "spmv_random": "a1d7e19eef7eb203",
    "mesh_edge": "4f3e6be938185416",
    "histogram": "ca683c9ad455f253",
    "csr_sweep": "e232c0ae9eacfc7b",
}


def _tag(name: str, backend: str):
    app = WORKLOADS[name]
    program = app.program()
    nest = app.nest()
    arrays = [program.arrays[a.name] for a in nest.arrays()]
    partition = DataBlockPartition(arrays, app.block_size())
    IterationGroup.reset_idents()
    return tag_iterations(nest, partition, backend=backend)


def _groups(group_set):
    return [
        (g.tag, g.write_tag, g.read_tag, g.iterations) for g in group_set.groups
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tagging_matches_pin_on_both_backends(name):
    scalar = _tag(name, "python")
    assert TagArtifact(scalar).fingerprint() == PINS[name]
    if have_numpy():
        assert _groups(_tag(name, "numpy")) == _groups(scalar)


if __name__ == "__main__":
    for workload_name in WORKLOADS:
        digest = TagArtifact(_tag(workload_name, "python")).fingerprint()
        print(f'    "{workload_name}": "{digest}",')
