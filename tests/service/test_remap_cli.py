"""``repro remap --via-service`` against both fronts.

``/remap`` is stateless: each body states its pre state in full and each
answer states its post state (``remap.post``) in the same fields.  The
CLI sends that post state back with the next event, so a history maps
the state the earlier events left — the knobs of a phase change, the
dead cores of a loss, the machine of a topology edit — on the
single-process daemon and on the shard router alike.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.pipeline.knobs import Knobs

from tests.service.conftest import STENCIL_SOURCE, make_service
from tests.service.test_shard import make_shard


@pytest.fixture(scope="module", params=["daemon", "shard"])
def front(request):
    service = make_service() if request.param == "daemon" else make_shard()
    service.start()
    try:
        yield service
    finally:
        service.stop()


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "stencil.loop"
    path.write_text(STENCIL_SOURCE)
    return str(path)


def remap_via_service(front, program_file, capsys, *events, flags=()):
    """Run the CLI over ``events``; returns its decoded answers."""
    argv = [
        "remap", program_file, "--machine", "dunnington", "--via-service",
        "--port", str(front.port), "--json", *flags,
    ]
    for event in events:
        argv += ["--event", json.dumps(event)]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_phase_change_then_loss(front, program_file, capsys):
    """The loss maps at the phase change's knobs, without the core that
    was dead before the first event and the one it loses."""
    phase, loss = remap_via_service(
        front, program_file, capsys,
        {"kind": "phase_change", "knobs": {"alpha": 0.8, "beta": 0.2}},
        {"kind": "core_loss", "cores": [2]},
        flags=("--dead-cores", "1"),
    )
    moved = list(Knobs(local_scheduling=False, alpha=0.8, beta=0.2).as_tuple())
    assert phase["key"]["knobs"] == loss["key"]["knobs"] == moved
    assert loss["remap"]["pre_machine"] == "dunnington-x0.03125-less1"
    assert loss["remap"]["machine"] == "dunnington-x0.03125-less1,2"
    assert loss["stats"]["cores"] == 10
    assert loss["remap"]["post"]["dead_cores"] == [1, 2]


def test_topology_edit_then_loss(front, program_file, capsys):
    """The loss applies to the edited machine, not the flags' machine."""
    edit, loss = remap_via_service(
        front, program_file, capsys,
        {"kind": "topology_edit", "machine": "arch-II", "scale": 32},
        {"kind": "core_loss", "cores": [2]},
    )
    assert loss["remap"]["pre_machine"] == "arch-II-x0.03125"
    assert loss["remap"]["machine"] == "arch-II-x0.03125-less2"
    assert loss["stats"]["cores"] == edit["stats"]["cores"] - 1
    assert edit["remap"]["post"]["machine"] == "arch-II"


#: A four-core machine of its own name, for ``--topology``.
QUAD_SPEC = "name=quad4; cores=4; mem=80; L1:32K/8/64@3; L2:1M/8/64@14 per 2"


def test_topology_file_names_the_machine(front, program_file, capsys, tmp_path):
    """``--topology FILE`` sends the file's spec, and the loss applies to
    that machine, as in local mode."""
    spec = tmp_path / "quad.topo"
    spec.write_text(QUAD_SPEC)
    flags = ("--topology", str(spec), "--scale", "1")
    loss = {"kind": "core_loss", "cores": [1]}
    (answer,) = remap_via_service(front, program_file, capsys, loss, flags=flags)
    assert main(["remap", program_file, "--event", json.dumps(loss), "--json",
                 *flags]) == 0
    (local,) = json.loads(capsys.readouterr().out)
    assert answer["remap"]["machine"] == local["machine"] == "quad4-less1"
    assert answer["stats"]["cores"] == local["cores"] == 3
    assert answer["remap"]["post"]["topology"] == QUAD_SPEC
