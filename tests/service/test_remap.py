"""The ``POST /remap`` endpoint: single-process and sharded."""

from __future__ import annotations

import pytest

from repro.service import ServiceClient
from repro.service.protocol import BadRequest

from tests.service.conftest import BANDED_SOURCE, STENCIL_SOURCE
from tests.service.test_shard import make_shard

MACHINE = "arch-I"

#: Two independent nests, so a phase change can name the other one.
TWO_NEST_SOURCE = """
array A[64];
array B[64];
parallel for (i = 0; i < 64; i++)
  A[i] = A[i] + 1;
parallel for (j = 0; j < 64; j++)
  B[j] = B[j] + A[j];
"""


class TestSingleProcess:
    def test_phase_change_replays_prefix(self, client):
        """After a prime /map, a knob-only event recomputes just the
        dirtied suffix (tagging onward) — the earlier stages replay."""
        client.submit(source=STENCIL_SOURCE, machine=MACHINE)
        response = client.remap(
            source=STENCIL_SOURCE,
            machine=MACHINE,
            event={"kind": "phase_change", "knobs": {"alpha": 0.8, "beta": 0.2}},
        )
        assert response["ok"]
        stanza = response["remap"]
        assert stanza["event"]["kind"] == "phase_change"
        assert stanza["stages_replayed"] >= 1
        assert stanza["pre_machine"] == stanza["machine"]
        assert response["stats"]["rounds"] >= 1

    def test_core_loss_prunes_and_carries(self, client):
        client.submit(source=STENCIL_SOURCE, machine=MACHINE)
        response = client.remap(
            source=STENCIL_SOURCE,
            machine=MACHINE,
            event={"kind": "core_loss", "cores": [2]},
        )
        stanza = response["remap"]
        assert stanza["machine"].endswith("-less2")
        assert stanza["cores"] == response["stats"]["cores"]
        # blocksize/tagging/dependence key on no part of the tree here
        # (same L1): they replay across the topology change.
        assert stanza["stages_replayed"] == 3
        assert stanza["stages_recomputed"] == 2
        assert "carried" not in stanza

    def test_dead_cores_compose_with_hotplug(self, client):
        client.submit(source=STENCIL_SOURCE, machine=MACHINE)
        lost = client.remap(
            source=STENCIL_SOURCE,
            machine=MACHINE,
            event={"kind": "core_loss", "cores": [1]},
        )
        back = client.remap(
            source=STENCIL_SOURCE,
            machine=MACHINE,
            dead_cores=[1],
            event={"kind": "core_hotplug", "cores": [1]},
        )
        assert lost["remap"]["cores"] == back["remap"]["cores"] - 1
        assert back["remap"]["pre_machine"].endswith("-less1")
        assert not back["remap"]["machine"].endswith("-less1")

    def test_post_state_published_to_map_cache(self, client):
        client.remap(
            source=BANDED_SOURCE,
            machine=MACHINE,
            event={"kind": "phase_change", "knobs": {"alpha": 0.7, "beta": 0.3}},
        )
        follow_up = client.submit(
            source=BANDED_SOURCE,
            machine=MACHINE,
            knobs={"alpha": 0.7, "beta": 0.3},
        )
        assert follow_up["cache"] == "memory"
        assert "remap" not in follow_up

    def test_remap_matches_cold_map_of_post_state(self, client):
        remapped = client.remap(
            source=STENCIL_SOURCE,
            machine=MACHINE,
            event={"kind": "core_loss", "cores": [0, 3]},
        )
        cold = client.submit(
            source=STENCIL_SOURCE,
            machine=MACHINE,
            topology=None,
            knobs=None,
            no_cache=True,
        )
        # Same program, but the cold map above is of the *base* machine;
        # re-map the post state explicitly for the comparison.
        assert cold["stats"]["cores"] == remapped["stats"]["cores"] + 2
        post = client.remap(
            source=STENCIL_SOURCE,
            machine=MACHINE,
            event={"kind": "core_loss", "cores": [0, 3]},
            no_cache=True,
        )
        assert post["mapping"] == remapped["mapping"]

    def test_counters(self, client):
        client.submit(source=BANDED_SOURCE, machine=MACHINE)
        for _ in range(2):
            client.remap(
                source=BANDED_SOURCE,
                machine=MACHINE,
                event={"kind": "phase_change", "knobs": {"alpha": 0.6}},
            )
        counters = client.stats()["counters"]
        assert counters["remap_requests"] >= 2
        assert counters["remap_runs"] >= 2

    def test_topology_edit_by_name(self, client):
        client.submit(source=STENCIL_SOURCE, machine=MACHINE)
        response = client.remap(
            source=STENCIL_SOURCE,
            machine=MACHINE,
            event={"kind": "topology_edit", "machine": "arch-II"},
        )
        assert response["remap"]["machine"] == "arch-II"
        assert response["remap"]["pre_machine"] == MACHINE

    def test_bad_event_kind(self, client):
        with pytest.raises(BadRequest, match="unknown event kind"):
            client.remap(
                source=BANDED_SOURCE, machine=MACHINE, event={"kind": "nope"}
            )

    def test_loss_of_unknown_core(self, client):
        with pytest.raises(BadRequest, match="unknown or already-dead"):
            client.remap(
                source=BANDED_SOURCE,
                machine=MACHINE,
                event={"kind": "core_loss", "cores": [99]},
            )

    def test_phase_change_for_unknown_nest(self, client):
        with pytest.raises(BadRequest, match="no nest 'no_such_nest'"):
            client.remap(
                source=BANDED_SOURCE,
                machine=MACHINE,
                event={"kind": "phase_change", "nest": "no_such_nest",
                       "knobs": {"alpha": 0.9}},
            )

    def test_phase_change_for_another_nest(self, client):
        """A phase change naming another nest of the program leaves the
        request's nest alone (pure replay) and echoes ``nest``."""
        primed = client.submit(source=TWO_NEST_SOURCE, machine=MACHINE, nest=0)
        event = {
            "kind": "phase_change", "nest": "request_nest1", "knobs": {"alpha": 0.9}
        }
        response = client.remap(
            source=TWO_NEST_SOURCE, machine=MACHINE, nest=0, event=event
        )
        assert response["nest"] == "request_nest0"
        assert response["remap"]["event"] == event
        assert response["key"] == primed["key"]
        assert response["remap"]["stages_recomputed"] == 0

    def test_bool_scale_is_a_400(self, client):
        status, _headers, body = client.request("POST", "/remap", {
            "source": BANDED_SOURCE,
            "machine": MACHINE,
            "event": {"kind": "topology_edit", "machine": "arch-II", "scale": True},
        })
        assert status == 400
        assert b"scale" in body

    def test_event_required(self, client):
        status, _headers, _body = client.request(
            "POST", "/remap", {"source": BANDED_SOURCE, "machine": MACHINE}
        )
        assert status == 400


class TestSharded:
    @pytest.fixture
    def shard(self):
        service = make_shard()
        service.start()
        try:
            yield service
        finally:
            service.stop()

    @pytest.fixture
    def client(self, shard):
        c = ServiceClient(port=shard.port)
        c.wait_ready()
        return c

    def test_remap_lands_on_the_owning_worker(self, client):
        """Digest affinity means the remap reuses the warm store the
        prime /map populated on the same worker: stages replay."""
        primed = client.submit(source=STENCIL_SOURCE, machine=MACHINE)
        response = client.remap(
            source=STENCIL_SOURCE,
            machine=MACHINE,
            event={"kind": "phase_change", "knobs": {"alpha": 0.8, "beta": 0.2}},
        )
        assert response["worker"] == primed["worker"]
        assert response["remap"]["stages_replayed"] >= 1
