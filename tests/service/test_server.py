"""The daemon end to end: differential equivalence, backpressure,
degradation, cache tiers, introspection endpoints, and drain."""

import json
import threading

import pytest

from repro.lang import compile_source
from repro.mapping.baselines import base_plan
from repro.mapping.distribute import TopologyAwareMapper
from repro.runtime.serialize import plan_from_json
from repro.service import ServiceClient
from repro.service.protocol import BadRequest, Overloaded
from repro.topology.machines import machine_by_name

from tests.service.conftest import (
    BANDED_SOURCE,
    STENCIL_SOURCE,
    make_service,
    wait_until,
)


def reference_machine(name="dunnington", scale=32):
    machine = machine_by_name(name)
    return machine.with_scaled_caches(1.0 / scale) if scale != 1 else machine


class TestDifferential:
    """The service's mapping must be bit-identical to the in-process
    pipeline for the same (nest, topology, knobs)."""

    @pytest.mark.parametrize("source", [BANDED_SOURCE, STENCIL_SOURCE])
    @pytest.mark.parametrize("local_scheduling", [False, True])
    def test_identical_to_in_process(self, client, source, local_scheduling):
        response = client.submit(
            source=source,
            machine="dunnington",
            scale=32,
            knobs={"local_scheduling": local_scheduling},
        )
        assert response["ok"] and not response["degraded"]

        program = compile_source(source, name="request")
        machine = reference_machine()
        expected = (
            TopologyAwareMapper(machine, local_scheduling=local_scheduling)
            .map_nest(program, program.nests[0])
            .plan()
        )
        restored = plan_from_json(
            json.dumps(response["mapping"]), program, machine
        )
        assert restored.rounds == expected.rounds
        assert response["stats"]["iterations"] == expected.total_iterations()

    def test_knobs_reach_the_mapper(self, client):
        response = client.submit(
            source=BANDED_SOURCE,
            machine="dunnington",
            scale=32,
            knobs={"block_size": 64, "local_scheduling": False},
        )
        program = compile_source(BANDED_SOURCE, name="request")
        machine = reference_machine()
        expected = (
            TopologyAwareMapper(machine, block_size=64)
            .map_nest(program, program.nests[0])
            .plan()
        )
        restored = plan_from_json(
            json.dumps(response["mapping"]), program, machine
        )
        assert restored.rounds == expected.rounds
        assert response["stats"]["block_size"] == 64


class TestDegradation:
    def test_zero_deadline_degrades_to_baseline(self, client):
        response = client.submit(
            source=STENCIL_SOURCE, machine="nehalem", deadline_ms=0
        )
        assert response["degraded"] is True
        assert "deadline" in response["degraded_reason"]
        assert response["scheme"] == "base"

        program = compile_source(STENCIL_SOURCE, name="request")
        machine = machine_by_name("nehalem")
        expected = base_plan(program.nests[0], machine)
        restored = plan_from_json(
            json.dumps(response["mapping"]), program, machine
        )
        assert restored.rounds == expected.rounds

    def test_degraded_responses_are_not_cached(self, client, service):
        first = client.submit(
            source=BANDED_SOURCE, machine="nehalem", deadline_ms=0
        )
        assert first["degraded"]
        # Same content key with a generous deadline must recompute the
        # real mapping, not serve the degraded baseline from the cache.
        second = client.submit(
            source=BANDED_SOURCE, machine="nehalem", deadline_ms=60_000
        )
        assert not second["degraded"]
        assert second["cache"] == "none"
        assert second["scheme"] != "base"

    def test_generous_deadline_never_degrades(self, client):
        response = client.submit(
            source=BANDED_SOURCE, machine="dunnington", deadline_ms=60_000
        )
        assert response["degraded"] is False


class TestCaching:
    def test_repeat_request_hits_lru(self, client):
        first = client.submit(source=BANDED_SOURCE, machine="dunnington", scale=32)
        assert first["cache"] == "none"
        second = client.submit(source=BANDED_SOURCE, machine="dunnington", scale=32)
        assert second["cache"] == "memory"
        assert second["mapping"] == first["mapping"]
        stats = client.stats()
        assert stats["cache"]["hits_memory"] == 1
        assert stats["counters"]["cache.memory"] == 1
        assert stats["counters"]["pipeline_runs"] == 1

    def test_no_cache_bypasses_both_tiers(self, client):
        client.submit(source=BANDED_SOURCE, machine="dunnington")
        again = client.submit(source=BANDED_SOURCE, machine="dunnington",
                              no_cache=True)
        assert again["cache"] == "bypass"
        assert client.stats()["counters"]["pipeline_runs"] == 2

    def test_cold_restart_serves_from_disk(self, tmp_path):
        """With the persistent tier on, a restarted service answers a
        previously seen request without re-running the pipeline."""
        first = make_service(persistent=True, cache_dir=str(tmp_path))
        first.start()
        try:
            client = ServiceClient(port=first.port)
            client.wait_ready()
            cold = client.submit(source=BANDED_SOURCE, machine="dunnington")
            assert cold["cache"] == "none"
        finally:
            first.stop()

        reborn = make_service(persistent=True, cache_dir=str(tmp_path))
        reborn.start()
        try:
            client = ServiceClient(port=reborn.port)
            client.wait_ready()
            warm = client.submit(source=BANDED_SOURCE, machine="dunnington")
            assert warm["cache"] == "disk"
            assert warm["mapping"] == cold["mapping"]
            stats = client.stats()
            assert "pipeline_runs" not in stats["counters"]
            assert stats["cache"]["hits_disk"] == 1
        finally:
            reborn.stop()


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self):
        service = make_service(queue_size=1, workers=1)
        service.start()
        try:
            client = ServiceClient(port=service.port)
            client.wait_ready()
            results = []

            def slow_submit():
                results.append(
                    client.submit(
                        source=BANDED_SOURCE,
                        machine="dunnington",
                        no_cache=True,
                        debug_sleep_ms=1500,
                    )
                )

            occupant = threading.Thread(target=slow_submit)
            occupant.start()
            assert wait_until(lambda: service.admission.in_flight() == 1)
            queued = threading.Thread(target=slow_submit)
            queued.start()
            assert wait_until(lambda: service.admission.depth() == 1)

            with pytest.raises(Overloaded) as excinfo:
                client.submit(
                    source=BANDED_SOURCE, machine="dunnington", no_cache=True
                )
            assert excinfo.value.retry_after >= 1

            status, headers, _body = client.request(
                "POST", "/map",
                {"source": BANDED_SOURCE, "machine": "dunnington",
                 "no_cache": True},
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1

            occupant.join(timeout=15)
            queued.join(timeout=15)
            assert len(results) == 2 and all(r["ok"] for r in results)
            assert service.stats.counters["http.429"] == 2
            assert service.admission.rejected == 2
        finally:
            service.stop()

    def test_drain_finishes_admitted_work(self):
        """stop() completes in-flight requests before the sockets die."""
        service = make_service(queue_size=4, workers=1)
        service.start()
        client = ServiceClient(port=service.port)
        client.wait_ready()
        results = []

        def slow_submit():
            results.append(
                client.submit(
                    source=BANDED_SOURCE, machine="dunnington",
                    no_cache=True, debug_sleep_ms=600,
                )
            )

        worker = threading.Thread(target=slow_submit)
        worker.start()
        assert wait_until(lambda: service.admission.in_flight() == 1)
        service.stop()
        worker.join(timeout=15)
        assert results and results[0]["ok"]
        with pytest.raises(OSError):
            client.health()


class TestEndpoints:
    def test_healthz(self, client):
        assert client.health() == {"status": "ok"}

    def test_version_matches_package(self, client):
        import repro

        payload = client.version()
        assert payload["version"] == repro.__version__
        assert payload["plan_format"] == 2
        assert payload["program_format"] == 1

    def test_stats_shape(self, client):
        client.submit(source=BANDED_SOURCE, machine="dunnington")
        stats = client.stats()
        assert stats["queue"]["size"] == 8
        assert stats["counters"]["requests"] == 1
        assert stats["latency"]["count"] == 1
        assert stats["draining"] is False

    def test_metrics_exposition(self, client):
        client.submit(source=BANDED_SOURCE, machine="dunnington")
        text = client.metrics()
        assert "repro_service_requests_total 1" in text
        assert 'repro_service_cache_hits_total{tier="memory"} 0' in text
        assert "repro_service_queue_depth 0" in text

    def test_metrics_bridge_obs_counters(self):
        """With obs collection on, pipeline decision counters surface."""
        service = make_service(collect_obs=True)
        service.start()
        try:
            client = ServiceClient(port=service.port)
            client.wait_ready()
            client.submit(source=BANDED_SOURCE, machine="dunnington")
            text = client.metrics()
            assert 'repro_obs_counter{name="map.nests_mapped"} 1' in text
            assert 'repro_obs_counter{name="service.pipeline.runs"} 1' in text
        finally:
            service.stop()

    def test_unknown_routes_404(self, client):
        status, _headers, _body = client.request("GET", "/nope")
        assert status == 404
        status, _headers, _body = client.request("POST", "/nope", {})
        assert status == 404

    def test_bad_request_maps_to_400(self, client):
        with pytest.raises(BadRequest):
            client.submit(source="not a program", machine="dunnington")
        status, _headers, body = client.request("POST", "/map", {"x": 1})
        assert status == 400
        assert json.loads(body)["ok"] is False


class TestTracing:
    def test_per_request_trace_capture(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        service = make_service()
        service.start()
        try:
            client = ServiceClient(port=service.port)
            client.wait_ready()
            response = client.submit(source=BANDED_SOURCE, machine="dunnington")
            traces = list(tmp_path.glob("request-*.jsonl"))
            assert len(traces) == 1
            assert response["request_id"] in traces[0].name
            names = [
                json.loads(line).get("name")
                for line in traces[0].read_text().splitlines()
            ]
            assert "service.request" in names
            assert "service.pipeline" in names
            # Counters captured per request surface in /metrics too.
            assert 'repro_obs_counter{name="map.nests_mapped"} 1' in (
                client.metrics()
            )
        finally:
            service.stop()
