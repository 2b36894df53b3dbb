"""The sharded service in-process: routing, caching, aggregation."""

from __future__ import annotations

import json

import pytest

import repro
from repro.service import ServiceClient
from repro.service.shard import ShardConfig, ShardService, shard_key

from tests.service.conftest import BANDED_SOURCE, STENCIL_SOURCE, wait_until


def make_shard(**overrides) -> ShardService:
    defaults = dict(
        port=0,
        workers=2,
        threads=2,
        queue_size=16,
        debug=True,
        drain_timeout_s=15.0,
        health_interval_s=0.1,
    )
    defaults.update(overrides)
    return ShardService(ShardConfig(**defaults))


@pytest.fixture
def shard():
    service = make_shard()
    service.start()
    try:
        yield service
    finally:
        service.stop()


@pytest.fixture
def client(shard):
    c = ServiceClient(port=shard.port)
    c.wait_ready()
    return c


class TestRouting:
    def test_maps_through_a_worker(self, client):
        response = client.submit(source=BANDED_SOURCE, machine="dunnington")
        assert response["ok"]
        assert response["worker"] in ("w0", "w1")
        assert response["scheme"]
        assert sum(response["stats"]["per_core_iterations"]) == (
            response["stats"]["iterations"]
        )

    def test_same_program_same_worker(self, client):
        """Digest affinity: repeats of one program stick to one slot.

        ``no_cache`` bypasses the router cache and the worker tiers, so
        every request is actually proxied.
        """
        owners = {
            client.submit(
                source=BANDED_SOURCE, machine="dunnington", no_cache=True
            )["worker"]
            for _ in range(3)
        }
        assert len(owners) == 1

    def test_routing_matches_the_ring(self, shard, client):
        payload = {"source": BANDED_SOURCE, "machine": "dunnington",
                   "no_cache": True}
        expected = shard.ring.node_for(shard_key(payload))
        status, _headers, body = client.request("POST", "/map", payload)
        assert status == 200
        assert json.loads(body)["worker"] == expected

    def test_malformed_json_is_a_router_400(self, shard, client):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", shard.port)
        try:
            connection.request(
                "POST", "/map", body=b"{nope",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert b"malformed JSON" in response.read()
        finally:
            connection.close()

    def test_worker_errors_pass_through(self, client):
        """Validation failures keep their worker-side status (400)."""
        status, _headers, body = client.request(
            "POST", "/map", {"source": "not a program", "machine": "dunnington"}
        )
        assert status == 400
        assert json.loads(body)["ok"] is False


class TestRouterCache:
    def test_byte_identical_repeat_hits_the_router(self, client):
        payload = {"source": BANDED_SOURCE, "machine": "dunnington"}
        first_status, _h, first_body = client.request("POST", "/map", payload)
        second_status, _h, second_body = client.request("POST", "/map", payload)
        assert first_status == second_status == 200
        first, second = json.loads(first_body), json.loads(second_body)
        assert first["cache"] == "none"
        assert second["cache"] == "router"
        assert second["mapping"] == first["mapping"]
        assert second["worker"] == first["worker"]

    def test_no_cache_requests_bypass_the_router_cache(self, client):
        payload = {"source": BANDED_SOURCE, "machine": "dunnington",
                   "no_cache": True}
        for _ in range(2):
            status, _headers, body = client.request("POST", "/map", payload)
            assert status == 200
            assert json.loads(body)["cache"] == "bypass"

    def test_degraded_responses_are_not_router_cached(self, client):
        payload = {"source": STENCIL_SOURCE, "machine": "nehalem",
                   "scale": 32, "deadline_ms": 0}
        for expected_cache in ("none", "none"):
            status, _headers, body = client.request("POST", "/map", payload)
            assert status == 200
            parsed = json.loads(body)
            assert parsed["degraded"] is True
            assert parsed["cache"] == expected_cache


class TestAggregation:
    def test_stats_aggregate_across_workers(self, shard, client):
        client.submit(source=BANDED_SOURCE, machine="dunnington")
        client.submit(source=STENCIL_SOURCE, machine="dunnington")
        stats = client.stats()
        assert stats["mode"] == "shard"
        assert stats["version"] == repro.__version__
        assert [w["slot"] for w in stats["workers"]] == ["w0", "w1"]
        assert all(w["alive"] for w in stats["workers"])
        per_worker = sum(
            w["stats"]["counters"].get("requests", 0)
            for w in stats["workers"]
            if w.get("stats")
        )
        assert per_worker == stats["counters"]["requests"] == 2
        assert stats["counters"]["pipeline_runs"] == 2
        assert stats["router"]["counters"]["requests"] == 2
        assert stats["router"]["ring"]["nodes"] == ["w0", "w1"]

    def test_metrics_exposition(self, client):
        client.submit(source=BANDED_SOURCE, machine="dunnington")
        text = client.metrics()
        assert "repro_shard_workers 2" in text
        assert "repro_shard_workers_alive 2" in text
        assert "repro_router_requests_total 1" in text
        assert "repro_service_requests_total 1" in text
        assert 'repro_shard_worker_restarts_total{slot="w0"} 0' in text

    def test_healthz_reports_worker_counts(self, client):
        health = client.health()
        assert health == {"status": "ok", "workers": {"alive": 2, "total": 2}}

    def test_version_reports_shard_mode(self, client):
        assert client.version()["mode"] == "shard"

    def test_unknown_routes_404(self, client):
        status, _headers, _body = client.request("GET", "/nope")
        assert status == 404
        status, _headers, _body = client.request("POST", "/nope", {})
        assert status == 404


class TestSharedPlanTier:
    def test_plan_computed_by_one_worker_serves_another(self, tmp_path):
        """The PlanStore disk tier is one file under all workers.

        One worker computes the plan through the router; every other
        worker, asked directly with the same body, finds its own tiers
        cold and answers from the persisted plan (cross-process reload +
        merge-on-write): ``cache: "disk"``.
        """
        from repro.pipeline.persist import PlanStore

        service = make_shard(workers=2, persistent=True, cache_dir=str(tmp_path))
        service.start()
        try:
            client = ServiceClient(port=service.port)
            client.wait_ready()
            first = client.submit(source=BANDED_SOURCE, machine="dunnington")
            assert first["cache"] == "none"
            assert len(PlanStore(str(tmp_path))) == 1

            tiers = []
            for handle in service.workers:
                if handle.slot == first["worker"]:
                    continue
                sibling = ServiceClient(port=handle.port)
                response = sibling.submit(source=BANDED_SOURCE, machine="dunnington")
                assert response["mapping"] == first["mapping"]
                tiers.append(response["cache"])
            assert tiers == ["disk"]
        finally:
            service.stop()


class TestDraining:
    def test_draining_router_answers_503(self, shard, client):
        shard.draining = True
        status, headers, body = client.request(
            "POST", "/map",
            {"source": BANDED_SOURCE, "machine": "dunnington", "no_cache": True},
        )
        assert status == 503
        assert headers.get("retry-after") == "1"
        assert "draining" in json.loads(body)["error"]
        shard.draining = False

    def test_stop_reaps_workers_cleanly(self):
        service = make_shard()
        service.start()
        pids = [handle.pid for handle in service.workers]
        assert all(pids)
        ServiceClient(port=service.port).wait_ready()
        service.stop()
        assert all(not handle.alive() for handle in service.workers)
        assert service._worker_exits == {"w0": 0, "w1": 0}
        assert wait_until(
            lambda: all(handle.process.exitcode == 0 for handle in service.workers)
        )
