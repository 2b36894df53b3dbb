"""Fault injection against the sharded service.

Two failure modes the router must survive:

* **SIGKILL of a worker** — uncatchable, mid-request: the in-flight
  request gets a clean 503 (never a hang, never a silent retry of a
  maybe-executed compute), the slot is restarted with a fresh pid, and
  the shared plan tier stays readable (the flock + merge-on-write
  protocol means a torn writer cannot corrupt siblings).
* **SIGTERM of the router** — drain: in-flight work completes, workers
  are asked to exit and do so with code 0, the process exits 0.

Synchronization is all barriers and bounded polling against observable
state (in-flight gauges, pids, restart counters) — no bare sleeps.
"""

from __future__ import annotations

import json
import os
import signal
import threading

import pytest

from repro.pipeline import PlanStore
from repro.service import ServiceClient
from repro.service.shard import ShardConfig, ShardService

from tests.service.conftest import BANDED_SOURCE, STENCIL_SOURCE, wait_until
from tests.service.test_daemon import spawn_daemon


def make_shard(**overrides) -> ShardService:
    defaults = dict(
        port=0,
        workers=1,
        threads=2,
        queue_size=8,
        debug=True,
        health_interval_s=0.05,
        drain_timeout_s=15.0,
    )
    defaults.update(overrides)
    return ShardService(ShardConfig(**defaults))


class TestWorkerSigkill:
    def test_mid_request_kill_is_a_clean_503(self, tmp_path):
        """SIGKILL the worker while it is computing.

        The caller blocked on that request must get a 503 with
        ``Retry-After`` (not a hang), the router must restart the slot,
        a retried request must succeed, and the PlanStore file must
        load cleanly afterwards.
        """
        service = make_shard(persistent=True, cache_dir=str(tmp_path))
        service.start()
        try:
            handle = service.workers[0]
            first_pid = handle.pid
            assert first_pid is not None
            router = ServiceClient(port=service.port)
            router.wait_ready()

            outcome = {}
            started = threading.Event()

            def doomed_request():
                client = ServiceClient(port=service.port)
                started.set()
                status, headers, body = client.request(
                    "POST", "/map",
                    {
                        "source": BANDED_SOURCE,
                        "machine": "dunnington",
                        "no_cache": True,
                        "debug_sleep_ms": 5000,
                    },
                )
                outcome.update(status=status, headers=headers, body=body)

            caller = threading.Thread(target=doomed_request)
            caller.start()
            assert started.wait(timeout=10)

            # Wait until the worker is actually executing the request.
            worker_client = ServiceClient(port=handle.port)
            assert wait_until(
                lambda: worker_client.stats()["queue"]["in_flight"] >= 1,
                timeout=15,
            ), "slow request never reached the worker"

            os.kill(first_pid, signal.SIGKILL)

            caller.join(timeout=30)
            assert not caller.is_alive(), "in-flight request hung after SIGKILL"
            assert outcome["status"] == 503
            assert outcome["headers"].get("retry-after") == "1"
            error = json.loads(outcome["body"])["error"]
            assert "failed mid-request" in error

            # The router restarts the slot with a fresh pid.
            assert wait_until(
                lambda: handle.alive() and handle.pid != first_pid,
                timeout=20,
            ), "worker was never restarted"
            assert handle.restarts >= 1
            snapshot = service.stats_payload()
            assert snapshot["router"]["counters"]["worker_failures"] >= 1
            assert snapshot["workers"][0]["restarts"] >= 1

            # A retried request succeeds against the restarted worker.
            response = None
            for _ in range(100):
                status, _headers, body = router.request(
                    "POST", "/map",
                    {"source": BANDED_SOURCE, "machine": "dunnington",
                     "no_cache": True},
                )
                if status == 200:
                    response = json.loads(body)
                    break
                assert status == 503, f"unexpected status {status}"
            assert response is not None and response["ok"]

            # The shared plan tier survived the kill uncorrupted.
            store = PlanStore(str(tmp_path))
            assert len(store) >= 1
            with open(store.path, encoding="utf-8") as handle_file:
                json.load(handle_file)
        finally:
            service.stop()

    def test_idle_kill_is_healed_by_the_health_loop(self):
        """No request involved: the health sweep alone restarts the slot."""
        service = make_shard()
        service.start()
        try:
            handle = service.workers[0]
            first_pid = handle.pid
            os.kill(first_pid, signal.SIGKILL)
            assert wait_until(
                lambda: handle.alive() and handle.pid != first_pid,
                timeout=20,
            )
            assert handle.restarts >= 1
            client = ServiceClient(port=service.port)
            response = client.submit(
                source=STENCIL_SOURCE, machine="dunnington", no_cache=True
            )
            assert response["ok"]
            assert response["worker"] == "w0"
        finally:
            service.stop()

    def test_dead_on_arrival_worker_is_restarted_before_forwarding(self):
        """Health checks disabled: routing itself discovers the corpse.

        Nothing has executed yet, so restart-and-forward is safe and the
        request succeeds on the first try.
        """
        service = make_shard(health_interval_s=60.0)
        service.start()
        try:
            handle = service.workers[0]
            first_pid = handle.pid
            os.kill(first_pid, signal.SIGKILL)
            assert wait_until(lambda: not handle.process.is_alive(), timeout=10)

            client = ServiceClient(port=service.port)
            response = client.submit(
                source=BANDED_SOURCE, machine="dunnington", no_cache=True
            )
            assert response["ok"]
            assert handle.pid != first_pid
            counters = service.stats_payload()["router"]["counters"]
            assert counters["worker_dead_on_arrival"] >= 1
        finally:
            service.stop()


class TestRemapSigkill:
    def test_remap_racing_worker_restart_is_clean(self):
        """SIGKILL the worker while it is computing a ``/remap``.

        The remapping caller must get the same clean 503 + Retry-After
        contract as ``/map`` — and must never be handed a stale plan:
        the error body carries no mapping, and a retried remap against
        the restarted (cold-store) worker produces the true post-event
        plan, bit-identical to a fresh compute of the post state.
        """
        service = make_shard()
        service.start()
        try:
            handle = service.workers[0]
            first_pid = handle.pid
            router = ServiceClient(port=service.port)
            router.wait_ready()

            remap_body = {
                "source": STENCIL_SOURCE,
                "machine": "dunnington",
                "event": {"kind": "core_loss", "cores": [2]},
                "debug_sleep_ms": 5000,
            }
            outcome = {}
            started = threading.Event()

            def doomed_remap():
                client = ServiceClient(port=service.port)
                started.set()
                status, headers, body = client.request(
                    "POST", "/remap", remap_body
                )
                outcome.update(status=status, headers=headers, body=body)

            caller = threading.Thread(target=doomed_remap)
            caller.start()
            assert started.wait(timeout=10)

            worker_client = ServiceClient(port=handle.port)
            assert wait_until(
                lambda: worker_client.stats()["queue"]["in_flight"] >= 1,
                timeout=15,
            ), "slow remap never reached the worker"

            os.kill(first_pid, signal.SIGKILL)

            caller.join(timeout=30)
            assert not caller.is_alive(), "remap hung after SIGKILL"
            assert outcome["status"] == 503
            assert outcome["headers"].get("retry-after") == "1"
            error_body = json.loads(outcome["body"])
            assert "failed mid-request" in error_body["error"]
            # Never a stale plan: the failure body carries no mapping.
            assert "mapping" not in error_body
            assert "remap" not in error_body

            assert wait_until(
                lambda: handle.alive() and handle.pid != first_pid,
                timeout=20,
            ), "worker was never restarted"

            # A retried remap succeeds and its plan is the honest
            # post-event state (7 cores), identical to a re-run.
            retried = None
            for _ in range(100):
                status, _headers, body = router.request(
                    "POST", "/remap",
                    {k: v for k, v in remap_body.items()
                     if k != "debug_sleep_ms"},
                )
                if status == 200:
                    retried = json.loads(body)
                    break
                assert status == 503, f"unexpected status {status}"
            assert retried is not None and retried["ok"]
            assert retried["remap"]["machine"] == "dunnington-less2"
            assert retried["stats"]["cores"] == retried["remap"]["cores"]
            fresh = ServiceClient(port=service.port).remap(
                source=STENCIL_SOURCE,
                machine="dunnington",
                event={"kind": "core_loss", "cores": [2]},
                no_cache=True,
            )
            assert fresh["mapping"] == retried["mapping"]
        finally:
            service.stop()


class TestRouterSigterm:
    @pytest.fixture
    def shard_daemon(self):
        proc, port = spawn_daemon("--workers", "2", "--debug")
        try:
            yield proc, port
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_sigterm_drains_workers_and_exits_zero(self, shard_daemon):
        proc, port = shard_daemon
        client = ServiceClient(port=port)
        client.wait_ready()
        assert client.stats()["mode"] == "shard"

        outcome = {}

        def slow_submit():
            outcome["response"] = client.submit(
                source=BANDED_SOURCE, machine="dunnington",
                no_cache=True, debug_sleep_ms=800,
            )

        caller = threading.Thread(target=slow_submit)
        caller.start()
        assert wait_until(
            lambda: client.stats()["router"]["inflight"] >= 1, timeout=10
        ), "slow request never became in-flight at the router"

        proc.send_signal(signal.SIGTERM)
        caller.join(timeout=30)
        assert proc.wait(timeout=30) == 0

        # The in-flight request was drained, not dropped.
        assert outcome["response"]["ok"]

        stdout, _stderr = proc.communicate(timeout=10)
        assert "draining" in stdout
        assert "worker w0 exited 0" in stdout
        assert "worker w1 exited 0" in stdout
        assert "stopped" in stdout

    def test_requests_during_drain_get_503(self, shard_daemon):
        proc, port = shard_daemon
        client = ServiceClient(port=port)
        client.wait_ready()

        outcome = {}

        def slow_submit():
            outcome["response"] = client.submit(
                source=STENCIL_SOURCE, machine="dunnington",
                no_cache=True, debug_sleep_ms=1000,
            )

        caller = threading.Thread(target=slow_submit)
        caller.start()
        assert wait_until(
            lambda: client.stats()["router"]["inflight"] >= 1, timeout=10
        )
        proc.send_signal(signal.SIGTERM)

        # While the drain holds the door for the slow request, new work
        # is refused with a clean 503.  The probe body is valid JSON but
        # an invalid request, so pre-drain iterations cost a fast 400
        # at the worker instead of a cold compute.
        late = ServiceClient(port=port)
        saw_refusal = False
        for _ in range(500):
            if proc.poll() is not None:
                break  # drain finished before we caught it refusing
            try:
                status, _headers, _body = late.request(
                    "POST", "/map", {"machine": "dunnington"}
                )
            except OSError:
                break  # router socket already closed: drain finished
            if status == 503:
                saw_refusal = True
                break
        caller.join(timeout=60)
        assert proc.wait(timeout=60) == 0
        assert outcome["response"]["ok"]
        assert saw_refusal or proc.poll() == 0
