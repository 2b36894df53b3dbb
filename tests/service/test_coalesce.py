"""Request coalescing: a hot cold key costs exactly one compute.

M concurrent identical requests race through ``handle_map``; the
check-and-register against the in-flight table is atomic, so exactly one
becomes the leader and runs the pipeline while every other request
either waits on the leader's job (``cache: "coalesced"``) or — if it
arrives after the leader published — hits the content LRU (``cache:
"memory"``) or, after the leader's answer was sent, replays it at the
front (``cache: "front"``, the leader's ``request_id`` included).
Either way the pipeline runs once, which the obs counter bridge and the
service's own counters both pin down deterministically: the assertion
holds for *every* interleaving, not just the one a sleep happens to
produce.
"""

from __future__ import annotations

import threading

from repro.service import ServiceClient

from tests.service.conftest import STENCIL_SOURCE, make_service


def _fire_concurrently(port, count, **submit_kwargs):
    """``count`` identical submissions, all released together."""
    results = [None] * count
    errors = []
    barrier = threading.Barrier(count)

    def shoot(index):
        client = ServiceClient(port=port)
        barrier.wait(timeout=30)
        try:
            results[index] = client.submit(**submit_kwargs)
        except Exception as error:  # noqa: BLE001 - collected for the assert
            errors.append(error)

    threads = [
        threading.Thread(target=shoot, args=(index,)) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return results, errors


class TestCoalescing:
    def test_m_identical_cold_requests_one_compute(self):
        m = 6
        service = make_service(collect_obs=True, workers=2, queue_size=16)
        service.start()
        try:
            ServiceClient(port=service.port).wait_ready()
            results, errors = _fire_concurrently(
                service.port, m,
                source=STENCIL_SOURCE, machine="dunnington",
                debug_sleep_ms=250,
            )
            assert not errors
            assert all(response["ok"] for response in results)

            # Exactly one pipeline run, however the M requests interleaved.
            counters = service.stats.snapshot()["counters"]
            assert counters["pipeline_runs"] == 1
            # ...and via the obs counter bridge, as /metrics exposes it.
            metrics = ServiceClient(port=service.port).metrics()
            assert 'repro_obs_counter{name="service.pipeline.runs"} 1' in metrics

            # The other M-1 either coalesced onto the in-flight job or hit
            # a cache the leader had just published to.
            followers = sum(
                counters.get(name, 0)
                for name in ("coalesced", "cache.memory", "front_cache.hits")
            )
            assert followers == m - 1
            # With a 250ms leader and simultaneous release, waiters did
            # actually coalesce (not merely serialize through the LRU).
            assert counters.get("coalesced", 0) >= 1

            # All M responses carry the identical mapping payload.
            reference = results[0]
            for response in results[1:]:
                assert response["mapping"] == reference["mapping"]
                assert response["scheme"] == reference["scheme"]
                assert response["stats"]["per_core_iterations"] == (
                    reference["stats"]["per_core_iterations"]
                )
                assert response["cache"] in ("coalesced", "memory", "front", "none")
        finally:
            service.stop()

    def test_coalesced_responses_have_own_request_ids(self):
        service = make_service(workers=2)
        service.start()
        try:
            ServiceClient(port=service.port).wait_ready()
            results, errors = _fire_concurrently(
                service.port, 4,
                source=STENCIL_SOURCE, machine="dunnington",
                debug_sleep_ms=200,
            )
            assert not errors
            # A front replay repeats the stored answer's request_id; every
            # answer that was not replayed carries its own.
            fresh = [r for r in results if r["cache"] != "front"]
            ids = {response["request_id"] for response in fresh}
            assert len(ids) == len(fresh), (
                "coalesced followers must keep their own ids"
            )
        finally:
            service.stop()

    def test_no_cache_requests_are_never_coalesced(self):
        """Bypass requests demand fresh computes: two in, two runs."""
        service = make_service(workers=2)
        service.start()
        try:
            ServiceClient(port=service.port).wait_ready()
            results, errors = _fire_concurrently(
                service.port, 2,
                source=STENCIL_SOURCE, machine="dunnington",
                no_cache=True, debug_sleep_ms=150,
            )
            assert not errors
            assert all(response["cache"] == "bypass" for response in results)
            counters = service.stats.snapshot()["counters"]
            assert counters["pipeline_runs"] == 2
            assert counters.get("coalesced", 0) == 0
        finally:
            service.stop()

    def test_distinct_keys_do_not_coalesce(self):
        """Different knobs are different keys; both compute."""
        service = make_service(workers=2)
        service.start()
        try:
            client = ServiceClient(port=service.port)
            client.wait_ready()
            first = client.submit(
                source=STENCIL_SOURCE, machine="dunnington",
                knobs={"alpha": 0.25},
            )
            second = client.submit(
                source=STENCIL_SOURCE, machine="dunnington",
                knobs={"alpha": 0.75},
            )
            assert first["ok"] and second["ok"]
            counters = service.stats.snapshot()["counters"]
            assert counters["pipeline_runs"] == 2
            assert counters.get("coalesced", 0) == 0
        finally:
            service.stop()
