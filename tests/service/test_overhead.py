"""Overhead guard: the cache-hit path must stay cheap.

A byte-identical repeat does HTTP parse + body digest + LRU lookup at
the front — no JSON, no pipeline, no simulation.  This pins that overhead under a
fixed budget relative to a direct in-process
:func:`repro.experiments.harness.run_scheme` call (which maps *and*
simulates the same workload): the serving layer must never cost more
than half of the work it saves.  An absolute floor keeps the assertion
meaningful on machines fast enough to make the relative bound tiny.
"""

import time

from repro.experiments.harness import clear_cache, run_scheme, sim_machine
from repro.service import ServiceClient
from repro.topology.machines import dunnington

from tests.service.conftest import STENCIL_SOURCE, make_service

#: Cache hits must cost less than this fraction of a direct run_scheme.
RELATIVE_BUDGET = 0.5
#: ... or less than this many milliseconds, whichever is larger.
ABSOLUTE_FLOOR_MS = 75.0


def test_cache_hit_overhead_within_budget():
    clear_cache()
    machine = sim_machine(dunnington())
    started = time.perf_counter()
    run_scheme("h264", "ta", machine)
    direct_ms = (time.perf_counter() - started) * 1e3

    service = make_service(workers=1)
    service.start()
    try:
        client = ServiceClient(port=service.port)
        client.wait_ready()
        warm = client.submit(source=STENCIL_SOURCE, machine="dunnington", scale=32)
        assert warm["cache"] == "none"

        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            hit = client.submit(
                source=STENCIL_SOURCE, machine="dunnington", scale=32
            )
            samples.append((time.perf_counter() - t0) * 1e3)
            assert hit["cache"] == "front"
        hit_ms = min(samples)
    finally:
        service.stop()

    budget_ms = max(RELATIVE_BUDGET * direct_ms, ABSOLUTE_FLOOR_MS)
    assert hit_ms < budget_ms, (
        f"cache-hit round trip took {hit_ms:.1f}ms, budget {budget_ms:.1f}ms "
        f"(direct run_scheme: {direct_ms:.1f}ms)"
    )
