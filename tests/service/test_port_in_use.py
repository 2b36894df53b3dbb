"""A busy port fails ``start`` in both modes and leaves nothing behind.

Both fronts share one listener that never sets ``SO_REUSEPORT``, and
``start`` binds before it forks a worker, starts a thread or installs
the process-global obs recorder.
"""

from __future__ import annotations

import multiprocessing
import socket

import pytest

from repro import obs

from tests.service.conftest import make_service
from tests.service.test_shard import make_shard


def shard_children() -> set[multiprocessing.Process]:
    return {
        child for child in multiprocessing.active_children()
        if child.name.startswith("repro-shard-")
    }


@pytest.fixture
def busy_port():
    """A port held by a plain listening socket."""
    holder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    holder.bind(("127.0.0.1", 0))
    holder.listen()
    try:
        yield holder.getsockname()[1]
    finally:
        holder.close()


def test_second_router_on_a_serving_port_fails():
    first = make_shard()
    first.start()
    try:
        before = shard_children()
        second = make_shard(port=first.port)
        try:
            with pytest.raises(OSError):
                second.start()
        finally:
            second.stop()
        assert shard_children() == before
    finally:
        first.stop()


def test_router_on_a_busy_port_forks_no_worker(busy_port):
    before = shard_children()
    shard = make_shard(port=busy_port)
    try:
        with pytest.raises(OSError):
            shard.start()
        assert shard_children() - before == set()
        assert all(handle.process is None for handle in shard.workers)
    finally:
        for child in shard_children() - before:
            child.kill()
            child.join(timeout=10)


def test_daemon_on_a_busy_port_installs_no_recorder(busy_port):
    enabled = obs.enabled()
    service = make_service(port=busy_port, collect_obs=True)
    try:
        with pytest.raises(OSError):
            service.start()
        assert obs.enabled() == enabled
    finally:
        if obs.enabled() and not enabled:
            obs.shutdown()
