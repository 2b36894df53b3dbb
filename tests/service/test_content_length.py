"""A malformed ``Content-Length`` is the client's fault: 400, never 500.

Both HTTP front ends — the single-process daemon and the shard router —
parse the header before reading the body.
"""

from __future__ import annotations

import http.client
import json

from tests.service.conftest import make_service
from tests.service.test_shard import make_shard


def post_with_length(port: int, length: str) -> tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.putrequest("POST", "/map")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", length)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def test_single_process_server_answers_400():
    service = make_service()
    service.start()
    try:
        status, body = post_with_length(service.port, "abc")
        assert status == 400
        assert "malformed Content-Length" in body["error"]
        counters = service.stats.snapshot()["counters"]
        assert counters.get("http.400") == 1
        assert "http.500" not in counters
    finally:
        service.stop()


def test_shard_router_answers_400():
    shard = make_shard()
    shard.start()
    try:
        status, body = post_with_length(shard.port, "abc")
        assert status == 400
        assert "malformed Content-Length" in body["error"]
        assert "http.500" not in shard.stats_payload()["router"]["counters"]
    finally:
        shard.stop()
