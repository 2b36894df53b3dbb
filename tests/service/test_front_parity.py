"""The single-process daemon and the shard router answer alike.

Both fronts run one HTTP stack, so every request the front itself
refuses — an unknown route, a bad ``Content-Length``, a body that is not
a JSON object — gets the same status and the same ``error`` text from
either, and counts once as ``http.<status>``.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.service.server import MAX_BODY_BYTES
from repro.service.shard import ShardService

from tests.service.conftest import make_service
from tests.service.test_shard import make_shard


def _json_error(raw: bytes) -> str:
    try:
        json.loads(raw)
    except ValueError as error:
        return str(error)
    raise AssertionError(f"{raw!r} is valid JSON")


OVER_LIMIT = MAX_BODY_BYTES + 1
NON_UTF8 = b'{"a": "\xff"}'

#: (id, method, path, body, Content-Length override, status, error text)
CASES = [
    ("get-unknown-route", "GET", "/nope", None, None, 404, "no route '/nope'"),
    ("post-unknown-route", "POST", "/nope", b"{}", None, 404,
     "no route '/nope'"),
    ("malformed-length", "POST", "/map", None, "abc", 400,
     "malformed Content-Length header"),
    ("zero-length", "POST", "/map", None, "0", 400, "empty request body"),
    ("over-limit-length", "POST", "/map", None, str(OVER_LIMIT), 400,
     f"request body of {OVER_LIMIT} bytes exceeds the {MAX_BODY_BYTES} "
     "byte limit"),
    ("malformed-json", "POST", "/map", b"{nope", None, 400,
     f"malformed JSON body: {_json_error(b'{nope')}"),
    ("non-utf8-body", "POST", "/map", NON_UTF8, None, 400,
     f"malformed JSON body: {_json_error(NON_UTF8)}"),
    ("list-body", "POST", "/map", b"[1, 2]", None, 400,
     "request body must be a JSON object"),
]


@pytest.fixture(scope="module", params=["daemon", "shard"])
def front(request):
    service = make_service() if request.param == "daemon" else make_shard()
    service.start()
    try:
        yield service
    finally:
        service.stop()


def exchange(port, method, path, body, length):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.putrequest(method, path)
        if method == "POST":
            connection.putheader("Content-Type", "application/json")
            connection.putheader(
                "Content-Length", length if length is not None else str(len(body))
            )
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def http_counters(front) -> dict[str, int]:
    stats = front.stats_payload()
    counters = stats["router"]["counters"] if "router" in stats else stats["counters"]
    return {name: value for name, value in counters.items() if name.startswith("http.")}


@pytest.mark.parametrize(
    "method, path, body, length, status, error",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_refusals_match(front, method, path, body, length, status, error):
    before = http_counters(front)
    got_status, got_body = exchange(front.port, method, path, body, length)
    assert (got_status, got_body) == (status, {"ok": False, "error": error})
    after = http_counters(front)
    delta = {
        name: after.get(name, 0) - before.get(name, 0)
        for name in set(before) | set(after)
        if after.get(name, 0) != before.get(name, 0)
    }
    assert delta == {f"http.{status}": 1}


def test_version_keys(front):
    status, body = exchange(front.port, "GET", "/version", None, None)
    assert status == 200
    expected = {"version", "plan_format", "program_format"}
    if isinstance(front, ShardService):
        assert body["mode"] == "shard"
        expected.add("mode")
    assert set(body) == expected
