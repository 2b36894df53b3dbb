"""The single-process daemon and the shard router answer alike.

Both fronts run one HTTP stack, so every request the front itself
refuses — an unknown route, a bad ``Content-Length``, a body that is not
a JSON object — gets the same status and the same ``error`` text from
either, and counts once as ``http.<status>``.  A refusal sent before the
body is read closes the connection, so the unread body cannot prefix the
next request on a kept-alive socket.

Both fronts keep one reply cache: a byte-identical repeat of a cacheable
``/map`` replays the stored answer (``cache`` is the front's
``reply_cache``), while ``no_cache`` and degraded answers, and every
``/remap``, run again.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.cli import main
from repro.service.server import MAX_BODY_BYTES
from repro.service.shard import ShardService

from tests.service.conftest import BANDED_SOURCE, STENCIL_SOURCE, make_service
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


#: Refusals answered before the body is read: (id, path, Content-Length).
UNREAD_BODY = [
    ("unknown-route", "/nope", "8"),
    ("malformed-length", "/map", "abc"),
    ("over-limit-length", "/map", str(OVER_LIMIT)),
]


def read_response(stream) -> tuple[int, dict[str, str]]:
    """Status and headers of one HTTP/1.1 response (body skipped)."""
    status_line = stream.readline()
    headers = {}
    for line in iter(stream.readline, b"\r\n"):
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    stream.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers


@pytest.mark.parametrize(
    "path, length", [case[1:] for case in UNREAD_BODY], ids=[case[0] for case in UNREAD_BODY]
)
def test_unread_body_does_not_reach_next_request(front, path, length):
    with socket.create_connection(("127.0.0.1", front.port), timeout=30) as sock:
        stream = sock.makefile("rb")
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n12345678".encode()
        )
        status, headers = read_response(stream)
        assert status in (400, 404)
        if headers.get("connection", "").lower() == "close":
            try:
                assert stream.read() == b""
            except ConnectionResetError:
                pass  # closed with the unread body still queued
            return
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        assert read_response(stream)[0] == 200


def counter(front, name: str) -> int:
    """A counter of the front, plus its workers' on the shard."""
    stats = front.stats_payload()
    if "router" not in stats:
        return stats["counters"].get(name, 0)
    return stats["router"]["counters"].get(name, 0) + stats["counters"].get(name, 0)


def post_twice(front, path: str, body: dict, between=lambda: None) -> list[dict]:
    """The same body bytes sent twice, calling ``between`` in between;
    both answers must be 200s."""
    data = json.dumps(body).encode()
    answers = []
    for send in range(2):
        if send:
            between()
        status, answer = exchange(front.port, "POST", path, data, None)
        assert status == 200, answer
        answers.append(answer)
    return answers


def test_byte_identical_map_repeat_is_replayed(front):
    hits = f"{front.reply_cache}_cache.hits"
    seen = {}

    def count():
        seen.update(runs=counter(front, "pipeline_runs"), hits=counter(front, hits))

    first, second = post_twice(
        front, "/map",
        {"source": BANDED_SOURCE, "machine": "dunnington", "knobs": {"alpha": 0.3}},
        between=count,
    )
    assert first["cache"] == "none"
    assert second["cache"] == front.reply_cache
    # A replay is the stored answer: same plan, id and timings.
    for field in ("mapping", "request_id", "elapsed_ms", "queue_wait_ms"):
        assert second[field] == first[field]
    assert counter(front, "pipeline_runs") == seen["runs"]
    assert counter(front, hits) == seen["hits"] + 1


@pytest.mark.parametrize(
    "extra, cache", [({"no_cache": True}, "bypass"), ({"deadline_ms": 0}, "none")],
    ids=["no-cache", "degraded"],
)
def test_uncacheable_map_answers_are_never_replayed(front, extra, cache):
    hits = f"{front.reply_cache}_cache.hits"
    before = counter(front, hits)
    answers = post_twice(
        front, "/map",
        {"source": STENCIL_SOURCE, "machine": "nehalem", "scale": 32, **extra},
    )
    assert [answer["cache"] for answer in answers] == [cache, cache]
    if "deadline_ms" in extra:
        assert all(answer["degraded"] for answer in answers)
    assert counter(front, hits) == before


def test_identical_remaps_both_run(front):
    before = counter(front, "remap_runs")
    answers = post_twice(
        front, "/remap",
        {"source": BANDED_SOURCE, "machine": "dunnington",
         "event": {"kind": "phase_change", "knobs": {"alpha": 0.6}}},
    )
    assert [answer["cache"] for answer in answers] == ["none", "none"]
    assert answers[0]["request_id"] != answers[1]["request_id"]
    assert counter(front, "remap_runs") == before + 2


def test_submit_marks_replays_as_cache_hits(front, tmp_path, capsys):
    source = tmp_path / "banded.loop"
    source.write_text(BANDED_SOURCE)
    argv = ["submit", str(source), "--port", str(front.port),
            "--machine", "dunnington", "--alpha", "0.35"]
    assert main(argv) == 0
    assert "cache hit" not in capsys.readouterr().out
    assert main(argv) == 0
    assert f"[cache hit ({front.reply_cache})]" in capsys.readouterr().out
