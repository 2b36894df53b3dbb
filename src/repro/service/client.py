"""Client API for the mapping service (``repro submit`` is a thin shim).

:class:`ServiceClient` speaks the protocol of :mod:`repro.service.server`
over plain :mod:`http.client` connections — one connection per call, no
pooling, no dependencies.  Transport-level refusals surface as the same
:class:`~repro.service.protocol.ServiceError` subclasses the server
raised (``429`` -> :class:`Overloaded` with its ``Retry-After``, ``503``
-> :class:`Unavailable`, ``400`` -> :class:`BadRequest`), so callers can
implement retry policies against exception types instead of status
codes::

    client = ServiceClient(port=8321)
    try:
        response = client.submit(source=text, machine="dunnington")
    except Overloaded as backoff:
        time.sleep(backoff.retry_after)
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any

from repro.ir.loops import Program
from repro.runtime.serialize import program_to_dict
from repro.service.protocol import (
    BadRequest,
    Overloaded,
    ServiceError,
    Unavailable,
)


class ServiceClient:
    """Blocking client for one service endpoint."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8321, timeout: float = 60.0
    ):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport -------------------------------------------------------
    def request(
        self, method: str, path: str, body: dict | bytes | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        """One HTTP exchange; returns (status, lowercased headers, body).

        A ``dict`` body is JSON-encoded; ``bytes`` are sent unchanged
        (the shard router forwards raw request bodies this way).
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = body if isinstance(body, bytes) else json.dumps(body).encode()
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
            header_map = {
                name.lower(): value for name, value in response.getheaders()
            }
            return response.status, header_map, data
        finally:
            connection.close()

    def _json(self, method: str, path: str, body: dict | None = None) -> dict:
        status, headers, data = self.request(method, path, body)
        try:
            decoded = json.loads(data) if data else {}
        except json.JSONDecodeError:
            decoded = {"error": data.decode(errors="replace")}
        if status == 200:
            return decoded
        message = decoded.get("error", f"HTTP {status}")
        if status == 429:
            raise Overloaded(message, retry_after=int(headers.get("retry-after", 1)))
        if status == 503:
            raise Unavailable(message)
        if status == 400:
            raise BadRequest(message)
        error = ServiceError(message)
        error.status = status
        raise error

    # -- verbs -----------------------------------------------------------
    def submit(
        self,
        source: str | None = None,
        program: Program | dict | None = None,
        machine: str | None = None,
        topology: str | None = None,
        nest: int | str = 0,
        scale: float = 1.0,
        knobs: dict[str, Any] | None = None,
        deadline_ms: float | None = None,
        no_cache: bool = False,
        debug_sleep_ms: float | None = None,
        name: str | None = None,
    ) -> dict:
        """Submit one mapping request; returns the decoded response body.

        ``program`` accepts a live :class:`~repro.ir.loops.Program` (it
        is serialized on the way out) or an already-serialized dict.
        """
        body: dict[str, Any] = {"nest": nest}
        if source is not None:
            body["source"] = source
        if program is not None:
            body["program"] = (
                program_to_dict(program)
                if isinstance(program, Program)
                else program
            )
        if machine is not None:
            body["machine"] = machine
        if topology is not None:
            body["topology"] = topology
        if scale != 1.0:
            body["scale"] = scale
        if knobs:
            body["knobs"] = knobs
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        if no_cache:
            body["no_cache"] = True
        if debug_sleep_ms is not None:
            body["debug_sleep_ms"] = debug_sleep_ms
        if name is not None:
            body["name"] = name
        return self._json("POST", "/map", body)

    def remap(
        self,
        event: dict,
        source: str | None = None,
        program: Program | dict | None = None,
        machine: str | None = None,
        topology: str | None = None,
        nest: int | str = 0,
        scale: float = 1.0,
        knobs: dict[str, Any] | None = None,
        dead_cores: list[int] | None = None,
        deadline_ms: float | None = None,
        no_cache: bool = False,
        debug_sleep_ms: float | None = None,
        name: str | None = None,
    ) -> dict:
        """Submit one incremental remap (``POST /remap``).

        The base fields describe the state the caller was mapped under
        (base machine, knobs, plus ``dead_cores`` already offline);
        ``event`` is the transition — see
        :func:`repro.service.protocol.parse_remap_request`.  The
        response carries the post-event plan and a ``"remap"`` stanza
        with the replayed/recomputed stage accounting and the post
        state as ``post``, whose fields are this method's
        ``machine``/``topology``, ``scale``, ``dead_cores`` and
        ``knobs``.
        """
        body: dict[str, Any] = {"nest": nest, "event": event}
        if source is not None:
            body["source"] = source
        if program is not None:
            body["program"] = (
                program_to_dict(program)
                if isinstance(program, Program)
                else program
            )
        if machine is not None:
            body["machine"] = machine
        if topology is not None:
            body["topology"] = topology
        if scale != 1.0:
            body["scale"] = scale
        if knobs:
            body["knobs"] = knobs
        if dead_cores:
            body["dead_cores"] = list(dead_cores)
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        if no_cache:
            body["no_cache"] = True
        if debug_sleep_ms is not None:
            body["debug_sleep_ms"] = debug_sleep_ms
        if name is not None:
            body["name"] = name
        return self._json("POST", "/remap", body)

    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def stats(self) -> dict:
        return self._json("GET", "/stats")

    def version(self) -> dict:
        return self._json("GET", "/version")

    def metrics(self) -> str:
        status, _headers, data = self.request("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"/metrics answered HTTP {status}")
        return data.decode()

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> None:
        """Poll ``/healthz`` until the service answers (or raise)."""
        deadline = time.monotonic() + timeout
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            try:
                self.health()
                return
            except (OSError, socket.timeout, ServiceError) as error:
                last_error = error
                time.sleep(interval)
        raise Unavailable(
            f"service at {self.host}:{self.port} not ready within "
            f"{timeout:.1f}s: {last_error}"
        )
