"""Sharded multi-process serving: a front router over N forked workers.

``repro serve --workers N`` (N >= 2) runs this topology::

                        +--------------------------+
     clients ---------> |  ShardService (router)   |
                        |  - consistent-hash ring  |
                        |  - hot-key response cache|
                        |  - health check/restart  |
                        |  - stats aggregation     |
                        +-----+--------+-----------+
                              |        |     ... SIGTERM fan-out on drain
                        HTTP proxy   HTTP proxy
                              |        |
                    +---------v--+  +--v---------+
                    | worker w0  |  | worker w1  |   forked processes,
                    | Mapping-   |  | Mapping-   |   each a full single-
                    | Service    |  | Service    |   process MappingService
                    +-----+------+  +------+-----+   on an internal port
                          |                |
                          +-------+--------+
                                  v
                  shared cache directory (plans- and mappings-
                  files, repro.util.store merge-on-write)

Routing is by **program digest**: the router hashes each request's
program (its ``source`` text or serialized ``program`` object) onto a
consistent-hash ring of worker slots, so one program's requests always
land on the same worker — that worker's stage-artifact store and mapping
LRU stay hot, and concurrent identical requests meet in one process
where the coalescing table merges them into one compute.  Each worker is
a *forked* child running the ordinary :class:`MappingService` on an
ephemeral loopback port (the "socket-passing" variant: ports travel back
to the router over a pipe; kernel-level ``SO_REUSEPORT`` sharding is
deliberately not used for request traffic because it would scatter a
program's requests across workers and defeat both affinity and
coalescing — where available it is set on the router's listening socket
so a replacement router can bind during handover).

The router keeps a small LRU of **verbatim response bytes** keyed by the
sha256 of the raw request body: byte-identical repeats of a cacheable
request (no ``no_cache``, previous answer ``ok`` and not degraded) are
answered without touching a worker — the hot-key fast path that lets a
shard beat the single process even on warm-dominated traffic.

Failure model: if a worker dies mid-request (e.g. SIGKILL), the proxy's
connection breaks, the in-flight request answers a clean ``503`` with
``Retry-After``, and the router restarts the slot immediately; the
health thread additionally sweeps for silently dead workers every
``health_interval_s``.  Restarts keep the slot name, so the ring — and
therefore every other key's placement — is untouched.  On SIGTERM the
router stops admitting, waits for in-flight proxies, SIGTERMs every
worker (each drains its own queue and exits 0), reaps them, optionally
compacts the shared plan tier (single-writer: the router, after the
workers are gone), and exits 0.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import multiprocessing
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import repro
from repro.service.hashring import HashRing
from repro.service.server import (
    HARD_TIMEOUT_S,
    MAX_BODY_BYTES,
    MappingService,
    ServiceConfig,
    _LatencyWindow,
)
from repro.util.store import LRU

__all__ = ["ShardConfig", "ShardService", "shard_key"]

#: Per-proxied-request timeout: it must exceed the worker's own hard
#: timeout so the worker's timeout answer, not a broken proxy, reaches
#: the client.
PROXY_TIMEOUT_S = HARD_TIMEOUT_S + 10.0

#: Drain-time compaction caps the shared plan tier at this many entries.
COMPACT_MAX_PLANS = 4096


def shard_key(payload: dict) -> str:
    """The routing digest of one request: a digest of its program.

    ``source`` requests hash the source text; ``program`` requests hash
    the canonical JSON of the serialized program.  The digest only needs
    to be deterministic and program-identifying — workers still compute
    the canonical content key themselves.
    """
    source = payload.get("source")
    if isinstance(source, str):
        raw = "s:" + source
    else:
        raw = "p:" + json.dumps(
            payload.get("program"), sort_keys=True, separators=(",", ":"),
            default=str,
        )
    return hashlib.sha256(raw.encode()).hexdigest()


@dataclass
class ShardConfig:
    """Tunables for one sharded service (router + workers)."""

    host: str = "127.0.0.1"
    port: int = 8321
    workers: int = 2
    threads: int = 2
    queue_size: int = 64
    lru_capacity: int = 512
    cache_dir: str | None = None
    persistent: bool = False
    default_deadline_ms: float | None = None
    drain_timeout_s: float = 30.0
    debug: bool = False
    quiet: bool = True
    #: Router-level verbatim-response LRU; 0 disables it.
    router_cache_capacity: int = 1024
    #: Dead-worker sweep period for the health thread.
    health_interval_s: float = 0.25


def _worker_main(config: ServiceConfig, slot: str, conn) -> None:
    """Entry point of one forked worker process.

    Runs a plain single-process :class:`MappingService` on an ephemeral
    loopback port, reports the bound port back through ``conn``, then
    waits for SIGTERM and drains.  SIGINT is ignored — an interactive
    Ctrl-C reaches the whole process group, and the router owns the
    shutdown sequence.
    """
    stop = threading.Event()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, lambda _signum, _frame: stop.set())
    service = MappingService(config)
    try:
        service.start()
    except BaseException as error:  # noqa: BLE001 - report, then die
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        finally:
            conn.close()
        raise
    conn.send(("port", service.port))
    conn.close()
    stop.wait()
    service.stop()


class _WorkerDown(Exception):
    """A proxied request could not be completed against its worker."""


class WorkerHandle:
    """One worker slot: a stable ring identity over restartable processes."""

    def __init__(self, slot: str):
        self.slot = slot
        self.process: multiprocessing.Process | None = None
        self.port: int | None = None
        self.restarts = 0
        self.started_at: float | None = None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def describe(self) -> dict:
        return {
            "slot": self.slot,
            "pid": self.pid,
            "port": self.port,
            "alive": self.alive(),
            "restarts": self.restarts,
        }


class ShardService:
    """The front router and its pool of worker processes."""

    def __init__(self, config: ShardConfig | None = None, **overrides):
        if config is None:
            config = ShardConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a ShardConfig or keyword overrides")
        if config.workers < 1:
            raise ValueError(f"workers must be >= 1, got {config.workers}")
        self.config = config
        self.ring = HashRing([f"w{i}" for i in range(config.workers)])
        self.workers: list[WorkerHandle] = [
            WorkerHandle(f"w{i}") for i in range(config.workers)
        ]
        self._by_slot = {handle.slot: handle for handle in self.workers}
        self._cache = (
            LRU(config.router_cache_capacity)
            if config.router_cache_capacity > 0
            else None
        )
        self.latency = _LatencyWindow()
        self.counters: dict[str, int] = {}
        self._counters_lock = threading.Lock()
        self.draining = False
        self.started_at: float | None = None
        self._httpd: ThreadingHTTPServer | None = None
        self._serve_thread: threading.Thread | None = None
        self._health_thread: threading.Thread | None = None
        self._stop_health = threading.Event()
        self._stop_requested = threading.Event()
        self._spawn_lock = threading.Lock()
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self._mp = multiprocessing.get_context(
            "fork" if sys.platform.startswith("linux") else "spawn"
        )
        self._worker_exits: dict[str, int | None] = {}

    # -- small helpers ---------------------------------------------------
    def bump(self, name: str, n: int = 1) -> None:
        with self._counters_lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def _worker_config(self) -> ServiceConfig:
        c = self.config
        return ServiceConfig(
            host="127.0.0.1",
            port=0,
            queue_size=c.queue_size,
            workers=c.threads,
            lru_capacity=c.lru_capacity,
            cache_dir=c.cache_dir,
            persistent=c.persistent,
            default_deadline_ms=c.default_deadline_ms,
            drain_timeout_s=c.drain_timeout_s,
            debug=c.debug,
            collect_obs=True,
            quiet=True,
        )

    # -- worker lifecycle ------------------------------------------------
    def _spawn_into(self, handle: WorkerHandle) -> None:
        """Start (or restart) the process behind one slot."""
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_worker_main,
            args=(self._worker_config(), handle.slot, child_conn),
            name=f"repro-shard-{handle.slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        try:
            if not parent_conn.poll(30.0):
                raise RuntimeError(f"worker {handle.slot} never reported a port")
            kind, value = parent_conn.recv()
        except (EOFError, OSError) as error:
            process.kill()
            raise RuntimeError(
                f"worker {handle.slot} died during startup"
            ) from error
        finally:
            parent_conn.close()
        if kind != "port":
            process.join(timeout=5.0)
            raise RuntimeError(f"worker {handle.slot} failed to start: {value}")
        handle.process = process
        handle.port = value
        handle.started_at = time.time()

    def _restart(self, handle: WorkerHandle) -> bool:
        """Restart a dead slot (serialized; no-op while draining/alive)."""
        with self._spawn_lock:
            if self.draining or handle.alive():
                return handle.alive()
            if handle.process is not None:
                handle.process.join(timeout=1.0)
            handle.restarts += 1
            self.bump("worker_restarts")
            try:
                self._spawn_into(handle)
            except RuntimeError:
                self.bump("worker_restart_failures")
                return False
            if not self.config.quiet:
                print(
                    f"repro shard: restarted worker {handle.slot} "
                    f"(pid {handle.pid}, port {handle.port})",
                    flush=True,
                )
            return True

    def _health_loop(self) -> None:
        while not self._stop_health.wait(self.config.health_interval_s):
            for handle in self.workers:
                if not handle.alive() and not self.draining:
                    self._restart(handle)

    # -- lifecycle -------------------------------------------------------
    @property
    def port(self) -> int:
        if self._httpd is None:
            return self.config.port
        return self._httpd.server_address[1]

    def start(self) -> "ShardService":
        if self._httpd is not None:
            raise RuntimeError("shard service already started")
        for handle in self.workers:
            self._spawn_into(handle)
        handler = _make_router_handler(self)
        server = _RouterHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._httpd = server
        self.started_at = time.time()
        self._serve_thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-shard-accept",
        )
        self._serve_thread.start()
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-shard-health"
        )
        self._health_thread.start()
        return self

    def stop(self) -> None:
        """Drain-then-exit: router first refuses, then the workers drain."""
        if self._httpd is None:
            return
        self.draining = True
        self._stop_health.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
            self._health_thread = None
        # Let in-flight proxied requests finish before tearing workers down.
        deadline = time.monotonic() + self.config.drain_timeout_s
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._inflight_cv.wait(timeout=remaining)
        for handle in self.workers:
            if handle.alive():
                handle.process.terminate()  # SIGTERM: the worker drains
        for handle in self.workers:
            if handle.process is None:
                continue
            handle.process.join(timeout=self.config.drain_timeout_s)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=5.0)
            self._worker_exits[handle.slot] = handle.process.exitcode
        if self.config.persistent:
            self._compact_plan_tier()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=self.config.drain_timeout_s)
            self._serve_thread = None
        self._httpd = None

    def _compact_plan_tier(self) -> None:
        """Single-writer compaction, run once the workers are gone."""
        from repro.pipeline.persist import PlanStore

        try:
            summary = PlanStore(self.config.cache_dir).compact(
                max_entries=COMPACT_MAX_PLANS
            )
        except OSError:
            return
        if summary is not None:
            self.bump("plan_compactions")

    def serve(self) -> int:
        """Blocking entry point with SIGINT/SIGTERM drain-then-exit."""
        self.start()

        def _request_stop(signum, _frame):
            self.bump(f"signal.{signal.Signals(signum).name}")
            self._stop_requested.set()

        previous = {
            sig: signal.signal(sig, _request_stop)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
        print(
            f"repro service listening on http://{self.config.host}:{self.port} "
            f"(shard: workers={self.config.workers}, "
            f"threads={self.config.threads}, queue={self.config.queue_size}, "
            f"router-cache={self.config.router_cache_capacity})",
            flush=True,
        )
        try:
            # Timed wait so pending signals caught on handler threads get
            # processed: the Python-level handler only runs on the main
            # thread, and only when it re-enters the eval loop.  A bare
            # .wait() parks the main thread in an uninterruptible
            # semaphore and the router ignores SIGTERM under load.
            while not self._stop_requested.wait(timeout=0.2):
                pass
        finally:
            print("repro service draining...", flush=True)
            self.stop()
            for sig, old in previous.items():
                signal.signal(sig, old)
            for slot in sorted(self._worker_exits):
                print(
                    f"repro shard: worker {slot} exited "
                    f"{self._worker_exits[slot]}",
                    flush=True,
                )
            print("repro service stopped.", flush=True)
        return 0

    # -- proxying --------------------------------------------------------
    def _proxy(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        body: bytes | None = None,
        timeout: float | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One HTTP exchange with a worker; raises :class:`_WorkerDown`."""
        if handle.port is None:
            raise _WorkerDown(f"worker {handle.slot} has no port")
        connection = http.client.HTTPConnection(
            "127.0.0.1", handle.port,
            timeout=timeout or PROXY_TIMEOUT_S,
        )
        try:
            headers = {}
            if body is not None:
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            data = response.read()
            header_map = {
                name.lower(): value for name, value in response.getheaders()
            }
            return response.status, header_map, data
        except (OSError, http.client.HTTPException) as error:
            raise _WorkerDown(
                f"worker {handle.slot} (pid {handle.pid}): "
                f"{type(error).__name__}: {error}"
            ) from error
        finally:
            connection.close()

    def handle_map(
        self, raw: bytes, path: str = "/map"
    ) -> tuple[int, dict[str, str], bytes]:
        """Route one ``POST /map`` or ``POST /remap`` body.

        Both verbs route by the same program digest, so a ``/remap``
        lands on the worker whose artifact store is warm from that
        program's earlier ``/map`` traffic — that warmth is exactly what
        makes the remap incremental.  Returns (status, headers, body).
        """
        started = time.monotonic()
        self.bump("requests")
        if path == "/remap":
            self.bump("remap_requests")
        if self._cache is not None:
            # The digest is namespaced by path: a /map and a /remap with
            # identical bodies must never serve each other's responses.
            digest = hashlib.sha256(path.encode() + b"\0" + raw).hexdigest()
            hit = self._cache.get(digest)
            if hit is not None:
                self.bump("router_cache.hits")
                self.latency.add((time.monotonic() - started) * 1e3)
                return 200, {}, hit
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
        except ValueError as error:
            self.bump("http.400")
            return 400, {}, _error_body(f"malformed JSON body: {error}")
        if self.draining:
            self.bump("http.503")
            return 503, {"Retry-After": "1"}, _error_body("service is draining")
        no_cache = payload.get("no_cache") is True
        slot = self.ring.node_for(shard_key(payload))
        handle = self._by_slot[slot]
        if not handle.alive():
            # Found dead before the request was sent: restarting and
            # forwarding is safe (nothing was executed yet).
            self.bump("worker_dead_on_arrival")
            if not self._restart(handle):
                self.bump("http.503")
                return 503, {"Retry-After": "1"}, _error_body(
                    f"worker {slot} is down and could not be restarted"
                )
        try:
            status, headers, data = self._proxy(handle, "POST", path, raw)
        except _WorkerDown as error:
            # Mid-request failure: the compute may or may not have run,
            # so never retry silently — answer a clean 503 and restart
            # the slot for the next request.
            self.bump("worker_failures")
            self.bump("http.503")
            threading.Thread(
                target=self._restart, args=(handle,), daemon=True
            ).start()
            return 503, {"Retry-After": "1"}, _error_body(
                f"shard worker failed mid-request ({error}); retry"
            )
        self.bump(f"http.{status}")
        out_headers = {}
        if "retry-after" in headers:
            out_headers["Retry-After"] = headers["retry-after"]
        if status == 200:
            data = self._annotate(slot, no_cache, digest_raw=raw, data=data, path=path)
        self.latency.add((time.monotonic() - started) * 1e3)
        return status, out_headers, data

    def _annotate(
        self,
        slot: str,
        no_cache: bool,
        digest_raw: bytes,
        data: bytes,
        path: str = "/map",
    ) -> bytes:
        """Tag a 200 response with its worker; cache it when cacheable."""
        try:
            parsed = json.loads(data)
        except ValueError:
            return data
        parsed["worker"] = slot
        cacheable = (
            self._cache is not None
            and not no_cache
            and parsed.get("ok") is True
            and not parsed.get("degraded")
        )
        if cacheable:
            # Stored verbatim: a router-cache hit replays these bytes
            # (with ``cache`` rewritten) without any JSON work.
            replay = dict(parsed)
            replay["cache"] = "router"
            self._cache.put(
                hashlib.sha256(path.encode() + b"\0" + digest_raw).hexdigest(),
                json.dumps(replay).encode(),
            )
        return json.dumps(parsed).encode()

    def track_inflight(self, delta: int) -> None:
        with self._inflight_cv:
            self._inflight += delta
            if self._inflight == 0:
                self._inflight_cv.notify_all()

    # -- introspection ---------------------------------------------------
    def _worker_stats(self, handle: WorkerHandle) -> dict:
        info = handle.describe()
        if not handle.alive():
            info["reachable"] = False
            return info
        try:
            status, _headers, data = self._proxy(
                handle, "GET", "/stats", timeout=5.0
            )
            info["reachable"] = status == 200
            if status == 200:
                info["stats"] = json.loads(data)
        except (_WorkerDown, ValueError):
            info["reachable"] = False
        return info

    def stats_payload(self) -> dict:
        workers = [self._worker_stats(handle) for handle in self.workers]
        totals: dict[str, int] = {}
        queue = {"depth": 0, "in_flight": 0, "submitted": 0, "rejected": 0}
        for info in workers:
            stats = info.get("stats")
            if not stats:
                continue
            for name, value in stats.get("counters", {}).items():
                totals[name] = totals.get(name, 0) + value
            for field_ in queue:
                queue[field_] += stats.get("queue", {}).get(field_, 0)
        with self._counters_lock:
            router_counters = dict(self.counters)
        return {
            "mode": "shard",
            "version": repro.__version__,
            "uptime_s": round(time.time() - self.started_at, 3)
            if self.started_at
            else 0.0,
            "draining": self.draining,
            "router": {
                "counters": router_counters,
                "latency": self.latency.summary(),
                "cache": self._cache.stats() if self._cache else None,
                "ring": {
                    "nodes": self.ring.nodes,
                    "replicas": self.ring.replicas,
                },
                "inflight": self._inflight,
            },
            "counters": totals,
            "queue": queue,
            "workers": workers,
        }

    def metrics_text(self) -> str:
        stats = self.stats_payload()
        lines = [
            "# TYPE repro_service_uptime_seconds gauge",
            f"repro_service_uptime_seconds {stats['uptime_s']}",
            f"repro_service_draining {int(stats['draining'])}",
            f"repro_shard_workers {len(self.workers)}",
            f"repro_shard_workers_alive "
            f"{sum(1 for h in self.workers if h.alive())}",
            f"repro_service_queue_depth {stats['queue']['depth']}",
            f"repro_service_queue_in_flight {stats['queue']['in_flight']}",
            f"repro_service_queue_rejected_total {stats['queue']['rejected']}",
        ]
        for name, value in sorted(stats["router"]["counters"].items()):
            metric = name.replace(".", "_").replace("-", "_")
            lines.append(f"repro_router_{metric}_total {value}")
        cache = stats["router"]["cache"]
        if cache is not None:
            lines.append(f"repro_router_cache_hits_total {cache['hits']}")
            lines.append(f"repro_router_cache_misses_total {cache['misses']}")
            lines.append(f"repro_router_cache_entries {cache['entries']}")
        for name, value in sorted(stats["counters"].items()):
            metric = name.replace(".", "_").replace("-", "_")
            lines.append(f"repro_service_{metric}_total {value}")
        for handle in self.workers:
            lines.append(
                f'repro_shard_worker_restarts_total{{slot="{handle.slot}"}} '
                f"{handle.restarts}"
            )
        latency = stats["router"]["latency"]
        for key in ("p50_ms", "p95_ms", "max_ms"):
            if key in latency:
                lines.append(
                    f"repro_router_latency_{key.replace('_ms', '')}_ms "
                    f"{latency[key]}"
                )
        return "\n".join(lines) + "\n"

    def health_payload(self) -> dict:
        alive = sum(1 for handle in self.workers if handle.alive())
        status = "draining" if self.draining else "ok"
        return {
            "status": status,
            "workers": {"alive": alive, "total": len(self.workers)},
        }


class _RouterHTTPServer(ThreadingHTTPServer):
    """The router's listener; SO_REUSEPORT where the platform has it.

    ``request_queue_size`` deepens the accept backlog past the stdlib
    default of 5, which resets connections under bursts of concurrent
    clients.
    """

    request_queue_size = 128

    def server_bind(self):
        if hasattr(socket, "SO_REUSEPORT"):  # pragma: no branch
            try:
                self.socket.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
                )
            except OSError:
                pass
        super().server_bind()


def _error_body(message: str) -> bytes:
    return json.dumps({"ok": False, "error": message}).encode()


def _make_router_handler(service: ShardService):
    class RouterHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = f"repro-shard-router/{repro.__version__}"

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            if not service.config.quiet:
                BaseHTTPRequestHandler.log_message(self, format, *args)

        def _send(
            self,
            status: int,
            data: bytes,
            content_type: str = "application/json",
            headers: dict | None = None,
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:  # noqa: N802 - stdlib casing
            path = self.path.split("?", 1)[0]
            if path == "/healthz":
                self._send(200, json.dumps(service.health_payload()).encode())
            elif path == "/stats":
                self._send(200, json.dumps(service.stats_payload()).encode())
            elif path == "/metrics":
                self._send(
                    200,
                    service.metrics_text().encode(),
                    content_type="text/plain; version=0.0.4",
                )
            elif path == "/version":
                from repro.runtime.serialize import (
                    FORMAT_VERSION,
                    PROGRAM_FORMAT_VERSION,
                )

                self._send(
                    200,
                    json.dumps(
                        {
                            "version": repro.__version__,
                            "plan_format": FORMAT_VERSION,
                            "program_format": PROGRAM_FORMAT_VERSION,
                            "mode": "shard",
                        }
                    ).encode(),
                )
            else:
                self._send(404, _error_body(f"no route {path!r}"))

        def do_POST(self) -> None:  # noqa: N802 - stdlib casing
            path = self.path.split("?", 1)[0]
            if path not in ("/map", "/remap"):
                self._send(404, _error_body(f"no route {path!r}"))
                return
            try:
                try:
                    length = int(self.headers.get("Content-Length", 0))
                except ValueError:
                    self._send(400, _error_body("malformed Content-Length header"))
                    return
                if length <= 0:
                    self._send(400, _error_body("empty request body"))
                    return
                if length > MAX_BODY_BYTES:
                    self._send(
                        400,
                        _error_body(
                            f"request body of {length} bytes exceeds the "
                            f"{MAX_BODY_BYTES} byte limit"
                        ),
                    )
                    return
                raw = self.rfile.read(length)
                service.track_inflight(+1)
                try:
                    status, headers, data = service.handle_map(raw, path=path)
                finally:
                    service.track_inflight(-1)
                self._send(status, data, headers=headers)
            except Exception as error:  # noqa: BLE001 - transport boundary
                service.bump("http.500")
                self._send(
                    500, _error_body(f"{type(error).__name__}: {error}")
                )

    return RouterHandler
