"""Sharded multi-process serving: a front router over N forked workers.

``repro serve --workers N`` (N >= 2) runs this topology::

                        +--------------------------+
     clients ---------> |  ShardService (router)   |
                        |  - consistent-hash ring  |
                        |  - front reply cache     |
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
                  shared cache directory (one plans- file,
                  repro.util.store merge-on-write)

The router is an :class:`~repro.service.server.HTTPFront`, like the
single-process daemon: the same listener, routes, body checks, error
mapping, reply cache, bind-first start and signal-driven drain.  It
differs only in what its ``answer`` does with a body the reply cache
did not answer: hash it, forward it unchanged through
:meth:`ServiceClient.request`, and tag the answer with its worker.

Routing is by **program digest**: the router hashes each request's
program (its ``source`` text or serialized ``program`` object) onto a
consistent-hash ring of worker slots, so one program's requests always
land on the same worker — that worker's stage-artifact store and mapping
LRU stay hot, and concurrent identical requests meet in one process
where the coalescing table merges them into one compute.  Each worker is
a *forked* child running the ordinary :class:`MappingService` on an
ephemeral loopback port; the port travels back to the router over a
pipe.  Kernel-level sharding of one port across processes is
deliberately not used: it would scatter a program's requests across
workers and defeat both affinity and coalescing.

The front's reply cache answers a byte-identical repeat of a cacheable
``/map`` without touching a worker, as ``cache: "router"``.

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
import json
import multiprocessing
import signal
import sys
import threading
from dataclasses import dataclass
from http.client import HTTPException

import repro
from repro.service.client import ServiceClient
from repro.service.hashring import HashRing
from repro.service.protocol import Unavailable
from repro.service.server import (
    HARD_TIMEOUT_S,
    HTTPFront,
    MappingService,
    ServiceConfig,
    counter_lines,
    latency_lines,
)

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
    #: Dead-worker sweep period for the health thread.
    health_interval_s: float = 0.25


def _worker_main(config: ServiceConfig, conn, listener) -> None:
    """Entry point of one forked worker process.

    Closes its copy of the router's listening socket (``listener``; set
    under the fork start method only), so the router's port stays the
    router's alone.  Runs a plain single-process :class:`MappingService`
    on an ephemeral loopback port, reports the bound port back through
    ``conn``, then waits for SIGTERM and drains.  SIGINT is ignored — an
    interactive Ctrl-C reaches the whole process group, and the router
    owns the shutdown sequence.
    """
    if listener is not None:
        listener.close()
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


class WorkerHandle:
    """One worker slot: a stable ring identity over restartable processes."""

    def __init__(self, slot: str):
        self.slot = slot
        self.process: multiprocessing.Process | None = None
        self.port: int | None = None
        self.restarts = 0

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

    def request(
        self, method: str, path: str, body: bytes | None = None,
        timeout: float = PROXY_TIMEOUT_S,
    ) -> tuple[int, dict[str, str], bytes]:
        """One exchange with this worker; raises OSError or HTTPException."""
        client = ServiceClient(port=self.port, timeout=timeout)
        return client.request(method, path, body)


class ShardService(HTTPFront):
    """The front router and its pool of worker processes."""

    config_type = ShardConfig
    mode = "shard"
    reply_cache = "router"

    def __init__(self, config: ShardConfig | None = None, **overrides):
        super().__init__(config, **overrides)
        if self.config.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.config.workers}")
        slots = [f"w{i}" for i in range(self.config.workers)]
        self.ring = HashRing(slots)
        self.workers = [WorkerHandle(slot) for slot in slots]
        self._by_slot = {handle.slot: handle for handle in self.workers}
        self._health_thread: threading.Thread | None = None
        self._stop_health = threading.Event()
        self._spawn_lock = threading.Lock()
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self._mp = multiprocessing.get_context(
            "fork" if sys.platform.startswith("linux") else "spawn"
        )
        self._worker_exits: dict[str, int | None] = {}

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
        forked = self._mp.get_start_method() == "fork"
        process = self._mp.Process(
            target=_worker_main,
            args=(
                self._worker_config(),
                child_conn,
                self._httpd.socket if forked else None,
            ),
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

    def _restart(self, handle: WorkerHandle) -> bool:
        """Restart a dead slot (serialized; no-op while draining/alive)."""
        with self._spawn_lock:
            if self.draining or handle.alive():
                return handle.alive()
            if handle.process is not None:
                handle.process.join(timeout=1.0)
            handle.restarts += 1
            self.stats.bump("worker_restarts")
            try:
                self._spawn_into(handle)
            except RuntimeError:
                self.stats.bump("worker_restart_failures")
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

    def _stop_workers(self) -> None:
        """SIGTERM every live worker (each drains), then reap them all."""
        for handle in self.workers:
            if handle.alive():
                handle.process.terminate()
        for handle in self.workers:
            if handle.process is None:
                continue
            handle.process.join(timeout=self.config.drain_timeout_s)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=5.0)
            self._worker_exits[handle.slot] = handle.process.exitcode

    # -- lifecycle -------------------------------------------------------
    def _open(self) -> None:
        try:
            for handle in self.workers:
                self._spawn_into(handle)
        except BaseException:
            self._stop_workers()
            raise
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-shard-health"
        )
        self._health_thread.start()

    def _drain(self) -> None:
        """The router refuses first, then the workers drain."""
        self._stop_health.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
            self._health_thread = None
        # Let in-flight proxied requests finish before tearing workers down.
        with self._inflight_cv:
            self._inflight_cv.wait_for(
                lambda: self._inflight == 0, timeout=self.config.drain_timeout_s
            )
        self._stop_workers()
        if self.config.persistent:
            self._compact_plan_tier()

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
            self.stats.bump("plan_compactions")

    def _banner(self) -> str:
        c = self.config
        return (
            f"shard: workers={c.workers}, threads={c.threads}, "
            f"queue={c.queue_size}, lru={c.lru_capacity}"
        )

    def _exit_report(self) -> list[str]:
        return [
            f"repro shard: worker {slot} exited {code}"
            for slot, code in sorted(self._worker_exits.items())
        ]

    # -- routing ---------------------------------------------------------
    def answer(
        self, path: str, raw: bytes, payload: dict
    ) -> tuple[int, dict[str, str], dict]:
        """Route one ``POST /map`` or ``POST /remap`` body.

        Both verbs route by the same program digest, so a ``/remap``
        lands on the worker whose artifact store is warm from that
        program's earlier ``/map`` traffic — that warmth is exactly what
        makes the remap incremental.  A 200 is tagged with its worker.
        """
        with self._inflight_cv:
            self._inflight += 1
        try:
            slot, status, headers, data = self._forward(path, raw, payload)
        finally:
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()
        out_headers = {}
        if "retry-after" in headers:
            out_headers["Retry-After"] = headers["retry-after"]
        body = json.loads(data)
        if status == 200:
            body["worker"] = slot
        return status, out_headers, body

    def _forward(
        self, path: str, raw: bytes, payload: dict
    ) -> tuple[str, int, dict[str, str], bytes]:
        """Send the raw body to its slot's worker; 503 when it cannot."""
        if self.draining:
            raise Unavailable("service is draining", retry_after=1)
        slot = self.ring.node_for(shard_key(payload))
        handle = self._by_slot[slot]
        if not handle.alive():
            # Found dead before the request was sent: restarting and
            # forwarding is safe (nothing was executed yet).
            self.stats.bump("worker_dead_on_arrival")
            if not self._restart(handle):
                raise Unavailable(
                    f"worker {slot} is down and could not be restarted",
                    retry_after=1,
                )
        try:
            return (slot, *handle.request("POST", path, raw))
        except (OSError, HTTPException) as error:
            # Mid-request failure: the compute may or may not have run,
            # so never retry silently — answer a clean 503 and restart
            # the slot for the next request.
            self.stats.bump("worker_failures")
            threading.Thread(
                target=self._restart, args=(handle,), daemon=True
            ).start()
            raise Unavailable(
                f"shard worker failed mid-request (worker {slot} (pid "
                f"{handle.pid}): {type(error).__name__}: {error}); retry",
                retry_after=1,
            ) from error

    # -- payloads --------------------------------------------------------
    def _worker_stats(self, handle: WorkerHandle) -> dict:
        info = handle.describe()
        info["reachable"] = False
        if handle.alive():
            try:
                status, _headers, data = handle.request(
                    "GET", "/stats", timeout=5.0
                )
                if status == 200:
                    info["stats"] = json.loads(data)
                    info["reachable"] = True
            except (OSError, HTTPException, ValueError):
                pass
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
        snapshot = self.stats.snapshot()
        return {
            "mode": self.mode,
            "version": repro.__version__,
            "uptime_s": self.uptime_s(),
            "draining": self.draining,
            "router": {
                "counters": snapshot["counters"],
                "latency": snapshot["latency"],
                "cache": self.replies.stats(),
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

    def metric_lines(self, stats: dict) -> list[str]:
        router = stats["router"]
        lines = [
            f"repro_shard_workers {len(self.workers)}",
            f"repro_shard_workers_alive "
            f"{sum(1 for h in self.workers if h.alive())}",
            *counter_lines("repro_router", router["counters"]),
        ]
        cache = router["cache"]
        lines.append(f"repro_router_cache_hits_total {cache['hits']}")
        lines.append(f"repro_router_cache_misses_total {cache['misses']}")
        lines.append(f"repro_router_cache_entries {cache['entries']}")
        lines += counter_lines("repro_service", stats["counters"])
        for handle in self.workers:
            lines.append(
                f'repro_shard_worker_restarts_total{{slot="{handle.slot}"}} '
                f"{handle.restarts}"
            )
        lines += latency_lines("repro_router", router["latency"])
        return lines

    def health_payload(self) -> dict:
        alive = sum(1 for handle in self.workers if handle.alive())
        return {
            **super().health_payload(),
            "workers": {"alive": alive, "total": len(self.workers)},
        }
