"""The HTTP/JSON mapping daemon (``repro serve``) and its HTTP stack.

One :class:`MappingService` owns the four moving parts — admission queue,
worker pool, two-tier cache, and stats — behind the one HTTP front end
defined here (:class:`HTTPFront`), which the shard router
(:mod:`repro.service.shard`) runs too:

``POST /map``
    Submit a mapping request (see :mod:`repro.service.protocol`).
    Cache hits answer from the handler thread; misses queue for a
    worker.  A full queue answers ``429`` with ``Retry-After``; a
    draining server answers ``503``.
``POST /remap``
    Incrementally remap after a phase change, core loss/hot-plug or
    topology edit (see :func:`~repro.service.protocol.parse_remap_request`
    and :func:`~repro.service.engine.compute_remap`).  Always runs the
    incremental pipeline — no cache read, no coalescing, no
    degradation — and publishes the post-state payload to the mapping
    cache for later ``/map`` traffic.
``GET /healthz``, ``GET /stats``, ``GET /metrics``, ``GET /version``
    Liveness, JSON stats (including cache hit counters and queue depth),
    Prometheus-style text metrics bridged from the :mod:`repro.obs`
    counters/gauges, and the library version.

**One HTTP stack**: :class:`HTTPFront` holds the only listener (an
accept backlog of 128, never a shared port), the only request handler
(the four GET routes and the ``POST`` body checks against
:data:`MAX_BODY_BYTES`), the error mapping (a :class:`ServiceError`
answers its own status and ``Retry-After``, any other
:class:`~repro.errors.ReproError` 400, anything else 500; every POST
answer counts once as ``http.<status>``), the ``/version`` payload, a
bind-first ``start``/``stop`` and the signal-driven ``serve`` loop.  A
front supplies only its payloads: the health, stats and metrics bodies
and ``post(path, raw) -> (status, headers, bytes)``.

**Deadline-aware degradation**: a request with ``deadline_ms`` (or the
server default) is checked when a worker picks it up.  If the time
already spent waiting plus the *predicted* pipeline cost (an EWMA of
observed per-iteration pipeline time) exceeds the deadline, the worker
answers with the cheap Base mapping instead and flags the response
``degraded: true`` — a late useful answer beats a timely timeout.

**Tracing**: with ``REPRO_TRACE_DIR`` set at startup, each computed
request writes ``<dir>/request-<id>.jsonl``.  Per-request recorders are
process-global, so traced pipelines serialize through a lock —
observability mode trades throughput for per-request spans.

**Shutdown**: :meth:`HTTPFront.serve` installs SIGINT/SIGTERM handlers
that stop admissions, drain queued and in-flight work, flush the
persistent cache tier, and only then exit.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import uuid
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import repro
from repro import obs
from repro.errors import ReproError
from repro.service.admission import AdmissionQueue, Job
from repro.service.engine import baseline_mapping, compute_mapping, compute_remap
from repro.service.mapcache import MappingCache
from repro.service.protocol import (
    BadRequest,
    MappingRequest,
    ServiceError,
    Unavailable,
    parse_remap_request,
    parse_request,
)
from repro.util.store import encode_key

#: Environment variable enabling per-request trace capture.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Upper bound on a request body, in bytes (a serialized program for a
#: large nest is ~100KB; 16MB leaves two orders of magnitude of headroom).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Longest a request waits for its job before answering 503.
HARD_TIMEOUT_S = 300.0


@dataclass
class ServiceConfig:
    """Tunables for one service instance (all have serving defaults)."""

    host: str = "127.0.0.1"
    port: int = 8321
    queue_size: int = 64
    workers: int = 2
    lru_capacity: int = 512
    cache_dir: str | None = None
    persistent: bool = False
    default_deadline_ms: float | None = None
    drain_timeout_s: float = 30.0
    debug: bool = False
    collect_obs: bool = True
    quiet: bool = True


class _LatencyWindow:
    """Ring of recent request latencies; :class:`ServiceStats` locks it."""

    def __init__(self, size: int = 512):
        self._size = size
        self._values: list[float] = []
        self._next = 0

    def add(self, value_ms: float) -> None:
        if len(self._values) < self._size:
            self._values.append(value_ms)
        else:
            self._values[self._next] = value_ms
            self._next = (self._next + 1) % self._size

    def summary(self) -> dict:
        if not self._values:
            return {"count": 0}
        ordered = sorted(self._values)
        n = len(ordered)
        return {
            "count": n,
            "p50_ms": round(ordered[n // 2], 3),
            "p95_ms": round(ordered[min(n - 1, (n * 95) // 100)], 3),
            "max_ms": round(ordered[-1], 3),
        }


class ServiceStats:
    """Counter table and latency window of one front (obs counters ride along)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {}
        self.latency = _LatencyWindow()
        self.obs_counters: dict[str, int] = {}
        # EWMA of pipeline microseconds per iteration: the degradation
        # predictor.  Starts at zero (optimistic) and adapts within a
        # handful of requests.
        self._us_per_iteration = 0.0
        self._ewma_samples = 0

    def bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def observe_latency(self, elapsed_ms: float) -> None:
        with self._lock:
            self.latency.add(elapsed_ms)

    def observe_pipeline(self, elapsed_ms: float, iterations: int) -> None:
        if iterations <= 0:
            return
        sample = elapsed_ms * 1e3 / iterations
        with self._lock:
            if self._ewma_samples == 0:
                self._us_per_iteration = sample
            else:
                self._us_per_iteration += 0.2 * (sample - self._us_per_iteration)
            self._ewma_samples += 1

    def predicted_pipeline_ms(self, iterations: int) -> float:
        with self._lock:
            return self._us_per_iteration * iterations / 1e3

    def merge_obs(self, counters: dict[str, int]) -> None:
        with self._lock:
            for name, value in counters.items():
                self.obs_counters[name] = self.obs_counters.get(name, 0) + value

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "counters": dict(self.counters),
                "latency": self.latency.summary(),
                "pipeline_us_per_iteration": round(self._us_per_iteration, 3),
            }


def decode_body(raw: bytes) -> dict:
    """A POST body as a JSON object; :class:`BadRequest` otherwise."""
    try:
        payload = json.loads(raw)
    except ValueError as error:
        raise BadRequest(f"malformed JSON body: {error}") from None
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    return payload


def counter_lines(prefix: str, counters: dict[str, int]) -> list[str]:
    """``<prefix>_<name>_total`` exposition lines, sorted by name."""
    return [
        f"{prefix}_{name.replace('.', '_').replace('-', '_')}_total {value}"
        for name, value in sorted(counters.items())
    ]


def latency_lines(prefix: str, latency: dict) -> list[str]:
    """``<prefix>_latency_{p50,p95,max}_ms`` lines of a latency summary."""
    return [
        f"{prefix}_latency_{key.replace('_ms', '')}_ms {latency[key]}"
        for key in ("p50_ms", "p95_ms", "max_ms")
        if key in latency
    ]


class HTTPFront:
    """One HTTP front end: listener, routes, error mapping, lifecycle.

    Subclasses supply the payloads — :meth:`stats_payload`,
    :meth:`metric_lines`, :meth:`post` and, optionally,
    :meth:`health_payload` — plus :meth:`_banner` and the lifecycle hooks
    :meth:`_open` (runs once the port is bound) and :meth:`_drain` (runs
    before the listener closes).
    """

    #: The config dataclass the keyword overrides build.
    config_type: type = ServiceConfig
    #: Reported as ``mode`` by ``/version`` (and the front's ``/stats``).
    mode: str | None = None

    def __init__(self, config=None, **overrides):
        if config is None:
            config = self.config_type(**overrides)
        elif overrides:
            raise TypeError(
                f"pass either a {self.config_type.__name__} or keyword overrides"
            )
        self.config = config
        self.stats = ServiceStats()
        self.started_at: float | None = None
        self.draining = False
        self._httpd: _Listener | None = None
        self._serve_thread: threading.Thread | None = None
        self._stop_requested = threading.Event()

    # -- lifecycle -------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._httpd is None:
            return self.config.port
        return self._httpd.server_address[1]

    def start(self) -> "HTTPFront":
        """Bind, then start the front's backends and the accept loop.

        The bind comes first: a busy port raises :class:`OSError` before
        any thread, worker process or process-global recorder exists.
        """
        if self._httpd is not None:
            raise ServiceError("service already started")
        self._httpd = _Listener((self.config.host, self.config.port), self)
        try:
            self._open()
        except BaseException:
            self._httpd.server_close()
            self._httpd = None
            raise
        self.started_at = time.time()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-service-accept",
        )
        self._serve_thread.start()
        return self

    def stop(self) -> None:
        """Drain-then-exit: refuse new work, finish admitted work, close."""
        if self._httpd is None:
            return
        self.draining = True
        self._drain()
        self._httpd.shutdown()
        # server_close joins the per-connection handler threads
        # (block_on_close), so no response is cut off mid-write.
        self._httpd.server_close()
        self._serve_thread.join(timeout=self.config.drain_timeout_s)
        self._httpd = None
        self._serve_thread = None

    def serve(self) -> int:
        """Blocking entry point with SIGINT/SIGTERM drain-then-exit."""
        self.start()

        def _request_stop(signum, _frame):
            self.stats.bump(f"signal.{signal.Signals(signum).name}")
            self._stop_requested.set()

        previous = {
            sig: signal.signal(sig, _request_stop)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
        print(
            f"repro service listening on http://{self.config.host}:{self.port} "
            f"({self._banner()})",
            flush=True,
        )
        try:
            # Timed wait, not a bare .wait(): the kernel may deliver the
            # signal to a busy handler thread, and the Python-level
            # handler only ever runs on the main thread — which must
            # re-enter the eval loop for that to happen.  An untimed
            # semaphore wait never does, and the daemon ignores SIGTERM
            # under load.
            while not self._stop_requested.wait(timeout=0.2):
                pass
        finally:
            print("repro service draining...", flush=True)
            self.stop()
            for sig, old in previous.items():
                signal.signal(sig, old)
            for line in self._exit_report():
                print(line, flush=True)
            print("repro service stopped.", flush=True)
        return 0

    def _open(self) -> None:
        """Start the backends; the port is already bound."""

    def _drain(self) -> None:
        """Finish admitted work; ``draining`` is already set."""

    def _banner(self) -> str:
        """The configuration summary the listening banner shows."""
        raise NotImplementedError

    def _exit_report(self) -> list[str]:
        """Lines ``serve`` prints once drained."""
        return []

    # -- payloads --------------------------------------------------------
    def uptime_s(self) -> float:
        if self.started_at is None:
            return 0.0
        return round(time.time() - self.started_at, 3)

    def health_payload(self) -> dict:
        return {"status": "draining" if self.draining else "ok"}

    def version_payload(self) -> dict:
        from repro.runtime.serialize import FORMAT_VERSION, PROGRAM_FORMAT_VERSION

        payload = {
            "version": repro.__version__,
            "plan_format": FORMAT_VERSION,
            "program_format": PROGRAM_FORMAT_VERSION,
        }
        if self.mode is not None:
            payload["mode"] = self.mode
        return payload

    def stats_payload(self) -> dict:
        """The ``/stats`` body; needs ``uptime_s``, ``draining`` and
        ``queue`` (``depth``, ``in_flight``, ``rejected``) for /metrics."""
        raise NotImplementedError

    def metric_lines(self, stats: dict) -> list[str]:
        """The front's own series, after the shared uptime/queue gauges."""
        raise NotImplementedError

    def metrics_text(self) -> str:
        """Prometheus-style exposition of :meth:`stats_payload`."""
        stats = self.stats_payload()
        queue = stats["queue"]
        lines = [
            "# TYPE repro_service_uptime_seconds gauge",
            f"repro_service_uptime_seconds {stats['uptime_s']}",
            f"repro_service_draining {int(stats['draining'])}",
            f"repro_service_queue_depth {queue['depth']}",
            f"repro_service_queue_in_flight {queue['in_flight']}",
            f"repro_service_queue_rejected_total {queue['rejected']}",
            *self.metric_lines(stats),
        ]
        return "\n".join(lines) + "\n"

    def post(self, path: str, raw: bytes) -> tuple[int, dict[str, str], bytes]:
        """Answer one ``POST /map`` or ``/remap`` body: (status, headers, body).

        Raise a :class:`ServiceError` (or any exception) to answer an
        error; the handler maps it.
        """
        raise NotImplementedError


class MappingService(HTTPFront):
    """The daemon: owns the HTTP front, workers, cache, and stats."""

    def __init__(self, config: ServiceConfig | None = None, **overrides):
        super().__init__(config, **overrides)
        config = self.config
        self.cache = MappingCache(
            capacity=config.lru_capacity,
            directory=config.cache_dir,
            persistent=config.persistent,
        )
        # The shared final-plan disk tier (repro.pipeline.persist): with
        # persistence on, every worker process of a shard writes through
        # to the same plans-<fp>.json, so a plan computed anywhere serves
        # everywhere (the store is lock+merge safe across processes).
        self.plans = None
        if config.persistent:
            from repro.pipeline.persist import PlanStore

            self.plans = PlanStore(config.cache_dir)
        # Coalescing table: cache_key -> the Job already computing that
        # key.  Followers wait on the leader's Job instead of enqueueing
        # a duplicate compute (hot cold keys cost one pipeline run).
        self._inflight: dict[str, Job] = {}
        self._inflight_lock = threading.Lock()
        self.admission = AdmissionQueue(
            handler=self._process_job,
            queue_size=config.queue_size,
            workers=config.workers,
        )
        self._own_recorder: obs.Recorder | None = None
        self._trace_dir = os.environ.get(TRACE_DIR_ENV) or None
        self._trace_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------
    def _open(self) -> None:
        if self._trace_dir:
            os.makedirs(self._trace_dir, exist_ok=True)
        elif self.config.collect_obs and not obs.enabled():
            # A sink-less recorder: pipeline decision counters accumulate
            # for /metrics without paying for span serialization.
            self._own_recorder = obs.configure()
        self.admission.start()

    def _drain(self) -> None:
        self.admission.stop(timeout=self.config.drain_timeout_s)
        if self._own_recorder is not None:
            if obs.get_recorder() is self._own_recorder:
                self.stats.merge_obs(self._own_recorder.counters)
                obs.shutdown()
            self._own_recorder = None

    def _banner(self) -> str:
        return (
            f"queue={self.config.queue_size}, workers={self.config.workers}, "
            f"cache={'lru+disk' if self.cache.persistent else 'lru'}"
        )

    def post(self, path: str, raw: bytes) -> tuple[int, dict[str, str], bytes]:
        handler = self.handle_remap if path == "/remap" else self.handle_map
        status, body = handler(decode_body(raw))
        return status, {}, json.dumps(body).encode()

    # -- request processing ---------------------------------------------
    def handle_map(self, payload: dict) -> tuple[int, dict]:
        """The full admission + cache + compute flow for one request.

        Returns ``(http_status, response_body)``; raises
        :class:`ServiceError` subclasses for backpressure and validation
        failures (the transport turns them into their ``status``).
        """
        started = time.monotonic()
        request_id = uuid.uuid4().hex[:12]
        self.stats.bump("requests")
        request = parse_request(
            payload,
            default_deadline_ms=self.config.default_deadline_ms,
            allow_debug=self.config.debug,
        )
        if not request.no_cache:
            hit = self.cache.get(request.cache_key)
            if hit is not None:
                value, tier = hit
                self.stats.bump(f"cache.{tier}")
                return 200, self._respond(
                    request, request_id, value,
                    degraded=False, cache=tier, started=started,
                )
        self.stats.bump("cache.miss" if not request.no_cache else "cache.bypass")
        if self.draining:
            raise Unavailable("service is draining")
        if request.no_cache:
            # Bypass requests demand a fresh compute: they neither join
            # an in-flight job nor become one others may join.
            job = Job(request=request, request_id=request_id)
            self.admission.submit(job)  # raises Overloaded on a full queue
            value = self._await(job, request_id)
            return 200, self._respond(
                request, request_id, value["payload"],
                degraded=bool(value.get("degraded")), cache="bypass",
                started=started, queue_wait_ms=job.queue_wait_ms,
                degraded_reason=value.get("degraded_reason"),
            )
        # Coalescing: exactly one thread becomes the leader for a cold
        # key; the check-and-register is atomic, so concurrent identical
        # requests cost one pipeline compute however they interleave.
        encoded = encode_key(request.cache_key)
        with self._inflight_lock:
            job = self._inflight.get(encoded)
            leader = job is None
            if leader:
                job = Job(request=request, request_id=request_id)
                self._inflight[encoded] = job
        if not leader:
            self.stats.bump("coalesced")
            obs.count("service.coalesced")
            value = self._await(job, request_id)
            return 200, self._respond(
                request, request_id, value["payload"],
                degraded=bool(value.get("degraded")), cache="coalesced",
                started=started, queue_wait_ms=job.queue_wait_ms,
                degraded_reason=value.get("degraded_reason"),
            )
        try:
            self.admission.submit(job)  # raises Overloaded on a full queue
            value = self._await(job, request_id)
            degraded = bool(value.get("degraded"))
            if not degraded:
                # Publish to the cache *before* retiring the in-flight
                # entry, so a request arriving in between finds one of
                # the two — never a second compute.
                self.cache.put(request.cache_key, value["payload"])
        finally:
            with self._inflight_lock:
                self._inflight.pop(encoded, None)
        return 200, self._respond(
            request, request_id, value["payload"],
            degraded=degraded, cache="none",
            started=started, queue_wait_ms=job.queue_wait_ms,
            degraded_reason=value.get("degraded_reason"),
        )

    def handle_remap(self, payload: dict) -> tuple[int, dict]:
        """The ``POST /remap`` flow: parse pre/post states, remap post.

        Unlike ``/map`` there is no response-cache read, no coalescing
        and no deadline degradation — a remap is an explicit "my state
        changed, recompute what's dirty" and must always run the
        (incremental) pipeline.  The computed post-state payload *is*
        published to the mapping cache, so follow-up ``/map`` traffic
        for the post state hits.
        """
        started = time.monotonic()
        request_id = uuid.uuid4().hex[:12]
        self.stats.bump("requests")
        self.stats.bump("remap_requests")
        remap = parse_remap_request(
            payload,
            default_deadline_ms=self.config.default_deadline_ms,
            allow_debug=self.config.debug,
        )
        if self.draining:
            raise Unavailable("service is draining")
        job = Job(
            request=remap.post, request_id=request_id, kind="remap", remap=remap
        )
        self.admission.submit(job)  # raises Overloaded on a full queue
        value = self._await(job, request_id)
        payload_out = value["payload"]
        if not remap.post.no_cache:
            cacheable = {k: v for k, v in payload_out.items() if k != "remap"}
            self.cache.put(remap.post.cache_key, cacheable)
        return 200, self._respond(
            remap.post, request_id, payload_out,
            degraded=False, cache="none",
            started=started, queue_wait_ms=job.queue_wait_ms,
        )

    def _await(self, job: Job, request_id: str) -> dict:
        """Wait for a job (own or a coalesced leader's) to finish."""
        if not job.done.wait(timeout=HARD_TIMEOUT_S):
            self.stats.bump("timeouts")
            raise Unavailable(
                f"request {request_id} exceeded the hard timeout "
                f"({HARD_TIMEOUT_S:.0f}s)"
            )
        if job.error is not None:
            raise job.error
        return job.response

    def _respond(
        self,
        request: MappingRequest,
        request_id: str,
        payload: dict,
        degraded: bool,
        cache: str,
        started: float,
        queue_wait_ms: float = 0.0,
        degraded_reason: str | None = None,
    ) -> dict:
        elapsed_ms = (time.monotonic() - started) * 1e3
        self.stats.observe_latency(elapsed_ms)
        if degraded:
            self.stats.bump("degraded")
        body = {
            "ok": True,
            "request_id": request_id,
            "degraded": degraded,
            "cache": cache,
            "key": {
                "nest": request.nest_key,
                "topology": request.topology_key,
                "knobs": list(request.knobs.as_tuple()),
            },
            "elapsed_ms": round(elapsed_ms, 3),
            "queue_wait_ms": round(queue_wait_ms, 3),
        }
        if degraded_reason:
            body["degraded_reason"] = degraded_reason
        body.update(payload)
        return body

    def _process_job(self, job: Job) -> dict:
        """Worker-side: degradation decision + pipeline (or baseline)."""
        request = job.request
        if self.config.debug and request.debug_sleep_ms:
            time.sleep(request.debug_sleep_ms / 1e3)
        if job.kind == "remap":
            # Remap timings stay out of the EWMA degradation predictor:
            # a replayed remap costs ~1ms and would teach the predictor
            # that cold pipelines are free.
            payload = self._run_traced(
                job, lambda request: compute_remap(job.remap, plans=self.plans)
            )
            self.stats.bump("remap_runs")
            return {"payload": payload, "degraded": False}
        degrade_reason = self._should_degrade(job)
        if degrade_reason is not None:
            payload = self._run_traced(job, baseline_mapping)
            return {
                "payload": payload,
                "degraded": True,
                "degraded_reason": degrade_reason,
            }
        started = time.perf_counter()
        payload = self._run_traced(
            job, lambda request: compute_mapping(request, plans=self.plans)
        )
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self.stats.bump("pipeline_runs")
        self.stats.observe_pipeline(elapsed_ms, request.nest.iteration_count())
        return {"payload": payload, "degraded": False}

    def _should_degrade(self, job: Job) -> str | None:
        deadline_ms = job.request.deadline_ms
        if deadline_ms is None:
            return None
        elapsed_ms = (time.monotonic() - job.enqueued) * 1e3
        remaining_ms = deadline_ms - elapsed_ms
        predicted_ms = self.stats.predicted_pipeline_ms(
            job.request.nest.iteration_count()
        )
        if remaining_ms <= predicted_ms:
            return (
                f"deadline {deadline_ms:.0f}ms: {elapsed_ms:.0f}ms spent "
                f"queued, pipeline predicted {predicted_ms:.0f}ms"
            )
        return None

    def _run_traced(self, job: Job, runner) -> dict:
        """Run the engine, capturing a per-request trace when enabled."""
        if not self._trace_dir:
            return runner(job.request)
        from repro.obs.sinks import JsonlSink

        path = os.path.join(self._trace_dir, f"request-{job.request_id}.jsonl")
        # One recorder at a time: per-request tracing serializes the
        # pipeline (documented in docs/SERVICE.md).
        with self._trace_lock:
            with obs.tracing(JsonlSink(path)) as recorder:
                with obs.span("service.request", request_id=job.request_id):
                    result = runner(job.request)
                counters = dict(recorder.counters)
        self.stats.merge_obs(counters)
        return result

    # -- payloads --------------------------------------------------------
    def stats_payload(self) -> dict:
        payload = self.stats.snapshot()
        payload.update(
            version=repro.__version__,
            uptime_s=self.uptime_s(),
            draining=self.draining,
            queue={
                "size": self.config.queue_size,
                "depth": self.admission.depth(),
                "in_flight": self.admission.in_flight(),
                "workers": self.config.workers,
                "submitted": self.admission.submitted,
                "rejected": self.admission.rejected,
            },
            cache=self.cache.stats(),
        )
        return payload

    def metric_lines(self, stats: dict) -> list[str]:
        cache = stats["cache"]
        lines = counter_lines("repro_service", stats["counters"])
        for tier in ("memory", "disk"):
            lines.append(
                f'repro_service_cache_hits_total{{tier="{tier}"}} '
                f"{cache[f'hits_{tier}']}"
            )
        lines.append(f"repro_service_cache_misses_total {cache['misses']}")
        lines.append(f"repro_service_cache_entries {cache['entries']}")
        lines += latency_lines("repro_service", stats["latency"])
        obs_counters = dict(self.stats.obs_counters)
        recorder = obs.get_recorder()
        if recorder is not None and recorder is self._own_recorder:
            for name, value in recorder.counters.items():
                obs_counters[name] = obs_counters.get(name, 0) + value
        for name, value in sorted(obs_counters.items()):
            lines.append(f'repro_obs_counter{{name="{name}"}} {value}')
        return lines


# -- HTTP plumbing -------------------------------------------------------
class _Listener(ThreadingHTTPServer):
    """The one listener, with a burst-proof accept backlog.

    The stdlib default (``request_queue_size = 5``) resets connections
    when more than a handful of clients connect in the same instant.  The
    port is never shared with another socket: a second front on a
    serving port fails to bind instead of splitting its connections.
    """

    request_queue_size = 128

    def __init__(self, address: tuple[str, int], front: HTTPFront):
        self.front = front
        super().__init__(address, _Handler)


class _NoRoute(ServiceError):
    status = 404


class _Handler(BaseHTTPRequestHandler):
    """The one request handler: routes, body checks, error mapping."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-service/{repro.__version__}"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if not self.server.front.config.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send(
        self,
        status: int,
        data: bytes,
        headers: dict[str, str] | None = None,
        content_type: str = "application/json",
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _answer_error(self, error: Exception, close: bool = False) -> None:
        """The one error mapping; counts ``http.<status>`` once.

        ``close`` ends the connection after the answer (``Connection:
        close``): a request refused before its body was read leaves that
        body on the socket, where keep-alive would parse it as the next
        request line.
        """
        headers = {"Connection": "close"} if close else {}
        if isinstance(error, ServiceError):
            status, message = error.status, str(error)
            if error.retry_after is not None:
                headers["Retry-After"] = str(error.retry_after)
        elif isinstance(error, ReproError):
            status, message = 400, str(error)
        else:
            status, message = 500, f"{type(error).__name__}: {error}"
        self.server.front.stats.bump(f"http.{status}")
        body = json.dumps({"ok": False, "error": message}).encode()
        self._send(status, body, headers)

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise BadRequest("malformed Content-Length header") from None
        if length <= 0:
            raise BadRequest("empty request body")
        if length > MAX_BODY_BYTES:
            raise BadRequest(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES} byte limit"
            )
        return self.rfile.read(length)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        front = self.server.front
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            data = front.metrics_text().encode()
            self._send(200, data, content_type="text/plain; version=0.0.4")
            return
        payload = {
            "/healthz": front.health_payload,
            "/stats": front.stats_payload,
            "/version": front.version_payload,
        }.get(path)
        if payload is None:
            self._answer_error(_NoRoute(f"no route {path!r}"))
        else:
            self._send(200, json.dumps(payload()).encode())

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        front = self.server.front
        path = self.path.split("?", 1)[0]
        raw = None
        try:
            if path not in ("/map", "/remap"):
                raise _NoRoute(f"no route {path!r}")
            raw = self._read_body()
            status, headers, data = front.post(path, raw)
        except Exception as error:  # noqa: BLE001 - transport boundary
            self._answer_error(error, close=raw is None)
            return
        front.stats.bump(f"http.{status}")
        self._send(status, data, headers)


def _default_workers() -> int:
    return max(1, min(4, (os.cpu_count() or 2) - 1))
