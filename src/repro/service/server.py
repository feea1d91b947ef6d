"""The flow daemon: JSON-over-HTTP API over the warm pool + result cache.

Three layers, separable for testing:

* :class:`FlowService` — transport-free core: submission (validation,
  content-address lookup, enqueue), the job store, cache wiring and the
  operational counters.  The test-suite drives it directly.
* :class:`ServiceHTTPServer` / the request handler — a stdlib
  ``ThreadingHTTPServer`` translating HTTP to service calls.  Every
  response body is strict JSON via :func:`repro.io.json_report`.
* :class:`FlowDaemon` — process-level lifecycle: start the pool and the
  HTTP thread, install SIGTERM/SIGINT handlers, drain gracefully.

Endpoints::

    POST /jobs               submit a job         -> 202 status (200 on cache hit)
    GET  /jobs/<id>          job status           -> 200
    GET  /jobs/<id>?wait=S   status once the job finishes, or after S s
    GET  /jobs/<id>/result   finished flow report -> 200 | 409 not finished
    GET  /healthz            liveness + drain state
    GET  /metrics            queue/cache/worker/latency counters

Error mapping: malformed requests 400, unknown jobs 404, bodies over
:data:`MAX_BODY_BYTES` 413, backpressure 429, draining 503, failed jobs
surface as ``state: "failed"`` with the error text (the *request* for
them still succeeds).
"""

from __future__ import annotations

import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import faults
from repro.errors import ServiceError
from repro.io.json_report import dumps_json_report, strict_loads
from repro.pipeline.batch import warm_worker
from repro.service.cache import ResultCache
from repro.service.protocol import (
    DONE,
    FAILED,
    QUARANTINED,
    TERMINAL_STATES,
    build_pipeline,
    cache_key,
    load_circuit,
    normalize_config,
)
from repro.service.queue import DrainingError, Job, QueueFullError, WorkerPool

#: finished-job records kept for status/result queries (oldest pruned)
MAX_JOB_RECORDS = 4096

#: largest POST body read (64 MiB); a longer one gets 413 unread.  The
#: largest job body the repo's generators produce is the 100k-node
#: ``cascade`` synthetic as inline ``.bench`` text, 4.5 MB of JSON
#: (``dumps_bench(strash(build_synthetic("cascade", 100_000))[0])``
#: wrapped by ``bench_circuit``); the biggest registry circuit
#: (``multiplier``, paper preset) is 0.23 MB.
MAX_BODY_BYTES = 64 * 2**20

#: longest a ``GET /jobs/<id>?wait=S`` request is held open
MAX_STATUS_WAIT_S = 10.0


class FlowService:
    """Transport-free service core: jobs, warm pool, content cache."""

    def __init__(
        self,
        workers: int = 2,
        queue_size: int = 32,
        job_timeout_s: float = 300.0,
        cache_entries: int = 256,
        initializer=warm_worker,
        mp_context: Optional[str] = None,
        max_job_records: int = MAX_JOB_RECORDS,
        job_max_attempts: int = 3,
        fault_plan: Optional[str] = None,
    ):
        self.cache = ResultCache(cache_entries)
        self.pool = WorkerPool(
            workers=workers,
            queue_size=queue_size,
            job_timeout_s=job_timeout_s,
            initializer=initializer,
            on_job_done=self._job_finished,
            mp_context=mp_context,
            job_max_attempts=job_max_attempts,
        )
        self.fault_plan = fault_plan
        self.max_job_records = max_job_records
        self._jobs: Dict[str, Job] = {}
        self._jobs_order: list = []
        self._lock = threading.Lock()
        self._draining = False
        self._started_at = time.time()
        self._submitted = 0
        self._rejected = 0
        self._cache_served = 0
        self._cache_errors = 0
        self._stage_latency: Dict[str, Tuple[int, float]] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self.fault_plan:
            faults.install(self.fault_plan)
        self.pool.start()

    def begin_drain(self) -> None:
        """Refuse new submissions; queued/in-flight jobs keep running."""
        self._draining = True
        self.pool.begin_drain()

    @property
    def draining(self) -> bool:
        return self._draining

    def stop(self, drain_timeout: Optional[float] = 30.0) -> bool:
        """Drain accepted work (bounded), then tear the pool down.

        Returns ``True`` when every accepted job finished before the
        teardown; jobs still running at the deadline die with the pool.
        """
        self.begin_drain()
        drained = self.pool.drain(timeout=drain_timeout)
        self.pool.shutdown()
        return drained

    # -- submission ----------------------------------------------------------

    def submit(self, payload: Any) -> Dict[str, Any]:
        """Validate and accept one job; returns its status dict.

        Cache hits complete synchronously (the job never touches the
        queue); misses are enqueued, subject to backpressure.
        """
        if self._draining:
            raise DrainingError("service is draining; not accepting jobs")
        if faults.should_fire("server.reject"):
            with self._lock:
                self._rejected += 1
            raise QueueFullError(
                "injected backpressure (fault: server.reject); retry later"
            )
        if not isinstance(payload, dict):
            raise ServiceError("job payload must be a JSON object")
        if "circuit" not in payload:
            raise ServiceError("job payload needs a 'circuit'")
        unknown = set(payload) - {"circuit", "config", "timeout_s", "debug"}
        if unknown:
            raise ServiceError(
                f"unknown job payload keys: {', '.join(sorted(unknown))}"
            )
        config = normalize_config(payload.get("config"))
        build_pipeline(config)  # reject invalid combinations pre-queue
        net = load_circuit(payload["circuit"])
        timeout_s = self._job_timeout(payload.get("timeout_s"))
        debug = payload.get("debug")
        if debug is not None and not isinstance(debug, dict):
            raise ServiceError("debug must be an object")

        job = Job(net=net, config=config, timeout_s=timeout_s, debug=debug)
        if not debug:
            # debug jobs (sleep/crash hooks) are never content-addressed
            job.cache_key = cache_key(net, config)
            try:
                hit = self.cache.get(job.cache_key)
            except Exception:
                # a broken cache degrades to a miss — it must never
                # reject or fail the job itself
                hit = None
                with self._lock:
                    self._cache_errors += 1
            if hit is not None:
                hit["cached"] = True
                # the content address ignores names: report this job's
                hit["benchmark"] = net.name
                job.cached = True
                job.started_at = job.submitted_at
                job.finish_ok(hit)
                job.done.set()
                with self._lock:
                    self._submitted += 1
                    self._cache_served += 1
                self._store(job)
                return job.status_dict()
        try:
            self.pool.submit(job)
        except ServiceError:
            with self._lock:
                self._rejected += 1
            raise
        with self._lock:
            self._submitted += 1
        self._store(job)
        return job.status_dict()

    def _job_timeout(self, requested: Any) -> float:
        limit = self.pool.job_timeout_s
        if requested is None:
            return limit
        if not isinstance(requested, (int, float)) or isinstance(
            requested, bool
        ):
            raise ServiceError("timeout_s must be a number")
        if requested <= 0:
            raise ServiceError("timeout_s must be positive")
        # the server-side limit is a cap, not a default
        return min(float(requested), limit)

    def _store(self, job: Job) -> None:
        with self._lock:
            self._jobs[job.id] = job
            self._jobs_order.append(job.id)
            while len(self._jobs_order) > self.max_job_records:
                for i, jid in enumerate(self._jobs_order):
                    old = self._jobs.get(jid)
                    if old is not None and old.state in TERMINAL_STATES:
                        del self._jobs[jid]
                        del self._jobs_order[i]
                        break
                else:  # every record still active: keep them all
                    break

    def _job_finished(self, job: Job) -> None:
        """Pool callback: populate the cache and the latency aggregates."""
        if job.state == DONE and job.cache_key and job.report is not None:
            try:
                self.cache.put(job.cache_key, job.report)
            except Exception:
                # a failed store loses the cache entry, not the result
                with self._lock:
                    self._cache_errors += 1
        if job.report is not None:
            timings = job.report.get("timings") or {}
            with self._lock:
                for stage, seconds in timings.items():
                    count, total = self._stage_latency.get(stage, (0, 0.0))
                    self._stage_latency[stage] = (count + 1, total + seconds)

    # -- queries -------------------------------------------------------------

    def _get_job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}", status=404)
        return job

    def job_status(self, job_id: str, wait: float = 0.0) -> Dict[str, Any]:
        """The job's status, after holding up to *wait* seconds (capped at
        :data:`MAX_STATUS_WAIT_S`) for it to finish.

        A held status read answers the moment the job is settled, so a
        poller sees a finished job at once instead of at its next poll.
        """
        job = self._get_job(job_id)
        if wait > 0:
            job.done.wait(min(wait, MAX_STATUS_WAIT_S))
        return job.status_dict()

    def job_result(self, job_id: str) -> Dict[str, Any]:
        """The finished flow report; raises while the job is unfinished."""
        job = self._get_job(job_id)
        if job.state == DONE:
            assert job.report is not None
            return job.report
        if job.state == FAILED:
            raise ServiceError(
                f"job {job_id} failed: {job.error}", status=500
            )
        if job.state == QUARANTINED:
            raise ServiceError(
                f"job {job_id} quarantined: {job.error}", status=500
            )
        raise ServiceError(
            f"job {job_id} is {job.state}; result not ready", status=409
        )

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job finishes (in-process callers and tests)."""
        job = self._get_job(job_id)
        if not job.done.wait(timeout):
            raise ServiceError(f"timed out waiting for job {job_id}")
        return job

    def healthz(self) -> Dict[str, Any]:
        stats = self.pool.stats()
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": time.time() - self._started_at,
            "workers_alive": stats["workers_alive"],
            "workers_configured": stats["workers_configured"],
        }

    def metrics(self) -> Dict[str, Any]:
        pool = self.pool.stats()
        with self._lock:
            submitted = self._submitted
            rejected = self._rejected
            cache_served = self._cache_served
            cache_errors = self._cache_errors
            quarantined_jobs = [
                {"job_id": job.id, "attempts": job.attempts,
                 "error": job.error}
                for job in self._jobs.values()
                if job.state == QUARANTINED
            ]
            stage_latency = {
                stage: {
                    "count": count,
                    "total_s": total,
                    "mean_s": total / count,
                }
                for stage, (count, total) in sorted(
                    self._stage_latency.items()
                )
            }
        return {
            "uptime_s": time.time() - self._started_at,
            "queue": {
                "depth": pool["queue_depth"],
                "capacity": pool["queue_capacity"],
                "in_flight": pool["in_flight"],
                "pending": pool["pending"],
            },
            "workers": {
                "configured": pool["workers_configured"],
                "alive": pool["workers_alive"],
                "respawns": pool["respawns"],
            },
            "jobs": {
                "submitted": submitted,
                "completed": pool["completed"],
                "failed": pool["failed"],
                "timeouts": pool["timeouts"],
                "crashes": pool["crashes"],
                "retries": pool["retries"],
                "quarantined": pool["quarantined"],
                "rejected": rejected,
                "served_from_cache": cache_served,
            },
            "quarantine": quarantined_jobs,
            "cache": {**self.cache.stats(), "errors": cache_errors},
            "stage_latency_s": stage_latency,
            "faults": faults.fire_counts(),
        }


# -- HTTP layer --------------------------------------------------------------

class _FlowRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-flow-service/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> FlowService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: N802
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(fmt, *args)

    def _send(self, code: int, obj: Any) -> None:
        body = dumps_json_report(obj).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, code: int, message: str) -> None:
        self._send(code, {"error": message})

    def _dispatch(self, handler) -> None:
        try:
            handler()
        except ServiceError as exc:
            self._send_error(exc.status or 400, str(exc))
        except Exception as exc:  # pragma: no cover - handler bug
            self._send_error(500, f"internal error: {exc}")

    def do_GET(self) -> None:  # noqa: N802
        self._dispatch(self._handle_get)

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch(self._handle_post)

    def _handle_get(self) -> None:
        url = urlsplit(self.path)
        path = url.path.rstrip("/")
        if path == "/healthz":
            health = self.service.healthz()
            self._send(503 if health["status"] == "draining" else 200, health)
            return
        if path == "/metrics":
            self._send(200, self.service.metrics())
            return
        if path.startswith("/jobs/"):
            parts = path.split("/")[2:]
            if len(parts) == 1:
                wait = _wait_seconds(url.query)
                self._send(200, self.service.job_status(parts[0], wait))
                return
            if len(parts) == 2 and parts[1] == "result":
                self._send(200, self.service.job_result(parts[0]))
                return
        self._send_error(404, f"no such endpoint: {self.path}")

    def _handle_post(self) -> None:
        if self.path.rstrip("/") != "/jobs":
            self._send_error(404, f"no such endpoint: {self.path}")
            return
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # the body's extent is unknown: answer, then drop the connection
            self.close_connection = True
            raise ServiceError(f"bad Content-Length header: {header!r}")
        if length > MAX_BODY_BYTES:
            # the body is never read, so the connection cannot be reused
            self.close_connection = True
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
                status=413,
            )
        raw = self.rfile.read(length) if length else b""
        try:
            payload = strict_loads(raw.decode() or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceError(f"malformed JSON body: {exc}") from exc
        status = self.service.submit(payload)
        # cache hits are complete on arrival; queued work is 202 Accepted
        self._send(200 if status["state"] == DONE else 202, status)


def _wait_seconds(query: str) -> float:
    """The ``wait`` of a status query string: a finite number >= 0."""
    params = parse_qs(query, keep_blank_values=True)
    try:
        (text,) = params.pop("wait", ["0"])
        wait = float(text)
    except ValueError:
        wait = -1.0
    if params or not 0.0 <= wait < float("inf"):
        raise ServiceError(
            f"a status query takes one 'wait' of seconds >= 0, got {query!r}"
        )
    return wait


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`FlowService`."""

    daemon_threads = True

    def __init__(self, address, service: FlowService, verbose: bool = False):
        super().__init__(address, _FlowRequestHandler)
        self.service = service
        self.verbose = verbose


class FlowDaemon:
    """Process-level lifecycle: HTTP thread, signal handling, drain."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        drain_timeout_s: float = 30.0,
        verbose: bool = False,
        **service_kwargs,
    ):
        self.service = FlowService(**service_kwargs)
        self.httpd = ServiceHTTPServer((host, port), self.service, verbose)
        self.drain_timeout_s = drain_timeout_s
        self._http_thread: Optional[threading.Thread] = None
        self._stop_requested = threading.Event()
        self._stopped = False

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        self.service.start()
        self._http_thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="flow-http",
            daemon=True,
        )
        self._http_thread.start()

    def request_stop(self, *_args) -> None:
        """Signal-handler-safe stop trigger (SIGTERM/SIGINT target)."""
        self._stop_requested.set()

    def install_signal_handlers(self) -> Dict[int, Any]:
        """Route SIGTERM/SIGINT to a graceful drain; returns old handlers."""
        old = {}
        for sig in (signal.SIGTERM, signal.SIGINT):
            old[sig] = signal.signal(sig, self.request_stop)
        return old

    def wait_for_stop(self, timeout: Optional[float] = None) -> bool:
        return self._stop_requested.wait(timeout)

    def stop(self) -> bool:
        """Graceful shutdown: drain accepted jobs, then close everything."""
        if self._stopped:
            return True
        self._stopped = True
        drained = self.service.stop(drain_timeout=self.drain_timeout_s)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
        return drained

    def serve_forever(self) -> bool:
        """Run until SIGTERM/SIGINT, then drain and exit (the CLI path)."""
        self.start()
        old = self.install_signal_handlers()
        try:
            self.wait_for_stop()
            return self.stop()
        finally:
            for sig, handler in old.items():
                signal.signal(sig, handler)
