"""Async job queue in front of a warm multiprocessing worker pool.

Design
------
Each pool slot is one dispatcher *thread* owning one worker *process*
connected by a pipe.  Dispatchers pull jobs from a shared bounded queue,
ship ``(net, config)`` to their worker, and wait with a deadline.  That
one-thread-one-process shape is what buys the serving guarantees:

* **warm workers** — processes are spawned eagerly at :meth:`start` and
  run the *initializer* (:func:`repro.pipeline.batch.warm_worker` by
  default) once, so the NPN/T1 lookup tables are resident before the
  first job arrives and stay resident across jobs;
* **per-job timeouts** — the dispatcher polls the pipe with a deadline;
  an overrunning worker is killed (a thread could never interrupt it)
  and the slot respawns warm;
* **crash isolation** — a dying worker closes its pipe; the dispatcher
  sees EOF, fails *that job* with the exit code, respawns the worker
  and keeps serving.  A crash never takes down the daemon or any other
  in-flight job;
* **backpressure** — the queue is bounded; :meth:`submit` never blocks.
  A full queue raises :class:`QueueFullError` (the server's 429) instead
  of buffering unbounded work;
* **crash retries + quarantine** — an infrastructure failure (worker
  crash, broken pipe) requeues the job for another attempt; a job that
  kills its worker :attr:`job_max_attempts` times is *quarantined* with
  a diagnostic instead of being retried forever.  Flow errors and
  timeouts are deterministic, so they fail immediately with no retry.

Jobs are plain state machines (``queued -> running -> done | failed |
quarantined``) with a :class:`threading.Event` for waiters; the pool
reports every outcome through ``on_job_done`` — a job is *failed* or
*quarantined*, never lost — and sets the event only after that
callback, so a woken waiter sees everything it recorded (the service's
result cache entry).

Fault points (see :mod:`repro.faults`; all evaluated in the dispatcher
thread so nth-hit schedules stay deterministic across worker respawns):

* ``worker.crash`` — the worker hard-exits on this job attempt;
* ``worker.hang`` — the worker sleeps past the job timeout;
* ``worker.flow_error`` — the flow raises inside the worker;
* ``dispatch.pipe`` — the worker dies just before dispatch (exercises
  the respawn-and-resend path without failing the job).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as _stdlib_queue
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro import faults
from repro.errors import ServiceError
from repro.network.logic_network import LogicNetwork
from repro.pipeline.batch import warm_worker
from repro.service.protocol import (
    DONE,
    FAILED,
    QUARANTINED,
    QUEUED,
    RUNNING,
    build_pipeline,
    flow_report,
)


class QueueFullError(ServiceError):
    """The bounded job queue is full — back off and resubmit."""

    def __init__(self, message: str):
        super().__init__(message, status=429)


class DrainingError(ServiceError):
    """The pool is draining for shutdown and accepts no new work."""

    def __init__(self, message: str):
        super().__init__(message, status=503)


def new_job_id() -> str:
    return uuid.uuid4().hex[:16]


@dataclass
class Job:
    """One unit of service work and its lifecycle record.

    ``net`` is released (set to ``None``) when the job reaches a terminal
    state: the record outlives the flow, and a parsed circuit per kept
    record would grow the daemon with every job.  A crashed attempt that
    is retried goes back to ``QUEUED`` and keeps its network.

    ``done`` is set by whoever settles the job once its outcome is fully
    recorded: the pool after ``on_job_done``, the service for a cache hit.
    """

    net: Optional[LogicNetwork]
    config: Dict[str, Any]
    id: str = field(default_factory=new_job_id)
    cache_key: Optional[str] = None
    timeout_s: Optional[float] = None
    debug: Optional[Dict[str, Any]] = None

    state: str = QUEUED
    report: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cached: bool = False
    attempts: int = 0
    retryable: bool = False
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    def finish_ok(self, report: Dict[str, Any]) -> None:
        self.net = None
        self.report = report
        self.state = DONE
        self.finished_at = time.time()

    def finish_failed(self, error: str, retryable: bool = False) -> None:
        self.net = None
        self.error = error
        self.retryable = retryable
        self.state = FAILED
        self.finished_at = time.time()

    def finish_quarantined(self, error: str) -> None:
        """Terminal poisoned-job state: never retried, never lost."""
        self.net = None
        self.error = error
        self.retryable = False
        self.state = QUARANTINED
        self.finished_at = time.time()

    def status_dict(self) -> Dict[str, Any]:
        """The wire-format status view of this job."""
        return {
            "job_id": self.id,
            "state": self.state,
            "cached": self.cached,
            "error": self.error,
            "attempts": self.attempts,
            "retryable": self.retryable,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


def _worker_main(conn, initializer: Optional[Callable[[], None]]) -> None:
    """Worker-process loop: warm up once, then serve jobs until EOF."""
    try:
        if initializer is not None:
            initializer()
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            if msg is None:
                return
            job_id, net, config, debug = msg
            try:
                if debug:
                    sleep_s = debug.get("sleep_s")
                    if sleep_s:
                        time.sleep(float(sleep_s))
                    if debug.get("crash"):
                        # simulate a hard native crash (segfault, OOM kill):
                        # no exception, no cleanup, the pipe just dies
                        os._exit(3)
                    if debug.get("fail"):
                        raise RuntimeError(
                            "injected flow error (debug.fail)"
                        )
                ctx = build_pipeline(config).run(net)
                conn.send(("ok", job_id, flow_report(ctx, config=config)))
            except Exception:
                conn.send(("error", job_id, traceback.format_exc(limit=20)))
    except KeyboardInterrupt:  # pragma: no cover - parent teardown race
        pass


class _Worker:
    """Parent-side handle of one warm worker process."""

    def __init__(self, ctx, initializer: Optional[Callable[[], None]]):
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.proc = ctx.Process(
            target=_worker_main, args=(child_conn, initializer), daemon=True
        )
        self.proc.start()
        child_conn.close()

    def alive(self) -> bool:
        return self.proc.is_alive()

    def kill(self) -> Optional[int]:
        """Force-terminate the process; returns its exit code."""
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5.0)
        return self.proc.exitcode

    def stop(self) -> None:
        """Ask the process to exit cleanly; force-kill if it won't."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=1.0)
        self.kill()


_SENTINEL = object()


class WorkerPool:
    """Bounded job queue feeding N warm, crash-isolated worker slots."""

    def __init__(
        self,
        workers: int = 2,
        queue_size: int = 32,
        job_timeout_s: float = 300.0,
        initializer: Optional[Callable[[], None]] = warm_worker,
        on_job_done: Optional[Callable[[Job], None]] = None,
        mp_context: Optional[str] = None,
        job_max_attempts: int = 3,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if job_max_attempts < 1:
            raise ValueError("job_max_attempts must be >= 1")
        self.workers = workers
        self.queue_size = queue_size
        self.job_timeout_s = job_timeout_s
        self.job_max_attempts = job_max_attempts
        self.initializer = initializer
        self.on_job_done = on_job_done
        self._ctx = mp.get_context(mp_context)
        self._queue: "_stdlib_queue.Queue" = _stdlib_queue.Queue(
            maxsize=queue_size
        )
        self._slots: List[Optional[_Worker]] = [None] * workers
        self._threads: List[threading.Thread] = []
        self._lock = threading.Lock()
        self._accepting = False
        self._started = False
        self._pending = 0  # queued + in flight
        self._busy = 0
        self._stats = {
            "completed": 0,
            "failed": 0,
            "timeouts": 0,
            "crashes": 0,
            "respawns": 0,
            "retries": 0,
            "quarantined": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn every worker (warm) and the dispatcher threads."""
        if self._started:
            return
        # spawn the processes before any dispatcher thread exists: forking
        # from a single-threaded parent avoids inherited-lock hazards
        for i in range(self.workers):
            self._slots[i] = _Worker(self._ctx, self.initializer)
        for i in range(self.workers):
            t = threading.Thread(
                target=self._dispatch_loop,
                args=(i,),
                name=f"flow-dispatch-{i}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)
        self._started = True
        self._accepting = True

    def begin_drain(self) -> None:
        """Stop accepting new jobs; queued and in-flight work continues."""
        self._accepting = False

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every accepted job has finished.

        Returns ``False`` if *timeout* elapsed with work still pending.
        """
        # monotonic deadline: a wall-clock jump must not extend or cut
        # short the drain window
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if self._pending == 0:
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.02)

    def shutdown(self) -> None:
        """Stop dispatchers and terminate every worker process."""
        self.begin_drain()
        if not self._started:
            return
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for t in self._threads:
            t.join(timeout=10.0)
        for i, worker in enumerate(self._slots):
            if worker is not None:
                worker.stop()
                self._slots[i] = None
        self._threads = []
        self._started = False

    # -- submission ----------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Enqueue *job* without blocking; raises on backpressure/drain."""
        if not self._accepting:
            raise DrainingError("service is draining; not accepting jobs")
        with self._lock:
            self._pending += 1
        try:
            self._queue.put_nowait(job)
        except _stdlib_queue.Full:
            with self._lock:
                self._pending -= 1
            raise QueueFullError(
                f"job queue full ({self.queue_size} pending); retry later"
            ) from None
        job.state = QUEUED

    # -- dispatching ---------------------------------------------------------

    def _dispatch_loop(self, slot: int) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                return
            requeue = False
            try:
                requeue = self._run_on_worker(slot, item)
                if requeue:
                    try:
                        # bypasses submit(): an accepted job may retry
                        # even while the pool is draining
                        self._queue.put_nowait(item)
                    except _stdlib_queue.Full:
                        requeue = False
                        self._quarantine(
                            item,
                            f"{item.error or 'worker crashed'}; retry "
                            "requeue rejected (queue full)",
                        )
            finally:
                if not requeue:
                    with self._lock:
                        self._pending -= 1
                    if self.on_job_done is not None:
                        try:
                            self.on_job_done(item)
                        except Exception:  # pragma: no cover - observer bug
                            traceback.print_exc()
                    item.done.set()

    def _ensure_worker(self, slot: int) -> _Worker:
        worker = self._slots[slot]
        if worker is None or not worker.alive():
            if worker is not None:
                worker.kill()
            worker = _Worker(self._ctx, self.initializer)
            self._slots[slot] = worker
            with self._lock:
                self._stats["respawns"] += 1
        return worker

    def _replace_worker(self, slot: int) -> Optional[int]:
        """Kill and respawn the slot's worker; returns the old exit code."""
        worker = self._slots[slot]
        exitcode = worker.kill() if worker is not None else None
        self._slots[slot] = _Worker(self._ctx, self.initializer)
        with self._lock:
            self._stats["respawns"] += 1
        return exitcode

    def _injected_debug(self, job: Job) -> Optional[Dict[str, Any]]:
        """Apply worker-directed fault points to this job attempt.

        Evaluated here, in the dispatcher thread, so the plan's hit
        counters live in one process and nth-hit schedules survive
        worker respawns.  The directives ride the existing debug hooks.
        """
        debug = job.debug
        if faults.should_fire("worker.crash"):
            debug = dict(debug or {})
            debug["crash"] = True
        if faults.should_fire("worker.hang"):
            debug = dict(debug or {})
            timeout = job.timeout_s if job.timeout_s else self.job_timeout_s
            debug["sleep_s"] = timeout * 4 + 1.0
        if faults.should_fire("worker.flow_error"):
            debug = dict(debug or {})
            debug["fail"] = True
        return debug

    def _run_on_worker(self, slot: int, job: Job) -> bool:
        """Run one attempt of *job*; ``True`` asks for a retry requeue."""
        job.attempts += 1
        job.state = RUNNING
        job.started_at = time.time()
        with self._lock:
            self._busy += 1
        try:
            payload = (job.id, job.net, job.config, self._injected_debug(job))
            worker = self._slots[slot]
            if worker is None or not worker.alive():
                worker = self._ensure_worker(slot)
            if faults.should_fire("dispatch.pipe"):
                # the worker dies just before dispatch: the send below
                # hits a broken pipe and the respawn-and-resend path runs
                worker.kill()
            try:
                worker.conn.send(payload)
            except (BrokenPipeError, OSError):
                # the worker died between jobs — respawn once and retry
                self._replace_worker(slot)
                worker = self._slots[slot]
                try:
                    worker.conn.send(payload)
                except (BrokenPipeError, OSError):
                    return self._crash_disposition(
                        job, "worker unavailable (pipe broken twice)"
                    )
            timeout = job.timeout_s if job.timeout_s else self.job_timeout_s
            if not worker.conn.poll(timeout):
                self._replace_worker(slot)
                with self._lock:
                    self._stats["timeouts"] += 1
                # an overrun is deterministic work, not infrastructure
                # flakiness: retrying it would overrun again
                self._fail(job, f"job timed out after {timeout:g}s")
                return False
            try:
                status, job_id, payload = worker.conn.recv()
            except (EOFError, OSError):
                exitcode = self._replace_worker(slot)
                with self._lock:
                    self._stats["crashes"] += 1
                return self._crash_disposition(
                    job, f"worker crashed (exit code {exitcode})"
                )
            if job_id != job.id:  # pragma: no cover - protocol invariant
                self._replace_worker(slot)
                self._fail(job, "worker returned a mismatched job id")
                return False
            if status == "ok":
                with self._lock:
                    self._stats["completed"] += 1
                job.finish_ok(payload)
            else:
                self._fail(job, f"flow failed:\n{payload}")
            return False
        finally:
            with self._lock:
                self._busy -= 1

    def _crash_disposition(self, job: Job, error: str) -> bool:
        """Retry, fail-retryable or quarantine a crashed job attempt."""
        job.error = error
        if job.attempts < self.job_max_attempts:
            with self._lock:
                self._stats["retries"] += 1
            job.state = QUEUED
            return True
        if self.job_max_attempts == 1:
            # server-side retries disabled: surface the crash as a
            # retryable failure so the client may resubmit
            self._fail(job, error, retryable=True)
            return False
        self._quarantine(
            job,
            f"{error}; job crashed its worker on all "
            f"{job.attempts} attempts",
        )
        return False

    def _quarantine(self, job: Job, error: str) -> None:
        with self._lock:
            self._stats["quarantined"] += 1
        job.finish_quarantined(error)

    def _fail(self, job: Job, error: str, retryable: bool = False) -> None:
        with self._lock:
            self._stats["failed"] += 1
        job.finish_failed(error, retryable=retryable)

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            out = dict(self._stats)
            out["in_flight"] = self._busy
            out["pending"] = self._pending
        out["queue_depth"] = self._queue.qsize()
        out["queue_capacity"] = self.queue_size
        out["workers_configured"] = self.workers
        out["workers_alive"] = sum(
            1 for w in self._slots if w is not None and w.alive()
        )
        out["accepting"] = self._accepting
        return out
