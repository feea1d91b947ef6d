"""Thin HTTP client for the flow service (stdlib ``urllib`` only).

Speaks the strict-JSON wire format from :mod:`repro.service.protocol`;
every server-side failure surfaces as a :class:`ServiceError` carrying
the HTTP status (429 = backpressure, 503 = draining, 404 = unknown job,
500 = the job itself failed), so callers can branch on ``exc.status``
without parsing message text.

Resilience
----------
Transient failures are retried with capped exponential backoff plus
deterministic jitter: connection-level errors (refused / reset /
injected via the ``client.request`` fault point), 429 backpressure and
503 draining all back off and retry up to ``retries`` times before the
error escapes.  Set ``retries=0`` for the pre-retry behaviour.

:meth:`submit_and_wait` additionally resubmits a job whose *result* was
a retryable infrastructure failure (a worker crash on a pool with
server-side retries disabled) — the content-addressed cache makes
duplicate submissions cheap, so at-least-once delivery is safe.

All deadlines use ``time.monotonic()``: a wall-clock jump (NTP step,
suspend/resume) can neither cut a wait short nor extend it forever.
"""

from __future__ import annotations

import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from repro import faults
from repro.errors import ServiceError
from repro.io.json_report import dumps_json_report, strict_loads
from repro.service.protocol import DONE, TERMINAL_STATES

#: HTTP statuses worth retrying: backpressure and drain-in-progress.
#: status 0 (no HTTP response: refused, reset, timeout) is also retried.
RETRYABLE_STATUSES = (0, 429, 503)


class ServiceClient:
    """Client for one flow-service base URL."""

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 4,
        backoff_s: float = 0.1,
        backoff_cap_s: float = 2.0,
        retry_jitter: float = 0.1,
        retry_seed: Optional[int] = 0,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.retry_jitter = retry_jitter
        # seeded by default: retry schedules are reproducible unless the
        # caller opts into entropy with retry_seed=None
        self._rng = random.Random(retry_seed)

    # -- transport -----------------------------------------------------------

    def _backoff_delay(self, attempt: int) -> float:
        """Capped exponential backoff with jitter for retry *attempt*."""
        base = min(self.backoff_cap_s, self.backoff_s * (2.0 ** attempt))
        return base * (1.0 + self.retry_jitter * self._rng.random())

    @staticmethod
    def _transient(exc: ServiceError) -> bool:
        return exc.status in RETRYABLE_STATUSES

    def _request_once(
        self, method: str, path: str, body: Optional[Any] = None
    ) -> Any:
        if faults.should_fire("client.request"):
            raise ServiceError(
                f"injected connection reset for {method} {path} "
                "(fault: client.request)"
            )
        url = self.base_url + path
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = dumps_json_report(body).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            url, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return strict_loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode(errors="replace")
            try:
                message = strict_loads(raw).get("error", raw)
            except (ValueError, AttributeError):
                message = raw or exc.reason
            raise ServiceError(message, status=exc.code) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach flow service at {self.base_url}: {exc.reason}"
            ) from exc

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Any] = None,
        retry: bool = True,
    ) -> Any:
        attempts = 1 + (self.retries if retry else 0)
        for attempt in range(attempts):
            try:
                return self._request_once(method, path, body)
            except ServiceError as exc:
                if attempt + 1 >= attempts or not self._transient(exc):
                    raise
                time.sleep(self._backoff_delay(attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    # -- API -----------------------------------------------------------------

    def submit(
        self,
        circuit: Dict[str, Any],
        config: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
        debug: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Submit one job; returns its status dict (see ``Job.status_dict``).

        Retried on transient failures: resubmitting after an ambiguous
        connection loss is safe because jobs are content-addressed — a
        duplicate lands on the result cache, not on a worker.
        """
        payload: Dict[str, Any] = {"circuit": circuit}
        if config is not None:
            payload["config"] = config
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        if debug is not None:
            payload["debug"] = debug
        return self._request("POST", "/jobs", payload)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        """The finished flow report (raises while the job is unfinished)."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def wait_status(
        self,
        job_id: str,
        timeout: Optional[float] = 300.0,
        poll_interval: float = 0.05,
        poll_cap: float = 1.0,
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns its status.

        Between status reads the daemon holds a request open until the
        job finishes or the poll interval elapses, so the job is seen
        finished within a round trip of its end, not at the next poll.
        The interval backs off exponentially from *poll_interval* up to
        *poll_cap*, so long jobs do not hammer the daemon.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = poll_interval
        while True:
            status = self.status(job_id)
            if status["state"] in TERMINAL_STATES:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out waiting for job {job_id} "
                    f"(last state: {status['state']})"
                )
            # held at most half the request timeout, so it never trips it
            hold = min(delay, self.timeout / 2)
            self._request("GET", f"/jobs/{job_id}?wait={hold:g}")
            delay = min(poll_cap, delay * 2.0)

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = 300.0,
        poll_interval: float = 0.05,
    ) -> Dict[str, Any]:
        """Poll until the job finishes; returns its report.

        A failed or quarantined job raises :class:`ServiceError` with
        the server-side error text (status 500).
        """
        self.wait_status(job_id, timeout=timeout, poll_interval=poll_interval)
        return self.result(job_id)

    def submit_and_wait(
        self,
        circuit: Dict[str, Any],
        config: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
        timeout: Optional[float] = 300.0,
    ) -> Dict[str, Any]:
        """Submit and block for the report (cache hits return immediately).

        A job whose outcome is a *retryable* failure (infrastructure
        crash, not a flow error) is resubmitted with backoff up to the
        client's retry budget; deterministic failures raise immediately.
        """
        for attempt in range(1 + self.retries):
            status = self.submit(circuit, config=config, timeout_s=timeout_s)
            if status["state"] == DONE:
                return self.result(status["job_id"])
            status = self.wait_status(status["job_id"], timeout=timeout)
            if not (
                status.get("retryable") and attempt + 1 <= self.retries
            ):
                return self.result(status["job_id"])
            time.sleep(self._backoff_delay(attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def wait_ready(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Poll ``/healthz`` until the daemon answers (boot handshake).

        Connection-refused during daemon startup is expected, not
        exceptional: each probe runs without per-request retries (so a
        dead port fails fast instead of burning the deadline inside the
        transport) and the probe interval backs off exponentially.
        """
        deadline = time.monotonic() + timeout
        delay = 0.05
        last: Optional[ServiceError] = None
        while time.monotonic() < deadline:
            try:
                return self._request("GET", "/healthz", retry=False)
            except ServiceError as exc:
                last = exc
                time.sleep(delay)
                delay = min(0.5, delay * 2.0)
        raise ServiceError(
            f"flow service at {self.base_url} not ready after {timeout:g}s"
            + (f" (last error: {last})" if last else "")
        )
