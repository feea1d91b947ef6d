"""End-to-end resilience: client retries, injected faults, quarantine.

Every failure here is injected through :mod:`repro.faults` — real code
paths under a deterministic schedule, not mocks.
"""

import time

import pytest

from repro import faults
from repro.errors import FaultInjected, ServiceError
from repro.circuits import build
from repro.service import (
    FlowDaemon,
    FlowService,
    ResultCache,
    ServiceClient,
    registry_circuit,
)
from repro.service.queue import Job, WorkerPool

FAST_CONFIG = {"verify": "none"}
ADDER = registry_circuit("adder", "ci")


def make_service(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("queue_size", 8)
    kwargs.setdefault("job_timeout_s", 60.0)
    service = FlowService(**kwargs)
    service.start()
    return service


class TestClientRetries:
    """Transport-level retry/backoff, against a real daemon."""

    @pytest.fixture
    def daemon(self):
        d = FlowDaemon(port=0, workers=1, queue_size=8, job_timeout_s=60.0)
        d.start()
        yield d
        d.stop()

    def test_retries_injected_connection_resets(self, daemon):
        client = ServiceClient(daemon.url, retries=4, backoff_s=0.01)
        client.wait_ready(30.0)
        with faults.injected("client.request@nth=1;client.request@nth=2"):
            # first two transport attempts die; the third succeeds
            health = client.healthz()
        assert health["status"] == "ok"

    def test_retry_budget_exhausts(self, daemon):
        client = ServiceClient(daemon.url, retries=2, backoff_s=0.01)
        client.wait_ready(30.0)
        with faults.injected("client.request@after=0"):
            with pytest.raises(ServiceError) as exc_info:
                client.healthz()
        assert exc_info.value.status == 0
        assert "injected connection reset" in str(exc_info.value)

    def test_no_retries_fails_fast(self, daemon):
        client = ServiceClient(daemon.url, retries=0)
        client.wait_ready(30.0)
        with faults.injected("client.request@nth=1"):
            with pytest.raises(ServiceError):
                client.healthz()

    def test_retries_injected_server_rejects(self, daemon):
        # server-side 429 (fault: server.reject) is retried with backoff
        client = ServiceClient(daemon.url, retries=4, backoff_s=0.01)
        client.wait_ready(30.0)
        with faults.injected("server.reject@nth=1"):
            report = client.submit_and_wait(ADDER, config=FAST_CONFIG)
        assert report["metrics"]["area_jj"] > 0
        assert client.metrics()["jobs"]["rejected"] == 1

    def test_backoff_is_capped_and_deterministic(self):
        client = ServiceClient(
            "http://127.0.0.1:1", retries=8,
            backoff_s=0.1, backoff_cap_s=0.4, retry_jitter=0.1, retry_seed=0,
        )
        delays = [client._backoff_delay(i) for i in range(8)]
        assert all(d <= 0.4 * 1.1 + 1e-9 for d in delays)
        other = ServiceClient(
            "http://127.0.0.1:1", retries=8,
            backoff_s=0.1, backoff_cap_s=0.4, retry_jitter=0.1, retry_seed=0,
        )
        assert delays == [other._backoff_delay(i) for i in range(8)]

    def test_wait_ready_tolerates_boot_refusals(self):
        # nothing listens on the daemon's port yet: wait_ready must poll
        # through connection-refused and time out cleanly, fast probes
        client = ServiceClient("http://127.0.0.1:1", timeout=0.5)
        start = time.monotonic()
        with pytest.raises(ServiceError, match="not ready"):
            client.wait_ready(timeout=0.6)
        assert time.monotonic() - start < 10.0


class TestWorkerFaultPoints:
    """Dispatcher-evaluated faults: crash, hang, flow error, pipe."""

    @pytest.fixture
    def service(self):
        service = make_service()
        yield service
        service.stop(drain_timeout=10.0)

    def test_injected_crash_retries_then_succeeds(self, service):
        # the job's first attempt crashes its worker; the retry runs clean
        with faults.injected("worker.crash@nth=1"):
            status = service.submit({"circuit": ADDER, "config": FAST_CONFIG})
            job = service.wait(status["job_id"], timeout=60)
            metrics = service.metrics()  # inside: /metrics sees the plan
        assert job.state == "done"
        assert job.attempts == 2
        assert metrics["jobs"]["crashes"] == 1
        assert metrics["jobs"]["retries"] == 1
        assert metrics["jobs"]["quarantined"] == 0
        assert metrics["faults"] == {"worker.crash": 1}

    def test_persistent_crash_quarantines(self, service):
        with faults.injected("worker.crash@after=0"):
            status = service.submit({"circuit": ADDER, "config": FAST_CONFIG})
            job = service.wait(status["job_id"], timeout=60)
        assert job.state == "quarantined"
        assert job.attempts == 3
        assert "all 3 attempts" in job.error

    def test_injected_flow_error_fails_without_retry(self, service):
        # flow errors are deterministic: one attempt, terminal failure
        with faults.injected("worker.flow_error@nth=1"):
            status = service.submit({"circuit": ADDER, "config": FAST_CONFIG})
            job = service.wait(status["job_id"], timeout=60)
        assert job.state == "failed"
        assert job.attempts == 1
        assert "injected flow error" in job.error
        assert service.metrics()["jobs"]["retries"] == 0

    def test_injected_hang_times_out_without_retry(self):
        service = make_service(job_timeout_s=0.3)
        try:
            with faults.injected("worker.hang@nth=1"):
                status = service.submit(
                    {"circuit": ADDER, "config": FAST_CONFIG}
                )
                job = service.wait(status["job_id"], timeout=60)
            assert job.state == "failed"
            assert "timed out" in job.error
            assert service.metrics()["jobs"]["timeouts"] == 1
            assert service.metrics()["jobs"]["retries"] == 0
        finally:
            service.stop(drain_timeout=10.0)

    def test_pipe_fault_respawns_and_resends(self, service):
        # the worker dies just before dispatch: the send path respawns
        # the slot and re-sends — the job itself still succeeds first try
        with faults.injected("dispatch.pipe@nth=1"):
            status = service.submit({"circuit": ADDER, "config": FAST_CONFIG})
            job = service.wait(status["job_id"], timeout=60)
        assert job.state == "done"
        assert job.attempts == 1
        assert service.metrics()["workers"]["respawns"] == 1

    def test_result_of_quarantined_job_is_500(self, service):
        with faults.injected("worker.crash@after=0"):
            status = service.submit({"circuit": ADDER, "config": FAST_CONFIG})
            service.wait(status["job_id"], timeout=60)
        with pytest.raises(ServiceError) as exc_info:
            service.job_result(status["job_id"])
        assert exc_info.value.status == 500
        assert "quarantined" in str(exc_info.value)


class TestCacheFaults:
    def test_cache_faults_raise_fault_injected(self):
        cache = ResultCache(4)
        with faults.injected("cache.put@nth=1"):
            with pytest.raises(FaultInjected):
                cache.put("k", {"v": 1})
        with faults.injected("cache.get@nth=1"):
            cache.put("k", {"v": 1})
            with pytest.raises(FaultInjected):
                cache.get("k")

    def test_broken_cache_degrades_to_miss(self):
        # cache.get blows up on the duplicate submission: the service
        # treats it as a miss and runs the job instead of failing it
        service = make_service()
        try:
            payload = {"circuit": ADDER, "config": FAST_CONFIG}
            first = service.submit(payload)
            service.wait(first["job_id"], timeout=60)
            with faults.injected("cache.get@after=0"):
                second = service.submit(payload)
                job = service.wait(second["job_id"], timeout=60)
            assert job.state == "done"
            assert second["cached"] is False
            assert service.metrics()["cache"]["errors"] >= 1
        finally:
            service.stop(drain_timeout=10.0)

    def test_broken_cache_store_keeps_result(self):
        # cache.put blows up when the first result lands: the report is
        # still served; only the cache entry is lost (next submit reruns)
        service = make_service()
        try:
            with faults.injected("cache.put@after=0"):
                payload = {"circuit": ADDER, "config": FAST_CONFIG}
                first = service.submit(payload)
                job = service.wait(first["job_id"], timeout=60)
                assert job.state == "done"
                assert service.job_result(job.id)["metrics"]["area_jj"] > 0
                second = service.submit(payload)
                assert second["cached"] is False
            assert service.metrics()["cache"]["errors"] >= 1
            service.wait(second["job_id"], timeout=60)
        finally:
            service.stop(drain_timeout=10.0)


class TestSubmitAndWaitResubmission:
    def test_retryable_failure_is_resubmitted(self):
        # server-side retries off (job_max_attempts=1): the crash comes
        # back retryable=True and submit_and_wait resubmits; the second
        # submission runs clean (nth=1 consumed) and succeeds
        daemon = FlowDaemon(
            port=0, workers=1, queue_size=8, job_timeout_s=60.0,
            job_max_attempts=1,
        )
        daemon.start()
        try:
            client = ServiceClient(daemon.url, retries=2, backoff_s=0.01)
            client.wait_ready(30.0)
            with faults.injected("worker.crash@nth=1"):
                report = client.submit_and_wait(
                    ADDER, config=FAST_CONFIG, timeout=60.0
                )
            assert report["metrics"]["area_jj"] > 0
            metrics = client.metrics()
            assert metrics["jobs"]["crashes"] == 1
            assert metrics["jobs"]["quarantined"] == 0
        finally:
            daemon.stop()


class TestDrainWithRetries:
    def test_drain_timeout_expires_with_pending_work(self):
        service = make_service()
        try:
            status = service.submit(
                {"circuit": ADDER, "config": FAST_CONFIG,
                 "debug": {"sleep_s": 3.0}}
            )
            start = time.monotonic()
            assert service.pool.drain(timeout=0.15) is False
            assert time.monotonic() - start < 2.0
            service.wait(status["job_id"], timeout=60)
        finally:
            service.stop(drain_timeout=10.0)

    def test_accepted_job_retries_during_drain(self):
        # a job accepted before the drain may still burn crash retries
        # during it; the drain completes and the job terminates
        service = make_service()
        try:
            with faults.injected("worker.crash@nth=1"):
                status = service.submit(
                    {"circuit": ADDER, "config": FAST_CONFIG}
                )
                service.begin_drain()
                job = service.wait(status["job_id"], timeout=60)
            assert job.state == "done"
            assert job.attempts == 2
            assert service.pool.drain(timeout=30.0) is True
        finally:
            service.stop(drain_timeout=10.0)


class TestFaultPlanThroughService:
    def test_service_installs_and_reports_plan(self):
        service = make_service(fault_plan="worker.crash@nth=1")
        try:
            status = service.submit({"circuit": ADDER, "config": FAST_CONFIG})
            job = service.wait(status["job_id"], timeout=60)
            assert job.state == "done"
            assert job.attempts == 2
            assert service.metrics()["faults"] == {"worker.crash": 1}
        finally:
            service.stop(drain_timeout=10.0)


class TestFinishedJobsReleaseTheirNetwork:
    """Terminal job records drop their parsed circuit; retries keep it."""

    def test_terminal_jobs_release_the_network(self):
        service = make_service()
        payload = {"circuit": ADDER, "config": FAST_CONFIG}

        def run():
            return service.wait(service.submit(payload)["job_id"], timeout=60)

        try:
            # every job below is a cache miss until one finishes ok
            with faults.injected("worker.flow_error@nth=1"):
                failed = run()
            with faults.injected("worker.crash@after=0"):
                quarantined = run()
            with faults.injected("worker.crash@nth=1"):
                retried = run()
            hit = run()
        finally:
            service.stop(drain_timeout=10.0)
        assert failed.state == "failed"
        assert quarantined.state == "quarantined"
        # the retry after the crash still had its network to run on
        assert (retried.state, retried.attempts) == ("done", 2)
        assert (hit.state, hit.cached) == ("done", True)
        for job in (failed, quarantined, retried, hit):
            assert job.net is None

    def test_crashed_attempt_keeps_the_network_for_its_retry(self):
        pool = WorkerPool(workers=1, job_max_attempts=3)  # never started
        job = Job(net=build("adder", "ci"), config=dict(FAST_CONFIG))
        job.attempts = 1
        assert pool._crash_disposition(job, "worker crashed") is True
        assert job.state == "queued"
        assert job.net is not None
