"""WorkerPool: warm workers, timeouts, crash respawn, backpressure, drain."""

import time

import pytest

from repro.circuits import build, ripple_carry_adder
from repro.service.protocol import (
    DONE,
    FAILED,
    QUARANTINED,
    build_pipeline,
    flow_report,
    normalize_config,
)
from repro.service.queue import (
    DrainingError,
    Job,
    QueueFullError,
    WorkerPool,
)

FAST = normalize_config({"verify": "none"})


def make_job(width=4, config=FAST, **kwargs):
    return Job(net=ripple_carry_adder(width), config=dict(config), **kwargs)


@pytest.fixture
def pool():
    p = WorkerPool(workers=1, queue_size=4, job_timeout_s=60.0)
    p.start()
    yield p
    p.shutdown()


class TestExecution:
    def test_job_report_matches_in_process(self, pool):
        job = Job(net=build("adder", "ci"), config=dict(FAST))
        pool.submit(job)
        assert job.done.wait(60)
        assert job.state == DONE
        ctx = build_pipeline(FAST).run(build("adder", "ci"))
        expected = flow_report(ctx, config=FAST)
        # timing fields vary per run; everything semantic is bit-identical
        for key in ("schema", "benchmark", "config", "metrics", "t1",
                    "verified", "cached"):
            assert job.report[key] == expected[key]

    def test_done_is_set_after_the_outcome_is_reported(self):
        # a waiter woken by ``done`` must find what on_job_done recorded
        # (the service's cache entry), however slow that callback is
        reported = []

        def on_job_done(job):
            time.sleep(0.3)
            reported.append(job.id)

        p = WorkerPool(workers=1, queue_size=4, job_timeout_s=60.0,
                       on_job_done=on_job_done)
        p.start()
        try:
            job = make_job()
            p.submit(job)
            assert job.done.wait(60)
            assert reported == [job.id]
        finally:
            p.shutdown()

    def test_worker_stays_warm_across_jobs(self, pool):
        first = make_job()
        pool.submit(first)
        assert first.done.wait(60)
        stats0 = pool.stats()
        second = make_job()
        pool.submit(second)
        assert second.done.wait(60)
        stats1 = pool.stats()
        assert stats1["respawns"] == stats0["respawns"] == 0
        assert stats1["completed"] == 2

    def test_flow_error_fails_job_not_worker(self, pool):
        # an in-worker Python exception must be reported, with no respawn
        # (the pool does not pre-validate configs; FlowService does)
        bad = dict(FAST)
        bad["n_phases"] = 2  # use_t1 needs >= 3: raises inside the worker
        job = make_job(config=bad)
        pool.submit(job)
        assert job.done.wait(60)
        assert job.state == FAILED
        assert "flow failed" in job.error
        ok = make_job()
        pool.submit(ok)
        assert ok.done.wait(60)
        assert ok.state == DONE
        assert pool.stats()["respawns"] == 0


class TestCrashRecovery:
    def test_crash_quarantines_after_retries_and_respawns(self, pool):
        # a debug-crash job crashes its worker on every attempt: after
        # job_max_attempts (default 3) tries it is quarantined, each
        # crash respawns the worker, and other jobs are unaffected
        crash = make_job(debug={"crash": True})
        follow = make_job()
        pool.submit(crash)
        pool.submit(follow)
        assert crash.done.wait(60)
        assert follow.done.wait(60)
        assert crash.state == QUARANTINED
        assert "worker crashed" in crash.error
        assert "exit code 3" in crash.error
        assert "all 3 attempts" in crash.error
        assert crash.attempts == 3
        assert follow.state == DONE
        stats = pool.stats()
        assert stats["crashes"] == 3
        assert stats["respawns"] == 3
        assert stats["retries"] == 2
        assert stats["quarantined"] == 1
        assert stats["workers_alive"] == 1

    def test_single_attempt_pool_fails_retryable(self):
        # job_max_attempts=1: no server-side retry; the failure is
        # marked retryable so a client may resubmit
        pool = WorkerPool(
            workers=1, queue_size=4, job_timeout_s=60.0, job_max_attempts=1
        )
        pool.start()
        try:
            crash = make_job(debug={"crash": True})
            pool.submit(crash)
            assert crash.done.wait(60)
            assert crash.state == FAILED
            assert crash.retryable is True
            assert pool.stats()["retries"] == 0
        finally:
            pool.shutdown()


class TestTimeouts:
    def test_overrunning_job_is_killed(self, pool):
        slow = make_job(debug={"sleep_s": 30}, timeout_s=0.2)
        pool.submit(slow)
        assert slow.done.wait(60)
        assert slow.state == FAILED
        assert "timed out after 0.2s" in slow.error
        assert pool.stats()["timeouts"] == 1
        # the slot is warm again
        ok = make_job()
        pool.submit(ok)
        assert ok.done.wait(60)
        assert ok.state == DONE


class TestBackpressureAndDrain:
    def test_full_queue_rejects(self):
        pool = WorkerPool(workers=1, queue_size=1, job_timeout_s=60.0)
        pool.start()
        try:
            jobs = [make_job(debug={"sleep_s": 0.6}) for _ in range(3)]
            accepted = []
            with pytest.raises(QueueFullError) as exc_info:
                for job in jobs:
                    pool.submit(job)
                    accepted.append(job)
            assert exc_info.value.status == 429
            # at most 1 in flight + 1 queued; the exact split depends on
            # how fast the dispatcher dequeues the first job
            assert 1 <= len(accepted) <= 2
            for job in accepted:
                assert job.done.wait(60)
                assert job.state == DONE
        finally:
            pool.shutdown()

    def test_drain_finishes_accepted_work_and_rejects_new(self):
        pool = WorkerPool(workers=1, queue_size=4, job_timeout_s=60.0)
        pool.start()
        try:
            inflight = make_job(debug={"sleep_s": 0.4})
            pool.submit(inflight)
            pool.begin_drain()
            with pytest.raises(DrainingError) as exc_info:
                pool.submit(make_job())
            assert exc_info.value.status == 503
            assert pool.drain(timeout=60)
            assert inflight.state == DONE
        finally:
            pool.shutdown()

    def test_drain_timeout_reports_false(self):
        pool = WorkerPool(workers=1, queue_size=4, job_timeout_s=60.0)
        pool.start()
        try:
            pool.submit(make_job(debug={"sleep_s": 2.0}))
            assert pool.drain(timeout=0.1) is False
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(workers=1, queue_size=2)
        pool.start()
        pool.shutdown()
        pool.shutdown()
        assert pool.stats()["workers_alive"] == 0


class TestValidation:
    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)
        with pytest.raises(ValueError):
            WorkerPool(queue_size=0)
