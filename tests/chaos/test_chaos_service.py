"""Chaos: the flow service under randomized seeded fault schedules.

Each test replays a fixed-seed Bernoulli fault schedule (crashes,
dropped pipes, broken cache, connection resets) against real jobs and
asserts the resilience invariants the service promises:

* **no lost jobs** — every accepted job reaches a terminal state;
* **bit-identical retries** — a job that succeeded after any number of
  crashes/retries reports exactly what a fault-free run reports;
* **clean drains** — shutdown under chaos still drains accepted work.
"""

import os
import signal

import pytest

from repro import faults
from repro.errors import ServiceError
from repro.service import (
    TERMINAL_STATES,
    FlowDaemon,
    FlowService,
    ServiceClient,
    registry_circuit,
)

#: the seeded schedules to replay (CI pins one seed per matrix job)
CHAOS_SEEDS = [
    int(s)
    for s in os.environ.get("REPRO_CHAOS_SEEDS", "7,19").split(",")
    if s.strip()
]

ADDER = registry_circuit("adder", "ci")

#: distinct configs so the sweep exercises cache misses, not one key
CONFIGS = [
    {"verify": "none"},
    {"verify": "none", "sweeps": 2},
    {"verify": "none", "use_t1": False},
]

#: report fields that must be reproducible (timing fields vary per run)
SEMANTIC_FIELDS = ("benchmark", "metrics", "t1", "verified", "events")

#: the in-process schedule: worker crashes, pre-dispatch pipe drops,
#: flow errors, and a cache that fails open on both get and put.
#: (worker.hang is deliberately absent — hung jobs only die via the
#: per-job timeout, which would dominate the test's wall clock.)
SERVICE_PLAN = (
    "seed={seed};worker.crash@p=0.25;dispatch.pipe@p=0.15;"
    "worker.flow_error@p=0.1;cache.get@p=0.25;cache.put@p=0.25"
)


@pytest.fixture(scope="module")
def baseline():
    """Fault-free semantic reports, one per config, to diff chaos against."""
    service = FlowService(workers=2, queue_size=16, job_timeout_s=120.0)
    service.start()
    try:
        out = []
        for cfg in CONFIGS:
            status = service.submit({"circuit": ADDER, "config": cfg})
            job = service.wait(status["job_id"], timeout=120)
            assert job.state == "done"
            out.append(service.job_result(job.id))
        return out
    finally:
        service.stop(drain_timeout=10.0)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_no_lost_jobs_and_identical_done_results(seed, baseline):
    service = FlowService(
        workers=2, queue_size=32, job_timeout_s=120.0, job_max_attempts=3
    )
    service.start()
    stopped = False
    try:
        with faults.injected(SERVICE_PLAN.format(seed=seed)):
            submitted = []
            for i in range(9):
                cfg_index = i % len(CONFIGS)
                status = service.submit(
                    {"circuit": ADDER, "config": CONFIGS[cfg_index]}
                )
                submitted.append((cfg_index, status["job_id"]))

            for cfg_index, job_id in submitted:
                job = service.wait(job_id, timeout=120)
                # invariant 1: nothing is lost — every job terminates
                assert job.state in TERMINAL_STATES
                if job.state == "done":
                    # invariant 2: retried results are bit-identical
                    report = service.job_result(job_id)
                    for field in SEMANTIC_FIELDS:
                        assert report[field] == baseline[cfg_index][field]
                elif job.state == "failed":
                    assert "injected flow error" in job.error
                else:
                    assert job.state == "quarantined"
                    assert "all 3 attempts" in job.error

            metrics = service.metrics()
            assert metrics["jobs"]["submitted"] == 9
            assert metrics["workers"]["alive"] == 2
            # invariant 3: the drain completes despite in-flight chaos
            drained = service.stop(drain_timeout=30.0)
            stopped = True
            assert drained is True
    finally:
        if not stopped:
            service.stop(drain_timeout=10.0)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_http_end_to_end_survives_transport_chaos(seed, baseline):
    """Client retries + server retries compose: the caller still gets
    either the exact fault-free report or an explicit quarantine error —
    never a hang, never a wrong answer."""
    plan = (
        f"seed={seed};client.request@p=0.2;server.reject@p=0.1;"
        "worker.crash@p=0.2;cache.put@p=0.3"
    )
    daemon = FlowDaemon(port=0, workers=2, queue_size=16, job_timeout_s=120.0)
    daemon.start()
    stopped = False
    try:
        client = ServiceClient(daemon.url, retries=8, backoff_s=0.01)
        client.wait_ready(30.0)
        with faults.injected(plan):
            for i in range(6):
                cfg_index = i % len(CONFIGS)
                try:
                    report = client.submit_and_wait(
                        ADDER, config=CONFIGS[cfg_index], timeout=120.0
                    )
                except ServiceError as exc:
                    # a persistently-crashing job may quarantine; that is
                    # an explicit, attributed outcome — not a lost job
                    assert "quarantined" in str(exc)
                else:
                    for field in SEMANTIC_FIELDS:
                        assert report[field] == baseline[cfg_index][field]
            drained = daemon.stop()
            stopped = True
            assert drained is True
    finally:
        if not stopped:
            daemon.stop()


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_sigterm_mid_chaos_drains_accepted_work(seed):
    daemon = FlowDaemon(port=0, workers=2, queue_size=16, job_timeout_s=120.0)
    daemon.start()
    old_handlers = daemon.install_signal_handlers()
    stopped = False
    try:
        client = ServiceClient(daemon.url, retries=8, backoff_s=0.01)
        client.wait_ready(30.0)
        with faults.injected(f"seed={seed};worker.crash@p=0.3"):
            job_ids = []
            for i in range(4):
                status = client.submit(
                    ADDER, config=CONFIGS[i % len(CONFIGS)]
                )
                job_ids.append(status["job_id"])
            os.kill(os.getpid(), signal.SIGTERM)
            assert daemon.wait_for_stop(timeout=10.0) is True
            drained = daemon.stop()
            stopped = True
            # every job accepted before the SIGTERM finished in the drain
            assert drained is True
            for job_id in job_ids:
                job = daemon.service.wait(job_id, timeout=1.0)
                assert job.state in TERMINAL_STATES
    finally:
        for sig, handler in old_handlers.items():
            signal.signal(sig, handler)
        if not stopped:
            daemon.stop()
