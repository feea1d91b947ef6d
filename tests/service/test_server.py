"""FlowService + HTTP daemon lifecycle.

Covers the serving acceptance contract end to end: start -> submit ->
poll -> result bit-identical to in-process ``Pipeline.standard()``;
duplicate submission served from the content-addressed cache (and
``/metrics`` reporting the hit); injected worker crash respawning the
slot and failing only that job; SIGTERM draining in-flight jobs.
"""

import os
import signal
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.circuits import build
from repro.errors import ServiceError
from repro.service import (
    FlowDaemon,
    FlowService,
    ServiceClient,
    build_pipeline,
    normalize_config,
    registry_circuit,
)
from repro.service.server import MAX_BODY_BYTES

FAST_CONFIG = {"verify": "none"}


def make_service(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("queue_size", 8)
    kwargs.setdefault("job_timeout_s", 60.0)
    service = FlowService(**kwargs)
    service.start()
    return service


class TestFlowServiceCore:
    """The transport-free core, driven directly."""

    @pytest.fixture
    def service(self):
        service = make_service()
        yield service
        service.stop(drain_timeout=10.0)

    def test_submit_poll_result_bit_identical(self, service):
        status = service.submit(
            {"circuit": registry_circuit("adder", "ci"),
             "config": FAST_CONFIG}
        )
        assert status["state"] in ("queued", "running", "done")
        job = service.wait(status["job_id"], timeout=60)
        assert job.state == "done"
        report = service.job_result(job.id)

        ctx = build_pipeline(normalize_config(FAST_CONFIG)).run(
            build("adder", "ci")
        )
        assert report["metrics"]["dffs"] == ctx.metrics.num_dffs
        assert report["metrics"]["area_jj"] == ctx.metrics.area_jj
        assert report["metrics"]["depth_cycles"] == ctx.metrics.depth_cycles
        assert report["metrics"]["splitters"] == ctx.metrics.num_splitters
        assert report["t1"] == {"found": ctx.t1_found, "used": ctx.t1_used}

    def test_duplicate_submission_is_cache_hit(self, service):
        payload = {
            "circuit": registry_circuit("adder", "ci"),
            "config": FAST_CONFIG,
        }
        first = service.submit(payload)
        service.wait(first["job_id"], timeout=60)
        r1 = service.job_result(first["job_id"])
        assert r1["cached"] is False

        second = service.submit(payload)
        # cache hits complete synchronously: never queued, never run
        assert second["state"] == "done"
        assert second["cached"] is True
        r2 = service.job_result(second["job_id"])
        assert r2["cached"] is True
        # identical flow content, straight from the content address
        for key in ("benchmark", "config", "metrics", "t1", "verified"):
            assert r2[key] == r1[key]
        stats = service.cache.stats()
        assert stats["hits"] == 1
        assert service.metrics()["jobs"]["served_from_cache"] == 1

    def test_cache_is_content_addressed_not_text_addressed(self, service):
        from repro.circuits import ripple_carry_adder
        from repro.io import dumps_blif

        text = dumps_blif(ripple_carry_adder(4))
        first = service.submit(
            {"circuit": {"kind": "blif", "text": text},
             "config": FAST_CONFIG}
        )
        service.wait(first["job_id"], timeout=60)
        # same structure, different bytes: a comment changes the text but
        # not the parsed network, so the content address is unchanged
        commented = "# resubmitted\n" + text
        second = service.submit(
            {"circuit": {"kind": "blif", "text": commented},
             "config": FAST_CONFIG}
        )
        assert second["cached"] is True
        assert service.cache.stats()["hits"] == 1

    def test_cache_hit_reports_the_submitted_name(self, service):
        from repro.io import dumps_bench

        net = build("adder", "ci")
        results = []
        for name in ("first", "second"):
            net.name = name
            status = service.submit(
                {"circuit": {"kind": "bench", "text": dumps_bench(net)},
                 "config": FAST_CONFIG}
            )
            service.wait(status["job_id"], timeout=60)
            results.append(service.job_result(status["job_id"]))
        first, second = results
        assert (first["cached"], second["cached"]) == (False, True)
        assert (first["benchmark"], second["benchmark"]) == ("first", "second")
        assert second["metrics"] == first["metrics"]

    def test_failed_job_result_raises(self, service):
        status = service.submit(
            {"circuit": registry_circuit("adder", "ci"),
             "config": FAST_CONFIG,
             "debug": {"crash": True}}
        )
        service.wait(status["job_id"], timeout=60)
        with pytest.raises(ServiceError) as exc_info:
            service.job_result(status["job_id"])
        assert exc_info.value.status == 500
        assert "quarantined" in str(exc_info.value)
        assert "worker crashed" in str(exc_info.value)

    def test_crash_respawns_and_spares_other_jobs(self, service):
        # a persistently-crashing job burns its 3 attempts, lands in
        # quarantine and shows up in /metrics; other jobs are unaffected
        crash = service.submit(
            {"circuit": registry_circuit("adder", "ci"),
             "config": FAST_CONFIG,
             "debug": {"crash": True}}
        )
        follow = service.submit(
            {"circuit": registry_circuit("adder", "ci"),
             "config": FAST_CONFIG}
        )
        assert service.wait(crash["job_id"], timeout=60).state == "quarantined"
        assert service.wait(follow["job_id"], timeout=60).state == "done"
        metrics = service.metrics()
        assert metrics["jobs"]["crashes"] == 3
        assert metrics["jobs"]["retries"] == 2
        assert metrics["jobs"]["quarantined"] == 1
        assert metrics["workers"]["respawns"] == 3
        assert metrics["workers"]["alive"] == 1
        assert [q["job_id"] for q in metrics["quarantine"]] == [crash["job_id"]]
        assert metrics["quarantine"][0]["attempts"] == 3

    def test_debug_jobs_bypass_cache(self, service):
        payload = {
            "circuit": registry_circuit("adder", "ci"),
            "config": FAST_CONFIG,
            "debug": {"sleep_s": 0.01},
        }
        first = service.submit(payload)
        service.wait(first["job_id"], timeout=60)
        second = service.submit(payload)
        assert second["cached"] is False
        service.wait(second["job_id"], timeout=60)
        assert service.cache.stats()["hits"] == 0

    def test_validation_errors(self, service):
        with pytest.raises(ServiceError, match="JSON object"):
            service.submit([1])
        with pytest.raises(ServiceError, match="needs a 'circuit'"):
            service.submit({"config": {}})
        with pytest.raises(ServiceError, match="unknown job payload keys"):
            service.submit(
                {"circuit": registry_circuit("adder", "ci"), "prio": 9}
            )
        with pytest.raises(ServiceError, match="unknown config key"):
            service.submit(
                {"circuit": registry_circuit("adder", "ci"),
                 "config": {"bogus": 1}}
            )
        with pytest.raises(ServiceError, match="invalid pipeline config"):
            service.submit(
                {"circuit": registry_circuit("adder", "ci"),
                 "config": {"n_phases": 2, "use_t1": True}}
            )
        with pytest.raises(ServiceError, match="timeout_s"):
            service.submit(
                {"circuit": registry_circuit("adder", "ci"),
                 "timeout_s": -1}
            )
        with pytest.raises(ServiceError, match="unknown job"):
            service.job_status("nope")

    def test_stage_latency_aggregation(self, service):
        status = service.submit(
            {"circuit": registry_circuit("adder", "ci"),
             "config": FAST_CONFIG}
        )
        service.wait(status["job_id"], timeout=60)
        latency = service.metrics()["stage_latency_s"]
        assert "decompose" in latency
        assert latency["decompose"]["count"] == 1
        assert latency["decompose"]["mean_s"] >= 0.0


class TestHttpLifecycle:
    """The full daemon over real HTTP on an ephemeral port."""

    @pytest.fixture(scope="class")
    def daemon(self):
        daemon = FlowDaemon(
            port=0, workers=1, queue_size=8, job_timeout_s=60.0
        )
        daemon.start()
        yield daemon
        daemon.stop()

    @pytest.fixture(scope="class")
    def client(self, daemon):
        client = ServiceClient(daemon.url, timeout=30.0)
        client.wait_ready(30.0)
        return client

    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers_alive"] == 1

    def test_submit_poll_result_over_http(self, client):
        status = client.submit(
            registry_circuit("c6288", "ci"), config=FAST_CONFIG
        )
        assert set(status) >= {"job_id", "state", "cached"}
        report = client.wait(status["job_id"], timeout=60)
        ctx = build_pipeline(normalize_config(FAST_CONFIG)).run(
            build("c6288", "ci")
        )
        assert report["metrics"]["dffs"] == ctx.metrics.num_dffs
        assert report["metrics"]["area_jj"] == ctx.metrics.area_jj
        assert report["t1"] == {"found": ctx.t1_found, "used": ctx.t1_used}

        # duplicate over the wire: flagged cached, identical content
        again = client.submit_and_wait(
            registry_circuit("c6288", "ci"), config=FAST_CONFIG
        )
        assert again["cached"] is True
        assert again["metrics"] == report["metrics"]
        assert client.metrics()["cache"]["hits"] >= 1

    def test_held_status_answers_when_the_job_finishes(self, client):
        status = client.submit(
            registry_circuit("adder", "ci"),
            config=FAST_CONFIG,
            debug={"sleep_s": 0.5},
        )
        started = time.monotonic()
        held = client._request("GET", f"/jobs/{status['job_id']}?wait=8")
        assert held["state"] == "done"
        assert time.monotonic() - started < 6

    def test_held_status_returns_unfinished_after_the_wait(self, client):
        status = client.submit(
            registry_circuit("adder", "ci"),
            config=FAST_CONFIG,
            debug={"sleep_s": 2.0},
        )
        started = time.monotonic()
        held = client._request("GET", f"/jobs/{status['job_id']}?wait=0.2")
        elapsed = time.monotonic() - started
        assert held["state"] in ("queued", "running")
        assert 0.2 <= elapsed < 1.5
        client.wait(status["job_id"], timeout=60)

    def test_client_sees_a_finished_job_at_once(self, client):
        # a fixed poll schedule (0, 0.05, 0.15, 0.35, 0.75 s) would see a
        # job ending after ~0.45 s only at the 0.75 s poll
        status = client.submit(
            registry_circuit("adder", "ci"),
            config=FAST_CONFIG,
            debug={"sleep_s": 0.45},
        )
        final = client.wait_status(status["job_id"], timeout=60)
        seen_at = time.time()
        assert final["state"] == "done"
        assert seen_at - final["finished_at"] < 0.2

    @pytest.mark.parametrize(
        "query",
        ["wait=-1", "wait=nan", "wait=inf", "wait=abc", "wait=",
         "wait=1&wait=2", "timeout=1", "wait=1&x=2"],
    )
    def test_bad_status_wait_is_400(self, client, query):
        with pytest.raises(ServiceError) as exc_info:
            client._request("GET", f"/jobs/doesnotexist?{query}")
        assert exc_info.value.status == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client.status("doesnotexist")
        assert exc_info.value.status == 404

    def test_unfinished_result_is_409(self, client):
        status = client.submit(
            registry_circuit("adder", "ci"),
            config=FAST_CONFIG,
            debug={"sleep_s": 1.0},
        )
        with pytest.raises(ServiceError) as exc_info:
            client.result(status["job_id"])
        assert exc_info.value.status == 409
        client.wait(status["job_id"], timeout=60)

    @pytest.mark.parametrize(
        "config",
        [
            {"n_phases": 0},
            {"n_phases": -1},
            {"n_phases": 64},
            {"n_phases": 1_000_000_000},
            {"sweeps": -1},
            {"verify": "CEC"},
            {"verify": "bogus"},
            {"cuts_per_node": 0},
        ],
        ids=["zero-phases", "negative-phases", "64-phases", "huge-phases",
             "negative-sweeps", "verify-uppercase", "verify-unknown",
             "zero-cuts"],
    )
    def test_out_of_range_config_is_400_at_submit(self, client, config):
        # rejected before queueing: a negative phase count used to hang
        # its worker, an unknown verify mode to run unverified
        started = time.monotonic()
        with pytest.raises(ServiceError) as exc_info:
            client.submit(registry_circuit("adder", "ci"), config=config)
        assert exc_info.value.status == 400
        assert time.monotonic() - started < 10

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceError) as exc_info:
            client._request("GET", "/bogus")
        assert exc_info.value.status == 404

    def test_malformed_body_is_400(self, client, daemon):
        req = urllib.request.Request(
            daemon.url + "/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=10)
        assert exc_info.value.code == 400

    @pytest.mark.parametrize("length", ["abc", "-5", "-1"])
    def test_bad_content_length_is_400(self, daemon, length):
        # a raw socket: HTTP clients refuse to send such a header, and a
        # -1 the server trusted would block its read until hang-up
        host, port = daemon.httpd.server_address[:2]
        with socket.create_connection((host, port), timeout=3) as sock:
            sock.sendall(
                f"POST /jobs HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {length}\r\n\r\n{{}}".encode()
            )
            reply = sock.makefile("rb").readline()
        assert reply.split()[1] == b"400", reply

    def test_oversized_body_is_413_unread(self, daemon):
        # the header promises 10**12 bytes and only two follow: a server
        # that read the body would block until the socket timeout
        host, port = daemon.httpd.server_address[:2]
        assert 10**12 > MAX_BODY_BYTES
        started = time.monotonic()
        with socket.create_connection((host, port), timeout=3) as sock:
            sock.sendall(
                f"POST /jobs HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {10**12}\r\n\r\n{{}}".encode()
            )
            reply = sock.makefile("rb").read()  # to EOF: the server hangs up
        assert time.monotonic() - started < 3
        assert reply.split()[1] == b"413", reply
        assert b"exceeds" in reply


class TestBackpressureHttp:
    def test_full_queue_is_429(self):
        daemon = FlowDaemon(
            port=0, workers=1, queue_size=1, job_timeout_s=60.0
        )
        daemon.start()
        try:
            # retries=0: observe the raw 429 instead of the client's
            # backoff-and-retry masking it (that path has its own tests)
            client = ServiceClient(daemon.url, retries=0)
            client.wait_ready(30.0)
            saw_429 = False
            accepted = []
            for _ in range(6):
                try:
                    accepted.append(
                        client.submit(
                            registry_circuit("adder", "ci"),
                            config=FAST_CONFIG,
                            debug={"sleep_s": 0.5},
                        )
                    )
                except ServiceError as exc:
                    assert exc.status == 429
                    saw_429 = True
                    break
            assert saw_429
            assert client.metrics()["jobs"]["rejected"] >= 1
            for status in accepted:
                client.wait(status["job_id"], timeout=60)
        finally:
            daemon.stop()


class TestSigtermDrain:
    def test_sigterm_drains_in_flight_jobs(self):
        """SIGTERM: stop accepting, finish accepted work, exit cleanly."""
        daemon = FlowDaemon(
            port=0, workers=1, queue_size=8, job_timeout_s=60.0,
            drain_timeout_s=30.0,
        )
        daemon.start()
        old_handlers = daemon.install_signal_handlers()
        stopped = {}
        try:
            client = ServiceClient(daemon.url)
            client.wait_ready(30.0)
            inflight = client.submit(
                registry_circuit("adder", "ci"),
                config=FAST_CONFIG,
                debug={"sleep_s": 0.8},
            )
            os.kill(os.getpid(), signal.SIGTERM)
            assert daemon.wait_for_stop(timeout=10.0)

            # run the daemon's own stop path (what serve_forever does)
            drained = daemon.stop()
            stopped["done"] = True
            assert drained is True
            # the in-flight job finished during the drain
            job = daemon.service._get_job(inflight["job_id"])
            assert job.state == "done"
            # and the service refuses new work
            with pytest.raises(ServiceError):
                daemon.service.submit(
                    {"circuit": registry_circuit("adder", "ci")}
                )
        finally:
            for sig, handler in old_handlers.items():
                signal.signal(sig, handler)
            if not stopped:
                daemon.stop()

    def test_drain_rejects_submissions_with_503(self):
        daemon = FlowDaemon(port=0, workers=1, queue_size=8)
        daemon.start()
        try:
            client = ServiceClient(daemon.url)
            client.wait_ready(30.0)
            daemon.service.begin_drain()
            health = daemon.service.healthz()
            assert health["status"] == "draining"
            with pytest.raises(ServiceError) as exc_info:
                client.submit(
                    registry_circuit("adder", "ci"), config=FAST_CONFIG
                )
            assert exc_info.value.status == 503
        finally:
            daemon.stop()
