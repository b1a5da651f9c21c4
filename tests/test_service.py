"""End-to-end sweep-service tests: in-process server, remote backend.

The correctness bar for the service tier (see ISSUE 7 / ROADMAP item 1):

* a campaign run via ``--jobs remote`` is **byte-identical** to
  ``--jobs serial`` — exactly equal on a warm shared cache, equal
  modulo wall-clock timing fields on a cold one;
* resubmitting a finished campaign — including to a *restarted* server
  sharing the same cache directory — is 100% cache hits;
* ``/health`` and per-job progress are rendered from the merged obs
  metrics registry;
* malformed requests are 4xx JSON errors, never tracebacks;
* a result fetch is held until there is something to answer, so the
  client never sleeps between fetches.

Every server here is booted in-process on an ephemeral port.
"""

import json
import logging
import socket
import sys
import threading
import time
import types
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.engine.batch import (
    BatchRunner,
    EvalRequest,
    SurvivabilityRequest,
    evaluate_auto,
)
from repro.engine.cache import ResultCache
from repro.engine.executor import SerialBackend, make_backend
from repro.obs import metrics, reset_observability
from repro.params import GCSParameters
from repro.service import (
    RemoteBackend,
    ServiceClient,
    ServiceError,
    ServiceServer,
    SubmitRequest,
    SweepService,
)

# Wall-clock fields measured where the result was computed; everything
# else must match bit-for-bit between local and remote evaluation.
TIMING_FIELDS = ("build_seconds", "solve_seconds")


@pytest.fixture(autouse=True)
def _fresh_obs():
    reset_observability()
    yield
    reset_observability()


@pytest.fixture()
def server(tmp_path):
    service = SweepService(
        cache=ResultCache(cache_dir=str(tmp_path / "server-cache")),
        backend=SerialBackend(),
        manifest_dir=str(tmp_path / "manifests"),
    )
    srv = ServiceServer(service, port=0)
    srv.start_in_background()
    yield srv
    srv.stop()


class _GatedSerial(SerialBackend):
    """A serial backend that evaluates only once ``gate`` is set."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()

    def run(self, fn, items, *, on_outcome=None):
        assert self.gate.wait(timeout=30), "gate never opened"
        return super().run(fn, items, on_outcome=on_outcome)


@pytest.fixture()
def gated(tmp_path):
    """A server whose jobs run only once ``backend.gate`` is set."""
    backend = _GatedSerial()
    service = SweepService(
        cache=ResultCache(cache_dir=str(tmp_path / "gated-cache")),
        backend=backend,
    )
    srv = ServiceServer(service, port=0)
    srv.start_in_background()
    yield srv, backend.gate
    backend.gate.set()
    srv.stop()


def _wait_done(service, job_id, timeout=30.0):
    """Block until ``job_id`` is terminal; the monotonic time it was seen."""
    deadline = time.monotonic() + timeout
    while service.status(job_id).state not in ("done", "failed"):
        assert time.monotonic() < deadline, f"job {job_id} did not finish"
        time.sleep(0.001)
    return time.monotonic()


def _requests(count=3):
    scenarios = [
        GCSParameters.small_test(),
        GCSParameters.small_test().replacing(num_voters=3),
        GCSParameters.small_test().replacing(detection_interval_s=120.0),
    ]
    return [EvalRequest(params=p) for p in scenarios[:count]]


def _strip_timings(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in TIMING_FIELDS}


def _http(url, payload=None, method=None):
    """Raw HTTP helper returning (status, parsed JSON body)."""
    data = None
    headers = {}
    if payload is not None:
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestRemoteVsSerial:
    def test_cold_cache_identical_modulo_wall_clock(self, server, tmp_path):
        requests = _requests()
        remote = BatchRunner(
            cache=ResultCache(cache_dir=str(tmp_path / "client-cache")),
            backend=RemoteBackend(server.url),
        ).run(requests, evaluate=evaluate_auto)
        remote.report.raise_on_error()
        serial = BatchRunner(
            cache=ResultCache(cache_dir=str(tmp_path / "serial-cache")),
            backend=SerialBackend(),
        ).run(requests, evaluate=evaluate_auto)
        serial.report.raise_on_error()
        for ours, theirs in zip(remote.results, serial.results):
            assert _strip_timings(ours.to_dict()) == _strip_timings(
                theirs.to_dict()
            )

    @staticmethod
    def _assert_identical_on_every_backend(server, requests):
        # One solver on every path: switching backends changes no record
        # byte outside the wall-clock fields, solver label included.
        records = {}
        for jobs in (f"remote:{server.url}", "serial", "vector", "vector:2"):
            runner = BatchRunner(backend=make_backend(jobs))
            batch = runner.run(requests, evaluate=evaluate_auto)
            batch.report.raise_on_error()
            records[jobs] = [_strip_timings(r.to_dict()) for r in batch.results]
        serial = records.pop("serial")
        for jobs, results in records.items():
            assert results == serial, jobs

    def test_model_identical_on_every_backend(self, server):
        requests = _requests() + [
            EvalRequest(
                params=GCSParameters.small_test(),
                include_breakdown=True,
                include_variance=True,
            )
        ]
        self._assert_identical_on_every_backend(server, requests)

    def test_survivability_identical_on_every_backend(self, server):
        requests = [
            SurvivabilityRequest(params=request.params, times_s=(0.0, 0.5, 2.0, 5.0))
            for request in _requests()
        ]
        self._assert_identical_on_every_backend(server, requests)

    def test_warm_shared_cache_byte_identical(self, server, tmp_path):
        requests = _requests()
        remote = BatchRunner(backend=RemoteBackend(server.url)).run(
            requests, evaluate=evaluate_auto
        )
        remote.report.raise_on_error()
        # Serial run over the *server's* cache directory: every point is
        # a disk hit, so the JSON bytes must match exactly — timing
        # fields included (they were measured once, server-side).
        with_server_cache = BatchRunner(
            cache=ResultCache(
                cache_dir=server.service.runner.cache.cache_dir
            ),
            backend=SerialBackend(),
        ).run(requests, evaluate=evaluate_auto)
        assert with_server_cache.report.n_cache_hits == len(requests)
        for ours, theirs in zip(remote.results, with_server_cache.results):
            assert json.dumps(ours.to_dict(), sort_keys=True) == json.dumps(
                theirs.to_dict(), sort_keys=True
            )

    def test_streams_outcomes_in_completion_order(self, server):
        requests = _requests()
        seen = []
        backend = RemoteBackend(server.url)
        outcomes = backend.run(
            evaluate_auto, requests, on_outcome=lambda o: seen.append(o.index)
        )
        assert sorted(seen) == list(range(len(requests)))
        assert [o.index for o in outcomes] == list(range(len(requests)))
        assert all(o.ok for o in outcomes)

    def test_error_points_propagate_with_traceback(self, server):
        good = EvalRequest(params=GCSParameters.small_test())
        bad = EvalRequest(
            params=GCSParameters.small_test(), method="no-such-method"
        )
        batch = BatchRunner(backend=RemoteBackend(server.url)).run(
            [good, bad], evaluate=evaluate_auto
        )
        assert batch.results[0] is not None
        assert batch.results[1] is None
        (error,) = batch.report.errors
        assert error.error_type == "ParameterError"
        assert error.traceback  # server-side traceback rides the wire

    def test_fallback_for_non_wire_batches(self, server):
        # Arbitrary callables can't cross the wire; the backend must
        # quietly run them on its local fallback instead.
        backend = RemoteBackend(server.url)
        outcomes = backend.run(lambda x: x * 2, [1, 2, 3])
        assert [o.value for o in outcomes] == [2, 4, 6]


class TestIdempotencyAndRecovery:
    def test_resubmit_same_server_reuses_job(self, server):
        client = ServiceClient(server.url)
        requests = _requests()
        first = client.submit(requests, name="once")
        assert not first.resubmitted
        # Wait for completion through the remote backend's machinery.
        RemoteBackend(server.url).run(evaluate_auto, requests)
        again = client.submit(requests, name="twice")
        assert again.resubmitted
        assert again.job_id == first.job_id

    def test_restarted_server_serves_from_shared_cache(self, server, tmp_path):
        requests = _requests()
        RemoteBackend(server.url).run(evaluate_auto, requests)
        cache_dir = server.service.runner.cache.cache_dir
        server.stop()

        # "Restart": a fresh service over the same cache directory.
        service = SweepService(
            cache=ResultCache(cache_dir=cache_dir), backend=SerialBackend()
        )
        restarted = ServiceServer(service, port=0)
        url = restarted.start_in_background()
        try:
            outcomes = RemoteBackend(url).run(evaluate_auto, requests)
            assert all(o.ok for o in outcomes)
            client = ServiceClient(url)
            (job,) = client.jobs()
            assert job.state == "done"
            assert job.cache_hits == len(requests)
            assert job.evaluated == 0
            assert job.report["hit_rate"] == 1.0
        finally:
            restarted.stop()

    def test_manifest_artifact_is_valid(self, server, tmp_path):
        requests = _requests()
        RemoteBackend(server.url).run(evaluate_auto, requests)
        client = ServiceClient(server.url)
        (job,) = client.jobs()
        assert job.manifest_path is not None
        with open(job.manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest["schema_version"] == 2
        assert manifest["params_digest"] == job.job_id
        assert manifest["backend"] == "serial"
        (report,) = manifest["reports"]
        assert report["n_requested"] == len(requests)
        assert manifest["cache_stats"]["stores"] >= len(requests)


    def test_submission_is_hashed_once(self, tmp_path, monkeypatch):
        import repro.service.protocol as protocol

        calls = []
        job_id_for = protocol.job_id_for

        def counted(requests):
            calls.append(len(requests))
            return job_id_for(requests)

        monkeypatch.setattr(protocol, "job_id_for", counted)
        service = SweepService(
            cache=ResultCache(cache_dir=str(tmp_path / "cache")),
            backend=SerialBackend(),
        )
        try:
            response = service.submit(SubmitRequest(requests=_requests(2)))
            assert calls == [2]
            assert service.status(response.job_id).job_id == response.job_id
        finally:
            service.shutdown()


class TestObservabilitySurface:
    def test_health_renders_merged_metrics(self, server):
        client = ServiceClient(server.url)
        before = client.health()
        assert before["status"] == "ok"
        assert before["jobs"]["total"] == 0
        RemoteBackend(server.url).run(evaluate_auto, _requests())
        after = client.health()
        assert after["jobs"]["done"] == 1
        counters = after["metrics"]
        assert counters["engine.requests"]["value"] >= 3
        assert counters["engine.evaluated"]["value"] >= 3
        assert after["cache"]["stores"] >= 3
        assert after["backend"] == "serial"

    def test_job_status_carries_metrics_delta_and_report(self, server):
        requests = _requests()
        RemoteBackend(server.url).run(evaluate_auto, requests)
        client = ServiceClient(server.url)
        (job,) = client.jobs()
        status = client.poll(job.job_id)
        assert status.state == "done"
        assert status.done == len(requests)
        assert status.report["n_evaluated"] == len(requests)
        assert status.metrics_delta["engine.requests"]["value"] == len(requests)
        assert status.elapsed_seconds > 0

    def test_client_absorbs_server_telemetry(self, server):
        # The fetch telemetry payload folds server-side counters into
        # the *client's* registry — same channel as pool workers.
        RemoteBackend(server.url).run(evaluate_auto, _requests())
        snapshot = metrics().snapshot()
        assert snapshot["engine.requests"]["value"] >= 3


class TestHttpFailureModes:
    def test_bad_json_is_400(self, server):
        status, body = _http(
            server.url + "/api/v1/campaigns", payload=b"{not json", method="POST"
        )
        assert status == 400
        assert "error" in body and "Traceback" not in body["error"]

    def test_malformed_submit_is_400(self, server):
        status, body = _http(
            server.url + "/api/v1/campaigns",
            payload={"requests": "nope"},
            method="POST",
        )
        assert status == 400
        assert "error" in body

    def test_bad_request_record_is_400(self, server):
        status, body = _http(
            server.url + "/api/v1/campaigns",
            payload={"requests": [{"kind": "eval", "params": {"num_nodes": -1}}]},
            method="POST",
        )
        assert status == 400
        assert "error" in body

    def test_unknown_job_is_404(self, server):
        status, body = _http(server.url + "/api/v1/jobs/deadbeef")
        assert status == 404
        status, _ = _http(server.url + "/api/v1/jobs/deadbeef/results")
        assert status == 404

    def test_unknown_route_is_404(self, server):
        status, _ = _http(server.url + "/api/v1/nonsense")
        assert status == 404

    def test_wrong_method_is_405(self, server):
        status, _ = _http(server.url + "/health", payload={}, method="POST")
        assert status == 405

    def test_bad_offset_is_400(self, server):
        client = ServiceClient(server.url)
        submitted = client.submit(_requests())
        RemoteBackend(server.url).run(evaluate_auto, _requests())
        status, _ = _http(
            server.url + f"/api/v1/jobs/{submitted.job_id}/results?offset=nope"
        )
        assert status == 400
        status, _ = _http(
            server.url + f"/api/v1/jobs/{submitted.job_id}/results?offset=9999"
        )
        assert status == 400

    def test_client_raises_service_error_with_server_message(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.poll("deadbeef")
        assert excinfo.value.status == 404
        assert "unknown job" in str(excinfo.value)

    def test_unreachable_server_is_service_error(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=2)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()


class TestHeldFetch:
    def test_held_fetch_returns_outcome_once_the_gate_opens(
        self, gated, monkeypatch
    ):
        import repro.service.client as client_module

        def no_sleep(seconds):
            raise AssertionError(f"the client slept {seconds}s")

        # Scoped to the client module: the server and the gated backend
        # keep the real clock.
        monkeypatch.setattr(
            client_module,
            "time",
            types.SimpleNamespace(monotonic=time.monotonic, sleep=no_sleep),
        )
        server, gate = gated
        client = ServiceClient(server.url)
        offsets = []
        answers = []
        fetch = client.fetch

        def counted(job_id, offset=0):
            offsets.append(offset)
            response = fetch(job_id, offset)
            answers.append(response)
            return response

        client.fetch = counted
        box = {}

        def run():
            try:
                box["outcomes"] = RemoteBackend(client=client).run(
                    evaluate_auto, _requests(1)
                )
            except BaseException as exc:  # noqa: BLE001 — checked below
                box["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        time.sleep(0.3)
        assert thread.is_alive() and offsets == [0], "the fetch was not held"
        gate.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert "error" not in box, box.get("error")
        (outcome,) = box["outcomes"]
        assert outcome.ok
        # The held fetch answered with the outcome once the gate opened.
        first, *later = answers
        assert [e["index"] for e in first.entries] == [0]
        # The entry can be answered before the job is marked done; then
        # one more fetch, from where the first left off, learns that.
        assert len(later) <= 1
        assert offsets[1:] == [first.next_offset] * len(later)
        assert [r.entries for r in later] == [()] * len(later)
        assert answers[-1].complete

    def test_sixteen_held_fetches_and_health_are_answered(self, gated):
        server, gate = gated
        job_id = ServiceClient(server.url).submit(_requests(1)).job_id
        answered = {}

        def fetch(k):
            response = ServiceClient(server.url).fetch(job_id, 0)
            answered[k] = (time.monotonic(), response)

        threads = [
            threading.Thread(target=fetch, args=(k,), daemon=True)
            for k in range(16)
        ]
        # Frequent thread switches interleave the job thread's change
        # notifications with the holds; a lost wake-up would leave a
        # fetch held for its full 5 s.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            assert not answered, "a fetch was answered before the job moved"
            # Sixteen holds occupy no thread: the front end still answers.
            started = time.monotonic()
            status, health = _http(server.url + "/health")
            assert status == 200 and health["status"] == "ok"
            assert time.monotonic() - started < 1.0

            gate.set()
            done_at = _wait_done(server.service, job_id)
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(switch_interval)
        assert len(answered) == 16
        for at, response in answered.values():
            assert at - done_at < 1.0
            assert [e["index"] for e in response.entries] == [0]
            assert response.next_offset == 1

    @pytest.mark.parametrize("wait", ["-1", "nan", "inf", "abc"])
    def test_bad_wait_is_400(self, server, wait):
        job_id = ServiceClient(server.url).submit(_requests(1)).job_id
        status, body = _http(
            server.url + f"/api/v1/jobs/{job_id}/results?offset=0&wait={wait}"
        )
        assert status == 400
        assert "'wait'" in body["error"]

    def test_unknown_job_and_bad_offset_answer_before_any_hold(self, gated):
        server, _gate = gated
        job_id = ServiceClient(server.url).submit(_requests(1)).job_id
        started = time.monotonic()
        status, _ = _http(server.url + "/api/v1/jobs/deadbeef/results?wait=5")
        assert status == 404
        status, _ = _http(
            server.url + f"/api/v1/jobs/{job_id}/results?offset=9999&wait=5"
        )
        assert status == 400
        assert time.monotonic() - started < 2.0

    def test_wait_is_clamped_and_optional(self, gated, monkeypatch):
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "MAX_WAIT_S", 0.2)
        server, _gate = gated
        job_id = ServiceClient(server.url).submit(_requests(1)).job_id
        url = server.url + f"/api/v1/jobs/{job_id}/results?offset=0"
        started = time.monotonic()
        status, body = _http(url + "&wait=1000")
        held = time.monotonic() - started
        assert status == 200 and body["entries"] == []
        assert body["state"] in ("queued", "running")
        assert "retry_after_s" not in body
        assert 0.15 < held < 2.0
        # No ``wait``: answered at once, as a plain status read.
        started = time.monotonic()
        status, body = _http(url)
        assert status == 200 and body["entries"] == []
        assert time.monotonic() - started < 0.15

    def test_stop_during_held_fetch_leaves_job_done(self, tmp_path):
        backend = _GatedSerial()
        service = SweepService(
            cache=ResultCache(cache_dir=str(tmp_path / "cache")), backend=backend
        )
        srv = ServiceServer(service, port=0)
        url = srv.start_in_background()
        client = ServiceClient(url, retries=1)
        job_id = client.submit(_requests(1)).job_id
        box = {}

        def fetch():
            try:
                box["response"] = client.fetch(job_id, 0)
            except ServiceError as exc:
                box["error"] = exc

        fetcher = threading.Thread(target=fetch, daemon=True)
        fetcher.start()
        time.sleep(0.2)
        assert fetcher.is_alive(), "the fetch was not held"
        # stop() waits for the job; let it, from another thread.
        stopper = threading.Thread(target=srv.stop, daemon=True)
        stopper.start()
        assert srv.join(timeout=10), "the front end did not stop"
        # The held fetch is answered with what there was, not dropped.
        fetcher.join(timeout=5)
        assert not fetcher.is_alive()
        assert "error" not in box, box.get("error")
        assert box["response"].entries == ()
        assert box["response"].state == "running"
        # The job finishes after its front end's event loop closed: its
        # change notifications must do nothing, not fail the job.
        backend.gate.set()
        stopper.join(timeout=30)
        assert not stopper.is_alive()
        status = service.status(job_id)
        assert status.state == "done", status.detail
        assert status.detail is None


class TestServerStop:
    def test_join_survives_stop_clearing_the_thread(self, tmp_path):
        service = SweepService(cache=ResultCache(cache_dir=str(tmp_path / "c")))
        srv = ServiceServer(service, port=0)

        class StoppedMeanwhile:
            """A server thread that stop(), on another thread, clears
            while join() waits on it."""

            def join(self, timeout=None):
                srv._thread = None

            def is_alive(self):
                return False

        srv._thread = StoppedMeanwhile()
        try:
            assert srv.join(timeout=1.0)
        finally:
            service.shutdown()

    def test_stop_closes_a_half_sent_request(self, server, caplog):
        split = urlsplit(server.url)
        with socket.create_connection((split.hostname, split.port), timeout=5) as sock:
            # The request line, but never the blank line that ends it.
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n")
            time.sleep(0.2)
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                server.stop()
                stopped = time.monotonic()
                sock.settimeout(1.0)
                assert sock.recv(1) == b""
                assert time.monotonic() - stopped < 1.0
        assert not [r for r in caplog.records if r.name == "asyncio"]


class TestBackendRegistration:
    def test_make_backend_remote_spec_preserves_url_case(self):
        backend = make_backend("remote:http://Example.Test:9999")
        assert backend.describe() == "remote:http://Example.Test:9999"

    def test_make_backend_remote_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_URL", "http://10.0.0.7:4321")
        backend = make_backend("remote")
        assert backend.describe() == "remote:http://10.0.0.7:4321"

    def test_make_backend_remote_fallback_is_serial(self):
        backend = make_backend("remote:http://127.0.0.1:1")
        assert backend.fallback.describe() == "serial"

    def test_cli_serve_rejects_remote_jobs(self, capsys):
        from repro.cli import main

        code = main(["serve", "--port", "0", "--jobs", "remote"])
        assert code == 2
        assert "cannot evaluate through --jobs remote" in capsys.readouterr().err

    def test_cli_parser_has_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--manifest-dir", "m"]
        )
        assert args.command == "serve"
        assert args.manifest_dir == "m"
