"""The HTTP surface end to end: wire round-trips and the 4xx contract."""

import base64
import json
import socket
import threading

import numpy as np
import pytest

from repro.gateway import (
    Gateway,
    GatewayClient,
    GatewayConfig,
    GatewayError,
    monitor_update_to_wire,
    record_to_wire,
)
from repro.gateway.app import _Handler
from repro.gateway.wire import array_from_wire
from repro.pipeline.batch import SeparationRecord
from repro.service import available_separators, separator_entry
from repro.tfo.monitor import MonitorUpdate

CONTRACT_KEYS = {"error", "message", "repro_error"}
HEALTH_THEN_CLOSE = (
    b"GET /health HTTP/1.1\r\nHost: gw\r\nConnection: close\r\n\r\n"
)
GARBAGE = b"GARBAGE\r\n\r\n"


def make_record(n=200, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 100.0
    a = np.sin(2 * np.pi * 1.2 * t)
    b = 0.5 * np.sin(2 * np.pi * 2.1 * t)
    return SeparationRecord(
        mixed=a + b + 0.01 * rng.standard_normal(n),
        sampling_hz=100.0,
        f0_tracks={"a": np.full(n, 1.2), "b": np.full(n, 2.1)},
        name=f"rec{seed}",
        references={"a": a, "b": b},
    )


#: Float64 values at the edges of the format: signed zeros, subnormals,
#: the extremes, and values whose shortest decimal text is long.
EDGE = np.array([
    0.0, -0.0, 5e-324, -5e-324, np.finfo(np.float64).tiny / 3,
    np.finfo(np.float64).max, -np.finfo(np.float64).max,
    np.finfo(np.float64).tiny, 1.0 / 3.0, np.pi, -2.0 ** -1074 * 7,
])


def f8(values):
    """A tagged wire array of any float64 values, non-finite included."""
    raw = np.asarray(values, dtype="<f8").tobytes()
    return {"f8": base64.b64encode(raw).decode("ascii")}


def raw_exchange(gateway, data):
    """Send raw bytes on a fresh connection and read until the server
    closes it (a socket timeout fails the test if it does not).

    Returns ``(status, headers, body, port)``, where ``body`` is every
    byte after the headers and ``port`` is the local port the server
    sees as the client's.
    """
    with socket.create_connection(
        (gateway.host, gateway.port), timeout=5.0
    ) as sock:
        port = sock.getsockname()[1]
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, body, port


@pytest.fixture(scope="module")
def gateway():
    callback_log = []
    gw = Gateway(
        GatewayConfig(port=0, workers=2, max_body_bytes=512 * 1024,
                      reap_interval_s=0.2),
        callback_transport=lambda url, payload, t: callback_log.append(
            (url, payload)
        ),
    )
    gw.callback_log = callback_log
    with gw:
        yield gw


@pytest.fixture()
def client(gateway):
    with GatewayClient(gateway.url) as c:
        yield c


class TestServiceEndpoints:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {
            "queued", "running", "done", "error", "cancelled", "expired"
        }

    def test_methods_lists_registry(self, client):
        assert client.methods() == available_separators()

    def test_unknown_route_404(self, client):
        with pytest.raises(GatewayError) as err:
            client.request("GET", "/nope")
        assert err.value.status == 404


class TestConnections:
    @pytest.mark.parametrize("request_bytes", [HEALTH_THEN_CLOSE, GARBAGE],
                             ids=["request", "stdlib-error"])
    def test_accepted_connections_run_with_nodelay(
        self, gateway, monkeypatch, request_bytes
    ):
        nodelay = {}
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            sock = handler.connection
            nodelay[handler.client_address[1]] = sock.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        *_, port = raw_exchange(gateway, request_bytes)
        assert nodelay[port] != 0

    # Each stdlib error closes the connection: raw_exchange reads to EOF.
    def test_unsupported_method_is_501_json(self, gateway):
        status, headers, body, _ = raw_exchange(
            gateway, b"PUT /jobs HTTP/1.1\r\nHost: gw\r\n\r\n"
        )
        assert status == 501
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        payload = json.loads(body)
        assert set(payload) == CONTRACT_KEYS
        assert payload["error"] == "Not Implemented"
        assert "PUT" in payload["message"]
        assert payload["repro_error"] is False

    def test_garbage_request_line_is_400_json(self, gateway):
        status, headers, body, _ = raw_exchange(gateway, GARBAGE)
        assert status == 400
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        payload = json.loads(body)
        assert set(payload) == CONTRACT_KEYS
        assert payload["error"] == "Bad Request"
        assert "GARBAGE" in payload["message"]

    def test_head_error_has_no_body(self, gateway):
        status, headers, body, _ = raw_exchange(
            gateway, b"HEAD /health HTTP/1.1\r\nHost: gw\r\n\r\n"
        )
        assert status == 501
        assert int(headers["Content-Length"]) > 0
        assert body == b""


class TestJobsOverHTTP:
    def test_submit_and_fetch_result(self, client):
        record = make_record(seed=1)
        job = client.submit_job({
            "method": "spectral-masking",
            "mode": "separate",
            "records": [record_to_wire(record)],
            "callback_url": "bench://cb",
        })
        assert job["state"] in ("queued", "running")
        done = client.wait_job(job["job_id"])
        assert done["state"] == "done"
        result = client.job_result(job["job_id"])
        assert set(result["records"][0]["scores"]) == {"a", "b"}
        assert len(result["records"][0]["estimates"]["a"]) == 200
        slim = client.job_result(job["job_id"], estimates=False)
        assert "estimates" not in slim["records"][0]

    def test_every_spec_round_trips_byte_equal(self, client):
        """Satellite: each registered spec comes back byte-equal through
        the HTTP submit → artefact store → status path."""
        record_wire = record_to_wire(make_record(seed=2))
        for name in available_separators():
            spec = separator_entry(name).default_spec()
            job = client.submit_job({
                "spec": spec.to_dict(),
                "mode": "separate",
                "records": [record_wire],
            })
            stored = client.job(job["job_id"])
            assert json.dumps(stored["spec"], sort_keys=True) == \
                json.dumps(spec.to_dict(), sort_keys=True), name
            assert stored["method"] == spec.method

    def test_unknown_method_is_400_did_you_mean(self, client):
        with pytest.raises(GatewayError) as err:
            client.submit_job({
                "method": "spectal-masking",
                "records": [record_to_wire(make_record())],
            })
        assert err.value.status == 400
        assert "did you mean" in err.value.payload["message"]
        assert err.value.payload["repro_error"] is True

    @pytest.mark.parametrize("spec, expected", [
        ({"method": "vmd", "alpha_": 900.0}, "did you mean"),
        # DHF fits always start cold; a did-you-mean may not apply, but
        # the refusal names the field.
        ({"method": "dhf", "warm_start": True}, "'warm_start'"),
        ({"method": "dhf", "zoo_path": "fits/"}, "'zoo_path'"),
    ], ids=["typo", "dhf-warm-start", "dhf-zoo-path"])
    def test_unknown_spec_field_is_400_did_you_mean(self, client, spec,
                                                    expected):
        with pytest.raises(GatewayError) as err:
            client.submit_job({
                "spec": spec,
                "records": [record_to_wire(make_record())],
            })
        assert err.value.status == 400
        assert expected in err.value.payload["message"]

    @pytest.mark.parametrize("body", [
        {"method": "vmd"},                       # no records
        {"method": "vmd", "records": []},        # empty records
        {"method": "vmd", "records": [{"mixed": "zz"}]},
        {"method": "vmd", "mode": "nope", "records": [{}]},
        {"records": [{}]},                       # neither method nor spec
        {"method": "vmd", "spec": {"method": "vmd"}, "records": [{}]},
        # A well-formed array tag where no array belongs.
        {"method": "spectral-masking", "mode": f8([0.0, 0.0]),
         "records": [record_to_wire(make_record())]},
        {"method": "spectral-masking",
         "records": [{**record_to_wire(make_record()),
                      "name": f8([0.0, 0.0])}]},
        # A DHF spec naming a removed field (every fit runs its full
        # budget; the early-stop knobs went).
        {"spec": {"method": "dhf", "early_stop_patience": 3},
         "records": [record_to_wire(make_record())]},
        # Spectral-masking specs with a non-numeric hop fraction or a
        # non-bool exclusive flag.
        {"spec": {"method": "spectral-masking", "hop_fraction": "x"},
         "records": [record_to_wire(make_record())]},
        {"spec": {"method": "spectral-masking", "exclusive": "x"},
         "records": [record_to_wire(make_record())]},
    ])
    def test_malformed_submissions_are_4xx_never_5xx(self, client, body):
        with pytest.raises(GatewayError) as err:
            client.submit_job(body)
        assert 400 <= err.value.status < 500
        assert err.value.payload["error"]

    def test_non_json_body_400(self, client):
        conn = client._connection()
        conn.request("POST", "/jobs", body=b"not json {",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert "not valid JSON" in payload["message"]

    def test_oversized_body_413(self, gateway):
        with GatewayClient(gateway.url) as big:
            huge = record_to_wire(make_record(n=300_000))
            with pytest.raises(GatewayError) as err:
                big.submit_job({"method": "vmd", "records": [huge]})
            assert err.value.status == 413
            assert "exceeds" in err.value.payload["message"]

    def test_unknown_job_404(self, client):
        with pytest.raises(GatewayError) as err:
            client.job("job-999999")
        assert err.value.status == 404

    def test_result_of_unfinished_job_409(self, client):
        record = make_record(seed=3)
        job = client.submit_job({
            "method": "spectral-masking",
            "records": [record_to_wire(record)],
        })
        client.wait_job(job["job_id"])
        with pytest.raises(GatewayError) as err:
            client.cancel_job(job["job_id"])  # already terminal
        assert err.value.status == 409


class TestSessionsOverHTTP:
    def session_request(self):
        return {
            "method": "spectral-masking",
            "sampling_hz": 100.0,
            "segment_samples": 1000,
            "overlap_samples": 250,
        }

    def test_create_push_poll_finish_delete(self, client):
        rng = np.random.default_rng(0)
        sid = client.create_session(self.session_request())["session_id"]
        assert sid in client.sessions()
        mixed = rng.standard_normal(3000)
        tracks = {"fetal": np.full(3000, 1.2),
                  "maternal": np.full(3000, 2.1)}
        # The SpO2 monitor needs both wavelength channels; feed the
        # synthetic record as both PPG channels with a zero DC.
        for start in range(0, 3000, 500):
            stop = start + 500
            update = client.push(
                sid,
                {740: mixed[start:stop], 850: mixed[start:stop]},
                {740: np.zeros(500), 850: np.zeros(500)},
                {k: v[start:stop] for k, v in tracks.items()},
            )
            assert update["n_pushed"] == stop
        polled = client.updates(sid, since=0, timeout_s=2.0)
        assert len(polled["updates"]) == 6
        final = client.finish_session(sid)
        assert final["n_samples"] == 3000
        assert client.delete_session(sid)["deleted"] is True
        with pytest.raises(GatewayError) as err:
            client.session(sid)
        assert err.value.status == 404

    def test_bad_session_request_400(self, client):
        request = self.session_request()
        request["segment_sample"] = request.pop("segment_samples")
        with pytest.raises(GatewayError) as err:
            client.create_session(request)
        assert err.value.status == 400
        assert "unknown key" in err.value.payload["message"]

    def test_push_after_finish_409(self, client):
        sid = client.create_session(self.session_request())["session_id"]
        client.push(
            sid,
            {740: np.ones(1500) * np.sin(np.arange(1500)),
             850: np.ones(1500) * np.sin(np.arange(1500))},
            {740: np.zeros(1500), 850: np.zeros(1500)},
            {"fetal": np.full(1500, 1.2), "maternal": np.full(1500, 2.1)},
        )
        client.finish_session(sid)
        with pytest.raises(GatewayError) as err:
            client.push(
                sid,
                {740: np.ones(10), 850: np.ones(10)},
                {740: np.zeros(10), 850: np.zeros(10)},
                {"fetal": np.full(10, 1.2), "maternal": np.full(10, 2.1)},
            )
        assert err.value.status == 409
        client.delete_session(sid)

    def test_long_poll_blocks_then_wakes(self, gateway, client):
        sid = client.create_session(self.session_request())["session_id"]
        result = {}

        def poll():
            with GatewayClient(gateway.url) as poller:
                result["out"] = poller.updates(sid, since=0, timeout_s=10.0)

        waiter = threading.Thread(target=poll, daemon=True)
        waiter.start()
        client.push(
            sid,
            {740: np.sin(np.arange(600)), 850: np.sin(np.arange(600))},
            {740: np.zeros(600), 850: np.zeros(600)},
            {"fetal": np.full(600, 1.2), "maternal": np.full(600, 2.1)},
        )
        waiter.join(timeout=15.0)
        assert not waiter.is_alive()
        assert len(result["out"]["updates"]) >= 1
        client.delete_session(sid)


class TestCallbacksOverHTTP:
    def test_callback_delivered_with_terminal_state(self, gateway, client):
        job = client.submit_job({
            "method": "spectral-masking",
            "records": [record_to_wire(make_record(seed=7))],
            "callback_url": "bench://done",
        })
        client.wait_job(job["job_id"])
        assert gateway.jobs.callbacks.drain(timeout_s=10.0)
        delivered = [
            payload for url, payload in gateway.callback_log
            if payload["job_id"] == job["job_id"]
        ]
        assert len(delivered) == 1
        assert delivered[0]["state"] == "done"


class TestArrayEncoding:
    """Arrays cross HTTP as tagged base64 float64, bitwise both ways."""

    def test_edge_values_survive_a_job_result(self, gateway, client):
        job = client.submit_job({
            "method": "spectral-masking",
            "records": [record_to_wire(make_record(seed=11))],
        })
        assert client.wait_job(job["job_id"])["state"] == "done"
        gateway.store.write_estimates(job["job_id"], 0,
                                      {"a": EDGE, "b": -EDGE})
        estimates = client.job_result(job["job_id"])["records"][0][
            "estimates"]
        assert estimates["a"].tobytes() == EDGE.tobytes()
        assert estimates["b"].tobytes() == (-EDGE).tobytes()

    def test_edge_values_survive_a_monitor_update(self, gateway, client,
                                                  monkeypatch):
        """Client push → server decode → server encode → client decode."""
        def echo(session_id, data):
            update = MonitorUpdate(
                n_pushed=0, n_finalized=0, ratio=None, spo2=None,
                estimates={int(wl): array_from_wire(v, wl)
                           for wl, v in data["ppg"].items()},
            )
            return monitor_update_to_wire(update, 0)

        monkeypatch.setattr(gateway.sessions, "push", echo)
        n = EDGE.size
        update = client.push(
            "sess-echo", {740: EDGE, 850: -EDGE},
            {740: np.zeros(n), 850: np.zeros(n)}, {"fetal": np.ones(n)},
        )
        assert update["estimates"]["740"].tobytes() == EDGE.tobytes()
        assert update["estimates"]["850"].tobytes() == (-EDGE).tobytes()

    def test_float_lists_and_tags_give_equal_results(self, client):
        record = make_record(seed=12)
        tagged = record_to_wire(record)
        listed = {
            "mixed": record.mixed.tolist(),
            "sampling_hz": record.sampling_hz,
            "f0_tracks": {k: v.tolist() for k, v in record.f0_tracks.items()},
            "name": record.name,
            "references": {k: v.tolist()
                           for k, v in record.references.items()},
        }
        results = []
        for wire in (tagged, listed):
            job = client.submit_job({"method": "spectral-masking",
                                     "records": [wire]})
            assert client.wait_job(job["job_id"])["state"] == "done"
            results.append(client.job_result(job["job_id"])["records"][0])
        assert results[0]["scores"] == results[1]["scores"]
        for source in ("a", "b"):
            assert results[0]["estimates"][source].tobytes() == \
                results[1]["estimates"][source].tobytes()

    @pytest.mark.parametrize("tag", [
        {"f8": "not*base64!"},
        {"f8": base64.b64encode(bytes(7)).decode("ascii")},
        {"f8": base64.b64encode(bytes(8)).decode("ascii"), "dtype": "<f8"},
        {"f8": 12},
    ], ids=["bad-base64", "7-bytes", "extra-key", "not-a-string"])
    def test_malformed_tag_is_400_naming_the_field(self, client, tag):
        wire = record_to_wire(make_record())
        wire["mixed"] = tag
        with pytest.raises(GatewayError) as err:
            client.submit_job({"method": "spectral-masking",
                               "records": [wire]})
        assert err.value.status == 400
        assert err.value.payload["error"] == "DataError"
        assert "record #0 mixed" in err.value.payload["message"]

    def test_source_named_like_the_tag_round_trips(self, client):
        """Only ``{"f8": <string>}`` is a tag: per-source mappings keyed
        by a source named ``f8`` reach the caller as mappings."""
        record = make_record(seed=14)
        record.f0_tracks = {"f8": record.f0_tracks["a"],
                            "b": record.f0_tracks["b"]}
        record.references = {"f8": record.references["a"],
                             "b": record.references["b"]}
        job = client.submit_job({
            "method": "spectral-masking",
            "records": [record_to_wire(record)],
        })
        assert client.wait_job(job["job_id"])["state"] == "done"
        result = client.job_result(job["job_id"])["records"][0]
        assert set(result["scores"]) == {"f8", "b"}
        assert len(result["scores"]["f8"]) == 2
        assert set(result["estimates"]) == {"f8", "b"}
        assert isinstance(result["estimates"]["f8"], np.ndarray)

    def test_client_returns_writable_float64_arrays(self, client):
        job = client.submit_job({
            "method": "spectral-masking",
            "records": [record_to_wire(make_record(seed=13))],
        })
        client.wait_job(job["job_id"])
        estimates = client.job_result(job["job_id"])["records"][0][
            "estimates"]
        for arr in estimates.values():
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
            assert arr.flags.writeable
            arr[0] = 1.0  # and writing to it works


def _job_case(mutate):
    wire = record_to_wire(make_record(n=400, seed=21))
    mutate(wire)
    return {"method": "spectral-masking", "records": [wire]}


def _with_nan(n, at):
    values = np.full(n, 1.2)
    values[at] = np.nan
    return values


class TestInboundValidation:
    """A record or push the separators would reject never gets a 2xx."""

    @pytest.mark.parametrize("mutate, error, field", [
        (lambda w: w.update(mixed=f8(_with_nan(400, 7))),
         "DataError", "record #0 mixed"),
        (lambda w: w.update(sampling_hz=float("nan")),
         "ConfigurationError", "record #0 sampling_hz"),
        (lambda w: w["f0_tracks"].update(a=f8(np.full(10, 1.2))),
         "DataError", "f0 track for 'a'"),
        (lambda w: w["f0_tracks"].update(a=f8(np.zeros(400))),
         "DataError", "f0 track for 'a'"),
        (lambda w: w["f0_tracks"].update(a=f8(_with_nan(400, 3))),
         "DataError", "f0 track for 'a'"),
        (lambda w: w.update(mixed=[1.0] * 399 + [float("nan")]),
         "DataError", "record #0 mixed"),
        (lambda w: w.update(references={"a": f8(_with_nan(400, 5))}),
         "DataError", "record #0 reference 'a'"),
        (lambda w: w.update(references={"a": f8(np.ones(397))}),
         "ShapeError", "record #0 reference 'a'"),
    ], ids=["nan-sample", "nan-rate", "short-f0", "zero-f0", "nan-f0",
            "nan-in-float-list", "nan-reference", "short-reference"])
    def test_bad_record_is_400_at_submit(self, client, mutate, error, field):
        n_jobs = len(client.jobs())
        with pytest.raises(GatewayError) as err:
            client.request("POST", "/jobs", body=_job_case(mutate))
        assert err.value.status == 400
        assert err.value.payload["error"] == error
        assert field in err.value.payload["message"]
        assert len(client.jobs()) == n_jobs  # nothing was queued

    @pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
    def test_non_finite_output_ends_the_job_in_error(self, client):
        """Finite samples near ``finfo.max`` overflow spectral masking:
        the job ends ``error`` rather than ``done`` with a result no
        request could fetch."""
        n = 400
        wire = record_to_wire(make_record(n=n, seed=22))
        wire["mixed"] = f8(1e308 * np.sin(2 * np.pi * np.arange(n) / 40))
        job = client.submit_job({"method": "spectral-masking",
                                 "records": [wire]})
        done = client.wait_job(job["job_id"])
        assert done["state"] == "error"
        assert "non-finite output" in done["error"]["message"]
        with pytest.raises(GatewayError) as err:
            client.job_result(job["job_id"])
        assert err.value.status == 409

    @pytest.mark.parametrize("body, field", [
        ({"ppg": {"740": f8(_with_nan(20, 2)), "850": f8(np.ones(20))},
          "dc": {"740": f8(np.zeros(20)), "850": f8(np.zeros(20))},
          "f0_tracks": {"fetal": f8(np.full(20, 2.1))}},
         "ppg chunk for 740 nm"),
        ({"ppg": {"740": f8(np.ones(20)), "850": f8(np.ones(20))},
          "dc": {"740": f8(np.zeros(20)), "850": f8(_with_nan(20, 0))},
          "f0_tracks": {"fetal": f8(np.full(20, 2.1))}},
         "dc chunk for 850 nm"),
        ({"ppg": {"740": f8(np.ones(20)), "850": f8(np.ones(20))},
          "dc": {"740": f8(np.zeros(20)), "850": f8(np.zeros(20))},
          "f0_tracks": {"fetal": f8(_with_nan(20, 5))}},
         "f0 track for 'fetal'"),
    ], ids=["nan-ppg", "nan-dc", "nan-f0"])
    def test_bad_push_is_400_and_changes_nothing(self, client, body, field):
        sid = client.create_session({
            "method": "spectral-masking", "sampling_hz": 100.0,
            "segment_samples": 1000, "overlap_samples": 250,
        })["session_id"]
        with pytest.raises(GatewayError) as err:
            client.request("POST", f"/sessions/{sid}/push", body=body)
        assert err.value.status == 400
        assert err.value.payload["error"] == "DataError"
        assert field in err.value.payload["message"]
        assert client.session(sid)["n_pushed"] == 0
        client.delete_session(sid)
