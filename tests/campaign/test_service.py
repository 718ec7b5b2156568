"""Artifact service: ETag caching, miss handling, live HTTP server."""

import asyncio
import http.client
import json
import time

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.manifest import CampaignSpec
from repro.campaign.runner import run_campaign
from repro.campaign.service import (
    ArtifactService,
    ServiceServer,
    content_etag,
)

#: Keeps every real flow in the tens-of-milliseconds range (s27 only).
SMALL = {"observability_samples": 16, "ivc_trials": 2,
         "ivc_noise_samples": 2}


def stub_executor(monkeypatch, calls=None):
    import repro.campaign.runner as runner

    def fake(payload):
        if calls is not None:
            calls.append(payload["job_id"])
        return {"kind": runner.FLOW_ARTEFACT_KIND,
                "job_id": payload["job_id"],
                "circuit": payload["circuit"], "seed": payload["seed"],
                "row": {"circuit": payload["circuit"]},
                "summary": f"stub {payload['job_id']}", "elapsed_s": 0.0}

    monkeypatch.setattr(runner, "_execute_flow_job", fake)


def forbid_executor(monkeypatch):
    """Warm-path spy: any flow execution fails the test."""
    import repro.campaign.runner as runner

    def explode(payload):  # pragma: no cover - the assertion IS no call
        raise AssertionError(
            f"flow executed for {payload['job_id']} on a warm query")

    monkeypatch.setattr(runner, "_execute_flow_job", explode)


def dispatch(service, target, headers=None):
    return asyncio.run(service.dispatch(target, headers))


class TestDispatch:
    """Transport-free routing tests against the service core."""

    def test_healthz(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path))
        response = dispatch(service, "/healthz")
        assert response.status == 200
        payload = json.loads(response.body)
        assert payload["status"] == "ok"
        assert payload["checks"]["cache"] == "ok"

    def test_unknown_endpoint_404(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path))
        assert dispatch(service, "/nope").status == 404

    def test_bad_seed_400(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path))
        response = dispatch(service, "/table1/s27?seed=banana")
        assert response.status == 400
        assert "seed" in json.loads(response.body)["error"]

    def test_bad_overrides_400(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path))
        for bad in ("overrides=notjson", "overrides=%5B1%2C2%5D",
                    "overrides=%7B%22seed%22%3A5%7D",
                    "overrides=%7B%22nope%22%3A1%7D"):
            response = dispatch(service, f"/flow/s27?seed=1&{bad}")
            assert response.status == 400, bad

    def test_mistyped_override_400(self, tmp_path):
        """A mistyped FlowConfig field is a ConfigError (400), never a
        TypeError escaping as a 500."""
        from urllib.parse import quote
        service = ArtifactService(ResultCache(tmp_path))
        for bad in ('{"ivc_trials": "2"}', '{"stream_budget": "x"}',
                    '{"observability_samples": "9"}'):
            response = dispatch(service,
                                f"/table1/s27?overrides={quote(bad)}")
            assert response.status == 400, bad
            assert "must be" in json.loads(response.body)["error"], bad

    def test_unknown_circuit_404(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path))
        response = dispatch(service, "/table1/never?seed=1")
        assert response.status == 404
        assert "never" in json.loads(response.body)["error"]

    def test_figure2_rejects_overrides(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path))
        response = dispatch(
            service, "/figure2?overrides=%7B%22seed2%22%3A1%7D")
        assert response.status == 400

    def test_cold_miss_without_queue_404(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path))
        response = dispatch(service, "/flow/s27?seed=1")
        assert response.status == 404
        assert json.loads(response.body)["key"]
        assert service.metrics.misses == 1

    def test_poll_unknown_key_404(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path))
        assert dispatch(service, "/artifact/deadbeef").status == 404

    @pytest.mark.parametrize("key", [
        "ab%00cd",                      # NUL: os.stat would raise
        "..",                           # parent directory
        "0" * 63,                       # one digit short
        "A" * 64,                       # not lowercase hex
        "0" * 63 + "%00",               # right length, NUL inside
    ])
    def test_malformed_key_404_without_touching_the_cache(
            self, tmp_path, monkeypatch, key):
        service = ArtifactService(ResultCache(tmp_path))

        def no_lookup(key):  # pragma: no cover - the assertion IS no call
            raise AssertionError(f"cache consulted for {key!r}")

        monkeypatch.setattr(service.cache, "get", no_lookup)
        response = dispatch(service, f"/artifact/{key}")
        assert response.status == 404
        assert json.loads(response.body)["error"] == \
            "unknown artifact key"
        assert service.metrics.errors == 0

    def test_artifact_by_key_hit_and_304(self, tmp_path, monkeypatch):
        stub_executor(monkeypatch)
        service = ArtifactService(ResultCache(tmp_path),
                                  compute_on_miss=True)
        key = json.loads(dispatch(service, "/table1/s27?seed=5").body)[
            "key"]
        first = dispatch(service, f"/artifact/{key}")
        assert first.status == 200
        assert json.loads(first.body)["job_id"] == "s27/seed5"
        etag = first.headers["ETag"]
        again = dispatch(service, f"/artifact/{key}",
                         {"if-none-match": etag})
        assert again.status == 304

    def test_compute_on_miss_then_hit(self, tmp_path, monkeypatch):
        calls = []
        stub_executor(monkeypatch, calls)
        service = ArtifactService(ResultCache(tmp_path),
                                  compute_on_miss=True)
        first = dispatch(service, "/flow/s27?seed=4")
        assert first.status == 200
        assert calls == ["s27/seed4"]
        assert service.metrics.computed == 1
        second = dispatch(service, "/flow/s27?seed=4")
        assert second.status == 200
        assert calls == ["s27/seed4"]  # served from cache
        assert second.body == first.body
        assert service.metrics.hits == 1

    def test_etag_and_304(self, tmp_path, monkeypatch):
        stub_executor(monkeypatch)
        service = ArtifactService(ResultCache(tmp_path),
                                  compute_on_miss=True)
        first = dispatch(service, "/table1/s27?seed=1")
        etag = first.headers["ETag"]
        assert etag == content_etag(first.body)
        cached = dispatch(service, "/table1/s27?seed=1",
                          {"if-none-match": etag})
        assert cached.status == 304
        assert cached.encode().endswith(b"\r\n\r\n")  # no body
        assert service.metrics.not_modified == 1
        fresh = dispatch(service, "/table1/s27?seed=1",
                         {"if-none-match": '"stale"'})
        assert fresh.status == 200

    def test_table1_projection(self, tmp_path, monkeypatch):
        stub_executor(monkeypatch)
        service = ArtifactService(ResultCache(tmp_path),
                                  compute_on_miss=True)
        row = json.loads(dispatch(service, "/table1/s27?seed=1").body)
        assert set(row) == {"circuit", "seed", "row", "key"}
        full = json.loads(dispatch(service, "/flow/s27?seed=1").body)
        assert full["summary"].startswith("stub")

    def test_overrides_change_the_key(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path))
        plain = json.loads(dispatch(service, "/flow/s27?seed=1").body)
        tweaked = json.loads(dispatch(
            service,
            "/flow/s27?seed=1&overrides=%7B%22ivc_trials%22%3A2%7D"
        ).body)
        assert plain["key"] != tweaked["key"]

    def test_metrics_payload(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path))
        dispatch(service, "/flow/s27?seed=1")
        payload = json.loads(dispatch(service, "/metrics").body)
        assert payload["service"]["misses"] == 1
        assert payload["cache"]["misses"] >= 1


class TestPrometheusMetrics:
    """``/metrics`` content negotiation: JSON default, text on ask."""

    def test_format_param_selects_text_exposition(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path))
        dispatch(service, "/flow/s27?seed=1")  # one miss
        response = dispatch(service, "/metrics?format=prometheus")
        assert response.status == 200
        assert response.headers["Content-Type"].startswith(
            "text/plain")
        text = response.body.decode()
        assert "# HELP repro_service_requests" in text
        assert "# TYPE repro_service_requests gauge" in text
        assert "repro_service_misses 1" in text

    def test_accept_header_negotiates_text(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path))
        response = dispatch(service, "/metrics",
                            {"accept": "text/plain"})
        assert response.headers["Content-Type"].startswith(
            "text/plain")
        assert b"# TYPE" in response.body
        # An explicit format always beats the Accept header.
        json_anyway = dispatch(service, "/metrics?format=json",
                               {"accept": "text/plain"})
        assert "service" in json.loads(json_anyway.body)

    def test_unknown_format_400(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path))
        response = dispatch(service, "/metrics?format=bogus")
        assert response.status == 400
        assert "prometheus" in json.loads(response.body)["error"]

    def test_json_shape_unchanged_by_default(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path))
        payload = json.loads(dispatch(service, "/metrics").body)
        assert set(payload) == {"service", "cache"}


class TestServiceSharesCampaignKeys:
    def test_warm_table1_query_never_executes_a_flow(
            self, tmp_path, monkeypatch):
        """The acceptance pin: a campaign warms the cache, the service
        answers the Table-I query without running anything."""
        spec = CampaignSpec(circuits=("s27",), seeds=(1,), base=SMALL,
                            name="warm")
        result = run_campaign(spec, jobs=1,
                              cache_dir=str(tmp_path / "cache"))
        forbid_executor(monkeypatch)  # any execution now fails loudly
        service = ArtifactService(ResultCache(tmp_path / "cache"),
                                  compute_on_miss=True, base=SMALL)
        response = dispatch(service, "/table1/s27?seed=1")
        assert response.status == 200
        payload = json.loads(response.body)
        assert payload["row"] == result.artefacts[0]["row"]
        assert service.metrics.hits == 1
        assert service.metrics.computed == 0


class TestLiveServer:
    """Real sockets on an ephemeral port."""

    @pytest.fixture
    def served(self, tmp_path, monkeypatch):
        stub_executor(monkeypatch)
        service = ArtifactService(ResultCache(tmp_path / "cache"))
        with ServiceServer(service) as server:
            yield service, server.port, tmp_path

    @staticmethod
    def get(port, path, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", port,
                                          timeout=10)
        try:
            conn.request("GET", path, headers=headers or {})
            response = conn.getresponse()
            return (response.status, dict(response.getheaders()),
                    response.read())
        finally:
            conn.close()

    def test_healthz_over_http(self, served):
        _, port, _ = served
        status, _, body = self.get(port, "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["checks"] == {"cache": "ok"}

    def test_post_is_405(self, served):
        _, port, _ = served
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("POST", "/healthz", body=b"{}")
            response = conn.getresponse()
            assert response.status == 405
            assert response.getheader("Allow") == "GET"
        finally:
            conn.close()

    def test_concurrent_requests_single_flight(self, tmp_path,
                                               monkeypatch):
        """Parallel misses for one artefact compute it exactly once."""
        import threading

        calls = []
        import repro.campaign.runner as runner

        def slow(payload):
            calls.append(payload["job_id"])
            time.sleep(0.1)
            return {"kind": runner.FLOW_ARTEFACT_KIND,
                    "job_id": payload["job_id"],
                    "circuit": payload["circuit"],
                    "seed": payload["seed"], "row": {},
                    "summary": "slow", "elapsed_s": 0.1}

        monkeypatch.setattr(runner, "_execute_flow_job", slow)
        service = ArtifactService(ResultCache(tmp_path / "cache"),
                                  compute_on_miss=True)
        with ServiceServer(service) as server:
            results = []

            def fetch():
                results.append(
                    self.get(server.port, "/flow/s27?seed=6")[0])

            threads = [threading.Thread(target=fetch)
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert results == [200, 200, 200, 200]
        assert calls == ["s27/seed6"]  # one compute, four answers

    def test_metrics_over_http(self, served):
        _, port, _ = served
        self.get(port, "/flow/s27?seed=8")
        status, _, body = self.get(port, "/metrics")
        assert status == 200
        payload = json.loads(body)
        # The snapshot counts *completed* requests (the in-flight
        # /metrics request itself is observed after it is written).
        assert payload["service"]["requests"] >= 1
        assert payload["service"]["misses"] == 1
        assert payload["service"]["latency_max_ms"] > 0

    def test_prometheus_over_http(self, served):
        _, port, _ = served
        status, headers, body = self.get(
            port, "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert b"# TYPE repro_service_requests gauge" in body

    def test_malformed_request_400(self, served):
        import socket

        _, port, _ = served
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]
