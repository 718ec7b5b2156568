"""Service under load and faults: shedding, timeouts, health, resets."""

import asyncio
import http.client
import json
import socket
import time

import pytest

import repro.chaos as chaos
from repro.campaign.cache import ResultCache
from repro.campaign.service import ArtifactService, ServiceServer
from repro.errors import ServiceError


def get(port, path, headers=None, timeout=10):
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=timeout)
    try:
        conn.request("GET", path, headers=headers or {})
        response = conn.getresponse()
        return (response.status, dict(response.getheaders()),
                response.read())
    finally:
        conn.close()


class TestValidation:
    def test_zero_max_connections_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="max_connections"):
            ArtifactService(ResultCache(tmp_path), max_connections=0)

    def test_zero_request_timeout_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="request_timeout_s"):
            ArtifactService(ResultCache(tmp_path), request_timeout_s=0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_non_finite_request_timeout_rejected(self, tmp_path, budget):
        """A NaN budget would time out every request (``/healthz``
        included) with a 504; an infinite one is the spelled-out
        ``None``."""
        with pytest.raises(ServiceError, match="request_timeout_s"):
            ArtifactService(ResultCache(tmp_path),
                            request_timeout_s=budget)


class TestShedding:
    def test_connections_beyond_the_cap_get_503(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path / "cache"),
                                  max_connections=1)
        with ServiceServer(service) as server:
            # Occupy the single slot: connect but never send, so the
            # handler parks inside the request read.
            held = socket.create_connection(("127.0.0.1", server.port))
            try:
                for _ in range(100):
                    if service._active >= 1:
                        break
                    time.sleep(0.01)
                assert service._active == 1
                status, headers, body = get(server.port, "/healthz")
                assert status == 503
                assert headers["Retry-After"] == "1"
                assert "capacity" in json.loads(body)["error"]
            finally:
                held.close()
        assert service.metrics.shed == 1

    def test_slot_frees_after_the_request_finishes(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path / "cache"),
                                  max_connections=1)
        with ServiceServer(service) as server:
            status, _, _ = get(server.port, "/healthz")
            assert status == 200
            status, _, _ = get(server.port, "/healthz")
            assert status == 200
        assert service.metrics.shed == 0


class TestTimeouts:
    def test_slow_request_gets_504(self, tmp_path, monkeypatch):
        service = ArtifactService(ResultCache(tmp_path / "cache"),
                                  request_timeout_s=0.05)

        async def glacial(_reader):
            await asyncio.sleep(30)

        monkeypatch.setattr(service, "_handle", glacial)
        with ServiceServer(service) as server:
            status, _, body = get(server.port, "/healthz")
        assert status == 504
        assert "0.05" in json.loads(body)["error"]
        assert service.metrics.timeouts == 1

    def test_fast_request_unaffected_by_budget(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path / "cache"),
                                  request_timeout_s=5)
        with ServiceServer(service) as server:
            status, _, _ = get(server.port, "/healthz")
        assert status == 200
        assert service.metrics.timeouts == 0


class TestActiveHealth:
    def test_degraded_when_cache_store_is_unwritable(self, tmp_path):
        # A regular file where the cache root must be: every probe
        # mkdir/write fails with OSError -> degraded.
        (tmp_path / "cache").write_text("not a directory")
        service = ArtifactService(ResultCache(tmp_path / "cache"))
        with ServiceServer(service) as server:
            status, headers, body = get(server.port, "/healthz")
        assert status == 503
        payload = json.loads(body)
        assert payload["status"] == "degraded"
        assert payload["checks"]["cache"].startswith("failed")
        assert headers["Retry-After"] == "1"

    def test_probe_leaves_no_residue(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path / "cache"))
        with ServiceServer(service) as server:
            status, _, _ = get(server.port, "/healthz")
        assert status == 200
        assert not list((tmp_path / "cache").glob(".healthz-probe-*"))


class TestInjectedServiceFaults:
    def test_reset_drops_the_connection_without_a_response(
            self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path / "cache"))
        with ServiceServer(service) as server:
            chaos.enable("seed=1,service.reset=1")
            with pytest.raises((http.client.BadStatusLine,
                                ConnectionError, OSError)):
                get(server.port, "/healthz", timeout=5)
            chaos.disable()
            status, _, _ = get(server.port, "/healthz")
        assert status == 200  # server survived its own chaos

    def test_slow_client_delay_injected(self, tmp_path):
        service = ArtifactService(ResultCache(tmp_path / "cache"))
        with ServiceServer(service) as server:
            chaos.enable("seed=1,service.slow=1,slow_s=0.2")
            started = time.monotonic()
            status, _, _ = get(server.port, "/healthz")
            elapsed = time.monotonic() - started
        assert status == 200
        assert elapsed >= 0.2


class TestResilienceMetrics:
    def test_shed_and_timeouts_exported(self, tmp_path, monkeypatch):
        service = ArtifactService(ResultCache(tmp_path / "cache"))
        service.metrics.shed = 3
        service.metrics.timeouts = 2
        with ServiceServer(service) as server:
            status, _, body = get(server.port, "/metrics")
            assert status == 200
            snapshot = json.loads(body)["service"]
            assert snapshot["shed"] == 3
            assert snapshot["timeouts"] == 2
            status, _, text = get(server.port,
                                  "/metrics?format=prometheus")
        assert b"repro_service_shed 3" in text
        assert b"repro_service_timeouts 2" in text
