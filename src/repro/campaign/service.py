"""``repro serve`` — the artifact API over the campaign cache.

A lightweight asyncio HTTP server (stdlib only — ``asyncio`` streams
plus a minimal hand-rolled request parser, no new runtime
dependencies) that answers the paper's experiment queries straight
from the content-addressed campaign cache, with the cache as its CDN:

========================================  ===============================
endpoint                                  answer
========================================  ===============================
``GET /table1/<circuit>?seed=&overrides``  the cached Table-I row
``GET /flow/<circuit>?seed=&overrides=``   the full flow artefact
``GET /figure2``                           the Figure-2 leakage artefact
``GET /artifact/<cache-key>``              an artefact by its cache key
``GET /healthz``                           liveness probe
``GET /metrics``                           hit/miss/latency counters
========================================  ===============================

``overrides`` is a URL-encoded JSON object of
:class:`~repro.core.config.FlowConfig` fields patched onto the
service's base config; the cache key is derived through
:func:`repro.campaign.runner.job_identity` — the *same* derivation the
campaign runner uses, so anything a campaign computed is a hit here.

A cache **hit** returns the stored artefact JSON with its content hash
as a strong ``ETag`` (``If-None-Match`` round-trips as ``304 Not
Modified``, no body).  A **miss** either computes inline
(``compute_on_miss=True``; the flow runs on a worker thread via
``asyncio.to_thread`` behind a per-key lock, so concurrent requests
for the same artefact compute once and ``/healthz`` stays responsive)
or is a ``404``.  ``/artifact/<cache-key>`` accepts only the cache's
64-character lowercase-hex keys; anything else is a ``404`` before
the file system is touched.

The server is deliberately minimal: ``GET`` only, one request per
connection (``Connection: close``), JSON everywhere.  It is an
artefact cache front, not a general web framework.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import math
import os
import threading
import time
import urllib.parse
from typing import Any

import repro.chaos as chaos
from repro.campaign.cache import ResultCache
from repro.campaign.manifest import CampaignJob
from repro.campaign.runner import (
    FIGURE2_ARTEFACT_KIND,
    FLOW_ARTEFACT_KIND,
    execute_job,
    job_identity,
)
from repro.errors import ConfigError, ReproError, ServiceError
from repro.obs.metrics import get_registry
from repro.obs.trace import record_event
from repro.utils.hashing import package_fingerprint

__all__ = [
    "ArtifactService",
    "ServiceMetrics",
    "ServiceServer",
    "run_server",
]

_MAX_REQUEST_BYTES = 16 * 1024

_STATUS_PHRASES = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def content_etag(body: bytes) -> str:
    """Strong ETag: the SHA-256 content hash of the response body."""
    return f'"{hashlib.sha256(body).hexdigest()}"'


@dataclasses.dataclass
class ServiceMetrics:
    """Counters the ``/metrics`` endpoint exposes."""

    requests: int = 0
    hits: int = 0
    misses: int = 0
    not_modified: int = 0
    computed: int = 0
    errors: int = 0
    #: Connections refused with 503 at the ``max_connections`` cap.
    shed: int = 0
    #: Requests cut off with 504 at the ``request_timeout_s`` budget.
    timeouts: int = 0
    latency_total_ms: float = 0.0
    latency_max_ms: float = 0.0

    def observe(self, elapsed_ms: float) -> None:
        self.requests += 1
        self.latency_total_ms += elapsed_ms
        self.latency_max_ms = max(self.latency_max_ms, elapsed_ms)

    def snapshot(self) -> dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["latency_avg_ms"] = (
            self.latency_total_ms / self.requests if self.requests
            else 0.0)
        return payload


class _Response:
    """One HTTP response about to be written."""

    def __init__(self, status: int, payload: Any = None, *,
                 headers: dict[str, str] | None = None,
                 body: bytes | None = None):
        self.status = status
        if body is None:
            body = b"" if payload is None else (
                json.dumps(payload, sort_keys=True) + "\n").encode()
        self.body = body
        self.headers = headers or {}

    def encode(self) -> bytes:
        phrase = _STATUS_PHRASES.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {phrase}"]
        headers = {
            "Content-Type": "application/json; charset=utf-8",
            "Content-Length": str(len(self.body)),
            "Connection": "close",
            **self.headers,
        }
        if self.status == 304:
            # A 304 carries no body (and therefore no length).
            headers.pop("Content-Length", None)
            headers.pop("Content-Type", None)
            self.body = b""
        lines.extend(f"{name}: {value}"
                     for name, value in headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode()
        return head + self.body


class ArtifactService:
    """Request handling + metrics; transport-independent core.

    Parameters
    ----------
    cache:
        The content-addressed artefact cache answering queries.
    compute_on_miss:
        Compute missing artefacts inline (otherwise a miss is ``404``).
    base:
        ``FlowConfig`` kwargs applied under every request's overrides
        (the service-side campaign ``base``).
    max_connections:
        Concurrent-connection cap; connections beyond it are **shed**
        with ``503`` + ``Retry-After`` *before* their request is read,
        so an overloaded server stays responsive instead of queueing
        unboundedly (``None`` = uncapped).
    request_timeout_s:
        Per-request handling budget; a request not answered within it
        gets ``504`` (``None`` = unbounded; otherwise finite).
    """

    def __init__(self, cache: ResultCache, *,
                 compute_on_miss: bool = False,
                 base: dict[str, Any] | None = None,
                 max_connections: int | None = None,
                 request_timeout_s: float | None = None):
        if max_connections is not None and max_connections < 1:
            raise ServiceError("max_connections must be >= 1")
        if request_timeout_s is not None and not (
                0 < request_timeout_s < math.inf):
            raise ServiceError(
                f"request_timeout_s must be a finite number > 0, got "
                f"{request_timeout_s}")
        self.cache = cache
        self.compute_on_miss = compute_on_miss
        self.base = dict(base or {})
        self.max_connections = max_connections
        self.request_timeout_s = request_timeout_s
        self._active = 0
        self.metrics = ServiceMetrics()
        self._code_fp = package_fingerprint()
        self._fingerprints: dict[tuple[str, int], str] = {}
        self._compute_locks: dict[str, asyncio.Lock] = {}

    # ------------------------------------------------------------------ #
    # request entry points
    # ------------------------------------------------------------------ #

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """Serve one request on one connection, then close it.

        Overload and fault behaviour: at the ``max_connections`` cap
        the connection is shed (``503`` + ``Retry-After``) without
        reading the request; a request exceeding
        ``request_timeout_s`` is answered ``504``; a fired
        ``service.reset`` chaos draw drops the connection with no
        response at all (clients must survive network blips).
        """
        started = time.monotonic()
        if chaos.fires("service.reset"):
            await self._close(writer)
            return
        if self.max_connections is not None \
                and self._active >= self.max_connections:
            self.metrics.shed += 1
            response = _Response(
                503, {"error": "server at connection capacity"},
                headers={"Retry-After": "1"})
            await self._write(writer, response)
            self.metrics.observe((time.monotonic() - started) * 1000.0)
            return
        self._active += 1
        try:
            slow_s = chaos.delay("service.slow")
            if slow_s:
                await asyncio.sleep(slow_s)
            try:
                if self.request_timeout_s is not None:
                    response = await asyncio.wait_for(
                        self._handle(reader), self.request_timeout_s)
                else:
                    response = await self._handle(reader)
            except (asyncio.TimeoutError, TimeoutError):
                self.metrics.timeouts += 1
                response = _Response(504, {
                    "error": f"request exceeded the "
                             f"{self.request_timeout_s}s budget"})
            except Exception as exc:  # noqa: BLE001 - must survive
                self.metrics.errors += 1
                response = _Response(
                    500, {"error": f"{type(exc).__name__}: {exc}"})
            await self._write(writer, response)
        finally:
            self._active -= 1
            self.metrics.observe((time.monotonic() - started) * 1000.0)

    async def _write(self, writer: asyncio.StreamWriter,
                     response: _Response) -> None:
        """Write one response and close (client-gone tolerant)."""
        try:
            writer.write(response.encode())
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover - gone
            pass
        await self._close(writer)

    @staticmethod
    async def _close(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass

    async def _handle(self, reader: asyncio.StreamReader) -> _Response:
        try:
            raw = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return _Response(400, {"error": "malformed request"})
        if len(raw) > _MAX_REQUEST_BYTES:
            return _Response(400, {"error": "request too large"})
        request_line, *header_lines = raw.decode(
            "latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            return _Response(400, {"error": "malformed request line"})
        method, target, _version = parts
        if method != "GET":
            return _Response(405, {"error": "GET only"},
                             headers={"Allow": "GET"})
        headers = {}
        for line in header_lines:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        return await self.dispatch(target, headers)

    async def dispatch(self, target: str,
                       headers: dict[str, str] | None = None
                       ) -> _Response:
        """Route one request target; the testable core.

        Each request is recorded as a ``service.request`` trace event
        (asyncio handlers interleave on one thread, so the timing is
        measured here and recorded stack-free via
        :func:`repro.obs.trace.record_event`).
        """
        started = time.monotonic()
        response = await self._dispatch(target, headers)
        record_event("service.request",
                     time.monotonic() - started,
                     target=target, status=response.status)
        return response

    async def _dispatch(self, target: str,
                        headers: dict[str, str] | None = None
                        ) -> _Response:
        headers = headers or {}
        parsed = urllib.parse.urlsplit(target)
        path = urllib.parse.unquote(parsed.path).rstrip("/") or "/"
        query = urllib.parse.parse_qs(parsed.query)
        etag_in = headers.get("if-none-match")

        if path == "/healthz":
            return await self._healthz()
        if path == "/metrics":
            return self._metrics_response(query, headers)

        segments = [s for s in path.split("/") if s]
        try:
            if segments and segments[0] in ("table1", "flow"):
                if len(segments) != 2:
                    return _Response(
                        400, {"error": f"/{segments[0]}/<circuit>"})
                return await self._artefact_query(
                    segments[0], segments[1], query, etag_in)
            if path == "/figure2":
                return await self._artefact_query(
                    "figure2", "figure2", query, etag_in)
            if segments and segments[0] == "artifact":
                if len(segments) != 2:
                    return _Response(400,
                                     {"error": "/artifact/<cache-key>"})
                return self._by_key(segments[1], etag_in)
        except ConfigError as exc:
            return _Response(400, {"error": str(exc)})
        except (ReproError, LookupError) as exc:
            # LookupError: the circuit loader's "unknown circuit".
            return _Response(404, {"error": str(exc)})
        return _Response(404, {"error": f"unknown endpoint {path!r}"})

    # ------------------------------------------------------------------ #
    # endpoint implementations
    # ------------------------------------------------------------------ #

    async def _healthz(self) -> _Response:
        """Active health: probe the stores the service depends on.

        A health endpoint that always says ok is a liveness bit, not a
        health check: this one round-trips a probe file through the
        cache root.  A failed probe degrades the service to ``503``,
        so a load balancer stops routing to a replica whose volume
        went read-only or vanished.
        """
        checks = await asyncio.to_thread(self._probe_stores)
        degraded = any(state != "ok" for state in checks.values())
        return _Response(
            503 if degraded else 200,
            {"status": "degraded" if degraded else "ok",
             "checks": checks},
            headers={"Retry-After": "1"} if degraded else None)

    def _probe_stores(self) -> dict[str, str]:
        """Write/read/delete one probe file in the cache root."""
        root = self.cache.root
        probe = root / f".healthz-probe-{os.getpid()}"
        try:
            root.mkdir(parents=True, exist_ok=True)
            probe.write_bytes(b"ok")
            data = probe.read_bytes()
            probe.unlink()
            if data != b"ok":
                raise OSError("probe read-back mismatch")
        except OSError as exc:
            return {"cache": f"failed: {exc}"}
        return {"cache": "ok"}

    def _metrics_response(self, query: dict[str, list[str]],
                          headers: dict[str, str]) -> _Response:
        """``/metrics``: JSON by default, Prometheus on request.

        ``?format=prometheus`` — or an ``Accept`` header asking for
        ``text/plain`` without an explicit format — selects the text
        exposition format; the JSON payload is unchanged either way.
        """
        fmt = (query.get("format", [""])[0] or "").lower()
        accept = headers.get("accept", "")
        if fmt == "prometheus" or (not fmt and "text/plain" in accept):
            body = self._render_prometheus().encode()
            return _Response(200, body=body, headers={
                "Content-Type":
                    "text/plain; version=0.0.4; charset=utf-8"})
        if fmt and fmt != "json":
            return _Response(400, {
                "error": f"unknown metrics format {fmt!r} "
                         f"(json or prometheus)"})
        payload = {
            "service": self.metrics.snapshot(),
            "cache": dataclasses.asdict(self.cache.stats),
        }
        return _Response(200, payload)

    def _render_prometheus(self) -> str:
        """Mirror the service state into the process registry and
        render it (the registry also carries the cross-cutting cache
        counters the rest of the stack increments)."""
        reg = get_registry()
        snapshot = self.metrics.snapshot()
        for field in ("requests", "hits", "misses", "not_modified",
                      "computed", "errors", "shed",
                      "timeouts"):
            reg.gauge(f"repro_service_{field}",
                      f"Service {field.replace('_', ' ')} "
                      f"since start.").set(snapshot[field])
        reg.gauge("repro_service_latency_avg_ms",
                  "Mean request latency in ms.").set(
            snapshot["latency_avg_ms"])
        reg.gauge("repro_service_latency_max_ms",
                  "Max request latency in ms.").set(
            snapshot["latency_max_ms"])
        for field, value in dataclasses.asdict(
                self.cache.stats).items():
            reg.gauge(f"repro_service_cache_{field}",
                      f"Service-side result-cache {field}.").set(value)
        return reg.render_prometheus()

    def _request_job(self, endpoint: str, circuit: str,
                     query: dict[str, list[str]]
                     ) -> tuple[CampaignJob, str]:
        """Build the (job, kind) a request addresses."""
        try:
            seed = int(query.get("seed", ["1"])[0])
        except ValueError:
            raise ConfigError("seed must be an integer") from None
        overrides: dict[str, Any] = {}
        if "overrides" in query:
            try:
                overrides = json.loads(query["overrides"][0])
            except ValueError:
                raise ConfigError(
                    "overrides must be a JSON object") from None
            if not isinstance(overrides, dict):
                raise ConfigError("overrides must be a JSON object")
        if "seed" in overrides:
            raise ConfigError(
                "pass the seed as the 'seed' query parameter, not in "
                "overrides")
        if endpoint == "figure2":
            if overrides:
                raise ConfigError(
                    "figure2 artefacts take no overrides (they depend "
                    "only on the cell library)")
            job = CampaignJob(job_id="figure2", circuit="figure2",
                              seed=1, circuit_seed=1,
                              config_kwargs=dict(self.base))
            return job, FIGURE2_ARTEFACT_KIND
        job = CampaignJob(
            job_id=f"{circuit}/seed{seed}",
            circuit=circuit,
            seed=seed,
            circuit_seed=seed or 1,
            config_kwargs={**self.base, **overrides},
        )
        return job, FLOW_ARTEFACT_KIND

    async def _artefact_query(self, endpoint: str, circuit: str,
                              query: dict[str, list[str]],
                              etag_in: str | None) -> _Response:
        job, kind = self._request_job(endpoint, circuit, query)
        # Key derivation loads/fingerprints the circuit on a cold
        # (circuit, seed): keep the event loop free.
        _config_hash, key = await asyncio.to_thread(
            job_identity, job, kind, cache=self.cache,
            code_fingerprint=self._code_fp,
            fingerprints=self._fingerprints)
        artefact = self.cache.get(key)
        if artefact is not None:
            self.metrics.hits += 1
            return self._artefact_response(endpoint, key, artefact,
                                           etag_in)
        self.metrics.misses += 1
        if self.compute_on_miss:
            artefact = await self._compute(job, kind, key)
            return self._artefact_response(endpoint, key, artefact,
                                           etag_in)
        return _Response(404, {
            "error": f"artefact not cached: {job.job_id}",
            "key": key,
        })

    async def _compute(self, job: CampaignJob, kind: str,
                       key: str) -> dict[str, Any]:
        """Compute one artefact inline (per-key single flight)."""
        lock = self._compute_locks.setdefault(key, asyncio.Lock())
        async with lock:
            artefact = self.cache.get(key)
            if artefact is not None:
                return artefact  # someone else computed it meanwhile
            artefact = await asyncio.to_thread(execute_job, job, kind)
            artefact.pop("_phases", None)  # keep artefacts bit-stable
            self.cache.put(key, artefact, meta={
                "job_id": job.job_id,
                "circuit": job.circuit,
                "code": self._code_fp,
                "via": "serve:compute-on-miss",
            })
            self.metrics.computed += 1
            return artefact

    def _by_key(self, key: str, etag_in: str | None) -> _Response:
        """``/artifact/<key>``: only a well-formed key reaches the
        cache (and so the file system)."""
        artefact = self.cache.get(key) if self.cache.is_key(key) \
            else None
        if artefact is not None:
            self.metrics.hits += 1
            return self._artefact_response("artifact", key, artefact,
                                           etag_in)
        self.metrics.misses += 1
        return _Response(404, {"error": "unknown artifact key",
                               "key": key})

    def _artefact_response(self, endpoint: str, key: str,
                           artefact: dict[str, Any],
                           etag_in: str | None) -> _Response:
        if endpoint == "table1":
            payload: dict[str, Any] = {
                "circuit": artefact.get("circuit"),
                "seed": artefact.get("seed"),
                "row": artefact.get("row"),
                "key": key,
            }
        else:
            payload = artefact
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        etag = content_etag(body)
        if etag_in is not None and etag_in.strip() in (etag, "*"):
            self.metrics.not_modified += 1
            return _Response(304, headers={"ETag": etag})
        return _Response(200, body=body, headers={"ETag": etag})


# ---------------------------------------------------------------------- #
# transports
# ---------------------------------------------------------------------- #


async def start_service(service: ArtifactService, host: str,
                        port: int) -> asyncio.base_events.Server:
    """Start the asyncio server (caller owns the event loop)."""
    return await asyncio.start_server(
        service.handle_connection, host, port,
        limit=_MAX_REQUEST_BYTES)


def run_server(service: ArtifactService, host: str = "127.0.0.1",
               port: int = 8350, *,
               ready: threading.Event | None = None) -> None:
    """Blocking server loop (the ``repro serve`` CLI entry point)."""

    async def _main() -> None:
        server = await start_service(service, host, port)
        addr = ", ".join(
            f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
            for sock in server.sockets)
        print(f"repro serve: listening on {addr} "
              f"(cache {service.cache.root})", flush=True)
        if ready is not None:
            ready.set()
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass


class ServiceServer:
    """A served :class:`ArtifactService` on a background thread.

    Test/embedding helper: binds (port ``0`` = ephemeral), exposes the
    bound port, and shuts the loop down cleanly::

        server = ServiceServer(service)
        port = server.start()
        ... http.client against 127.0.0.1:port ...
        server.stop()
    """

    def __init__(self, service: ArtifactService,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._server = loop.run_until_complete(
                start_service(self.service, self.host, self.port))
            self.port = self._server.sockets[0].getsockname()[1]
        except BaseException as exc:  # pragma: no cover - bind failure
            self._error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            self._server.close()
            loop.run_until_complete(self._server.wait_closed())
            loop.close()

    def start(self, timeout: float = 10.0) -> int:
        """Start serving; returns the bound port."""
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):  # pragma: no cover
            raise ServiceError("server failed to start in time")
        if self._error is not None:
            raise ServiceError(
                f"server failed to start: {self._error}")
        return self.port

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
