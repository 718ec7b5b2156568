"""Shared retry helper: capped exponential backoff, deterministic jitter.

The campaign stack's transactional writes (cache artefacts, manifest
rewrites) retry transient I/O failures through one :func:`retry_call`,
so budgets and backoff live in one place instead of per-site
``except OSError`` scatter.

Backoff for attempt *n* is ``min(cap_s, base_s * 2**(n-1))`` scaled by
a *deterministic* jitter in ``[0.5, 1.5)`` derived from
``sha256(site, n)`` — repeated runs back off identically (no RNG
state, nothing to seed), while distinct sites still decorrelate.

Every performed retry increments ``repro_retries_total{site=...}``
and records a ``retry`` trace event carrying the attempt number and
the swallowed error, so a chaos run's recovery work is visible in
``/metrics`` and the span trace.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Any, Callable, TypeVar

from repro.errors import ChaosError
from repro.obs.metrics import get_registry
from repro.obs.trace import record_event

__all__ = ["RetryPolicy", "DEFAULT_RETRY", "backoff_s", "retry_call"]

T = TypeVar("T")


def _retry_counter(site: str):
    """Get-or-create survives registry resets between tests."""
    return get_registry().counter(
        "repro_retries_total",
        "Transient failures retried, by site.",
        labels={"site": site})


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Budget and backoff shape for one class of transient failures."""

    #: Total tries (first call included); the last failure propagates.
    attempts: int = 4
    #: Backoff before the second try (doubles per attempt).
    base_s: float = 0.01
    #: Backoff ceiling.
    cap_s: float = 1.0
    #: Exception types worth retrying.
    retry_on: tuple[type[BaseException], ...] = (OSError,)
    #: Exception types that bypass the budget entirely (e.g. a
    #: ``FileNotFoundError`` that means *gone*, not flaky).
    giveup_on: tuple[type[BaseException], ...] = ()

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ChaosError("retry attempts must be >= 1")
        if self.base_s < 0 or self.cap_s < 0:
            raise ChaosError("retry backoff must be >= 0")


DEFAULT_RETRY = RetryPolicy()


def backoff_s(policy: RetryPolicy, attempt: int, site: str = "") -> float:
    """Sleep before retry ``attempt`` (1-based), jitter included."""
    raw = min(policy.cap_s, policy.base_s * (2 ** (attempt - 1)))
    digest = hashlib.sha256(f"{site}:{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:4], "big") / 2 ** 32
    return raw * (0.5 + fraction)


def retry_call(fn: Callable[[], T], *, site: str,
               policy: RetryPolicy = DEFAULT_RETRY,
               sleep: Callable[[float], Any] = time.sleep) -> T:
    """Call ``fn`` under ``policy``; the final failure propagates.

    ``site`` labels the metrics/trace emissions and decorrelates the
    jitter; ``sleep`` is injectable for tests.
    """
    for attempt in range(1, policy.attempts + 1):
        try:
            return fn()
        except policy.giveup_on:
            raise
        except policy.retry_on as exc:
            if attempt >= policy.attempts:
                raise
            _retry_counter(site).inc()
            record_event("retry", 0.0, site=site, attempt=attempt,
                         error=f"{type(exc).__name__}: {exc}")
            sleep(backoff_s(policy, attempt, site))
    raise AssertionError("unreachable")  # pragma: no cover
