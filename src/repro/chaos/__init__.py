"""Deterministic fault injection + the resilience helpers it proves.

``repro.chaos`` has two halves that meet in the campaign stack:

* :mod:`repro.chaos.policy` — seeded fault *injection*: a
  :class:`ChaosPolicy` (per-site rates, one seed, per-site RNG
  streams) behind named sites threaded through the cache, manifest,
  pool and service hot paths.  Every primitive is a no-op
  while no policy is installed (bench-gated, like tracing).
* :mod:`repro.chaos.retry` — the shared *resilience* helper: capped
  exponential backoff with deterministic jitter and per-site budgets,
  adopted by cache writes and manifest rewrites.

The point of keeping them in one package: the injection layer is how
the retry/respawn/quarantine machinery is *proved* — the chaos
differential suite runs a two-worker pool campaign under aggressive
injection and pins that the surviving cache/manifest artefacts are
bit-identical to a clean run.
"""

from repro.chaos.policy import (
    KILL_EXIT_CODE,
    SITES,
    ChaosPolicy,
    active_policy,
    chaos_enabled,
    delay,
    disable,
    enable,
    fires,
    injection_log,
    mangle,
    point,
    rescope,
    resolve_chaos,
    sync_from_session,
)
from repro.chaos.retry import (
    DEFAULT_RETRY,
    RetryPolicy,
    backoff_s,
    retry_call,
)

__all__ = [
    "KILL_EXIT_CODE",
    "SITES",
    "ChaosPolicy",
    "DEFAULT_RETRY",
    "RetryPolicy",
    "active_policy",
    "backoff_s",
    "chaos_enabled",
    "delay",
    "disable",
    "enable",
    "fires",
    "injection_log",
    "mangle",
    "point",
    "rescope",
    "resolve_chaos",
    "retry_call",
    "sync_from_session",
]
