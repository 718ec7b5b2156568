"""Seeded, deterministic fault injection behind named sites.

A :class:`ChaosPolicy` maps *injection sites* — fixed names threaded
through the campaign stack's hot paths (:data:`SITES`) — to firing
rates, under one seed.  Each site draws from its own
:class:`random.Random` stream seeded by ``hash(seed, site)``, so the
injection sequence at any one site is a pure function of the policy
seed and the call sequence: the same seeded campaign replays the same
faults (the chaos differential suite pins this).

Instrumented code calls one of four primitives, every one a cheap
no-op while no policy is installed:

* :func:`point` — raise/kill/sleep sites (``eio``/``kill``/``hang``/
  ``slow`` kinds): raises a tagged ``OSError`` (``EIO`` or
  ``ENOSPC``), exits the process, or sleeps.
* :func:`fires` — a bare draw for custom actions (e.g. the service
  dropping a connection).
* :func:`mangle` — corrupt a byte payload (torn write / bit flip)
  on ``mangle`` sites.
* :func:`delay` — the seconds an async path should sleep (``slow``
  sites; asyncio code cannot use the blocking :func:`point`).

The spec is the ``chaos`` knob of :mod:`repro.runtime`, resolved with
its one precedence: explicit :func:`enable` > session default
(``RuntimeOptions.chaos`` / ``--chaos SPEC``) > ``$REPRO_CHAOS`` >
off; an empty string at any level pins chaos off.
:func:`sync_from_session` is called by
:func:`repro.runtime.set_session_defaults`, so ``using(chaos=...)``
scopes injection like any other option.

Spec grammar (comma-separated ``key=value``)::

    seed=7,cache.*=0.2,pool.task.kill=0.5,slow_s=0.05,hang_s=2

``seed`` seeds the per-site streams; ``slow_s``/``hang_s`` tune the
delay kinds; every other key is a site name or ``fnmatch`` pattern
(must match at least one known site) with a firing rate in ``[0, 1]``.
Later entries override earlier ones per concrete site.

Every fired injection increments
``repro_chaos_injections_total{site=...}``, records a
``chaos.inject`` trace event, and is appended to the in-process
:func:`injection_log` (capped) for the determinism pins.
"""

from __future__ import annotations

import dataclasses
import errno
import fnmatch
import hashlib
import os
import time
from random import Random
from typing import Any

from repro.errors import ChaosError
from repro.obs.metrics import get_registry
from repro.obs.trace import record_event
from repro.runtime import resolve

__all__ = [
    "SITES",
    "ChaosPolicy",
    "active_policy",
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
    "sync_from_session",
]

#: Known injection sites -> failure kind.  ``eio`` sites raise a
#: tagged ``OSError`` (EIO or ENOSPC, drawn per fire); ``kill`` exits
#: the process hard (``os._exit``, no cleanup — a crash, not an
#: exception); ``hang``/``slow`` sleep; ``mangle`` corrupts bytes via
#: :func:`mangle`; ``reset`` is a bare :func:`fires` draw the caller
#: acts on.
SITES: dict[str, str] = {
    "cache.read": "mangle",      # artefact read corruption
    "cache.write": "mangle",     # torn/corrupt artefact write
    "manifest.write": "eio",     # manifest rewrite
    "pool.task.kill": "kill",    # pool worker dies mid-task
    "pool.task.hang": "hang",    # pool worker wedges mid-task
    "pool.task.slow": "slow",    # pool task straggler
    "service.reset": "reset",    # connection dropped, no response
    "service.slow": "slow",      # slow client/handler
}

_KNOBS = ("seed", "slow_s", "hang_s")

#: Exit code of a chaos ``kill`` (mirrors SIGKILL's 128+9 so crash
#: handling cannot tell an injected death from a real one).
KILL_EXIT_CODE = 137

_LOG_CAP = 10_000


def _site_seed(seed: int, site: str) -> int:
    digest = hashlib.sha256(f"{seed}:{site}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclasses.dataclass(frozen=True)
class ChaosPolicy:
    """One seeded fault-injection configuration (validated, frozen)."""

    seed: int = 0
    #: ``(site, rate)`` pairs over concrete :data:`SITES` names.
    rates: tuple[tuple[str, float], ...] = ()
    #: Sleep injected by ``slow`` sites (seconds).
    slow_s: float = 0.05
    #: Sleep injected by ``hang`` sites (seconds; long enough to read
    #: as a wedged pool task, short enough to not wedge a test suite
    #: forever).
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        for site, rate in self.rates:
            if site not in SITES:
                raise ChaosError(
                    f"unknown chaos site {site!r}; known: "
                    f"{', '.join(sorted(SITES))}")
            if not 0.0 <= rate <= 1.0:
                raise ChaosError(
                    f"chaos rate for {site!r} must be in [0, 1], "
                    f"got {rate}")
        if self.slow_s < 0:
            raise ChaosError("slow_s must be >= 0")
        if self.hang_s < 0:
            raise ChaosError("hang_s must be >= 0")

    @classmethod
    def parse(cls, spec: str) -> "ChaosPolicy":
        """Parse the ``--chaos`` spec grammar (see module docstring)."""
        knobs: dict[str, Any] = {}
        rates: dict[str, float] = {}
        if not spec.strip():
            raise ChaosError(
                "empty chaos spec (use e.g. 'seed=7,cache.*=0.2'; "
                "an empty string at the option level pins chaos off)")
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            key, sep, value = token.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key or not value:
                raise ChaosError(
                    f"malformed chaos spec entry {token!r} "
                    f"(expected key=value)")
            if key in _KNOBS:
                try:
                    knobs[key] = int(value) if key == "seed" \
                        else float(value)
                except ValueError:
                    raise ChaosError(
                        f"chaos {key} must be a number, "
                        f"got {value!r}") from None
                continue
            try:
                rate = float(value)
            except ValueError:
                raise ChaosError(
                    f"chaos rate for {key!r} must be a number, "
                    f"got {value!r}") from None
            matched = fnmatch.filter(SITES, key)
            if not matched:
                raise ChaosError(
                    f"chaos site pattern {key!r} matches no known "
                    f"site; known: {', '.join(sorted(SITES))}")
            for site in matched:
                rates[site] = rate
        return cls(rates=tuple(sorted(rates.items())), **knobs)

    def rate(self, site: str) -> float:
        """The firing rate configured for ``site`` (0 when absent)."""
        return dict(self.rates).get(site, 0.0)

    def to_spec(self) -> str:
        """The policy as a spec string (round-trips through
        :meth:`parse`; how a policy ships to child processes via
        ``$REPRO_CHAOS``)."""
        parts = [f"seed={self.seed}"]
        parts.extend(f"{site}={rate}" for site, rate in self.rates)
        parts.append(f"slow_s={self.slow_s}")
        parts.append(f"hang_s={self.hang_s}")
        return ",".join(parts)


# ---------------------------------------------------------------------- #
# active policy state
# ---------------------------------------------------------------------- #

_policy: ChaosPolicy | None = None
_spec: str | None = None
_rates: dict[str, float] = {}
_streams: dict[str, Random] = {}
_managed = False  # installed by sync_from_session (vs. enable())
_log: list[tuple[str, str]] = []


def chaos_enabled() -> bool:
    """Whether a fault-injection policy is installed."""
    return _policy is not None


def active_policy() -> ChaosPolicy | None:
    """The installed policy, or ``None`` when chaos is off."""
    return _policy


def injection_log() -> list[tuple[str, str]]:
    """``(site, action)`` pairs of every fault fired since
    :func:`enable` (capped at ``_LOG_CAP``; the determinism pins
    compare these across same-seed runs)."""
    return list(_log)


def enable(policy: ChaosPolicy | str) -> ChaosPolicy:
    """Install ``policy`` (or parse a spec string) and reset the
    per-site streams and the injection log."""
    global _policy, _spec, _rates, _streams, _managed
    spec = None
    if isinstance(policy, str):
        spec = policy
        policy = ChaosPolicy.parse(policy)
    _policy = policy
    _spec = spec
    _rates = dict(policy.rates)
    _streams = {site: Random(_site_seed(policy.seed, site))
                for site, rate in policy.rates if rate > 0}
    _managed = False
    _log.clear()
    return policy


def rescope(scope: str) -> None:
    """Re-derive every per-site stream under ``scope``.

    Forked pool workers inherit the parent's stream *state*
    copy-on-write, so without rescoping every fresh worker would make
    the identical draw sequence — a fired first draw would then kill
    each respawned worker in turn, deterministically crash-looping the
    pool.  Mixing a per-worker scope (its deterministic name) into the
    stream seeds keeps runs reproducible while decorrelating workers.
    No-op when chaos is off.
    """
    global _streams
    if _policy is None:
        return
    _streams = {site: Random(_site_seed(_policy.seed, f"{scope}:{site}"))
                for site, rate in _policy.rates if rate > 0}


def disable() -> None:
    """Remove the installed policy; every primitive becomes a no-op."""
    global _policy, _spec, _rates, _streams, _managed
    _policy = None
    _spec = None
    _rates = {}
    _streams = {}
    _managed = False
    _log.clear()


def resolve_chaos(chaos: str | None = None) -> str | None:
    """The effective chaos spec for one invocation: the ``chaos`` knob
    resolved by :func:`repro.runtime.resolve` (argument > session >
    ``$REPRO_CHAOS`` > off; ``""`` at any level pins chaos off).
    Returns the spec string or ``None``.
    """
    return resolve("chaos", chaos)


def sync_from_session() -> None:
    """Align the installed policy with the resolved session knob.

    Called by :func:`repro.runtime.set_session_defaults` so
    ``RuntimeOptions(chaos=...)`` installs and removes the policy like
    any other runtime knob.  Re-syncing an unchanged spec is a no-op
    (the per-site streams are *not* reset mid-run — determinism), and
    only a policy the session itself installed is removed here — an
    explicit :func:`enable` survives unrelated session resets.
    """
    global _managed
    spec = resolve_chaos()
    if spec:
        if _managed and _policy is not None and _spec == spec:
            return
        enable(spec)
        _managed = True
    elif _policy is not None and _managed:
        disable()


# ---------------------------------------------------------------------- #
# injection primitives
# ---------------------------------------------------------------------- #


def _chaos_counter(site: str):
    """Get-or-create survives registry resets between tests."""
    return get_registry().counter(
        "repro_chaos_injections_total",
        "Chaos faults injected, by site.",
        labels={"site": site})


def _kind(site: str) -> str:
    try:
        return SITES[site]
    except KeyError:
        raise ChaosError(
            f"unknown chaos site {site!r}; known: "
            f"{', '.join(sorted(SITES))}") from None


def _draw(site: str) -> Random | None:
    """The site's stream when this call fires, else ``None``."""
    rate = _rates.get(site, 0.0)
    if rate <= 0.0:
        return None
    stream = _streams[site]
    return stream if stream.random() < rate else None


def _fired(site: str, action: str) -> None:
    _chaos_counter(site).inc()
    record_event("chaos.inject", 0.0, site=site, action=action)
    if len(_log) < _LOG_CAP:
        _log.append((site, action))


def point(site: str) -> None:
    """One raise/kill/sleep injection site (no-op when disabled).

    ``eio`` sites raise ``OSError`` (errno ``EIO`` or ``ENOSPC``,
    drawn from the site stream, message tagged ``chaos[<site>]``);
    ``kill`` sites ``os._exit`` the process; ``hang``/``slow`` sites
    sleep the policy's ``hang_s``/``slow_s``.
    """
    if _policy is None:
        return
    kind = _kind(site)
    stream = _draw(site)
    if stream is None:
        return
    if kind == "eio":
        code = errno.EIO if stream.random() < 0.5 else errno.ENOSPC
        _fired(site, errno.errorcode[code])
        raise OSError(
            code, f"chaos[{site}]: injected {errno.errorcode[code]}")
    if kind == "kill":
        _fired(site, "kill")
        os._exit(KILL_EXIT_CODE)
    if kind == "hang":
        _fired(site, "hang")
        time.sleep(_policy.hang_s)
        return
    if kind == "slow":
        _fired(site, "slow")
        time.sleep(_policy.slow_s)
        return
    raise ChaosError(
        f"site {site!r} is a {kind!r} site; use "
        f"{'mangle()' if kind == 'mangle' else 'fires()'} there")


def fires(site: str) -> bool:
    """Whether a custom-action site fires this call (accounted)."""
    if _policy is None:
        return False
    _kind(site)
    if _draw(site) is None:
        return False
    _fired(site, "fire")
    return True


def mangle(site: str, data: bytes) -> bytes:
    """``data``, corrupted when a ``mangle`` site fires.

    Two corruption modes, drawn from the site stream: *torn* —
    truncate at a random offset (the tail of an interrupted write) —
    or *flip* — one byte xor-ed (rot on disk / a bad read).
    """
    if _policy is None or not data:
        return data
    kind = _kind(site)
    if kind != "mangle":
        raise ChaosError(f"site {site!r} is a {kind!r} site, "
                         f"not a mangle site")
    stream = _draw(site)
    if stream is None:
        return data
    if stream.random() < 0.5:
        _fired(site, "torn")
        return data[:stream.randrange(len(data))]
    _fired(site, "flip")
    pos = stream.randrange(len(data))
    corrupted = bytearray(data)
    corrupted[pos] ^= 0xFF
    return bytes(corrupted)


def delay(site: str) -> float:
    """Seconds an async caller should sleep (``slow`` sites only).

    The asyncio service cannot call the blocking :func:`point`; it
    awaits ``asyncio.sleep(chaos.delay("service.slow"))`` instead.
    """
    if _policy is None:
        return 0.0
    kind = _kind(site)
    if kind != "slow":
        raise ChaosError(f"site {site!r} is a {kind!r} site, "
                         f"not a slow site")
    if _draw(site) is None:
        return 0.0
    _fired(site, "slow")
    return _policy.slow_s
