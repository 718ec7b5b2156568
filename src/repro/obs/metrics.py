"""Process-wide counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` is a thread-safe, get-or-create store of
instruments keyed by ``(name, labels)``; instruments with the same
name but different label sets form one *family* sharing a type and a
help string, exactly as Prometheus models them.  The module-level
:func:`get_registry` instance is the process-wide default every
instrumented subsystem (cache, pool, service, chaos, ATPG) reports
into; the artifact service's ``/metrics`` endpoint renders it.

Two renderings, same data:

* :meth:`MetricsRegistry.snapshot` — a flat JSON-able dict, label sets
  folded into the key (``'repro_cache_ops_total{outcome="hit"}'``);
  histograms become ``{"count", "sum", "buckets"}`` sub-dicts.
* :meth:`MetricsRegistry.render_prometheus` — the text exposition
  format (``# HELP`` / ``# TYPE`` lines, ``_bucket{le=...}`` /
  ``_sum`` / ``_count`` series for histograms) a Prometheus server
  scrapes directly.

Everything is stdlib-only and an increment is one lock acquisition —
instruments are safe to hit from the service's asyncio callbacks and
worker threads alike.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   60.0)


def _label_suffix(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape(value)}"' for key, value in labels)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


class Counter:
    """Monotonically increasing count (``_total`` by convention)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (depths, sizes, temperatures)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches
    the tail.  ``observe`` is O(number of buckets).
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock,
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket")
        self._lock = lock
        self.buckets = bounds
        self._counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    break

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper bound, cumulative count)`` pairs incl. ``+Inf``."""
        with self._lock:
            running = 0
            pairs = []
            for index, bound in enumerate(self.buckets):
                running += self._counts[index]
                pairs.append((bound, running))
            pairs.append((math.inf, self._count))
            return pairs


class MetricsRegistry:
    """Thread-safe get-or-create store of metric instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[
            tuple[str, tuple[tuple[str, str], ...]], Any] = {}
        self._families: dict[str, tuple[str, str]] = {}  # name -> (type, help)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def _get(self, kind: str, name: str, help_text: str,
             labels: Mapping[str, str] | None,
             factory: Any) -> Any:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        key_labels = tuple(sorted(
            (str(k), str(v)) for k, v in (labels or {}).items()))
        for label, _ in key_labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        key = (name, key_labels)
        with self._lock:
            family = self._families.get(name)
            if family is not None and family[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family[0]}")
            if family is None or (help_text and not family[1]):
                self._families[name] = (kind, help_text or
                                        (family[1] if family else ""))
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = factory()
                self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labels: Mapping[str, str] | None = None) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get("counter", name, help, labels,
                         lambda: Counter(self._lock))

    def gauge(self, name: str, help: str = "",
              labels: Mapping[str, str] | None = None) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get("gauge", name, help, labels,
                         lambda: Gauge(self._lock))

    def histogram(self, name: str, help: str = "",
                  labels: Mapping[str, str] | None = None,
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  ) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``."""
        return self._get("histogram", name, help, labels,
                         lambda: Histogram(self._lock, buckets))

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, Any]:
        """Flat JSON-able view; label sets folded into the key."""
        with self._lock:
            out: dict[str, Any] = {}
            for (name, labels), inst in sorted(self._instruments.items()):
                key = name + _label_suffix(labels)
                if isinstance(inst, Histogram):
                    running = 0
                    buckets: dict[str, int] = {}
                    for index, bound in enumerate(inst.buckets):
                        running += inst._counts[index]
                        buckets[_format_value(bound)] = running
                    buckets["+Inf"] = inst._count
                    out[key] = {"count": inst._count, "sum": inst._sum,
                                "buckets": buckets}
                else:
                    value = inst._value
                    out[key] = int(value) if value == int(value) else value
            return out

    def render_prometheus(self) -> str:
        """The text exposition format a Prometheus server scrapes."""
        with self._lock:
            by_family: dict[str, list[tuple[
                tuple[tuple[str, str], ...], Any]]] = {}
            for (name, labels), inst in sorted(self._instruments.items()):
                by_family.setdefault(name, []).append((labels, inst))
            lines: list[str] = []
            for name in sorted(by_family):
                kind, help_text = self._families[name]
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
                for labels, inst in by_family[name]:
                    suffix = _label_suffix(labels)
                    if isinstance(inst, Histogram):
                        cumulative = 0
                        for index, bound in enumerate(inst.buckets):
                            cumulative += inst._counts[index]
                            le = _format_value(bound)
                            bucket_labels = labels + (("le", le),)
                            lines.append(
                                f"{name}_bucket"
                                f"{_label_suffix(bucket_labels)} "
                                f"{cumulative}")
                        inf_labels = labels + (("le", "+Inf"),)
                        lines.append(f"{name}_bucket"
                                     f"{_label_suffix(inf_labels)} "
                                     f"{inst._count}")
                        lines.append(f"{name}_sum{suffix} "
                                     f"{_format_value(inst._sum)}")
                        lines.append(f"{name}_count{suffix} "
                                     f"{inst._count}")
                    else:
                        lines.append(f"{name}{suffix} "
                                     f"{_format_value(inst._value)}")
            return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every instrument and family (tests only)."""
        with self._lock:
            self._instruments.clear()
            self._families.clear()


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY
