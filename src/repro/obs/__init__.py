"""Zero-dependency observability for the repro stack.

``repro.obs`` is the cross-cutting layer every engine and service in
this package reports into:

* :mod:`repro.obs.trace` — span-based structured tracing.  Hot paths
  wrap phases in ``with span("phase", **attrs):`` blocks; when tracing
  is enabled (``--trace DIR`` / ``$REPRO_TRACE`` /
  ``RuntimeOptions.trace``) every finished span is appended to a
  per-process JSONL file under the trace directory, carrying trace and
  span IDs that stitch pool workers (campaign jobs) into one tree.
  When tracing is off (the default) a span is two
  ``time.monotonic()`` calls and nothing is written.

* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and fixed-bucket histograms with JSON and Prometheus
  text-format rendering; the artifact service's ``/metrics`` endpoint
  is backed by it.

Both modules are stdlib-only by design: the observability layer must
import (and stay near-free) on every backend, worker and CI leg.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.trace import (
    Span,
    TraceSummary,
    activate_context,
    collect_phases,
    current_trace_id,
    disable,
    enable,
    flush,
    propagation_context,
    read_spans,
    record_event,
    resolve_trace,
    span,
    summarize_trace,
    sync_from_session,
    trace_dir,
    traced,
    tracing_enabled,
    using_context,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "TraceSummary",
    "activate_context",
    "collect_phases",
    "current_trace_id",
    "disable",
    "enable",
    "flush",
    "get_registry",
    "propagation_context",
    "read_spans",
    "record_event",
    "resolve_trace",
    "span",
    "summarize_trace",
    "sync_from_session",
    "trace_dir",
    "traced",
    "tracing_enabled",
    "using_context",
]
