"""Span-based structured tracing with cross-process propagation.

A *span* is one timed phase: a name, monotonic start/duration, a
16-hex span ID, the 32-hex trace ID of the run it belongs to, the span
ID of its parent (or ``None`` for a root), the recording PID/thread
and free-form attributes.  Instrumented code wraps phases in::

    with span("sim.episode_batch", backend="bigint") as sp:
        ...                      # sp.elapsed_s() mid-flight
    sp.dur_s                     # measured duration, always available

Spans **always measure** (two ``time.monotonic()`` calls — the same
clock ``utils.timing.Stopwatch`` uses, so callers may read ``dur_s``
for bookkeeping whether or not tracing is on) but are only *recorded*
when tracing is enabled.  Enabled means a trace directory is
configured — the ``trace`` knob of :mod:`repro.runtime`, resolved with
its one precedence (per-call arg > session default, e.g. ``--trace
DIR`` > ``$REPRO_TRACE`` > off) — and every finished span is
buffered and appended to ``<dir>/trace-<pid>-<token>.jsonl`` (one JSON
object per line; flushed whenever a root span closes, when the buffer
tops 512 spans, at :func:`disable`, and at interpreter exit).
Per-process files mean concurrent writers never interleave.

Cross-process stitching
-----------------------
:func:`propagation_context` captures ``{"trace_id", "parent_span_id",
"dir"}`` for shipping inside a pool task payload;
:func:`activate_context` (or the scoped :func:`using_context`)
installs it in the receiving process so new root spans parent under
the shipping span and carry the same trace ID.  Fork workers need no
payload at all: the trace configuration and the forking thread's open
span stack are inherited copy-on-write, and an ``os.register_at_fork``
hook resets the child's output file and drops the parent's unflushed
buffer so nothing is written twice.  One campaign — fork- or
spawn-started pool workers included — therefore yields a single
stitched tree under one directory, summarized by
:func:`summarize_trace` / ``repro-power trace summarize DIR``.

Span record schema (one JSONL line)::

    {"trace": "<32 hex>", "span": "<16 hex>", "parent": "<16 hex>"|null,
     "name": "phase", "t0": <epoch seconds>, "dur_s": <float>,
     "pid": <int>, "thread": "<name>", "attrs": {...}}
"""

from __future__ import annotations

import atexit
import dataclasses
import functools
import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Mapping

from repro.runtime import resolve

__all__ = [
    "Span",
    "TraceSummary",
    "activate_context",
    "collect_phases",
    "current_trace_id",
    "disable",
    "enable",
    "flush",
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

_FLUSH_THRESHOLD = 512

_lock = threading.Lock()
_enabled = False
_dir: Path | None = None
_trace_id: str | None = None
_remote_parent: str | None = None
_buffer: list[dict[str, Any]] = []
_file_token = ""
_managed = False  # recorder enabled by sync_from_session (vs. enable())
_local = threading.local()


def _stack() -> list[str]:
    stack: list[str] | None = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _collectors() -> list[dict[str, float]]:
    sinks: list[dict[str, float]] | None = getattr(_local, "sinks", None)
    if sinks is None:
        sinks = _local.sinks = []
    return sinks


# ---------------------------------------------------------------------- #
# enable / disable / resolution
# ---------------------------------------------------------------------- #


def tracing_enabled() -> bool:
    """Whether finished spans are currently being recorded."""
    return _enabled


def trace_dir() -> Path | None:
    """The active trace directory, or ``None`` when tracing is off."""
    return _dir if _enabled else None


def current_trace_id() -> str | None:
    """The active 32-hex trace ID, or ``None`` when tracing is off."""
    return _trace_id if _enabled else None


def enable(directory: str | Path, *, trace_id: str | None = None,
           parent_span_id: str | None = None) -> None:
    """Start recording spans into ``directory``.

    A fresh trace ID is minted unless ``trace_id`` is given (workers
    receiving a :func:`propagation_context` pass the parent's).
    Re-enabling the same directory without an explicit ``trace_id`` is
    a no-op, so repeated ``set_session_defaults`` calls never rotate a
    run's trace ID mid-flight.
    """
    global _enabled, _dir, _trace_id, _remote_parent, _file_token
    with _lock:
        target = Path(directory)
        if _enabled and _dir == target and trace_id is None:
            return
        target.mkdir(parents=True, exist_ok=True)
        _dir = target
        _trace_id = trace_id or uuid.uuid4().hex
        _remote_parent = parent_span_id
        _file_token = uuid.uuid4().hex[:8]
        _enabled = True


def disable() -> None:
    """Flush buffered spans and stop recording."""
    global _enabled, _dir, _trace_id, _remote_parent, _managed
    with _lock:
        _flush_locked()
        _enabled = False
        _dir = None
        _trace_id = None
        _remote_parent = None
        _managed = False


def resolve_trace(trace: str | None = None) -> str | None:
    """The effective trace directory for one invocation: the ``trace``
    knob resolved by :func:`repro.runtime.resolve` (argument > session
    > ``$REPRO_TRACE`` > off; ``""`` at any level pins tracing off).
    Returns the directory path or ``None``.
    """
    return resolve("trace", trace)


def sync_from_session() -> None:
    """Align the recording state with the resolved session knob.

    Called by :func:`repro.runtime.set_session_defaults` (and the
    ``using`` scope) so ``RuntimeOptions(trace=...)`` turns the
    recorder on and off like any other runtime knob.  Only a recorder
    the session itself enabled is disabled here — an explicit
    :func:`enable` (e.g. a worker adopting a shipped context) is not
    torn down by an unrelated session reset.
    """
    global _managed
    directory = resolve_trace()
    if directory:
        enable(directory)
        _managed = True
    elif _enabled and _managed:
        disable()


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #


class Span:
    """One timed phase; use via the :class:`span` context manager."""

    __slots__ = ("name", "attrs", "trace_id", "span_id", "parent_id",
                 "t0", "dur_s", "_start", "_pushed")

    def __init__(self, name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self.t0 = 0.0
        self.dur_s = 0.0
        self._start = 0.0
        self._pushed = False

    def elapsed_s(self) -> float:
        """Monotonic seconds since the span was entered."""
        return time.monotonic() - self._start


class span:
    """Context manager timing one phase (recorded only when enabled).

    ``with span("cache.get", key=key[:12]) as sp:`` — ``sp`` is the
    :class:`Span`; ``sp.dur_s`` holds the measured duration after exit
    regardless of whether tracing is on, so instrumented code may use
    it for its own bookkeeping (one clock source).
    """

    __slots__ = ("_sp",)

    def __init__(self, name: str, **attrs: Any):
        self._sp = Span(name, attrs)

    def __enter__(self) -> Span:
        sp = self._sp
        if _enabled:
            stack = _stack()
            sp.trace_id = _trace_id
            sp.parent_id = stack[-1] if stack else _remote_parent
            sp.span_id = uuid.uuid4().hex[:16]
            stack.append(sp.span_id)
            sp._pushed = True
            sp.t0 = time.time()
        sp._start = time.monotonic()
        return sp

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        sp = self._sp
        sp.dur_s = time.monotonic() - sp._start
        for sink in _collectors():
            sink[sp.name] = sink.get(sp.name, 0.0) + sp.dur_s
        if sp._pushed:
            stack = _stack()
            if stack and stack[-1] == sp.span_id:
                stack.pop()
            if _enabled:
                record: dict[str, Any] = {
                    "trace": sp.trace_id,
                    "span": sp.span_id,
                    "parent": sp.parent_id,
                    "name": sp.name,
                    "t0": sp.t0,
                    "dur_s": sp.dur_s,
                    "pid": os.getpid(),
                    "thread": threading.current_thread().name,
                    "attrs": sp.attrs,
                }
                if exc_type is not None:
                    record["error"] = exc_type.__name__
                _record(record, root_done=not stack)


def record_event(name: str, dur_s: float, **attrs: Any) -> None:
    """Record a completed span without touching the thread-local stack.

    For timings measured outside a ``with span(...)`` block — notably
    asyncio request handlers, where concurrent coroutines interleave
    on one thread and a stack-based context manager would mis-nest.
    The event parents under whatever span is open on this thread (or
    the remote parent) and is a no-op when tracing is off.
    """
    if not _enabled:
        return
    stack = _stack()
    record: dict[str, Any] = {
        "trace": _trace_id,
        "span": uuid.uuid4().hex[:16],
        "parent": stack[-1] if stack else _remote_parent,
        "name": name,
        "t0": time.time() - dur_s,
        "dur_s": dur_s,
        "pid": os.getpid(),
        "thread": threading.current_thread().name,
        "attrs": attrs,
    }
    _record(record, root_done=not stack)


def traced(name: str, **attrs: Any):
    """Decorator wrapping every call of a function in a :class:`span`.

    One-line instrumentation for phase-sized functions (plan compiles,
    dispatch entry points) — not for inner loops.
    """
    def decorate(fn: Any) -> Any:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(name, **attrs):
                return fn(*args, **kwargs)
        return wrapper
    return decorate


class _collect_phases:
    """Accumulate ``{phase name: total seconds}`` for this thread.

    Works whether or not tracing is enabled (spans always measure), so
    campaign executors can attach per-job phase timings to manifests
    unconditionally.  Nested spans each contribute their own duration,
    so a parent phase's total includes time also counted under its
    children — sums are per-phase, not a partition of wall time.
    """

    __slots__ = ("sink",)

    def __init__(self) -> None:
        self.sink: dict[str, float] = {}

    def __enter__(self) -> dict[str, float]:
        _collectors().append(self.sink)
        return self.sink

    def __exit__(self, *exc: Any) -> None:
        sinks = _collectors()
        if self.sink in sinks:
            sinks.remove(self.sink)


collect_phases = _collect_phases


# ---------------------------------------------------------------------- #
# recording / flushing
# ---------------------------------------------------------------------- #


def _record(record: dict[str, Any], *, root_done: bool) -> None:
    with _lock:
        if not _enabled:
            return
        _buffer.append(record)
        if root_done or len(_buffer) >= _FLUSH_THRESHOLD:
            _flush_locked()


def _flush_locked() -> Path | None:
    global _buffer
    if not _buffer or _dir is None:
        return None
    path = _dir / f"trace-{os.getpid()}-{_file_token}.jsonl"
    lines = "".join(
        json.dumps(rec, sort_keys=True, default=str) + "\n"
        for rec in _buffer)
    try:
        with path.open("a") as handle:
            handle.write(lines)
    except OSError:
        return None
    finally:
        _buffer = []
    return path


def flush() -> Path | None:
    """Write buffered spans to the trace directory now.

    Returns the per-process JSONL path written to, or ``None`` when
    there was nothing to flush.  Worker entry points call this before
    exiting (``multiprocessing`` children skip ``atexit``).
    """
    with _lock:
        return _flush_locked()


def _after_fork_in_child() -> None:
    # The child inherits the parent's configuration and the forking
    # thread's open span stack (that is what stitches fork workers for
    # free) but must not re-flush the parent's buffered spans, and
    # needs its own output file and a fresh lock.
    global _lock, _buffer, _file_token
    _lock = threading.Lock()
    _buffer = []
    _file_token = uuid.uuid4().hex[:8]


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(
        before=lambda: _lock.acquire(),
        after_in_parent=lambda: _lock.release(),
        after_in_child=_after_fork_in_child,
    )

atexit.register(flush)


# ---------------------------------------------------------------------- #
# propagation
# ---------------------------------------------------------------------- #


def propagation_context() -> dict[str, str | None] | None:
    """Trace context for shipping to another process, or ``None``.

    The receiving process passes it to :func:`activate_context` /
    :func:`using_context`; its new root spans then parent under the
    span open here and join this trace.  The directory travels too
    (pool workers share the parent's filesystem).
    """
    if not _enabled:
        return None
    stack = _stack()
    return {
        "trace_id": _trace_id,
        "parent_span_id": stack[-1] if stack else _remote_parent,
        "dir": str(_dir),
    }


def activate_context(context: Mapping[str, Any] | None) -> None:
    """Adopt a shipped :func:`propagation_context` in this process.

    Enables recording into the shipped directory when this process has
    no trace configuration of its own; a worker started with an
    explicit ``--trace DIR`` keeps writing there but still adopts the
    trace ID and parent so the tree stitches.  ``None`` is a no-op.
    """
    global _trace_id, _remote_parent
    if not context:
        return
    directory = context.get("dir")
    if not _enabled and directory:
        enable(directory, trace_id=context.get("trace_id"),
               parent_span_id=context.get("parent_span_id"))
        return
    with _lock:
        if context.get("trace_id"):
            _trace_id = context["trace_id"]
        _remote_parent = context.get("parent_span_id")


class using_context:
    """Scoped :func:`activate_context` — restores IDs on exit.

    Long-lived workers (the campaign pool) serve payloads from
    potentially different traces; each task adopts its payload's
    context only for the duration of its execution.  The
    thread's open-span stack is set aside for the scope: the shipped
    ``parent_span_id`` is the authoritative parent here, not whatever
    spans this process inherited across ``fork`` or has open in its
    own task loop.
    """

    __slots__ = ("_context", "_saved", "_saved_stack")

    def __init__(self, context: Mapping[str, Any] | None):
        self._context = context
        self._saved: tuple[str | None, str | None] | None = None
        self._saved_stack: list[str] | None = None

    def __enter__(self) -> None:
        if self._context:
            self._saved = (_trace_id, _remote_parent)
            stack = _stack()
            self._saved_stack = stack[:]
            stack.clear()
            activate_context(self._context)

    def __exit__(self, *exc: Any) -> None:
        global _trace_id, _remote_parent
        if self._saved is not None:
            with _lock:
                _trace_id, _remote_parent = self._saved
            stack = _stack()
            stack.clear()
            stack.extend(self._saved_stack or [])


# ---------------------------------------------------------------------- #
# reading / summarizing
# ---------------------------------------------------------------------- #


def read_spans(directory: str | Path) -> list[dict[str, Any]]:
    """All span records under ``directory`` (every trace-*.jsonl).

    Unparseable lines are skipped (a crashed writer can truncate its
    last line); records are returned sorted by wall-clock start.
    """
    records: list[dict[str, Any]] = []
    root = Path(directory)
    for path in sorted(root.glob("trace-*.jsonl")):
        try:
            text = path.read_text()
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "span" in record:
                records.append(record)
    records.sort(key=lambda r: (r.get("t0", 0.0), r.get("span", "")))
    return records


@dataclasses.dataclass
class _PhaseAgg:
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0


@dataclasses.dataclass
class TraceSummary:
    """Aggregate view of one trace directory.

    ``phases`` maps phase name to (count, total seconds, max seconds);
    ``wall_s`` is the summed duration of root spans; ``critical_path``
    walks from the longest root span down its longest child at each
    level; ``orphans`` are spans whose recorded parent appears nowhere
    in the directory (a propagation bug — pinned empty by tests).
    """

    spans: int
    traces: list[str]
    processes: list[int]
    wall_s: float
    phases: dict[str, tuple[int, float, float]]
    critical_path: list[tuple[str, float, int]]
    orphans: list[str]

    def render(self) -> str:
        lines = [
            f"spans: {self.spans}   traces: {len(self.traces)}   "
            f"processes: {len(self.processes)}   wall: {self.wall_s:.3f}s",
        ]
        if self.orphans:
            lines.append(f"ORPHAN SPANS: {len(self.orphans)} "
                         f"(broken parent links)")
        if self.phases:
            name_w = max(len(n) for n in self.phases)
            name_w = max(name_w, len("phase"))
            lines.append("")
            lines.append(f"{'phase':<{name_w}}  {'count':>7}  "
                         f"{'total_s':>10}  {'mean_s':>10}  {'max_s':>10}")
            for name in sorted(self.phases,
                               key=lambda n: -self.phases[n][1]):
                count, total, peak = self.phases[name]
                lines.append(
                    f"{name:<{name_w}}  {count:>7}  {total:>10.4f}  "
                    f"{total / count:>10.4f}  {peak:>10.4f}")
        if self.critical_path:
            lines.append("")
            lines.append("critical path:")
            for depth, (name, dur, pid) in enumerate(self.critical_path):
                lines.append(f"  {'  ' * depth}{name}  "
                             f"{dur:.4f}s  [pid {pid}]")
        return "\n".join(lines)


def summarize_trace(directory: str | Path) -> TraceSummary:
    """Aggregate every span under ``directory`` into a summary."""
    records = read_spans(directory)
    by_id = {rec["span"]: rec for rec in records}
    children: dict[str, list[dict[str, Any]]] = {}
    roots: list[dict[str, Any]] = []
    orphans: list[str] = []
    phases: dict[str, _PhaseAgg] = {}
    traces: list[str] = []
    processes: list[int] = []
    for rec in records:
        trace = rec.get("trace")
        if trace and trace not in traces:
            traces.append(trace)
        pid = rec.get("pid")
        if isinstance(pid, int) and pid not in processes:
            processes.append(pid)
        agg = phases.setdefault(rec.get("name", "?"), _PhaseAgg())
        dur = float(rec.get("dur_s", 0.0))
        agg.count += 1
        agg.total_s += dur
        agg.max_s = max(agg.max_s, dur)
        parent = rec.get("parent")
        if parent is None:
            roots.append(rec)
        elif parent in by_id:
            children.setdefault(parent, []).append(rec)
        else:
            orphans.append(rec["span"])
    wall_s = sum(float(rec.get("dur_s", 0.0)) for rec in roots)
    critical: list[tuple[str, float, int]] = []
    if roots:
        node = max(roots, key=lambda rec: float(rec.get("dur_s", 0.0)))
        while node is not None:
            critical.append((node.get("name", "?"),
                             float(node.get("dur_s", 0.0)),
                             int(node.get("pid", 0))))
            kids = children.get(node["span"])
            node = (max(kids, key=lambda rec: float(rec.get("dur_s", 0.0)))
                    if kids else None)
    return TraceSummary(
        spans=len(records),
        traces=traces,
        processes=sorted(processes),
        wall_s=wall_s,
        phases={name: (agg.count, agg.total_s, agg.max_s)
                for name, agg in phases.items()},
        critical_path=critical,
        orphans=orphans,
    )


def _reset_for_tests() -> None:
    """Drop all recorder state (tests only)."""
    global _enabled, _dir, _trace_id, _remote_parent, _buffer, _managed
    with _lock:
        _enabled = False
        _dir = None
        _trace_id = None
        _remote_parent = None
        _buffer = []
        _managed = False
    _local.stack = []
    _local.sinks = []
