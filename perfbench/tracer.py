"""In-memory span recorder that wraps the program's public functions.

The benchmark measures each layer from the outside: it replaces a
module or class attribute (``repro.core.flow.generate_tests``,
``FaultSimSession.simulate``, ...) with a wrapper that records one span
per call, and :meth:`Tracer.uninstall` restores the original.  Nothing
inside ``src/`` changes.

Spans stay in memory as ``[name, start, end, parent]`` rows, where
``parent`` is the index of the enclosing span on the same thread (or
``None``); :meth:`Tracer.dump` writes them out once, when the run ends.
Coroutine functions are recorded flat (no parent), because asyncio
handlers interleave on one thread.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from typing import Any

__all__ = ["Tracer"]

#: ``on_result(tracer, args, kwargs, result)`` derives counters from a
#: wrapped call's arguments and return value.
ResultHook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []   # [name, start, end, parent]
        self.counters: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: ResultHook | None = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper named ``name``."""
        original = inspect.getattr_static(owner, attr)
        func = getattr(owner, attr)
        if inspect.iscoroutinefunction(func):
            wrapper = self._async_wrapper(func, name, on_result)
        else:
            wrapper = self._sync_wrapper(func, name, on_result)
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse install order)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: int | None) -> int:
        with self._lock:
            self.spans.append([name, time.perf_counter(), None, parent])
            return len(self.spans) - 1

    def active(self, name: str) -> bool:
        """True when a span named ``name`` is open on this thread."""
        return any(self.spans[index][0] == name for index in self._stack())

    def _sync_wrapper(self, func, name: str,
                      on_result: ResultHook | None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            index = self._open(name, stack[-1] if stack else None)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        return wrapper

    def _async_wrapper(self, func, name: str,
                       on_result: ResultHook | None):
        @functools.wraps(func)
        async def wrapper(*args, **kwargs):
            index = self._open(name, None)
            try:
                result = await func(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        return wrapper

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #

    def has_ancestor(self, index: int, name: str) -> bool:
        """True when a span named ``name`` encloses span ``index``."""
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def durations(self, name: str, under: str | None = None,
                  outside: str | None = None) -> list[float]:
        """Inclusive durations of the closed spans named ``name``.

        ``under``/``outside`` keep only spans with / without an
        enclosing span of that name.
        """
        return [end - start
                for index, (span_name, start, end, _) in
                enumerate(self.spans)
                if span_name == name and end is not None
                and (under is None or self.has_ancestor(index, under))
                and (outside is None
                     or not self.has_ancestor(index, outside))]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def mean_ms(self, name: str) -> float:
        values = self.durations(name)
        return 1000.0 * sum(values) / len(values) if values else 0.0

    def self_total(self, name: str) -> float:
        """Summed self time of ``name``: duration minus direct children."""
        children: dict[int, float] = defaultdict(float)
        for _name, start, end, parent in self.spans:
            if parent is not None and end is not None:
                children[parent] += end - start
        return sum(end - start - children[index]
                   for index, (span_name, start, end, _) in
                   enumerate(self.spans)
                   if span_name == name and end is not None)

    def dump(self, path: str) -> None:
        """Write every span and counter as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans,
                       "counters": dict(self.counters)}, handle)
