"""Persistent process pool for campaign jobs.

``multiprocessing.Pool`` is deliberately not used: its workers are
daemonic, which forbids them from having children of their own (a job
running on a pool worker may start a pool of its own).
:class:`WorkerPool` spawns plain non-daemon processes once, keeps them
alive across any number of :meth:`~WorkerPool.map` calls, and preserves
submission order in the returned results regardless of which worker
finished first.

Workers are pre-warmed at :meth:`~WorkerPool.start`: the initializer
imports the simulation substrate so the per-task cost is pure work, not
interpreter warm-up.  On fork platforms the children additionally
inherit every cache the parent had populated at start time
(copy-on-write).
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.util  # noqa: F401  (see _close_live_pools)
import os
import pickle
import threading
import traceback
from collections.abc import Callable, Iterable
from typing import Any

import repro.chaos as chaos
from repro.errors import SimulationError
from repro.obs.metrics import get_registry
from repro.obs.trace import flush as _trace_flush
from repro.obs.trace import (
    propagation_context,
    record_event,
    span,
    using_context,
)

__all__ = [
    "WorkerPool",
    "WorkerPoolError",
    "default_pool_size",
]


class WorkerPoolError(SimulationError):
    """A pool worker failed (task exception or worker death)."""


def default_pool_size() -> int:
    """Worker count default: usable CPUs of this process."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _warm_worker() -> None:
    """Default initializer: pay module import cost once per worker."""
    import repro.simulation.backends  # noqa: F401  (import is the point)


def _respawn_counter():
    """Get-or-create survives registry resets between tests."""
    return get_registry().counter(
        "repro_pool_respawns_total",
        "Dead pool workers replaced by the map supervisor.")


def _worker_main(task_queue, result_queue,
                 initializer: Callable[[], None] | None) -> None:
    """Worker loop: run tasks until the ``None`` sentinel arrives.

    Payloads cross the queues pre-pickled (bytes): ``mp.Queue`` pickles
    asynchronously in a feeder thread and silently *drops* items that
    fail to pickle, which would hang the parent's ``map`` forever.
    Explicit pickling turns an unpicklable task result into an ordinary
    relayed error instead.

    Each dequeued task is **announced** — ``("start", epoch, idx,
    worker)`` — before it runs, so the parent knows which task died
    with a worker and can re-dispatch exactly that one; completions
    are ``("done", epoch, idx, ok, payload, worker)``.  The epoch tags
    results with the map that submitted them, so a task re-executed
    after a death can never poison a later map.

    ``result_queue`` is a ``SimpleQueue`` deliberately: its ``put``
    writes synchronously in the calling thread, so an announcement
    that returned is *guaranteed delivered* even if the worker dies an
    instant later (``mp.Queue``'s feeder thread would lose it to a
    hard ``os._exit``, degrading every crash to the slow bulk
    re-dispatch fallback).
    """
    if initializer is not None:
        initializer()
    # Spawn-started children re-resolve $REPRO_CHAOS themselves (fork
    # children inherit the parent's installed policy copy-on-write).
    chaos.sync_from_session()
    name = multiprocessing.current_process().name
    # Decorrelate this worker's injection streams from its siblings
    # (and from any state a fork inherited) while staying a pure
    # function of (policy seed, worker name) — without this, every
    # respawned fork would replay the exact draw that killed its
    # predecessor and crash-loop the pool deterministically.
    chaos.rescope(name)
    while True:
        job = task_queue.get()
        if job is None:
            break
        epoch, idx, fn, arg, ctx = pickle.loads(job)
        result_queue.put(pickle.dumps(("start", epoch, idx, name)))
        try:
            # Injected after the announcement: a chaos-killed task
            # is always precisely recoverable by the map supervisor.
            chaos.point("pool.task.kill")
            chaos.point("pool.task.hang")
            chaos.point("pool.task.slow")
            with using_context(ctx), span("pool.task", task=idx):
                result = fn(arg)
            payload = pickle.dumps(
                ("done", epoch, idx, True, result, name))
        except BaseException as exc:  # noqa: BLE001 - relayed
            payload = pickle.dumps(
                ("done", epoch, idx, False,
                 f"{type(exc).__name__}: {exc}\n"
                 f"{traceback.format_exc()}", name))
        result_queue.put(payload)
    _trace_flush()


#: Every started pool, so the atexit hook can join stray non-daemon
#: workers (which would otherwise block interpreter shutdown).
#: Deliberately *strong* references: a started pool whose last user
#: reference is dropped without close() must stay reachable here —
#: a WeakSet would forget exactly the stray pools this registry
#: exists to clean up, and the interpreter would hang at exit joining
#: their workers.  close() is the only way out of the registry.
_LIVE_POOLS: "set[WorkerPool]" = set()


# Registration order matters: multiprocessing.util registers its own
# atexit hook (which *joins* every live non-daemon child) when the
# util module is first imported.  The explicit import above forces
# that to happen before this registration, so LIFO ordering runs
# _close_live_pools first — our sentinels reach the workers before
# multiprocessing blocks waiting for them.  Registered the other way
# round, a started-but-unclosed pool deadlocks the interpreter at
# exit (workers wait for tasks, parent waits for workers).
@atexit.register
def _close_live_pools() -> None:  # pragma: no cover - interpreter exit
    for pool in list(_LIVE_POOLS):
        pool.close()


class WorkerPool:
    """A persistent, non-daemonic process pool.

    Parameters
    ----------
    processes:
        Worker count (default: :func:`default_pool_size`).
    initializer:
        Callable run once in each worker before any task (default
        warms the simulation substrate imports).
    start_method:
        ``multiprocessing`` start method; ``None`` uses the platform
        default (fork on Linux — workers then inherit the parent's
        warmed caches copy-on-write).
    max_restarts:
        Pool-lifetime budget of supervised worker **respawns**: a
        worker found dead mid-:meth:`map` is replaced and its
        in-flight task re-dispatched, up to this many times (default
        ``4 * processes``).  Beyond the budget the pool closes and
        raises — a crash-looping task must not burn workers forever.

    Usable as a context manager; :meth:`start` is lazy, so constructing
    a pool is free until the first :meth:`map`.
    """

    #: Result-queue poll interval: how long a quiet map waits before
    #: checking its workers for deaths.
    _POLL_S = 0.2

    #: Result-queue poll timeouts with no progress before the map
    #: supervisor re-dispatches every unfinished task (covers the
    #: narrow window where a worker dies after dequeuing a task but
    #: before announcing it; duplicates are deduplicated by index).
    _STALL_ROUNDS = 10

    def __init__(self, processes: int | None = None,
                 initializer: Callable[[], None] | None = _warm_worker,
                 start_method: str | None = None,
                 max_restarts: int | None = None):
        if processes is not None and processes < 1:
            raise WorkerPoolError("pool needs at least one process")
        if max_restarts is not None and max_restarts < 0:
            raise WorkerPoolError("max_restarts must be >= 0")
        self.processes = processes or default_pool_size()
        self.max_restarts = (max_restarts if max_restarts is not None
                             else 4 * self.processes)
        self._initializer = initializer
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: list = []
        self._task_queue = None
        self._result_queue = None
        self._owner_pid: int | None = None
        self._spawned = 0   # worker name counter (unique across respawns)
        self._restarts = 0  # respawns performed (pool lifetime)
        self._epoch = 0     # map generation tag
        # One map at a time: concurrent maps from two threads would
        # each discard the other's results as stale and hang.
        self._map_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def started(self) -> bool:
        """True once workers have been spawned (and not yet closed)."""
        return bool(self._workers)

    @property
    def owned(self) -> bool:
        """True when this process started the pool.

        A forked child (e.g. a pool worker running a campaign job)
        inherits the parent's pool object; using it there would push
        tasks into the parent's queues and corrupt the parent's
        in-flight map.  Everything that dispatches work checks this.
        """
        return self.started and self._owner_pid == os.getpid()

    def start(self) -> "WorkerPool":
        """Spawn and pre-warm the workers (idempotent)."""
        if self.started:
            if not self.owned:
                raise WorkerPoolError(
                    "pool was started by another process (inherited "
                    "across fork); create a fresh WorkerPool here")
            return self
        self._task_queue = self._ctx.Queue()
        # SimpleQueue: synchronous put (see _worker_main on why).
        self._result_queue = self._ctx.SimpleQueue()
        for _ in range(self.processes):
            self._spawn_worker()
        self._owner_pid = os.getpid()
        _LIVE_POOLS.add(self)
        return self

    def _spawn_worker(self):
        """Start one worker on the shared queues (unique name)."""
        worker = self._ctx.Process(
            target=_worker_main,
            args=(self._task_queue, self._result_queue,
                  self._initializer),
            name=f"repro-pool-{self._spawned}",
            daemon=False)
        self._spawned += 1
        worker.start()
        self._workers.append(worker)
        return worker

    def close(self) -> None:
        """Stop the workers and release the queues (idempotent).

        In a process that merely inherited a started pool across fork,
        only the local references are dropped — the owner's workers and
        queues are left untouched.
        """
        if not self.started:
            return
        if not self.owned:
            self._workers = []
            self._task_queue = None
            self._result_queue = None
            self._owner_pid = None
            _LIVE_POOLS.discard(self)
            return
        for _ in self._workers:
            self._task_queue.put(None)
        for worker in self._workers:
            worker.join(timeout=10.0)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
                worker.join(timeout=2.0)
        self._task_queue.close()
        self._task_queue.join_thread()
        self._result_queue.close()  # SimpleQueue: no feeder to join
        self._workers = []
        self._task_queue = None
        self._result_queue = None
        self._owner_pid = None
        _LIVE_POOLS.discard(self)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "started" if self.started else "idle"
        return f"<WorkerPool processes={self.processes} {state}>"

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any],
            on_result: Callable[[int, Any], None] | None = None
            ) -> list[Any]:
        """Run ``fn`` over ``items`` on the workers; ordered results.

        Thread-safe: maps from several threads (the artifact service
        computes artefacts on worker threads) run one after another.

        Results are returned in submission order regardless of worker
        scheduling.  ``on_result(index, result)`` fires as each result
        arrives (out of order) — campaign runners use it to checkpoint
        caches and manifests incrementally, so an interrupted run
        resumes from every job that already finished.

        All submitted tasks are drained before an error is raised —
        whether a task failed remotely or ``on_result`` itself raised —
        so a failed map leaves the pool clean and reusable (no stale
        results to poison the next map).  The first failed task's
        remote traceback is carried in the :class:`WorkerPoolError`; a
        callback exception is re-raised as-is after the drain.

        Dead workers are **supervised**: a worker that dies mid-map is
        respawned (bounded by ``max_restarts``) and its announced
        in-flight task re-dispatched, so a crashed worker costs one
        task re-execution, not the whole map.  Tasks must therefore be
        idempotent — true of everything the pool runs (content-
        addressed campaign jobs).  Only
        an exhausted restart budget closes the pool and raises.
        """
        with self._map_lock:
            return self._map(fn, items, on_result)

    def _map(self, fn: Callable[[Any], Any], items: Iterable[Any],
             on_result: Callable[[int, Any], None] | None
             ) -> list[Any]:
        self.start()
        items = list(items)
        if not items:
            return []
        self._epoch += 1
        epoch = self._epoch
        with span("pool.map", tasks=len(items),
                  processes=self.processes):
            # captured inside the span so worker tasks parent under it
            ctx = propagation_context()
            # pre-pickled: raises synchronously on an unpicklable task
            # instead of hanging (see _worker_main); retained so a
            # dead worker's task can be re-dispatched verbatim
            payloads = [pickle.dumps((epoch, idx, fn, item, ctx))
                        for idx, item in enumerate(items)]
            for payload in payloads:
                self._task_queue.put(payload)
            results: list[Any] = [None] * len(items)
            done = [False] * len(items)
            errors: list[tuple[int, str]] = []
            in_flight: dict[str, int] = {}
            callback_error: BaseException | None = None
            completed = 0
            stalls = 0
            lost_unannounced = False
            while completed < len(items):
                message = self._poll_result(self._POLL_S)
                if message is None:
                    stalls += 1
                    lost_unannounced |= self._reap_dead(
                        payloads, done, in_flight)
                    if lost_unannounced and stalls >= self._STALL_ROUNDS:
                        # A worker died between dequeuing a task and
                        # announcing it: the exact victim is unknowable,
                        # so re-dispatch everything unfinished (the
                        # done[] dedup makes duplicates harmless).
                        for idx, settled in enumerate(done):
                            if not settled:
                                self._task_queue.put(payloads[idx])
                        lost_unannounced = False
                        stalls = 0
                    continue
                stalls = 0
                if message[0] == "start":
                    _kind, msg_epoch, idx, name = message
                    if msg_epoch == epoch:
                        in_flight[name] = idx
                    continue
                _kind, msg_epoch, idx, ok, payload, name = message
                if in_flight.get(name) == idx:
                    del in_flight[name]
                if msg_epoch != epoch or done[idx]:
                    continue  # stale map, or a re-dispatch duplicate
                done[idx] = True
                completed += 1
                if ok:
                    results[idx] = payload
                    if on_result is not None and callback_error is None:
                        try:
                            on_result(idx, payload)
                        except BaseException as exc:  # noqa: BLE001
                            callback_error = exc  # keep draining first
                else:
                    errors.append((idx, payload))
            if callback_error is not None:
                raise callback_error
            if errors:
                errors.sort()
                idx, remote = errors[0]
                raise WorkerPoolError(
                    f"{len(errors)}/{len(items)} pool task(s) failed; "
                    f"first (task {idx}):\n{remote}")
        return results

    def _poll_result(self, timeout_s: float):
        """One result-queue message, or ``None`` after ``timeout_s``.

        ``SimpleQueue`` has no timed ``get``; its reader connection
        does support a timed ``poll``, and this pool's parent is the
        queue's only reader, so poll-then-get cannot race.
        """
        if not self._result_queue._reader.poll(timeout_s):
            return None
        return pickle.loads(self._result_queue.get())

    def _reap_dead(self, payloads: list[bytes], done: list[bool],
                   in_flight: dict[str, int]) -> bool:
        """Respawn dead workers, re-dispatch their announced tasks.

        Returns ``True`` when a worker died holding *no* announced
        task (idle, or inside the dequeue-to-announce window) — the
        map supervisor then falls back to bulk re-dispatch after a
        stall.  Exhausting the restart budget closes the pool and
        raises: supervision is for crashes, not crash loops.
        """
        dead = [w for w in self._workers if not w.is_alive()]
        if not dead:
            return False
        unannounced = False
        for worker in dead:
            if self._restarts >= self.max_restarts:
                names = ", ".join(
                    f"{w.name} (exitcode {w.exitcode})" for w in dead)
                self.close()
                raise WorkerPoolError(
                    f"worker died mid-task: {names} (respawn budget "
                    f"of {self.max_restarts} exhausted)") from None
            self._workers.remove(worker)
            self._restarts += 1
            replacement = self._spawn_worker()
            _respawn_counter().inc()
            record_event("pool.respawn", 0.0, worker=worker.name,
                         exitcode=worker.exitcode,
                         replacement=replacement.name)
            idx = in_flight.pop(worker.name, None)
            if idx is not None and not done[idx]:
                self._task_queue.put(payloads[idx])
            elif idx is None:
                unannounced = True
        return unannounced
