"""WorkerPool mechanics: ordering, reuse, errors, shared pool."""

import os
import time

import pytest

from repro.campaign.pool import (
    WorkerPool,
    WorkerPoolError,
    active_shared_pool,
    default_pool_size,
    ensure_shared_pool,
    shutdown_shared_pool,
)


def _square(x):
    return x * x


def _identify(x):
    return (x, os.getpid())


def _boom(x):
    raise ValueError(f"boom {x}")


def _maybe_boom(x):
    if x == 2:
        raise ValueError("boom 2")
    return x


@pytest.fixture
def pool():
    with WorkerPool(processes=2) as p:
        yield p


class TestLifecycle:
    def test_lazy_start(self):
        p = WorkerPool(processes=1)
        assert not p.started
        p.start()
        assert p.started
        p.close()
        assert not p.started

    def test_start_idempotent(self, pool):
        assert pool.start() is pool

    def test_close_idempotent(self):
        p = WorkerPool(processes=1)
        p.close()  # never started: no-op
        p.start()
        p.close()
        p.close()

    def test_rejects_zero_processes(self):
        with pytest.raises(WorkerPoolError):
            WorkerPool(processes=0)

    def test_default_size_positive(self):
        assert default_pool_size() >= 1


class TestMap:
    def test_ordered_results(self, pool):
        assert pool.map(_square, range(10)) == [i * i for i in range(10)]

    def test_empty_iterable(self, pool):
        assert pool.map(_square, []) == []

    def test_runs_in_worker_processes(self, pool):
        pids = {pid for _, pid in pool.map(_identify, range(8))}
        assert os.getpid() not in pids

    def test_workers_persist_across_maps(self, pool):
        workers_before = {w.pid for w in pool._workers}
        first = {pid for _, pid in pool.map(_identify, range(4))}
        second = {pid for _, pid in pool.map(_identify, range(4))}
        # the same live worker processes serve both maps — every task
        # ran on an original worker and none were respawned
        assert (first | second) <= workers_before
        assert {w.pid for w in pool._workers} == workers_before

    def test_on_result_callback_sees_every_result(self, pool):
        seen = {}
        pool.map(_square, [3, 4], on_result=seen.__setitem__)
        assert seen == {0: 9, 1: 16}

    def test_task_error_raises_with_remote_traceback(self, pool):
        with pytest.raises(WorkerPoolError, match="boom"):
            pool.map(_boom, [1])

    def test_pool_survives_a_failed_map(self, pool):
        with pytest.raises(WorkerPoolError):
            pool.map(_maybe_boom, [0, 1, 2, 3])
        # all tasks were drained: the pool is clean and reusable
        assert pool.map(_square, [5]) == [25]


class TestSharedPool:
    def test_shared_pool_roundtrip(self):
        shutdown_shared_pool()
        assert active_shared_pool() is None
        try:
            p = ensure_shared_pool(processes=1)
            assert p.started
            assert active_shared_pool() is p
            assert ensure_shared_pool() is p  # reused, not resized
        finally:
            shutdown_shared_pool()
        assert active_shared_pool() is None


def _unpicklable_result(x):
    return lambda: x  # lambdas cannot pickle


class TestPicklingSafety:
    def test_unpicklable_task_raises_instead_of_hanging(self, pool):
        with pytest.raises(Exception):
            pool.map(lambda x: x, [1])  # lambda task: rejected up front
        assert pool.map(_square, [3]) == [9]  # pool still clean

    def test_unpicklable_result_relayed_as_error(self, pool):
        with pytest.raises(WorkerPoolError):
            pool.map(_unpicklable_result, [1])
        assert pool.map(_square, [3]) == [9]


def _shared_pool_invisible_in_worker(_):
    # runs inside a pool worker: the inherited parent pool must not be
    # offered for dispatch here
    from repro.campaign.pool import active_shared_pool
    return active_shared_pool() is None


def _callback_boom(idx, result):
    raise OSError("cache disk full")


class TestForkOwnership:
    def test_inherited_shared_pool_invisible_in_workers(self):
        shutdown_shared_pool()
        try:
            shared = ensure_shared_pool(processes=2)
            assert shared.owned
            assert all(shared.map(_shared_pool_invisible_in_worker,
                                  range(4)))
        finally:
            shutdown_shared_pool()


def _nested_shared_pool_roundtrip(processes):
    # runs inside a pool worker: start (or reuse) this process's own
    # shared pool and leave it running, as a sharded flow run as a
    # campaign job does
    from repro.campaign.pool import ensure_shared_pool
    nested = ensure_shared_pool(processes)
    return nested.owned, nested.map(_square, [2, 3])


class TestNestedSharedPool:
    def test_worker_owning_a_shared_pool_exits_cleanly(self):
        pool = WorkerPool(processes=1)
        assert pool.map(_nested_shared_pool_roundtrip, [2]) == \
            [(True, [4, 9])]
        workers = list(pool._workers)
        t0 = time.monotonic()
        pool.close()
        # the worker closes its own shared pool before it returns, so
        # its exit never waits for the nested workers (close() would
        # otherwise time out after 10 s and kill it)
        assert time.monotonic() - t0 < 5.0
        assert [w.exitcode for w in workers] == [0]

    def test_forked_child_starts_its_own_shared_pool(self):
        shutdown_shared_pool()
        try:
            shared = ensure_shared_pool(processes=1)
            with WorkerPool(processes=1, start_method="fork") as pool:
                # the child inherited the parent's started shared pool
                assert pool.map(_nested_shared_pool_roundtrip, [1]) == \
                    [(True, [4, 9])]
            # the parent's shared pool is untouched and still serves
            assert active_shared_pool() is shared
            assert shared.map(_square, [5]) == [25]
        finally:
            shutdown_shared_pool()


def _slow_square(x):
    time.sleep(0.02)
    return x * x


class TestThreadedMaps:
    def test_threads_share_one_shared_pool_and_keep_their_results(self):
        # the artifact service computes artefacts on worker threads, so
        # several threads may start the shared pool and map on it at
        # once; each must get one pool and exactly its own results
        import sys
        import threading

        shutdown_shared_pool()
        pools, results = {}, {}

        def run(tag):
            pool = ensure_shared_pool(processes=2)
            pools[tag] = pool
            results[tag] = pool.map(_slow_square, range(tag, tag + 6))

        tags = (0, 100, 200, 300)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(tag,),
                                        daemon=True) for tag in tags]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len({id(pool) for pool in pools.values()}) == 1
        assert results == {tag: [x * x for x in range(tag, tag + 6)]
                           for tag in tags}


class TestCallbackErrors:
    def test_callback_error_drains_before_raising(self, pool):
        with pytest.raises(OSError, match="disk full"):
            pool.map(_square, range(6), on_result=_callback_boom)
        # every outstanding result was drained: the next map on the
        # same pool sees only its own results
        assert pool.map(_square, [7]) == [49]


class TestStrayPoolCleanup:
    def test_dropped_pool_stays_in_registry_until_closed(self):
        import gc

        from repro.campaign import pool as pool_mod

        p = WorkerPool(processes=1)
        p.start()
        workers = list(p._workers)
        ref = p
        del p
        gc.collect()
        # strong registry: the stray pool must survive GC so the
        # atexit hook can still join its non-daemon workers (a weak
        # registry would hang the interpreter at exit)
        assert ref in pool_mod._LIVE_POOLS
        pool_mod._close_live_pools()
        assert ref not in pool_mod._LIVE_POOLS
        assert all(not w.is_alive() for w in workers)
