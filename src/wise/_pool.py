"""One worker pool per run, forked once.

A run maps independent tasks over worker processes in two stages: the
LOFO targets of sensing and the rounds of stage one.  Both map over one
``Pool``, which forks at its first map of more than one task.  The large
inputs shared with it by then (the design matrix, the group codes) reach
each worker through the fork, never pickled; a task carries only its
index and small values of its own.  A stage called without a pool opens
one of the same kind for that call alone.
"""

from __future__ import annotations

import contextlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from functools import partial

# the inputs shared with the pool a worker process serves, by name; set
# only inside pool workers, by the initializer
_shared = None


def _install(shared: dict) -> None:
    global _shared
    _shared = shared


def _run(func, task):
    return func(_shared, task)


class Pool:
    """``workers`` processes that every map of a run shares, forked at its
    first map of more than one task."""

    def __init__(self, workers: int, shared: dict):
        self.workers = workers
        self._shared = dict(shared)
        self._executor = None

    def map(self, func, shared: dict, tasks: list) -> list:
        """``[func(inputs, task) for task in tasks]``, in task order, where
        ``inputs`` holds ``shared`` and whatever else the pool shares.

        After the fork every input must already be shared, as the very same
        object: the workers hold what they forked with.  A map of one task
        runs in this process.
        """
        for name, value in shared.items():
            if self._executor is None:
                self._shared[name] = value
            elif name not in self._shared or self._shared[name] is not value:
                raise RuntimeError(f"input {name!r} shared after the pool forked")
        if len(tasks) <= 1:
            return [func(self._shared, task) for task in tasks]
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_install, initargs=(self._shared,))
        return list(self._executor.map(partial(_run, func), tasks))

    def close(self) -> None:
        """Cancel the tasks not yet started and reap every worker."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


@contextlib.contextmanager
def open_pool(workers: int, **shared):
    """A ``Pool`` of ``workers`` processes sharing ``shared``, closed on
    exit; ``None`` for a single worker, which makes no pool."""
    if workers <= 1:
        yield None
        return
    pool = Pool(workers, shared)
    try:
        yield pool
    finally:
        pool.close()


def map_tasks(func, shared: dict, tasks: list, workers: int, pool: Pool | None = None) -> list:
    """``[func(shared, task) for task in tasks]`` over ``pool``, or over a
    pool of at most ``min(workers, len(tasks))`` processes opened for this
    call."""
    if pool is not None:
        return pool.map(func, shared, tasks)
    with open_pool(min(workers, len(tasks))) as own:
        if own is None:
            return [func(shared, task) for task in tasks]
        return own.map(func, shared, tasks)
