"""Worker pools whose shared inputs reach each worker once.

A stage that maps one function over many indices (LOFO targets, stage-one
rounds) hands its large inputs, such as the table or the bit matrix, to
the pool initializer; every task then carries only its index.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

# (function, shared inputs) of the pool a worker process serves; set only
# inside pool workers, by the initializer
_job = None


def _install(func, shared) -> None:
    global _job
    _job = (func, shared)


def _run(index: int):
    func, shared = _job
    return func(shared, index)


def map_indices(func, shared, count: int, workers: int) -> list:
    """``[func(shared, i) for i in range(count)]``, on up to ``workers`` processes.

    One pool of at most ``count`` processes serves the whole call and is
    shut down before it returns, so its workers are reaped.  Results come
    back in index order.
    """
    workers = min(workers, count)
    if workers <= 1:
        return [func(shared, i) for i in range(count)]
    with ProcessPoolExecutor(max_workers=workers, initializer=_install,
                             initargs=(func, shared)) as pool:
        return list(pool.map(_run, range(count)))
