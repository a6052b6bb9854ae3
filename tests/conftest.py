"""Fixtures shared by the test modules.

Every test must reap the worker processes it starts: a test that leaves
a ``multiprocessing`` child alive fails, and the child is terminated so
that the tests after it start clean.
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from wise import _pool


@pytest.fixture(autouse=True)
def no_child_process_left():
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail(f"the test left {len(left)} child process(es) running: {left}")


@pytest.fixture
def pools_made(monkeypatch):
    """The sizes of the worker pools made during the test, in order.

    The pools are real ones and fork as usual; only their construction is
    recorded.
    """
    made = []

    class Counted(ProcessPoolExecutor):
        def __init__(self, **kwargs):
            made.append(kwargs["max_workers"])
            super().__init__(**kwargs)

    monkeypatch.setattr(_pool, "ProcessPoolExecutor", Counted)
    return made
