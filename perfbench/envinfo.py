"""Where and on what a run was measured, plus a fixed calibration kernel.

The host is shared and its speed moves by a third within a minute.  A
run times the kernel before and after every execution and set-up; its
times are then scaled by ``REFERENCE_CALIBRATION_S`` over the kernel's
median time in the run, which cancels the host's drift between runs.
"""

from __future__ import annotations

import os
import platform
import time

# The kernel's median time on the reference host: a 2-core Intel Xeon VM
# (Python 3.11, numpy 2.4, scipy 1.17) in a typical period.
REFERENCE_CALIBRATION_S = 0.027


def calibrate(reps: int = 5) -> float:
    """Median seconds of a fixed kernel made of the pipeline's kinds of work.

    Dict updates in the interpreter, CSR row-subset column sums (seeding),
    broadcast boolean algebra over (8, 256, 64) cubes (TreeSHAP) and
    ``np.unique`` with inverse and counts (banding).  It tracks the host's
    slow periods better than pure arithmetic does.
    """
    import numpy as np
    from scipy import sparse

    rng = np.random.default_rng(0)
    X = sparse.random(2000, 120, density=0.1, format="csr", random_state=1)
    row_sets = [np.sort(rng.choice(2000, size=40, replace=False)) for _ in range(60)]
    fx = rng.random((8, 256, 1)) < 0.5
    fz = rng.random((8, 1, 64)) < 0.5
    codes = rng.integers(0, 500, 2000)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(30_000):
            counts[i % 997] = counts.get(i % 997, 0) + i
        for rows in row_sets:
            X[rows].sum(axis=0)
        for _ in range(20):
            a, b = fx & ~fz, ~fx & fz
            a.sum(axis=0), b.sum(axis=0), (~fx & ~fz).any(axis=0)
            np.unique(codes, return_inverse=True, return_counts=True)
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def to_reference(seconds: float, calibration_s: float) -> float:
    """A time measured while the kernel took ``calibration_s``, at reference speed."""
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "loadavg_before": list(os.getloadavg()),
    }
