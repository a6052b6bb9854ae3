"""The benchmark's workloads: how each builds its inputs and runs wise once.

Inputs come from ``wise.synth``; wise sees only the generated table (or
CSV).  A run uses ``TABLES`` tables drawn from its data seed, because run
time and cluster quality vary from one table to the next about as much as
the host's noise.  An execution is one full pipeline run on one table;
its outputs are checked after the clock stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

# README settings for small tables: the smoke variant of every workload.
SMOKE_N = 300
SMOKE_SETS = {"T": 4, "max_depth": 6, "min_samples_leaf": 5,
              "train_sample_frac": 0.5, "m": 2, "k0": 4}
DEVIATION_TOL = 1e-9   # the explanation-identity tolerance of acceptance gate 7
TABLES = 3


def table_seeds(seed: int) -> list[int]:
    """Synth seeds of a run's tables; distinct runs' seeds give disjoint tables."""
    return [seed * TABLES + g for g in range(TABLES)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    sets: dict = field(default_factory=dict)   # config keys, as `wise run --set`
    cli_workers: int = 0                       # > 0: run through `wise run` with a pool

    def smoke(self) -> "Workload":
        return Workload(self.name, self.why, SMOKE_N, dict(SMOKE_SETS), self.cli_workers)


# Both workloads keep m=1 tree per target (R = d = 8 views, a third of the
# default 24) so that one execution takes seconds and a run holds enough
# executions for a steady median on a shared two-core host.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "planted-2k-cli-w2",
            "wise run on a planted CSV with 2 pool workers: SILK seeding (stage one pooled, "
            "stage two serial) dominates; also CSV load, pools, silhouette, writers",
            n=2000,
            sets={"m": 1},
            cli_workers=2,
        ),
        Workload(
            "deep-sense-400",
            "library run_wise, 1 worker, deep LOFO forests (T=20, leaf 5, half-row "
            "samples): TreeSHAP and forest fitting lead, seeding is the rest",
            n=400,
            sets={"T": 20, "min_samples_leaf": 5, "train_sample_frac": 0.5, "m": 1},
        ),
    ]
}


def labels_digest(labels: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int64).tobytes()).hexdigest()


class Instance:
    """One workload's generated input plus the means to run wise on it."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        from wise.cli import build_config
        from wise.synth import SynthParams, synth_table, write_synth

        self.workload = workload
        self.config = build_config(workload.sets)
        params = SynthParams(n=workload.n, seed=seed)
        self.table, self.truth = synth_table(params)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.csv = os.path.join(workdir, "data.csv")
        self.schema = os.path.join(workdir, "schema.json")
        if workload.cli_workers:
            write_synth(params, self.csv, self.schema)

    def cli_argv(self, out: str) -> list[str]:
        argv = ["run", "--data", self.csv, "--schema", self.schema, "--truth-column", "label",
                "--workers", str(self.workload.cli_workers), "--out", out]
        for key, value in self.workload.sets.items():
            argv += ["--set", f"{key}={value}"]
        return argv

    def execute(self, index: int, span=None):
        """Run wise once.  Returns an opaque handle for ``outputs``.

        ``span(name)`` opens a tracer span around the CLI entry point when
        the execution is traced.
        """
        if not self.workload.cli_workers:
            from wise.pipeline import run_wise

            return run_wise(self.table, self.config, workers=1)
        from wise import cli

        out = os.path.join(self.workdir, f"exec-{index}")
        span = span or contextlib.nullcontext
        with contextlib.redirect_stdout(io.StringIO()), span("cli.main"):
            code = cli.main(self.cli_argv(out))
        return code, out

    def outputs(self, handle) -> tuple[np.ndarray, float, list[str]]:
        """(labels, consistency deviation, problems) of one execution."""
        if not self.workload.cli_workers:
            return handle.labels, handle.explanations.consistency_deviation, []
        from wise.cli import read_labels

        code, out = handle
        problems = [] if code == 0 else [f"wise run exited {code}"]
        try:
            labels = read_labels(os.path.join(out, "labels.csv"))
            with open(os.path.join(out, "explanations.json"), encoding="utf-8") as fh:
                deviation = json.load(fh)["consistency_deviation"]
            with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
                reported_ari = json.load(fh)["ari"]
            for name in ("weights.csv", "result.json"):
                if not os.path.isfile(os.path.join(out, name)):
                    problems.append(f"{name} missing")
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"outputs unreadable: {exc}")
            return np.zeros(0, dtype=np.int64), float("inf"), problems
        finally:
            shutil.rmtree(out, ignore_errors=True)
        from wise.metrics import ari

        if labels.shape == (self.table.n,) and reported_ari != ari(labels, self.truth):
            problems.append("metrics.json ARI differs from wise.metrics.ari on labels.csv")
        return labels, deviation, problems

    def check(self, labels: np.ndarray, deviation: float, digest0: str | None) -> list[str]:
        """Problems with one execution's outputs; empty when all checks pass."""
        K = self.config.K
        problems = []
        if labels.shape != (self.table.n,) or not np.issubdtype(labels.dtype, np.integer):
            problems.append(f"labels have shape {labels.shape} and dtype {labels.dtype}, "
                            f"expected ({self.table.n},) integers")
        elif labels.size and (labels.min() < 0 or labels.max() >= K):
            problems.append(f"labels outside [0, {K})")
        if not deviation <= DEVIATION_TOL:
            problems.append(f"consistency deviation {deviation} above {DEVIATION_TOL}")
        if digest0 is not None and labels_digest(labels) != digest0:
            problems.append("labels differ from the first execution's")
        return problems


def setup_only(workload: Workload, seed: int, workdir: str) -> None:
    """What set-up costs in a fresh process: import wise and make the inputs."""
    from wise.synth import SynthParams, synth_table, write_synth

    for g, table_seed in enumerate(table_seeds(seed)):
        params = SynthParams(n=workload.n, seed=table_seed)
        if workload.cli_workers:
            write_synth(params, os.path.join(workdir, f"data-{g}.csv"),
                        os.path.join(workdir, f"schema-{g}.json"))
        else:
            synth_table(params)
