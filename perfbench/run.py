"""Benchmark for wise: full pipeline runs, timed from outside the package.

    python3 perfbench/run.py --workload deep-sense-400 --seed 7 --seconds 45 --trace 0

Run from anywhere inside a checkout; wise is imported from its ``src/``.
A run builds the workload's ``TABLES`` inputs from ``--seed``, then runs
the pipeline on them in turn until ``--seconds`` have passed, checking
every execution's outputs. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced executions and reports the
per-layer metrics as means over the traced ones, so that parts add up to
their wholes (``tracer.LAYER_METRICS`` says which end-to-end metric each
should move, on which workload).

End-to-end times are at the reference host speed (see ``envinfo``): each
execution's time is scaled by the calibration kernel timed around it,
and run_s and cpu_s are the medians over the run's executions, which
cycle through the tables. ari and nmi are means over the tables. The
lines before the last give each metric with its unit, quartiles and
sample count, the raw wall times, the labels digests, failed_frac and
the environment record; the last line is one JSON object. A full record,
with spans, goes to ``.perfbench/`` in the checkout. ``--smoke`` runs
the workload at n=300 with small forests, for the benchmark's own tests
(``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 3

E2E_UNITS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
             "ari": "ratio", "nmi": "ratio"}


def import_wise() -> None:
    """Put the checkout's sources first on the path; refuse any other wise."""
    if not os.path.isfile(os.path.join(SRC, "wise", "__init__.py")):
        raise FileNotFoundError(f"no wise sources at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import wise

    if not os.path.abspath(wise.__file__).startswith(SRC + os.sep):
        raise ImportError(f"imported wise from {wise.__file__}, not from {SRC}")


def summary(values: list[float]) -> dict:
    """Median and quartiles of a sample (a single value is its own quartiles)."""
    if not values:
        return {"median": float("nan"), "q1": float("nan"), "q3": float("nan"), "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def time_setup(workload, seed: int, smoke: bool, workdir: str, reps: int, calibrations: list):
    """(wall, calibration around it) of fresh processes that import wise and
    build the run's inputs; calibration times are appended to ``calibrations``."""
    from envinfo import calibrate

    out = []
    for k in range(reps):
        rep_dir = os.path.join(workdir, f"setup-{k}")
        os.makedirs(rep_dir)
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload",
               workload.name, "--seed", str(seed), "--workdir", rep_dir]
        if smoke:
            cmd.append("--smoke")
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120)
        wall = time.perf_counter() - t0
        calibrations.append(calibrate())
        out.append((wall, (calibrations[-2] + calibrations[-1]) / 2))
        shutil.rmtree(rep_dir)
    return out


def measure(workload, seed: int, seconds: float, trace: bool, smoke: bool = False,
            tamper=None, setup_reps: int = SETUP_REPS) -> dict:
    """One benchmark run; returns the full record.

    ``tamper(index, labels)`` may replace an execution's labels before the
    checks, which is how the tests prove a bad output is counted.
    """
    from envinfo import calibrate, environment, to_reference
    from tracer import Tracer, cpu_now, layer_figures
    from workloads import Instance, labels_digest, table_seeds

    import wise.metrics

    workdir = os.path.join(OUT_DIR, f"{workload.name}-seed{seed}-pid{os.getpid()}")
    try:
        tables = [Instance(workload, s, os.path.join(workdir, f"table-{g}"))
                  for g, s in enumerate(table_seeds(seed))]
        env = environment(ROOT)
        calibrations = [calibrate()]
        tracer = Tracer() if trace else None
        records, digests, scores = [], {}, {}
        start = time.perf_counter()
        index = 0
        while True:
            # traced runs pair each traced execution with an untraced one on its table
            traced = trace and index % 2 == 1
            g = (index // 2 if trace else index) % len(tables)
            inst = tables[g]
            gc.collect()
            record = {"index": index, "table": g, "traced": traced}
            try:
                cpu0 = cpu_now()
                if traced:
                    with tracer.execution(index) as root:
                        handle = inst.execute(index, tracer.span)
                    record["wall_s"] = root.duration
                else:
                    t0 = time.perf_counter()
                    handle = inst.execute(index)
                    record["wall_s"] = time.perf_counter() - t0
                record["cpu_s"] = cpu_now() - cpu0
                calibrations.append(calibrate())
                record["calibration_s"] = (calibrations[-2] + calibrations[-1]) / 2
                labels, deviation, problems = inst.outputs(handle)
                if tamper is not None:
                    labels = tamper(index, labels)
                problems += inst.check(labels, deviation, digests.get(g))
            except Exception as exc:  # noqa: BLE001 - an execution that raises is a failure
                traceback.print_exc(file=sys.stderr)
                problems = [f"raised {type(exc).__name__}: {exc}"]
            record["problems"] = problems
            if not problems:
                record["digest"] = labels_digest(labels)
                if g not in digests:
                    digests[g] = record["digest"]
                    scores[g] = {"ari": wise.metrics.ari(labels, inst.truth),
                                 "nmi": wise.metrics.nmi(labels, inst.truth)}
            records.append(record)
            index += 1
            if time.perf_counter() - start >= seconds and index >= (2 if trace else len(tables)):
                break
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        env["loadavg_after"] = list(os.getloadavg())
        setup = time_setup(workload, seed, smoke, workdir, setup_reps, calibrations)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["calibration_s"] = summary(calibrations)

    failed = sum(1 for r in records if r["problems"])
    timed = [r for r in records if "calibration_s" in r]
    plain = [r for r in timed if not r["traced"]]

    def ref(r, key):
        return to_reference(r[key], r["calibration_s"])

    result = {
        "workload": workload.name, "seed": seed, "tables": table_seeds(seed),
        "seconds": seconds, "trace": trace, "smoke": smoke, "env": env,
        "attempted": len(records), "failed": failed, "failed_frac": failed / len(records),
        "labels_digests": [digests.get(g) for g in range(len(tables))],
        # at the reference host speed; the *_wall_s entries are as measured
        "timings": {
            "run_s": summary([ref(r, "wall_s") for r in plain]),
            "cpu_s": summary([ref(r, "cpu_s") for r in plain]),
            "setup_s": summary([to_reference(w, c) for w, c in setup]),
            "run_wall_s": summary([r["wall_s"] for r in plain]),
            "setup_wall_s": summary([w for w, _ in setup]),
        },
        "calibrations_s": calibrations,
        "peak_rss_mb": (own + kids) / 1024.0,
        "scores": {key: statistics.fmean(s[key] for s in scores.values())
                   for key in ("ari", "nmi")} if scores else None,
        "executions": records,
    }
    if trace:
        traced = [r for r in timed if r["traced"]]
        per_exec = [layer_figures([s for s in tracer.spans if s.execution == r["index"]])
                    for r in traced]
        layers = {key: statistics.fmean(f[key] for f in per_exec) for key in per_exec[0]} \
            if per_exec else {}
        by_index = {r["index"]: r for r in plain}
        pairs = [ref(r, "wall_s") - ref(by_index[r["index"] - 1], "wall_s")
                 for r in traced if r["index"] - 1 in by_index]
        if pairs:
            layers["trace.overhead_s"] = statistics.median(pairs)
        result["layers"] = layers
        result["absent"] = sorted(tracer.absent)
        result["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    return result


def metrics_of(result: dict) -> dict:
    """The metrics of the result line: end-to-end, or per-layer when traced."""
    if result["trace"]:
        from tracer import LAYER_METRICS

        absent = set(result["absent"])
        return {m.name: {"value": result["layers"][m.name], "unit": m.unit}
                for m in LAYER_METRICS
                if m.name in result["layers"] and not absent.intersection(m.needs)}
    values = {"run_s": result["timings"]["run_s"]["median"],
              "cpu_s": result["timings"]["cpu_s"]["median"],
              "peak_rss_mb": result["peak_rss_mb"],
              "setup_s": result["timings"]["setup_s"]["median"]}
    values.update(result["scores"] or {"ari": float("nan"), "nmi": float("nan")})
    return {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}


def report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} (tables {result['tables']}) "
          f"trace {int(result['trace'])}: {result['attempted']} executions, "
          f"failed_frac {result['failed_frac']:.3f} ({result['failed']}/{result['attempted']})")
    for r in result["executions"]:
        for problem in r["problems"]:
            print(f"  execution {r['index']} failed: {problem}")
    for name, t in result["timings"].items():
        print(f"  {name:<12} {t['median']:.4f} s  (q1 {t['q1']:.4f}, q3 {t['q3']:.4f}, n={t['n']})")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    for name, value in (result["scores"] or {}).items():
        print(f"  {name:<12} {value:.6f} ratio")
    for g, digest in enumerate(result["labels_digests"]):
        if digest is not None:
            print(f"  labels digest table {g}: sha256:{digest}")
    if result["trace"]:
        from tracer import LAYER_METRICS

        for m in LAYER_METRICS:
            if m.name in result["layers"]:
                print(f"  {m.name:<32} {result['layers'][m.name]:.6g} {m.unit}")
        if result["absent"]:
            print(f"  absent (wrapped name no longer exists): {', '.join(result['absent'])}")
    print("env " + json.dumps(result["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7, help="data seed (default 7)")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny input, for the tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, setup_only

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    import_wise()
    if args.setup_only:
        setup_only(workload, args.seed, args.workdir)
        return 0
    result = measure(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics_of(result)}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
