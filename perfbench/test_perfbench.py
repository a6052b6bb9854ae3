"""The benchmark's own tests, on the smoke size (n=300, small forests).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import types

import pytest

import run
from tracer import LAYER_METRICS, Span, Tracer, self_times
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

run.import_wise()


def _result_line(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload, "--smoke",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    line = _result_line(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in line["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.fixture(scope="module")
def tampered():
    """A traced smoke run whose second execution returns a bad label."""
    workload = WORKLOADS["deep-sense-400"].smoke()

    def tamper(index, labels):
        if index == 1:
            labels = labels.copy()
            labels[0] = 99
        return labels

    return run.measure(workload, seed=3, seconds=0, trace=True, smoke=True,
                       tamper=tamper, setup_reps=1)


def test_corrupted_labels_count_as_failed(tampered):
    assert tampered["attempted"] == 2
    assert tampered["failed"] == 1
    assert tampered["failed_frac"] == 0.5
    bad = tampered["executions"][1]["problems"]
    assert any("outside" in p for p in bad) and any("differ" in p for p in bad)


def test_changed_labels_break_the_digest_check():
    workload = WORKLOADS["planted-2k-cli-w2"].smoke()
    result = run.measure(workload, seed=3, seconds=0, trace=True, smoke=True,
                         tamper=lambda i, y: (y + i) % 3, setup_reps=1)
    assert result["failed"] == 1
    assert result["executions"][1]["problems"] == ["labels differ from the first execution's"]


def test_self_times_sum_to_the_parent_span(tampered):
    spans = [Span(**d) for d in tampered["spans"]]
    selfs = self_times(spans)
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    for s in spans:
        covered = sum(c.duration for c in children.get(s.id, []))
        assert selfs[s.id] == pytest.approx(s.duration - covered, abs=1e-9)
        assert selfs[s.id] >= -1e-9
    root = spans[0]
    assert sum(selfs.values()) == pytest.approx(root.duration, rel=1e-9)
    assert tampered["layers"]["trace.coverage"] > 0.95


def test_missing_names_are_absent_and_wrappers_are_restored():
    module = types.ModuleType("perfbench_fake")
    module.work = lambda: time.sleep(0.01)
    sys.modules[module.__name__] = module
    original = module.work
    slow_count = (lambda span, *rest: time.sleep(0.05))
    tracer = Tracer()
    try:
        tracer.install([(module.__name__, "work", "fake.work", None, slow_count),
                        (module.__name__, "gone", "fake.gone", None, None)])
        assert module.work is not original
        with tracer.span("execution") as root:
            module.work()
    finally:
        tracer.restore()
        del sys.modules[module.__name__]
    assert module.work is original
    assert tracer.absent == {"fake.gone"}
    # the 50 ms count hook ran on a paused clock, outside every span
    assert root.duration < 0.04
    assert [s.name for s in tracer.spans] == ["execution", "fake.work"]
