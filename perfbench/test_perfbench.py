"""
Self-tests of the benchmark: trace completeness, digest agreement between
traced and untraced runs, the recorded reference digests, and the metric
names declared in BENCHMARK.json.

Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bench
import tracing
from workloads import KINDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
SEED = REFERENCE["default_seed"]


def _subset(name: str, workload):
    """A few hundred operations covering every kind of the workload."""
    ops = workload.ops
    if name == "path-explosion":
        return [op for op in ops if op[1][2] <= 1024]
    if name == "cobordism-exhaustive":
        return [op for op in ops if op[0] == "identity-laws"] + ops[:300]
    return ops[:300]


def _traced_runner(name: str):
    tracer = tracing.Tracer()
    lib, workload = bench.set_up(name, SEED, tracer)
    workload = dataclasses.replace(workload, ops=_subset(name, workload))
    return tracer, bench.Runner(lib, workload, tracer)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_call_counts_match_inputs(name):
    tracer, runner = _traced_runner(name)
    tracer.reset()
    predicted: Counter = Counter()
    completed = 0
    for index, (kind, _) in enumerate(runner.workload.ops):
        before = tracer.totals()
        raised = runner.raised
        runner.run_op(index)
        after = tracer.totals()
        assert after[tracing.OP][0] == before.get(tracing.OP, (0, 0.0))[0] + 1
        for function, calls in KINDS[kind].calls.items():
            made = after.get(function, (0, 0.0))[0] - before.get(function, (0, 0.0))[0]
            if runner.raised == raised:
                assert made == calls, (index, kind, function)
            else:
                # an infinite set ends the operation early
                assert made <= calls, (index, kind, function)
        if runner.raised == raised:
            completed += 1
            predicted.update(KINDS[kind].calls)
    assert runner.failed == 0
    assert completed > 0
    if runner.raised == 0:
        totals = tracer.totals()
        for function, calls in predicted.items():
            assert totals[function][0] == calls, function
    tracer.uninstall()


def test_cob0_compose_calls_follow_the_operation_mix():
    tracer, runner = _traced_runner("cobordism-exhaustive")
    tracer.reset()
    bench.timed_pass(runner)
    mix = Counter(kind for kind, _ in runner.workload.ops)
    assert mix["identity-laws"] and mix["gluing-associativity"] and mix["functoriality"]
    expected = 2 * mix["identity-laws"] + 4 * mix["gluing-associativity"] + mix["functoriality"]
    assert tracer.totals()["cob0.cob0_compose"][0] == expected
    tracer.uninstall()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_digests_agree(name):
    tracer, traced = _traced_runner(name)
    bench.timed_pass(traced)
    tracer.uninstall()
    # inputs generated again by the freshly imported library: instances of
    # one import do not compare equal to those of another
    lib, workload = bench.set_up(name, SEED)
    untraced = bench.Runner(lib, dataclasses.replace(workload, ops=_subset(name, workload)))
    bench.timed_pass(untraced)
    assert traced.failed == untraced.failed == 0
    assert traced.digest() == untraced.digest()


@pytest.mark.parametrize("seed", [REFERENCE["default_seed"], REFERENCE["held_out_seed"]])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_digest(name, seed):
    lib, workload = bench.set_up(name, seed)
    runner = bench.Runner(lib, workload)
    bench.timed_pass(runner)
    assert runner.failed == 0
    assert runner.digest() == REFERENCE["digests"][name][str(seed)]
    if not workload.seeded_digest:
        assert len(set(REFERENCE["digests"][name].values())) == 1


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "random-checks",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
