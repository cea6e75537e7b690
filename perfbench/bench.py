"""
The intgraphs benchmark: one command, three workloads.

Run from the root of a checkout:

    python3 perfbench/bench.py --workload random-checks --seed 42 --seconds 25 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it wraps the library's public functions and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.

Everything runs in this one process on one thread.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import tracing
from workloads import KINDS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PACKAGE = "intgraphs"
REFERENCE = HERE / "reference.json"

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Duration of speed_probe() on the reference machine; times are reported
# as they would read there.
REFERENCE_PROBE_S = 0.002
PROBE_EVERY_NS = 25_000_000
PROBE_WINDOW = 5
DIGEST_MODULUS = 2 ** 256
# Set-ups per untraced run; setup_s is their median.
SETUPS = 3
# At least ten latency samples must lie beyond the 90th percentile.
MIN_SAMPLES = 100


class MissingLibrary(RuntimeError):
    pass


def import_library() -> SimpleNamespace:
    """Import the library afresh from this checkout's ``src``, CLI included,
    so every set-up pays the import cost."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise MissingLibrary(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(f"{PACKAGE}.cli")
    lib = SimpleNamespace(**{layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in tracing.LAYERS})
    if Path(lib.graph.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise MissingLibrary(f"{PACKAGE} was imported from {lib.graph.__file__}, not {SRC}")
    return lib


def set_up(name: str, seed: int, tracer: tracing.Tracer | None = None) -> tuple[SimpleNamespace, Workload]:
    """Import, generate the workload's inputs and warm up."""
    lib = import_library()
    if tracer is not None:
        tracer.install(PACKAGE)
    workload = WORKLOADS[name](lib, seed)
    for kind, args in workload.warmup:
        try:
            KINDS[kind].call(lib, *args)
        except Exception:
            pass  # the same operation runs, and is counted, in the measured phase
    return lib, workload


class Runner:
    """Runs operations of one workload, checks each output and adds the
    fingerprint of each operation's first run to the digest.

    The digest is the sum of the fingerprints' SHA-256 values modulo 2**256,
    a hash of their multiset.  Nothing per operation is kept alive, so
    long-lived small objects do not pin the allocator's arenas between
    operations, which would make peak memory depend on operation order.
    """

    def __init__(self, lib: SimpleNamespace, workload: Workload, tracer: tracing.Tracer | None = None):
        self.lib = lib
        self.workload = workload
        self.seen = bytearray(len(workload.ops))
        self._digest = 0
        self.attempted = 0
        self.failed = 0
        self.raised = 0  # tolerated outcomes: infinite path or cycle sets
        self.first_failure: str | None = None
        self.dispatch = self._dispatch if tracer is None else tracer.wrap(tracing.OP, self._dispatch)

    def _dispatch(self, kind: str, args: tuple):
        return KINDS[kind].call(self.lib, *args)

    def run_op(self, index: int) -> int:
        """Run operation ``index``; return its latency in nanoseconds."""
        kind, args = self.workload.ops[index]
        start = time.perf_counter_ns()
        try:
            out = self.dispatch(kind, args)
        except self.workload.tolerated as exc:
            elapsed = time.perf_counter_ns() - start
            ok, fingerprint = True, f"{kind} raised {type(exc).__name__}"
            self.raised += 1
        except Exception as exc:
            elapsed = time.perf_counter_ns() - start
            ok, fingerprint = False, f"{kind} error {type(exc).__name__}"
            if self.first_failure is None:
                self.first_failure = f"operation {index} ({kind}):\n{traceback.format_exc()}"
        else:
            elapsed = time.perf_counter_ns() - start
            ok = KINDS[kind].check(out)
            fingerprint = None if self.seen[index] else KINDS[kind].fingerprint(out)
            if not ok and self.first_failure is None:
                self.first_failure = f"operation {index} ({kind}): output check failed"
        self.attempted += 1
        if not ok:
            self.failed += 1
        if not self.seen[index]:
            self.seen[index] = 1
            value = int.from_bytes(hashlib.sha256(fingerprint.encode()).digest(), "big")
            self._digest = (self._digest + value) % DIGEST_MODULUS
        return elapsed

    def complete(self) -> None:
        """Run, untimed, each operation the measured phase did not reach, so
        the digest always covers the whole workload."""
        for i, seen in enumerate(self.seen):
            if not seen:
                self.run_op(i)

    def digest(self) -> str:
        return f"{self._digest:064x}"


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work: tuple keys, dict
    updates and a keyed sort, the operations the library spends its time
    on, but none of its code."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        key = (i % 97, str(i % 13))
        table[key] = table.get(key, 0) + 1
    sorted(table.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return time.perf_counter() - start


class Timer:
    """Operation latencies, scaled to the reference machine speed.

    The speed of a shared machine drifts by up to 2x over tens of seconds.
    A speed probe runs after every PROBE_EVERY_NS of operation time, and
    each operation's latency is multiplied by REFERENCE_PROBE_S over the
    median of the PROBE_WINDOW probes on each side of it; one probe alone
    reads up to 50% off.
    """

    def __init__(self) -> None:
        # typed arrays, which hold no per-element objects (see Runner)
        self.raw = array("q")
        self.segment = array("q")
        self.probes = array("d", [speed_probe()])
        self._since = 0

    def record(self, ns: int) -> None:
        self.raw.append(ns)
        self.segment.append(len(self.probes) - 1)
        self._since += ns
        if self._since >= PROBE_EVERY_NS:
            self.close_segment()

    def close_segment(self) -> None:
        if self._since:
            self.probes.append(speed_probe())
            self._since = 0

    def scaled(self) -> list[float]:
        self.close_segment()
        p, w = self.probes, PROBE_WINDOW
        factors = [
            REFERENCE_PROBE_S / statistics.median(p[max(0, s - w + 1):s + w + 1])
            for s in range(len(p) - 1)
        ]
        return [ns * factors[s] for ns, s in zip(self.raw, self.segment)]


def speed_factor() -> float:
    """REFERENCE_PROBE_S over the median of several probes taken now."""
    return REFERENCE_PROBE_S / statistics.median(speed_probe() for _ in range(2 * PROBE_WINDOW))


def measure(runner: Runner, seconds: float) -> Timer:
    """The untraced measured phase: a closed loop of one operation at a time
    over the workload's operations, cycling, until ``seconds`` have passed
    and at least MIN_SAMPLES operations ran, stopping at a block boundary."""
    workload = runner.workload
    n = len(workload.ops)
    timer = Timer()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        timer.record(runner.run_op(i % n))
        i += 1
        if i % workload.block == 0 and i >= MIN_SAMPLES and time.perf_counter() >= deadline:
            return timer


def timed_pass(runner: Runner) -> Timer:
    """Run every operation once, in order."""
    timer = Timer()
    for i in range(len(runner.workload.ops)):
        timer.record(runner.run_op(i))
    return timer


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "processes": 1,
        "threads": threading.active_count(),
    }


def reference_digest(name: str, seed: int, workload: Workload) -> str | None:
    """The recorded digest for this workload and seed, if any.  A workload
    whose seed only permutes its operations has one digest for every seed."""
    recorded = json.loads(REFERENCE.read_text())["digests"].get(name, {})
    if str(seed) in recorded:
        return recorded[str(seed)]
    if recorded and not workload.seeded_digest:
        return next(iter(recorded.values()))
    return None


def run_untraced(name: str, seed: int, seconds: float) -> tuple[Runner, dict, list[str]]:
    setup_times = []
    for _ in range(SETUPS):
        lib = workload = None
        gc.collect()
        before = speed_factor()
        start = time.perf_counter()
        lib, workload = set_up(name, seed)
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * (before + speed_factor()) / 2)
    runner = Runner(lib, workload)
    gc.collect()
    gc.freeze()  # keep the generated inputs out of the collector's scans
    timer = measure(runner, seconds)
    rss = peak_rss_mib()
    runner.complete()
    latencies = timer.scaled()
    block = workload.block
    blocks = [block / (sum(latencies[j:j + block]) / 1e9) for j in range(0, len(latencies), block)]
    p90 = statistics.quantiles(latencies, n=10)[8]
    values = {
        "throughput_ops_s": statistics.median(blocks),
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "latency_p90_ms": p90 / 1e6,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": rss,
    }
    samples = {
        "throughput_ops_s": f"{len(blocks)} blocks",
        "latency_p50_ms": f"{len(latencies)} ops",
        "latency_p90_ms": f"{len(latencies)} ops, {sum(x > p90 for x in latencies)} beyond",
        "setup_s": f"{SETUPS} set-ups",
        "peak_rss_mib": "1 run",
    }
    lines = [
        f"{key:<18} {values[key]:>14.6f} {unit:<5} n={samples[key]}"
        for key, unit in END_TO_END.items()
    ]
    lines.append(f"{'error_ratio':<18} {runner.failed / runner.attempted:>14.6f} {'ratio':<5} "
                 f"n={runner.attempted} ops ({runner.failed} failed, {len(latencies)} measured)")
    raw = timer.raw
    lines.append(
        f"unscaled: {len(raw) / (sum(raw) / 1e9):.3f} ops/s over the phase, "
        f"p50 {statistics.median(raw) / 1e6:.6f} ms, p90 {statistics.quantiles(raw, n=10)[8] / 1e6:.6f} ms; "
        f"speed probe median {statistics.median(timer.probes) * 1e3:.3f} ms "
        f"against {REFERENCE_PROBE_S * 1e3:g} ms on the reference machine ({len(timer.probes)} probes)")
    return runner, {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}, lines


def run_traced(name: str, seed: int, seconds: float) -> tuple[Runner, dict, list[str]]:
    tracer = tracing.Tracer()
    before = speed_factor()
    lib, workload = set_up(name, seed, tracer)
    setup_scale = (before + speed_factor()) / 2
    setup_totals, setup_edges = tracer.totals(), dict(tracer.edges)
    tracer.reset()
    runner = Runner(lib, workload, tracer)
    gc.collect()
    gc.freeze()
    # Whole passes, so that counts are exact multiples of one pass.
    traced_raw = traced_scaled = 0.0
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        timer = timed_pass(runner)
        traced_raw += sum(timer.raw)
        traced_scaled += sum(timer.scaled())
        passes += 1
    raised_per_pass = runner.raised / passes
    timed_totals, counts, edges = tracer.totals(), Counter(tracer.counts), dict(tracer.edges)
    tracer.uninstall()
    runner.dispatch = runner._dispatch
    untraced_scaled = sum(timed_pass(runner).scaled())
    scale = traced_scaled / traced_raw
    values = tracing.per_layer_values(
        timed_totals, counts, setup_totals, setup_edges, passes,
        scale=scale,
        setup_scale=setup_scale,
        checked_ratio=1 - raised_per_pass / len(workload.ops),
        overhead_ratio=(traced_scaled / passes) / untraced_scaled,
    )
    units = tracing.per_layer_units()
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    lines = [f"traced passes {passes} over {len(workload.ops)} operations; per-layer figures are "
             f"per pass, times scaled by {scale:.4f} to the reference machine speed"]
    lines += [f"{key:<46} {values[key]:>16.6f} {units[key]}" for key in units]
    lines.append("spans (parent -> span: calls, self s per pass, scaled):")
    for (parent, span), (calls, _, self_s) in sorted(edges.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {parent} -> {span}: {calls / passes:g}, {self_s * scale / passes:.6f}")
    return runner, metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the intgraphs library.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = run_traced if args.trace else run_untraced
    try:
        runner, metrics, lines = run(args.workload, args.seed, args.seconds)
    except MissingLibrary as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    digest = runner.digest()
    expected = reference_digest(args.workload, args.seed, runner.workload)
    digest_ok = expected is None or digest == expected
    env = environment()
    single = env["threads"] == 1
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    print(f"infinite-set outcomes {runner.raised} of {runner.attempted} operations")
    status = "no reference for this seed" if expected is None else (
        "matches reference" if digest_ok else f"DIFFERS from reference {expected}")
    print(f"digest {digest} {status}")
    if runner.first_failure:
        print(f"first failure: {runner.first_failure}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and digest_ok and single,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
