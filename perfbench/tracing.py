"""
Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps the public functions of the library's layer modules from
the benchmark's side: no library file changes.  A wrapper is patched into
every module namespace that bound the original function, so a call through
``execution.alternating_paths`` or ``bimodular.alternating_paths`` is traced
the same as one through ``graph.alternating_paths``.

Each call is a span.  Spans are kept aggregated by (parent span, span), with
calls, total time and self time, where self time is the span's duration
minus the time of its child spans.  Probes count work at the same
boundaries: derived-graph nodes, paths, cycle classes, rendered bytes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Any, Callable

LAYERS = ("graph", "execution", "interaction", "cob0", "functor", "bimodular", "formats", "campaigns")

# Leaf helpers called once per id, point or vertex.  A span around each would
# cost more than the body it times, so they stay unwrapped and their time
# counts as their caller's self time.
UNWRAPPED = frozenset({
    "graph.flatten",
    "interaction.dom_vertex",
    "interaction.cod_vertex",
    "cob0.source_point",
    "cob0.target_point",
    "formats.vertex_token",
    "formats.id_token",
})

ROOT = "-"
OP = "bench.op"


def _add(counts: Counter, key: str, amount: int) -> None:
    counts[key] += amount


def _on_raise(error_name: str, key: str) -> Callable[[BaseException, Counter], None]:
    # Matched by name: the library is re-imported for every set-up, so the
    # class object differs between set-ups.
    def probe(exc: BaseException, counts: Counter) -> None:
        if type(exc).__name__ == error_name:
            counts[key] += 1
    return probe


# span name -> (probe on result, probe on exception)
PROBES: dict[str, tuple[Callable | None, Callable | None]] = {
    "graph.derived_graph": (
        lambda r, c: _add(c, "graph.derived_graph.nodes", len(r.nodes)), None),
    "graph.prime_cycles": (
        lambda r, c: _add(c, "graph.prime_cycles.classes", len(r)),
        _on_raise("InfiniteCycleSetError", "graph.prime_cycles.infinite")),
    "graph.alternating_paths": (
        lambda r, c: _add(c, "graph.alternating_paths.paths", len(r)),
        _on_raise("InfinitePathSetError", "graph.alternating_paths.infinite")),
    "formats.render_graph": (
        lambda r, c: _add(c, "formats.render_graph.bytes", len(r.encode())), None),
    "bimodular.check_well_defined": (
        lambda r, c: _add(c, "bimodular.check_well_defined.applications",
                          r.details["applications"]), None),
}


class Tracer:
    """Aggregated spans plus work counters, and the patches that feed them."""

    def __init__(self) -> None:
        # (parent span name, span name) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        on_result, on_error = PROBES.get(name, (None, None))
        stack, edges, counts, clock = self._stack, self.edges, self.counts, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else ROOT
            frame = [name, 0.0]  # name, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc, counts)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = edges.get((parent, name))
                if record is None:
                    record = edges[(parent, name)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if on_result is not None:
                on_result(result, counts)
            return result

        return span

    def install(self, package: str = "intgraphs") -> None:
        """Wrap the public functions of every layer module and patch each
        module of ``package`` that binds one of them."""
        wrappers: dict[Callable, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[value] = self.wrap(name, value)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == package or n.startswith(package + ".")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        self.edges.clear()
        self.counts.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), summed over parents."""
        out: dict[str, tuple[int, float]] = {}
        for (_, name), (calls, _, self_s) in self.edges.items():
            prev_calls, prev_self = out.get(name, (0, 0.0))
            out[name] = (prev_calls + calls, prev_self + self_s)
        return out


# Spans reported with calls and self time, and with self time only.
CALLS_AND_SELF = (
    "graph.derived_graph", "graph.prime_cycles", "graph.alternating_paths",
    "execution.execute", "execution.normal_form", "execution.measure",
    "formats.parse_graph", "formats.render_graph",
    "cob0.cob0_compose",
    "functor.fundamental_graph", "functor.check_functoriality",
    "interaction.int_compose", "interaction.interface_measure",
    "bimodular.check_well_defined", "bimodular.bimod_execute",
)
SELF_ONLY = ("execution.check_associativity", "execution.check_trefoil", OP)
COUNTS = (
    "graph.derived_graph.nodes", "graph.prime_cycles.classes",
    "graph.prime_cycles.infinite", "graph.alternating_paths.infinite",
    "graph.alternating_paths.paths", "formats.render_graph.bytes",
    "bimodular.check_well_defined.applications",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "B" if name.endswith(".bytes") else "count"
    units["graph.alternating_paths.us_per_path"] = "us"
    units["cob0.cob0_compose.us_per_call"] = "us"
    units["cob0.cob0_enumerate.self_s"] = "s"
    units["campaigns.generate_s"] = "s"
    units["campaigns.checked_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def per_layer_values(
    timed: dict[str, tuple[int, float]],
    counts: Counter,
    setup: dict[str, tuple[int, float]],
    setup_edges: dict[tuple[str, str], list],
    passes: int,
    scale: float,
    setup_scale: float,
    checked_ratio: float,
    overhead_ratio: float,
) -> dict[str, float]:
    """Per-layer metrics of one pass over the workload's operations.

    ``timed`` and ``counts`` cover ``passes`` traced passes and are divided
    by it; ``setup`` and ``setup_edges`` cover one traced set-up.  Times are
    multiplied by ``scale`` (``setup_scale`` for set-up), which converts
    them to the reference machine speed.
    """
    def row(table: dict[str, tuple[int, float]], name: str) -> tuple[int, float]:
        return table.get(name, (0, 0.0))

    values: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        calls, self_s = row(timed, name)
        values[f"{name}.calls"] = calls / passes
        values[f"{name}.self_s"] = self_s * scale / passes
    for name in SELF_ONLY:
        values[f"{name}.self_s"] = row(timed, name)[1] * scale / passes
    for name in COUNTS:
        values[name] = counts[name] / passes
    paths = counts["graph.alternating_paths.paths"]
    _, enum_self = row(timed, "graph.alternating_paths")
    values["graph.alternating_paths.us_per_path"] = enum_self * scale / paths * 1e6 if paths else 0.0
    calls, compose_self = row(timed, "cob0.cob0_compose")
    values["cob0.cob0_compose.us_per_call"] = compose_self * scale / calls * 1e6 if calls else 0.0
    values["cob0.cob0_enumerate.self_s"] = row(setup, "cob0.cob0_enumerate")[1] * setup_scale
    # generation time: campaign spans entered from outside the campaigns layer
    values["campaigns.generate_s"] = setup_scale * sum(
        total for (parent, name), (_, total, _) in setup_edges.items()
        if name.startswith("campaigns.") and not parent.startswith("campaigns.")
    )
    values["campaigns.checked_ratio"] = checked_ratio
    values["trace.overhead_ratio"] = overhead_ratio
    return values
