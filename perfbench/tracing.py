"""Span tracer for the traced benchmark run.

The tracer wraps dtcnet's public functions from outside, at every
module attribute that holds them: the defining module (so calls inside
that module are seen), each module that imported the name, and the
package namespace the benchmark calls through. A call that resolves the
name through any of these globals therefore opens a span whose parent
is the span open around it, e.g. drive_unitary -> build_drive.

Self time is a span's duration minus the time its child spans cover.
Realizations run serially (DTCNET_THREADS is unset), so children never
overlap and that cover is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# Layers are dtcnet's package modules; each lists the public functions
# that are called across a module boundary somewhere in the workloads.
LAYERS = {
    "spin_hilbert": ("sample_disorder", "build_drive"),
    "floquet_core": (
        "drive_unitary",
        "floquet_operator",
        "squared_floquet",
        "floquet_spectrum",
        "effective_hamiltonian",
        "bch_effective_2T",
        "stroboscopic_evolve",
    ),
    "percolation_graph": ("percolation_graph", "clusters"),
    "diagnostics": ("gap_ratios", "pr_distribution", "walk_populations"),
    "netfit": ("kmin_scan", "lognormal_lr_test", "log_binned_histogram", "avg_degree_by_domain_walls"),
    "semiclassical": ("jacobian", "classify_fixed_point", "classical_energy"),
    "ensemble": ("run_ensemble",),
    "cli": ("main",),
}
TRACED = tuple(f"{module}.{func}" for module, funcs in LAYERS.items() for func in funcs)

# An edge whose margin |K| - |dE| is below this is near the percolation
# threshold, where roundoff can flip it.
NEAR_THRESHOLD_MARGIN = 1e-10


class Tracer:
    """Installs timing wrappers, records spans and per-function totals.

    `spans` holds (name, start, end, parent) tuples in call order, with
    parent the index of the enclosing span or -1. Counters read from
    public arguments and return values accumulate in `counters`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_drives: set = set()

    def install(self) -> None:
        package = importlib.import_module("dtcnet")
        modules = [package] + [importlib.import_module(f"dtcnet.{m}") for m in LAYERS]
        for name in TRACED:
            module, func = name.rsplit(".", 1)
            original = getattr(importlib.import_module(f"dtcnet.{module}"), func)
            wrapper = self._wrap(name, original)
            for holder in modules:
                if getattr(holder, func, None) is original:
                    setattr(holder, func, wrapper)
                    self._patched.append((holder, func, original))

    def uninstall(self) -> None:
        for holder, func, original in reversed(self._patched):
            setattr(holder, func, original)
        self._patched.clear()

    def start_pass(self) -> None:
        """Repeats of drive_unitary are counted within one workload pass."""
        self._seen_drives.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        calls, self_s = self.calls, self.self_s
        observe = getattr(self, "_observe_" + name.rsplit(".", 1)[1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a frame is [span index, seconds covered by child spans]
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, start, end, stack[-1][0] if stack else -1)
                calls[name] += 1
                self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observe_drive_unitary(self, args, kwargs, result) -> None:
        params = args[0] if args else kwargs["params"]
        disorder = args[1] if len(args) > 1 else kwargs["disorder"]
        key = (params, disorder.seed, disorder.realization_index)
        self.counters["floquet_core.drive_unitary.repeats"] += key in self._seen_drives
        self._seen_drives.add(key)

    def _observe_floquet_spectrum(self, args, kwargs, result) -> None:
        self.counters["floquet_core.floquet_spectrum.branch_warnings"] += len(result.branch_warnings)

    def _observe_percolation_graph(self, args, kwargs, result) -> None:
        self.counters["percolation_graph.edges"] += len(result.edges)
        self.counters["percolation_graph.near_threshold_edges"] += sum(
            1 for m in result.margins.values() if m < NEAR_THRESHOLD_MARGIN
        )

    def _observe_gap_ratios(self, args, kwargs, result) -> None:
        self.counters["diagnostics.gap_ratios.excluded_degenerate"] += result.excluded_degenerate

    def module_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            totals[name.split(".", 1)[0]] += seconds
        return totals
