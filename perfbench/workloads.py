"""The three benchmark workloads: inputs, one timed pass, output checks.

Every call into dtcnet goes through an attribute of the package (or of
dtcnet.cli) looked up at call time, so the traced run's wrappers see it.
A pass always repeats the same inputs; its items are timed one by one
and checked between items, outside the timer.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import dtcnet
import dtcnet.cli

DEFAULT_SEED = 0

# Output checks. Float outputs match the stored reference when
# |x - ref| <= FLOAT_ATOL + FLOAT_RTOL * |ref|; integers, strings, edge
# sets, degrees and cluster sizes must match exactly.
FLOAT_RTOL = 1e-8
FLOAT_ATOL = 1e-9
HERMITICITY_TOL = 1e-10
# max |exp(-i H T) - U|, the effective-Hamiltonian reconstruction bound
RECONSTRUCTION_TOL = 1e-8
# An edge that flips against the reference passes only when its
# reference |margin| = ||K| - |dE|| is below this (the edge-set gate).
FLIP_MARGIN = 1e-11
WALK_SUM_TOL = 1e-9


@dataclass
class Item:
    """One timed pipeline and what checking its outputs found."""

    key: str
    seconds: float
    problems: list[str] = field(default_factory=list)
    flips: list[str] = field(default_factory=list)
    runtime_warnings: int = 0
    files_written: int = 0
    bytes_written: int = 0
    summary: dict | None = None


def _run_item(key: str, call) -> tuple[Item, object]:
    """Time call(), recording its warnings; (item, result or None if it raised).

    Warnings are counted, then shown on stderr as they would have been.
    """
    item, result = Item(key, 0.0), None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failing item is counted, the run goes on
            item.problems.append(f"{key}: raised {exc!r}")
        item.seconds = time.perf_counter() - start
    for w in caught:
        item.runtime_warnings += issubclass(w.category, RuntimeWarning)
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return item, result


# --- checks shared by the workloads -------------------------------------


def hermiticity_problems(key: str, H) -> list[str]:
    defect = float(np.abs(H.matrix - H.matrix.conj().T).max())
    if defect > HERMITICITY_TOL:
        return [f"{key}: effective Hamiltonian hermiticity defect {defect:.3e}"]
    return []


def reconstruction_problems(key: str, H, U) -> list[str]:
    residual = float(np.abs(scipy.linalg.expm(-1j * H.period * H.matrix) - U.matrix).max())
    if residual >= RECONSTRUCTION_TOL:
        return [f"{key}: max |exp(-iHT) - U| = {residual:.3e}"]
    return []


def edge_array(graph) -> np.ndarray:
    return np.array(sorted(graph.edges), dtype=np.int64).reshape(-1, 2)


def graph_summary(key: str, graph, decomposition) -> tuple[dict, list[str]]:
    """Edges, degrees and cluster sizes, cross-checked against each other."""
    edges = edge_array(graph)
    problems = []
    degrees = np.bincount(edges.ravel(), minlength=graph.num_nodes)
    if not np.array_equal(degrees, graph.degrees):
        problems.append(f"{key}: degrees disagree with the edge set")
    adjacency = coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(graph.num_nodes,) * 2
    )
    _, labels = connected_components(adjacency, directed=False)
    sizes = np.sort(np.bincount(labels))[::-1]
    if not np.array_equal(sizes, np.array(decomposition.sizes)):
        problems.append(f"{key}: cluster sizes disagree with the edge set")
    summary = {"edges": edges, "degrees": np.asarray(graph.degrees), "cluster_sizes": sizes}
    return summary, problems


def near_threshold_pairs(H) -> dict:
    """Reference-only: every pair i < j with ||K_ij| - |E_i - E_j|| < FLIP_MARGIN."""
    matrix = H.matrix
    energies = np.real(np.diag(matrix))
    margin = np.abs(matrix) - np.abs(energies[:, None] - energies[None, :])
    i, j = np.nonzero(np.triu(np.abs(margin) < FLIP_MARGIN, k=1))
    return {"near_pairs": np.stack([i, j], axis=1), "near_margins": margin[i, j]}


def compare(prefix: str, summary: dict, reference) -> tuple[list[str], list[str]]:
    """Compare an item's summary with the stored reference; (problems, flips).

    Degrees and cluster sizes follow from the edge set: when an edge
    flipped within FLIP_MARGIN they are checked only against that set.
    """
    if reference is None:
        return [], []
    problems, flips, flipped = [], [], set()
    for name, value in summary.items():
        ref_key = f"{prefix}/{name}"
        if ref_key not in reference:
            problems.append(f"{ref_key}: missing from the reference")
        elif name.endswith("edges"):
            edge_problems, edge_flips = _edge_problems(ref_key, value, reference)
            problems += edge_problems
            flips += edge_flips
            if edge_flips:
                flipped.add(_graph_prefix(name))
    for name, value in summary.items():
        ref_key = f"{prefix}/{name}"
        if ref_key not in reference or name.endswith("edges"):
            continue
        if name.endswith(("degrees", "cluster_sizes")) and _graph_prefix(name) in flipped:
            continue
        problems += _value_problems(ref_key, np.asarray(value), reference[ref_key])
    return problems, flips


def _graph_prefix(name: str) -> str:
    return name[: name.rfind("/") + 1]


def _edge_problems(ref_key: str, edges: np.ndarray, reference) -> tuple[list[str], list[str]]:
    def codes(pairs):
        return np.asarray(pairs, dtype=np.int64).reshape(-1, 2) @ np.array([1 << 32, 1])

    ref_codes = codes(reference[ref_key])
    graph = ref_key[: -len("edges")]
    near = dict(zip(codes(reference[graph + "near_pairs"]).tolist(), reference[graph + "near_margins"]))
    removed = set(np.setdiff1d(ref_codes, codes(edges)).tolist())
    problems, flips = [], []
    for code in np.setxor1d(codes(edges), ref_codes).tolist():
        i, j = divmod(code, 1 << 32)
        change = "removed" if code in removed else "added"
        if code in near:
            flips.append(f"{ref_key}: edge ({i},{j}) {change}, reference margin {near[code]:+.3e}")
        else:
            problems.append(f"{ref_key}: edge ({i},{j}) {change}, reference |margin| >= {FLIP_MARGIN:g}")
    return problems, flips


def _value_problems(ref_key: str, value: np.ndarray, ref: np.ndarray) -> list[str]:
    if value.shape != ref.shape:
        return [f"{ref_key}: shape {value.shape} differs from reference {ref.shape}"]
    if ref.dtype.kind == "f" and value.dtype.kind in "fiu":
        bad = ~np.isclose(value, ref, rtol=FLOAT_RTOL, atol=FLOAT_ATOL, equal_nan=True)
        if bad.any():
            worst = np.max(np.abs(value[bad] - ref[bad]))
            return [f"{ref_key}: {int(bad.sum())} values off the reference, worst by {worst:.3e}"]
        return []
    if not np.array_equal(value, ref):
        return [f"{ref_key}: differs from the reference"]
    return []


def _read_csv(path: Path) -> tuple[list[str], list[np.ndarray]]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    columns = []
    for cells in zip(*rows) if rows else [() for _ in header]:
        try:
            columns.append(np.array(cells, dtype=float))
        except ValueError:
            columns.append(np.array(cells, dtype=str))
    return header, columns


def read_run_dir(run_dir: Path, n: int) -> tuple[dict, list[str]]:
    """Summary of an ensemble run directory, plus what is wrong with it.

    Walk files are reduced to per-period moments of the populations;
    every other CSV column is kept whole.
    """
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        return {}, [f"{run_dir.name}: manifest.json missing"]
    manifest = json.loads(manifest_path.read_text())
    problems = [
        f"{run_dir.name}: artifact {path} listed in manifest.json is missing"
        for paths in manifest["artifacts"].values()
        for path in paths
        if not Path(path).is_file()
    ]
    names = sorted(p.name for p in run_dir.iterdir())
    summary = {
        "files": np.array(names),
        "notes": np.array(manifest["notes"], dtype=str),
        "branch_warnings": np.array(len(manifest["branch_margin_warnings"])),
    }
    for name in names:
        if not name.endswith(".csv"):
            continue
        header, columns = _read_csv(run_dir / name)
        summary[f"{name}:header"] = np.array(header)
        if not name.startswith("walk-"):
            summary.update({f"{name}:{col}": values for col, values in zip(header, columns)})
            continue
        populations = columns[2].reshape(-1, 2**n)
        sums = populations.sum(axis=1)
        if np.abs(sums - 1.0).max() > WALK_SUM_TOL:
            problems.append(f"{name}: populations sum to 1 only within {np.abs(sums - 1.0).max():.3e}")
        summary[f"{name}:population_sum"] = sums
        summary[f"{name}:population_sq_sum"] = (populations**2).sum(axis=1)
        summary[f"{name}:mean_config"] = populations @ np.arange(2**n)
        summary[f"{name}:initial_population"] = populations[:, -1]
    return summary, problems


# --- workloads -----------------------------------------------------------


class Workload:
    """The generated inputs for one seed, and the pass that runs them."""

    name = ""
    # passes a run makes at least, whatever --seconds says
    min_passes = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        # set when writing the reference: items then keep their summaries
        self.keep_summaries = False
        self.inputs = self.make_inputs()

    def make_inputs(self):
        raise NotImplementedError

    def warm_up(self) -> None:
        """An untimed run that loads every lazily imported code path."""
        raise NotImplementedError

    def run_pass(self, reference) -> list[Item]:
        raise NotImplementedError

    def final_problems(self) -> list[str]:
        """Checks too costly for every pass, made once after the timed phase."""
        return []

    def _record(self, item: Item, summary: dict, problems: list[str], reference, hamiltonians: dict) -> None:
        ref_problems, flips = compare(item.key, summary, reference)
        item.problems += problems + ref_problems
        item.flips += flips
        if self.keep_summaries:
            for prefix, H in hamiltonians.items():
                summary.update({prefix + k: v for k, v in near_threshold_pairs(H).items()})
            item.summary = summary


SWEEP_EPSILONS = (0.005, 0.01, 0.012, 0.02, 0.05, 0.1)


def _pipeline_T(params, seed: int, realization: int):
    disorder = dtcnet.sample_disorder(params, seed, realization)
    U = dtcnet.drive_unitary(params, disorder)
    spectrum = dtcnet.floquet_spectrum(U)
    H = dtcnet.effective_hamiltonian(spectrum)
    graph = dtcnet.percolation_graph(H)
    return U, spectrum, H, graph, dtcnet.clusters(graph), dtcnet.gap_ratios(spectrum.quasienergies)


class SweepN8(Workload):
    """The sweep_n8 test-fixture shape: (epsilon, realization) pipelines at n = 8."""

    name = "sweep_n8"
    realizations = 4
    # 5 passes of 24 items: item_p90_s then has at least 10 samples beyond it
    min_passes = 5

    def make_inputs(self):
        return [
            (dtcnet.SpinChainParams(n=8, epsilon=eps), r)
            for r in range(self.realizations)
            for eps in SWEEP_EPSILONS
        ]

    def warm_up(self) -> None:
        # a full-size item: the first 256x256 solves otherwise run slower
        params, r = self.inputs[0]
        _pipeline_T(params, self.seed, r)

    def run_pass(self, reference) -> list[Item]:
        items = []
        for index, (params, r) in enumerate(self.inputs):
            item, outputs = _run_item(
                f"eps{params.epsilon:g}/r{r}", lambda: _pipeline_T(params, self.seed, r)
            )
            if outputs is not None:
                U, spectrum, H, graph, decomposition, sample = outputs
                summary, problems = graph_summary(item.key, graph, decomposition)
                summary["quasienergies"] = spectrum.quasienergies
                summary["gap_ratios"] = sample.ratios
                summary["excluded_degenerate"] = np.array(sample.excluded_degenerate)
                problems += hermiticity_problems(item.key, H)
                # one reconstruction check per realization, each on another epsilon
                if index % len(SWEEP_EPSILONS) == r % len(SWEEP_EPSILONS):
                    problems += reconstruction_problems(item.key, H, U)
                self._record(item, summary, problems, reference, {"": H})
            items.append(item)
        return items


def _pipeline_2T(params, seed: int) -> dict:
    disorder = dtcnet.sample_disorder(params, seed, 0)
    U = dtcnet.drive_unitary(params, disorder)
    out = {"U": U, "U2": dtcnet.squared_floquet(U)}
    for tag, op in (("T", U), ("2T", out["U2"])):
        spectrum = dtcnet.floquet_spectrum(op)
        H = dtcnet.effective_hamiltonian(spectrum)
        graph = dtcnet.percolation_graph(H)
        out[tag] = (spectrum, H, graph, dtcnet.clusters(graph))
    out["bch"] = dtcnet.bch_effective_2T(params, disorder)
    return out


class SingleN10(Workload):
    """One n = 10 realization through T and 2T graphs and the BCH generator."""

    name = "single_n10"
    _last = None

    def make_inputs(self):
        return dtcnet.SpinChainParams(n=10, epsilon=0.012)

    def warm_up(self) -> None:
        _pipeline_2T(dtcnet.SpinChainParams(n=6, epsilon=0.012), self.seed)

    def run_pass(self, reference) -> list[Item]:
        self._last = None  # frees the previous pass's matrices before this one
        item, outputs = _run_item("n10/eps0.012", lambda: _pipeline_2T(self.inputs, self.seed))
        if outputs is not None:
            summary, problems = {}, []
            for tag in ("T", "2T"):
                spectrum, H, graph, decomposition = outputs[tag]
                graph_part, graph_problems = graph_summary(f"{item.key}/{tag}", graph, decomposition)
                summary.update({f"{tag}/{k}": v for k, v in graph_part.items()})
                summary[f"{tag}/quasienergies"] = spectrum.quasienergies
                problems += graph_problems + hermiticity_problems(f"{item.key}/{tag}", H)
            bch = outputs["bch"]
            problems += hermiticity_problems(f"{item.key}/bch", bch)
            summary["bch/diagonal"] = np.real(np.diag(bch.matrix))
            summary["bch/row_abs_sums"] = np.abs(bch.matrix).sum(axis=1)
            self._record(
                item, summary, problems, reference, {"T/": outputs["T"][1], "2T/": outputs["2T"][1]}
            )
            self._last = (item.key, outputs)
        return [item]

    def final_problems(self) -> list[str]:
        if self._last is None:
            return []
        key, outputs = self._last
        return reconstruction_problems(f"{key}/T", outputs["T"][1], outputs["U"]) + (
            reconstruction_problems(f"{key}/2T", outputs["2T"][1], outputs["U2"])
        )


ENSEMBLE_CONFIG = {
    "params": {"n": 8},
    "epsilons": [0.0, 0.012, 0.1],
    "realizations": 3,
    "periods": 64,
    "tasks": ["graph", "levelstats", "spectrum", "walk", "classical"],
}


class EnsembleN8(Workload):
    """`dtcnet ensemble` in-process through dtcnet.cli.main, all five tasks."""

    name = "ensemble_n8"

    def make_inputs(self) -> Path:
        path = self.scratch / "ensemble.json"
        path.write_text(json.dumps({**ENSEMBLE_CONFIG, "seed": self.seed}))
        return path

    def warm_up(self) -> None:
        path = self.scratch / "warm-up.json"
        tiny = {**ENSEMBLE_CONFIG, "params": {"n": 4}, "epsilons": [0.0, 0.1], "realizations": 1, "periods": 8}
        path.write_text(json.dumps({**tiny, "seed": self.seed}))
        self._invoke(path, self.scratch / "warm-up")
        shutil.rmtree(self.scratch / "warm-up")

    @staticmethod
    def _invoke(config: Path, out_dir: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return dtcnet.cli.main(["ensemble", "--config", str(config), "--out-dir", str(out_dir)])

    def run_pass(self, reference) -> list[Item]:
        out_dir = self.scratch / "pass"
        item, code = _run_item("ensemble", lambda: self._invoke(self.inputs, out_dir))
        if code is not None:
            runs = list(out_dir.iterdir()) if out_dir.is_dir() else []
            if code != 0 or len(runs) != 1:
                item.problems.append(f"ensemble: exit code {code}, {len(runs)} run directories")
            else:
                files = [p for p in runs[0].iterdir() if p.is_file()]
                item.files_written = len(files)
                item.bytes_written = sum(p.stat().st_size for p in files)
                summary, problems = read_run_dir(runs[0], ENSEMBLE_CONFIG["params"]["n"])
                self._record(item, summary, problems, reference, {})
        shutil.rmtree(out_dir, ignore_errors=True)
        return [item]


WORKLOADS = {w.name: w for w in (SweepN8, EnsembleN8, SingleN10)}
