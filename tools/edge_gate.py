"""Edge-set gate: compare the percolation graphs of two dtcnet checkouts.

    python3 tools/edge_gate.py --baseline <checkout> [--output gate.json]

Run from the root of a checkout; its ./src/dtcnet is compared with the
baseline checkout's src/dtcnet, imported side by side in one process
(the baseline as the package dtcnet_baseline). Seven checks and one
listing:

- the 600 spectra of the test suite's sweep_n8 fixture (n = 8, six
  epsilons, 100 realizations, seed 1234): the T graphs;
- the same 600 propagators squared and solved afresh,
  floquet_spectrum(squared_floquet(U)): the 2T graphs of that solve;
- the benchmark's ensemble_n8 config (n = 8, epsilons 0, 0.012, 0.1,
  three realizations) at seeds 0-5: the T and 2T graphs as the ensemble
  graph task builds them, and the route each side's two_period_spectrum
  took: U's eigenpairs reused, or U^2 solved afresh (whether the 2T
  spectrum shares U's basis array);
- the export documents of those ensemble graphs: export_graph in each
  of EXPORTS and export_nodes_csv, each side rendering its own graph,
  compared byte for byte; a graph with a flip is skipped and counted;
- `dtcnet ensemble` on that config at seeds 0-2: every CSV it writes,
  compared byte for byte;
- one small run of each other subcommand, a graph run at epsilon = 0,
  a spectrum run that does not sweep epsilon = 0, a simulate run whose
  spectrum warns, and two runs refused before they write (a chain over
  the size limit, a walk whose population table exceeds it) (CLI_RUNS):
  its exit code, its stdout and stderr with the output directory
  replaced by <out>, and every file it writes, compared byte for byte
  (a differing .npy file is also reported with whether its shape and
  dtype match and, if they do, max |new - old|; a differing .csv file,
  here or in the ensemble runs, with its count of differing cells and
  their max |new - old|, or that its layout differs);
- the degree-distribution verdicts: ensemble.degree_fit, each side on
  its own graphs, over the pooled degrees of each fixture epsilon (T,
  100 realizations) and of each seed, epsilon and period (T, 2T) of the
  ensemble graphs above (three realizations);
- the public API, for information only: each side's public names (no
  modules, no _ names) and, for each callable, its parameters as
  name(param) (a dataclass's fields are its parameters); the entries
  the change removed and added are listed, and no verdict reads them.

Each edge that is in one graph and not the other is a flip, listed with
its margin |K_ij| - |E_i - E_j| in the baseline's effective Hamiltonian.
The report also gives max |H - H_baseline|, the largest residual and
Gram defect the checked spectra report, and their Schur fallbacks.

The gate exits 1 when a flip's |margin| reaches FLIP_MARGIN, when the
two sides take different 2T routes, when an export document, an ensemble
CSV, or a subcommand's exit code, message or file differs, when two runs
write different file lists, or when a degree fit's verdict (or its skip
message) differs; otherwise it exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import inspect
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SWEEP = {"n": 8, "epsilons": (0.005, 0.01, 0.012, 0.02, 0.05, 0.1), "realizations": 100, "seed": 1234}
ENSEMBLE = {
    "params": {"n": 8},
    "epsilons": [0.0, 0.012, 0.1],
    "realizations": 3,
    "periods": 64,
    "tasks": ["graph", "levelstats", "spectrum", "walk", "classical"],
}
GRAPH_SEEDS = range(6)
CSV_SEEDS = range(3)
# A flip whose baseline margin is below this in magnitude is roundoff:
# the strict rule |K_ij| > |E_i - E_j| decided a tie either way.
FLIP_MARGIN = 1e-11
# the export_graph formats; "nodes" is export_nodes_csv
EXPORTS = ("dot", "graphml", "edge-csv", "nodes")
# run name -> its dtcnet arguments; each run writes to <root>/<name>,
# where {root} holds every run of one side
CLI_RUNS = {
    "simulate": "simulate --n 4 --epsilon 0.1 --seed 3",
    "graph-csv": "graph --n 8 --epsilon 0.012 --seed 1 --format csv",
    "graph-dot": "graph --n 8 --epsilon 0.012 --seed 1 --format dot",
    "graph-graphml": "graph --n 8 --epsilon 0.012 --seed 1 --format graphml",
    # epsilon = 0: U's dimer blocks, the T spectrum alone
    "graph-eps0": "graph --n 8 --epsilon 0 --seed 1 --format csv",
    "level-stats": "level-stats --n 6 --epsilon 0,0.012,0.1 --seed 2 --realizations 3",
    "spectrum": "spectrum --n 6 --epsilon 0,0.012,0.1 --seed 2 --realizations 3 --periods 32",
    # epsilon = 0 not swept: the fidelity reference is no entry of the sweep
    "spectrum-no-zero": "spectrum --n 6 --epsilon 0.012,0.1 --seed 2 --realizations 3 --periods 32",
    "walk": "walk --n 6 --epsilon 0.1 --seed 4",
    "classical": "classical --n 6",
    "degree-fit": "degree-fit {root}/graph-csv/nodes-eps0p012.csv --n 8 --epsilon 0.012",
    # uncoupled and unrotated, U = -sigma^x sigma^x: two eigenphases on the branch cut, on stderr
    "health": "simulate --n 2 --epsilon 0 --disorder-w 0 --j0 0 --seed 0",
    # refused in one line, with no file written: n over MAX_SITES, and a walk of 6.4e6 periods
    "refuse-size": "graph --n 13 --epsilon 0.1",
    "refuse-walk": "walk --n 4 --epsilon 1e-7",
}


def load(src: Path, name: str):
    """Import src/dtcnet (with its subpackages) under the package name given."""
    spec = importlib.util.spec_from_file_location(
        name, src / "dtcnet" / "__init__.py", submodule_search_locations=[str(src / "dtcnet")]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Gate:
    def __init__(self) -> None:
        self.graphs = self.edges = 0
        self.flips: list[dict] = []
        self.max_dH = self.residual = self.gram_defect = 0.0
        self.fallbacks = 0
        self.pools: dict[str, tuple[list, list]] = {}  # sample -> degrees of each side's graphs
        self.exports = {"documents": 0, "identical": 0, "skipped_flipped": 0, "differing": []}
        self.routes: dict[str, dict[str, int]] = {}  # side -> 2T route counts (ensemble graphs only)
        self.differing: list[str] = []

    def compare(self, label: str, pkg, base, spectra, pool: str | None = None) -> tuple:
        """Compare the graphs of one pair of spectra; returns (graph, baseline graph)."""
        (spectrum, H), (base_spectrum, base_H) = spectra
        self.residual = max(self.residual, spectrum.residual)
        self.gram_defect = max(self.gram_defect, spectrum.gram_defect)
        self.fallbacks += spectrum.schur_fallbacks
        self.max_dH = max(self.max_dH, float(np.abs(H.matrix - base_H.matrix).max()))
        graph, base_graph = pkg.percolation_graph(H), base.percolation_graph(base_H)
        if pool is not None:
            new, old = self.pools.setdefault(pool, ([], []))
            new.append(graph.degrees)
            old.append(base_graph.degrees)
        edges, base_edges = graph.edges, base_graph.edges
        self.graphs += 1
        self.edges += len(base_edges)
        energies = np.real(np.diag(base_H.matrix))
        for i, j in sorted(edges ^ base_edges):
            margin = abs(base_H.matrix[i, j]) - abs(energies[i] - energies[j])
            self.flips.append(
                {"graph": label, "pair": [i, j], "added": (i, j) in edges, "baseline_margin": float(margin)}
            )
        return graph, base_graph

    def compare_exports(self, label: str, pkg, base, graph, base_graph) -> None:
        """Each EXPORTS document, rendered by each side from its own graph; a graph with a flip is skipped."""
        if graph.edges != base_graph.edges:
            self.exports["skipped_flipped"] += 1
            return
        for doc in EXPORTS:
            self.exports["documents"] += 1
            if render(pkg, graph, doc) == render(base, base_graph, doc):
                self.exports["identical"] += 1
            else:
                self.exports["differing"].append(f"{label}: {doc} differs")

    def report(self) -> dict:
        return {
            "graphs": self.graphs,
            "baseline_edges": self.edges,
            "flips": len(self.flips),
            "flip_list": self.flips,
            "max_abs_margin_of_flips": max((abs(f["baseline_margin"]) for f in self.flips), default=None),
            "max_abs_dH": self.max_dH,
            "max_residual": self.residual,
            "max_gram_defect": self.gram_defect,
            "schur_fallbacks": self.fallbacks,
            **({"two_period_routes": self.routes} if self.routes else {}),
            "differing": self.differing,
        }


def render(pkg, graph, doc: str) -> bytes:
    """The EXPORTS document doc of graph, as pkg renders it."""
    return pkg.export_nodes_csv(graph) if doc == "nodes" else pkg.export_graph(graph, doc)


def sweep_gates(pkg, base) -> tuple[Gate, Gate]:
    """The fixture's T graphs and the 2T graphs of a fresh solve of U^2, from one U per side."""
    fixture, fresh = Gate(), Gate()
    for r in range(SWEEP["realizations"]):
        for eps in SWEEP["epsilons"]:
            T, T2 = [], []
            for p in (pkg, base):
                params = p.SpinChainParams(n=SWEEP["n"], epsilon=eps)
                U = p.drive_unitary(params, p.sample_disorder(params, SWEEP["seed"], r))
                for spectra, op in ((T, U), (T2, p.squared_floquet(U))):
                    spectrum = p.floquet_spectrum(op)
                    spectra.append((spectrum, p.effective_hamiltonian(spectrum)))
            fixture.compare(f"sweep eps={eps:g} r={r}", pkg, base, T, pool=f"sweep eps={eps:g} T")
            fresh.compare(f"sweep U^2 eps={eps:g} r={r}", pkg, base, T2)
    return fixture, fresh


def two_period_route(pkg, U, spectrum) -> tuple:
    """pkg's two_period_spectrum(U, spectrum) and its route: "reused" if it shares U's basis array."""
    doubled = pkg.two_period_spectrum(U, spectrum)
    return doubled, "reused" if doubled.basis is spectrum.basis else "fresh"


def ensemble_gate(pkg, base) -> Gate:
    gate = Gate()
    gate.routes = {side: {"reused": 0, "fresh": 0} for side in ("change", "baseline")}
    for seed in GRAPH_SEEDS:
        for r in range(ENSEMBLE["realizations"]):
            for eps in ENSEMBLE["epsilons"]:
                T, T2, routes = [], [], []
                for side, p in (("change", pkg), ("baseline", base)):
                    params = p.SpinChainParams(n=ENSEMBLE["params"]["n"], epsilon=eps)
                    U = p.drive_unitary(params, p.sample_disorder(params, seed, r))
                    spectrum = p.floquet_spectrum(U)
                    doubled, route = two_period_route(p, U, spectrum)
                    gate.routes[side][route] += 1
                    routes.append(route)
                    T.append((spectrum, p.effective_hamiltonian(spectrum)))
                    T2.append((doubled, p.effective_hamiltonian(doubled)))
                sample = f"ensemble seed={seed} eps={eps:g}"
                if routes[0] != routes[1]:
                    gate.differing.append(f"{sample} r={r}: 2T route {routes[1]} -> {routes[0]}")
                for period, spectra in (("T", T), ("2T", T2)):
                    label = f"{sample} r={r} {period}"
                    graphs = gate.compare(label, pkg, base, spectra, pool=f"{sample} {period}")
                    gate.compare_exports(label, pkg, base, *graphs)
    return gate


def _verdict(pkg, degrees: list) -> tuple[str, float]:
    try:
        _, result = pkg.ensemble.degree_fit(np.concatenate(degrees))
    except ValueError as exc:
        return f"skipped: {exc}", 0.0
    return result.favored, result.normalized_R


def degree_gate(pkg, base, pools: dict[str, tuple[list, list]]) -> dict:
    """degree_fit of each pooled sample on both sides: favored and normalized R."""
    differing = []
    max_dnR = 0.0
    for sample, (new, old) in pools.items():
        (favored, nR), (base_favored, base_nR) = _verdict(pkg, new), _verdict(base, old)
        if favored != base_favored:
            differing.append(f"{sample}: {base_favored} -> {favored}")
        max_dnR = max(max_dnR, abs(nR - base_nR))
    return {"samples": len(pools), "max_abs_dnR": max_dnR, "differing": differing}


def run_ensemble_csvs(pkg, seed: int, out: Path) -> dict[str, bytes]:
    out.mkdir(parents=True, exist_ok=True)
    config = out / f"seed{seed}.json"
    config.write_text(json.dumps({**ENSEMBLE, "seed": seed}))
    with contextlib.redirect_stdout(io.StringIO()):
        code = pkg.cli.main(["ensemble", "--config", str(config), "--out-dir", str(out / f"runs{seed}")])
    if code != 0:
        raise RuntimeError(f"dtcnet ensemble exited {code} at seed {seed}")
    (run_dir,) = (out / f"runs{seed}").iterdir()
    return {path.name: path.read_bytes() for path in sorted(run_dir.glob("*.csv"))}


def compare_files(label: str, new: dict[str, bytes], old: dict[str, bytes], part: dict) -> None:
    """Count two runs' files into part (files, identical, differing), byte for byte."""
    if sorted(new) != sorted(old):
        part["differing"].append(f"{label}: file lists differ")
    for name in sorted(set(new) & set(old)):
        part["files"] += 1
        if new[name] == old[name]:
            part["identical"] += 1
        elif name.endswith((".npy", ".csv")):
            how = (npy_difference if name.endswith(".npy") else csv_difference)(new[name], old[name])
            part["differing"].append(f"{label}: {name} differs ({how})")
        else:
            part["differing"].append(f"{label}: {name} differs")


def npy_difference(new: bytes, old: bytes) -> str:
    """How two .npy files' arrays differ: their shapes and dtypes, or if those match, max |new - old|."""
    a, b = (np.load(io.BytesIO(data)) for data in (new, old))
    if a.shape != b.shape or a.dtype != b.dtype:
        return f"shape {b.shape} -> {a.shape}, dtype {b.dtype} -> {a.dtype}"
    diff = np.abs(a.astype(complex) - b.astype(complex)).max(initial=0.0)
    return f"same shape and dtype, max |diff| {diff:.3e}"


def csv_difference(new: bytes, old: bytes) -> str:
    """How two CSV files differ: how many cells and max |new - old| over them, or that the layout differs.

    The layout differs when the header, the row count or a row's length
    differs, or when a differing cell is not a number.
    """
    a, b = (list(csv.reader(io.StringIO(data.decode()))) for data in (new, old))
    if a[:1] != b[:1] or len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return "layout differs"
    cells = [(x, y) for row, base_row in zip(a[1:], b[1:]) for x, y in zip(row, base_row)]
    moved = [(x, y) for x, y in cells if x != y]
    try:
        diffs = [abs(float(x) - float(y)) for x, y in moved]
    except ValueError:
        return "layout differs"
    return f"{len(moved)} of {len(cells)} cells differ, max |diff| {np.max(diffs, initial=0.0):.3e}"


def csv_gate(pkg, base) -> dict:
    part = {"files": 0, "identical": 0, "differing": []}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in CSV_SEEDS:
            new = run_ensemble_csvs(pkg, seed, Path(tmp) / "change")
            old = run_ensemble_csvs(base, seed, Path(tmp) / "baseline")
            compare_files(f"seed {seed}", new, old, part)
    return part


def run_cli(pkg, name: str, root: Path) -> tuple:
    """CLI_RUNS[name] through pkg.cli.main: (exit code, stdout, stderr, {file: bytes})."""
    out = root / name
    argv = [token.format(root=root) for token in CLI_RUNS[name].split()] + ["--out-dir", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = pkg.cli.main(argv)
    paths = sorted(out.rglob("*")) if out.is_dir() else []
    files = {str(path.relative_to(out)): path.read_bytes() for path in paths if path.is_file()}
    stdout, stderr = (text.getvalue().replace(str(root), "<out>") for text in (stdout, stderr))
    return code, stdout, stderr, files


def cli_gate(pkg, base) -> dict:
    """Each CLI_RUNS run on both sides: exit code, stdout, stderr and written files."""
    part = {"files": 0, "identical": 0, "differing": []}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CLI_RUNS:
            *new, new_files = run_cli(pkg, name, Path(tmp) / "change")
            *old, old_files = run_cli(base, name, Path(tmp) / "baseline")
            for what, new_value, old_value in zip(("exit code", "stdout", "stderr"), new, old):
                if new_value != old_value:
                    part["differing"].append(f"{name}: {what} differs")
            compare_files(name, new_files, old_files, part)
    return part


def public_api(pkg) -> set[str]:
    """pkg's public names (no modules, no _ names), and name(param) for each callable's parameters."""
    entries = set()
    for name in dir(pkg):
        obj = getattr(pkg, name)
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        entries.add(name)
        if callable(obj):
            entries.update(f"{name}({param})" for param in inspect.signature(obj).parameters)
    return entries


def api_gate(pkg, base) -> dict:
    """The public API entries the change removed and added; informational, failures() reads neither."""
    new, old = public_api(pkg), public_api(base)
    return {"removed": sorted(old - new), "added": sorted(new - old)}


def failures(report: dict) -> list[str]:
    """Why the report fails the gate, one line per reason; empty if it passes."""
    reasons = []
    for name, part in report.items():
        for flip in part.get("flip_list", ()):
            margin = flip["baseline_margin"]
            if abs(margin) >= FLIP_MARGIN:
                reasons.append(f"{name}: {flip['graph']} pair {flip['pair']} flipped, margin {margin:.3e}")
        reasons.extend(f"{name}: {item}" for item in part.get("differing", ()))
    return reasons


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--baseline", required=True, type=Path, help="checkout to compare against")
    p.add_argument("--output", type=Path, default=None)
    args = p.parse_args(argv)
    pkg = load(ROOT / "src", "dtcnet")
    base = load(args.baseline.resolve() / "src", "dtcnet_baseline")
    importlib.import_module("dtcnet.cli")
    importlib.import_module("dtcnet_baseline.cli")
    (fixture, fresh), ensemble = sweep_gates(pkg, base), ensemble_gate(pkg, base)
    report = {
        "sweep_n8_fixture": fixture.report(),
        "sweep_n8_fresh_u2": fresh.report(),
        "ensemble_graphs": ensemble.report(),
        "ensemble_exports": ensemble.exports,
        "ensemble_csvs": csv_gate(pkg, base),
        "cli_outputs": cli_gate(pkg, base),
        "degree_verdicts": degree_gate(pkg, base, {**fixture.pools, **ensemble.pools}),
        "public_api": api_gate(pkg, base),
    }
    text = json.dumps(report, indent=1)
    if args.output:
        args.output.write_text(text + "\n")
    summary = {k: {key: v for key, v in part.items() if key != "flip_list"} for k, part in report.items()}
    print(json.dumps(summary, indent=1))
    reasons = failures(report)
    for reason in reasons:
        print(f"edge gate: {reason}", file=sys.stderr)
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
