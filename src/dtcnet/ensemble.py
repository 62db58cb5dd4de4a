"""Disorder-ensemble orchestration with reproducible run manifests.

A run sweeps epsilon values over a batch of disorder realizations,
executes the requested tasks, and writes pooled CSV outputs plus a JSON
manifest into a fresh run directory. Disorder fields are keyed by
(seed, realization index) and held fixed across the epsilon sweep, so
epsilon-dependence curves are smooth and attributable to epsilon alone.
"""

from __future__ import annotations

import json
import os
import time
from itertools import count
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from math import pi
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import (
    basis_dynamics,
    dft_power,
    gap_ratios,
    reference_pdf,
    walk_horizon_periods,
    walk_populations,
)
from .floquet_core import effective_hamiltonian, drive_unitary, floquet_spectrum, two_period_spectrum
from .netfit import avg_degree_by_domain_walls, kmin_scan, lognormal_lr_test, log_binned_histogram
from .percolation_graph import percolation_graph
from .semiclassical import ClassicalConfiguration, classical_energy, classify_fixed_point, jacobian
from .spin_hilbert import Configuration, SpinChainParams, sample_disorder

__all__ = [
    "EnsembleSpec",
    "RunManifest",
    "realization_outputs",
    "run_ensemble",
    "TASKS",
    "MAX_SITES",
    "check_size",
]

TASKS = ("graph", "levelstats", "spectrum", "walk", "classical")
MAX_SITES = 12
DEFAULT_PERIODS = 64
GAP_HISTOGRAM_BINS = 20
# the SpinChainParams fields besides n that a spec's "params" object holds
_CHAIN_KEYS = ("J0", "alpha", "W", "T1", "T2")


@dataclass(frozen=True)
class EnsembleSpec:
    """What to run: base parameters, epsilon sweep, batch size, tasks."""

    params: SpinChainParams
    epsilons: tuple[float, ...]
    realizations: int
    seed: int
    tasks: frozenset[str]
    periods: int = DEFAULT_PERIODS

    def __post_init__(self) -> None:
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if len(self.epsilons) == 0:
            raise ValueError("epsilons must be nonempty")
        if any(e < 0 for e in self.epsilons):
            raise ValueError("epsilons must be >= 0")
        tags = [eps_tag(e) for e in self.epsilons]
        for tag in tags:
            if tags.count(tag) > 1:
                clash = [e for e, t in zip(self.epsilons, tags) if t == tag]
                raise ValueError(f"epsilons {clash} share the output tag {tag!r}; their files would collide")
        unknown = set(self.tasks) - set(TASKS)
        if unknown:
            raise ValueError(f"unknown tasks {sorted(unknown)}; expected subset of {TASKS}")
        if not self.tasks:
            raise ValueError("tasks must be nonempty")
        if self.periods < 2:
            raise ValueError("periods must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @classmethod
    def from_json(cls, payload: dict) -> "EnsembleSpec":
        p = payload.get("params", {})
        # only the settings given; the rest take the SpinChainParams defaults
        chain = {key: float(p[key]) for key in _CHAIN_KEYS if key in p}
        return cls(
            params=SpinChainParams(n=int(p["n"]), **chain),
            epsilons=tuple(float(e) for e in payload["epsilons"]),
            realizations=int(payload["realizations"]),
            seed=int(payload["seed"]),
            tasks=frozenset(payload["tasks"]),
            periods=int(payload.get("periods", DEFAULT_PERIODS)),
        )

    def to_json(self) -> dict:
        p = self.params
        return {
            "params": {"n": p.n, **{key: getattr(p, key) for key in _CHAIN_KEYS}},
            "epsilons": list(self.epsilons),
            "realizations": self.realizations,
            "seed": self.seed,
            "tasks": sorted(self.tasks),
            "periods": self.periods,
        }


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to audit or reproduce a run."""

    spec: dict
    per_realization_seeds: list
    artifacts: dict
    branch_margin_warnings: list
    version: str
    timings: dict
    run_dir: str
    notes: list

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "run_dir": self.run_dir,
            "spec": self.spec,
            "per_realization_seeds": self.per_realization_seeds,
            "artifacts": self.artifacts,
            "branch_margin_warnings": self.branch_margin_warnings,
            "timings": self.timings,
            "notes": self.notes,
        }


def _worker_count(notes: list[str]) -> int:
    raw = os.environ.get("DTCNET_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        notes.append(f"DTCNET_THREADS={raw!r} is not an integer; realizations ran serially")
        return 1


def check_size(n: int) -> None:
    """Refuse a chain too large for the dense propagator and its spectrum.

    A dense 2^n x 2^n complex matrix takes 16 * 4^n bytes, and the
    spectrum path holds about 9 of them at its peak (U and U^2, the
    eigensolver's work arrays, the eigenvectors and the effective
    Hamiltonians; `dtcnet simulate` peaks 136 MB above its import
    footprint at n = 10, i.e. 8.5 copies of 16 MB). That is about 2.4 GB
    at n = MAX_SITES = 12 and 9.7 GB at n = 13. Raises ValueError with a
    one-line message before anything is allocated.
    """
    if n > MAX_SITES:
        raise ValueError(
            f"n = {n} exceeds the dense-matrix limit {MAX_SITES}: the spectrum needs about "
            f"9 x 16 * 4^n bytes = {9 * 16 * 4.0**n / 1e9:.1f} GB"
        )


def format_float(x: float) -> str:
    """The CSV rendering of every float output."""
    return f"{x:.12g}"


def write_csv(path: Path, header: str, rows) -> None:
    """Write the header line, then each row's cells joined by commas."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def eps_tag(eps: float) -> str:
    """Epsilon as used in file names and payload keys: 0.012 -> '0p012'."""
    return f"{eps:g}".replace(".", "p").replace("-", "m")


def realization_outputs(spec: EnsembleSpec, r: int) -> dict:
    """Everything disorder realization r contributes to a run.

    The result holds "warnings" (branch-cut and skipped-task records),
    "notes" (spectra whose block solve fell back to Schur, for the
    manifest) and, for each task in spec.tasks, a dict keyed by
    eps_tag(epsilon):

    - "graph": (percolation graph at T, percolation graph at 2T);
    - "levelstats": (gap ratios, count of excluded degenerate gaps);
    - "spectrum": per-configuration fidelity of the magnetization power
      spectrum against epsilon = 0, NaN where either spectrum vanishes;
    - "magnetization" (with the spectrum task): the per-site
      magnetization series of the all-up configuration, m = 0..periods;
    - "walk" (epsilon > 0 only): (participation ratio per configuration,
      walk populations from the all-up configuration).

    Each epsilon builds its propagator once and, when the spectrum or
    walk task is on, propagates the whole basis once (basis_dynamics).
    The epsilon = 0 reference is the sweep's own entry; it is built
    separately only when 0 is not swept. run_ensemble and the
    level-stats, spectrum and walk subcommands all reduce these payloads.
    """
    disorder = sample_disorder(spec.params, spec.seed, r)
    payload: dict = {"warnings": [], "notes": []}

    def note_fallbacks(spectrum, eps: float, tag: str) -> None:
        if spectrum.schur_fallbacks:
            payload["notes"].append(
                f"eps={eps:g} realization {r} {tag}: "
                f"{spectrum.schur_fallbacks} spectrum blocks solved by Schur fallback"
            )

    n = spec.params.n
    spectra: dict = {}  # epsilon -> power spectrum of every configuration

    for eps in spec.epsilons:
        params = replace(spec.params, epsilon=eps)
        key = eps_tag(eps)
        U = drive_unitary(params, disorder)

        if "graph" in spec.tasks or "levelstats" in spec.tasks:
            spectrum = floquet_spectrum(U)
            note_fallbacks(spectrum, eps, "T")
            if spectrum.branch_warnings:
                payload["warnings"].append(
                    {"epsilon": eps, "realization": r, "warnings": list(spectrum.branch_warnings)}
                )

        if "graph" in spec.tasks:
            graph_T = percolation_graph(effective_hamiltonian(spectrum))
            spectrum_2T = two_period_spectrum(U, spectrum)
            note_fallbacks(spectrum_2T, eps, "2T")
            graph_2T = percolation_graph(effective_hamiltonian(spectrum_2T))
            payload.setdefault("graph", {})[key] = (graph_T, graph_2T)

        if "levelstats" in spec.tasks:
            sample = gap_ratios(spectrum.quasienergies)
            payload.setdefault("levelstats", {})[key] = (sample.ratios, sample.excluded_degenerate)

        if "walk" in spec.tasks and eps <= 0.0:
            skipped = "walk task skipped: tunneling horizon diverges at epsilon = 0"
            payload["warnings"].append({"epsilon": eps, "realization": r, "warnings": [skipped]})
        horizon = walk_horizon_periods(params) if "walk" in spec.tasks and eps > 0.0 else None
        periods = spec.periods if "spectrum" in spec.tasks else 0
        if periods or horizon:
            magnetization, prs = basis_dynamics(U, periods, horizon)
            if periods:
                spectra[eps] = dft_power(magnetization)
                payload.setdefault("magnetization", {})[key] = magnetization[:, -1]
            if horizon:
                record = walk_populations(U, Configuration(index=2**n - 1, n=n), horizon)
                payload.setdefault("walk", {})[key] = (prs, record.populations)

    if "spectrum" in spec.tasks:
        ref_V = spectra.get(0.0)
        if ref_V is None:
            U0 = drive_unitary(replace(spec.params, epsilon=0.0), disorder)
            ref_V = dft_power(basis_dynamics(U0, spec.periods)[0])
        ref_norm = np.linalg.norm(ref_V, axis=0)
        for eps, V in spectra.items():
            norm = np.linalg.norm(V, axis=0)
            with np.errstate(invalid="ignore", divide="ignore"):
                fidelity = np.sqrt(np.einsum("ki,ki->i", ref_V, V) / (ref_norm * norm))
            fidelity[(ref_norm < 1e-30) | (norm < 1e-30)] = np.nan
            payload.setdefault("spectrum", {})[eps_tag(eps)] = np.minimum(fidelity, 1.0)
    return payload


def run_ensemble(spec: EnsembleSpec, out_dir: str | Path = ".") -> RunManifest:
    """Execute the sweep and write pooled outputs plus manifest.json.

    Realizations run serially by default; DTCNET_THREADS > 1 maps them
    onto a thread pool. Either way results are reduced in realization
    order, so aggregates do not depend on scheduling.
    """
    check_size(spec.params.n)
    t_start = time.perf_counter()
    run_dir = _fresh_run_dir(Path(out_dir), spec.seed)

    notes: list[str] = []
    workers = _worker_count(notes)
    indices = range(spec.realizations)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            payloads = list(pool.map(lambda r: realization_outputs(spec, r), indices))
    else:
        payloads = [realization_outputs(spec, r) for r in indices]

    artifacts: dict[str, list[str]] = {}
    warnings = [w for p in payloads for w in p["warnings"]]
    notes += [note for p in payloads for note in p["notes"]]
    timings = {"map_s": round(time.perf_counter() - t_start, 3)}

    def record(task: str, path: Path) -> None:
        artifacts.setdefault(task, []).append(str(path))

    for eps in spec.epsilons:
        key = eps_tag(eps)

        if "graph" in spec.tasks:
            for tag, pick in (("T", 0), ("2T", 1)):
                graphs = [p["graph"][key][pick] for p in payloads]
                degrees = np.concatenate([g.degrees for g in graphs])
                _write_fit_outputs(run_dir, f"{tag}-eps{key}", eps, spec.params.n, degrees, record, notes)
                table = avg_degree_by_domain_walls(graphs)
                path = run_dir / f"walls-{tag}-eps{key}.csv"
                write_csv(
                    path,
                    "epsilon,walls,mean_degree,std_degree,realizations",
                    (
                        (format_float(eps), w, format_float(m), format_float(s), len(graphs))
                        for w, (m, s) in table.items()
                    ),
                )
                record("graph", path)

        if "levelstats" in spec.tasks:
            ratios = np.concatenate([p["levelstats"][key][0] for p in payloads])
            excluded = sum(p["levelstats"][key][1] for p in payloads)
            if excluded:
                notes.append(f"levelstats eps={eps:g}: {excluded} degenerate gaps excluded")
            path = run_dir / f"gap-ratios-eps{key}.csv"
            write_gap_ratio_table(path, ratios)
            record("levelstats", path)

        if "spectrum" in spec.tasks:
            path = run_dir / f"fidelity-eps{key}.csv"
            write_fidelity_table(path, payloads, [eps])
            record("spectrum", path)

        if "walk" in spec.tasks and eps > 0.0:
            for r, p in enumerate(payloads):
                for path in write_walk_tables(run_dir, f"eps{key}-r{r}", *p["walk"][key]):
                    record("walk", path)

    if "classical" in spec.tasks:
        path = run_dir / "classical.csv"
        write_classical_table(path, spec.params)
        record("classical", path)

    timings["total_s"] = round(time.perf_counter() - t_start, 3)
    manifest = RunManifest(
        spec=spec.to_json(),
        per_realization_seeds=[
            {"realization": r, "seed_sequence": [spec.seed, r]} for r in indices
        ],
        artifacts=artifacts,
        branch_margin_warnings=warnings,
        version=__version__,
        timings=timings,
        run_dir=str(run_dir),
        notes=notes,
    )
    with open(run_dir / "manifest.json", "w") as fh:
        json.dump(manifest.to_json(), fh, indent=2)
    return manifest


def _fresh_run_dir(out_dir: Path, seed: int) -> Path:
    """Create run-<UTC stamp>-seed<seed>, or its first free -1, -2, ... variant.

    Each candidate is claimed by an atomic mkdir, so runs started in the
    same second never share a directory.
    """
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
    base = f"run-{stamp}-seed{seed}"
    for k in count():
        run_dir = out_dir / (f"{base}-{k}" if k else base)
        try:
            run_dir.mkdir(parents=True, exist_ok=False)
            return run_dir
        except FileExistsError:
            continue


def _write_fit_outputs(run_dir: Path, tag: str, eps: float, n: int, degrees, record, notes) -> None:
    """Degree histogram plus power-law fit row for one pooled sample."""
    try:
        hist = log_binned_histogram(degrees)
    except ValueError as exc:
        notes.append(f"degree-histogram skipped ({tag}): {exc}")
    else:
        path = run_dir / f"degree-hist-{tag}.csv"
        write_csv(
            path,
            "bin_lo,bin_hi,density",
            (
                (format_float(lo), format_float(hi), format_float(d))
                for lo, hi, d in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.densities)
            ),
        )
        record("graph", path)
    try:
        fit, verdict = degree_fit(degrees)
    except ValueError as exc:
        notes.append(f"degree-fit skipped ({tag}): {exc}")
    else:
        path = run_dir / f"degree-fit-{tag}.csv"
        write_degree_fit(path, eps, n, fit, verdict)
        record("graph", path)


def degree_fit(degrees):
    """Power-law tail fit and its lognormal comparison, as (fit, verdict).

    Raises ValueError when the sample cannot be fitted.
    """
    fit = kmin_scan(degrees)
    return fit, lognormal_lr_test(degrees, fit)


def write_degree_fit(path: Path, eps: float, n: int, fit, verdict) -> None:
    """The one-row table of a degree_fit result."""
    row = (
        format_float(eps),
        n,
        format_float(fit.beta),
        fit.k_min,
        format_float(fit.ks),
        fit.n_tail,
        verdict.favored,
    )
    write_csv(path, "epsilon,n,beta,k_min,ks,n_tail,favored", [row])


def write_gap_ratio_table(path: Path, ratios: np.ndarray) -> None:
    """Gap-ratio density on GAP_HISTOGRAM_BINS bins with Poisson and COE overlays."""
    edges = np.linspace(0.0, 1.0, GAP_HISTOGRAM_BINS + 1)
    counts, _ = np.histogram(ratios, bins=edges)
    density = counts / (max(ratios.size, 1) * (edges[1] - edges[0]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    write_csv(
        path,
        "r_lo,r_hi,density,reference_poisson,reference_coe",
        (
            (
                format_float(lo),
                format_float(hi),
                format_float(d),
                format_float(reference_pdf("poisson", m)),
                format_float(reference_pdf("coe", m)),
            )
            for lo, hi, d, m in zip(edges[:-1], edges[1:], density, mids)
        ),
    )


def write_fidelity_table(path: Path, payloads: list[dict], epsilons) -> None:
    """Spectral fidelity per configuration and epsilon, averaged over realizations.

    Each mean runs over the realizations where the fidelity is finite
    and is "nan" where it never is, which raises no RuntimeWarning.
    """
    rows = []
    for eps in epsilons:
        stack = np.vstack([p["spectrum"][eps_tag(eps)] for p in payloads])
        finite = np.isfinite(stack)
        counts = finite.sum(axis=0)
        sums = np.where(finite, stack, 0.0).sum(axis=0)
        mean = np.divide(sums, counts, out=np.full(stack.shape[1], np.nan), where=counts > 0)
        rows += [
            (i, format_float(eps), "nan" if np.isnan(f) else format_float(f))
            for i, f in enumerate(mean)
        ]
    write_csv(path, "config,epsilon,fidelity", rows)


def write_walk_tables(out: Path, suffix: str, prs, populations) -> list[Path]:
    """Write pr-<suffix>.csv and walk-<suffix>.csv; returns both paths."""
    pr_path, walk_path = out / f"pr-{suffix}.csv", out / f"walk-{suffix}.csv"
    write_csv(pr_path, "config,pr", ((i, format_float(v)) for i, v in enumerate(prs)))
    write_csv(
        walk_path,
        "period,config,population",
        (
            (m, i, format_float(populations[m, i]))
            for m in range(populations.shape[0])
            for i in range(populations.shape[1])
        ),
    )
    return [pr_path, walk_path]


def write_classical_table(path: Path, params: SpinChainParams) -> None:
    """Energy and fixed-point stability of every classical corner configuration."""
    n = params.n
    rows = []
    for index in range(2**n):
        bits = format(index, f"0{n}b")
        config = ClassicalConfiguration(thetas=np.array([0.0 if b == "1" else pi for b in bits]))
        report = classify_fixed_point(jacobian(config, params))
        rows.append(
            (
                bits,
                format_float(classical_energy(config, params)),
                format_float(float(report.eigenvalues.min())),
                format_float(float(report.eigenvalues.max())),
                report.classification,
            )
        )
    write_csv(path, "configuration,energy,min_eigenvalue,max_eigenvalue,classification", rows)
