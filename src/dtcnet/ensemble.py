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
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from functools import cached_property
from math import pi
from numbers import Integral
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
from .spin_hilbert import Configuration, SpinChainParams, check_setting, sample_disorder, spin_z_table

__all__ = [
    "EnsembleSpec",
    "RunManifest",
    "Stages",
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
        for name in ("realizations", "seed", "periods"):
            check_setting(name, getattr(self, name), Integral)
        chains = [replace(self.params, epsilon=e) for e in self.epsilons]  # each chain checks its epsilon
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if not chains:
            raise ValueError("epsilons must be nonempty")
        tags = [eps_tag(e) for e in self.epsilons]
        for tag in tags:
            if tags.count(tag) > 1:
                clash = [e for e, t in zip(self.epsilons, tags) if t == tag]
                raise ValueError(f"epsilons {clash} share the output tag {tag!r}; their files would collide")
        _check_tasks(self.tasks)
        unknown = set(self.tasks) - set(TASKS)
        if unknown:
            raise ValueError(f"unknown tasks {sorted(unknown)}; expected subset of {TASKS}")
        if not self.tasks:
            raise ValueError("tasks must be nonempty")
        if self.periods < 2:
            raise ValueError("periods must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # the chain, each table within the dense-matrix limit 4^MAX_SITES, and the basis
        # propagation behind them within 2 x DEFAULT_PERIODS steps of 4^n at n = MAX_SITES
        n = self.params.n
        check_size(n)
        steps = self.periods if "spectrum" in self.tasks else 0
        if steps**2 > 4**MAX_SITES:
            raise ValueError(f"the {steps} x {steps} DFT exceeds the dense-matrix limit 4^{MAX_SITES}")
        for chain in (c for c in chains if c.epsilon > 0 and "walk" in self.tasks):
            horizon = walk_horizon_periods(chain)
            if (horizon + 1) * 2**n > 4**MAX_SITES:
                raise ValueError(
                    f"the walk at epsilon = {chain.epsilon:g} runs {horizon:.4g} periods: its population "
                    f"table of (horizon + 1) x 2^{n} entries exceeds the dense-matrix limit 4^{MAX_SITES}"
                )
            steps = max(steps, horizon)
        if steps * 4**n > 2 * DEFAULT_PERIODS * 4**MAX_SITES:
            raise ValueError(
                f"the basis propagation of {steps:.4g} periods x 4^{n} entries exceeds "
                f"{2 * DEFAULT_PERIODS} periods x the dense-matrix limit 4^{MAX_SITES}"
            )

    @classmethod
    def from_json(cls, payload: dict) -> "EnsembleSpec":
        p = payload.get("params", {})
        unknown = sorted(set(p) - {"n", *_CHAIN_KEYS}) if isinstance(p, dict) else []
        if unknown:
            raise ValueError(f"params keys {unknown} are not chain settings; expected n or {list(_CHAIN_KEYS)}")
        for key in ("epsilons", "tasks"):
            if not isinstance(payload.get(key, []), list):
                raise ValueError(f"{key} must be a JSON list, got {payload[key]!r}")
        _check_tasks(payload.get("tasks", []))
        return cls(
            # only the settings given; the rest take the SpinChainParams defaults
            params=SpinChainParams(n=p["n"], **{key: p[key] for key in _CHAIN_KEYS if key in p}),
            epsilons=tuple(payload["epsilons"]),
            realizations=payload["realizations"],
            seed=payload["seed"],
            tasks=frozenset(payload["tasks"]),
            periods=payload.get("periods", DEFAULT_PERIODS),
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


def _check_tasks(tasks) -> None:
    if not all(isinstance(task, str) for task in tasks):
        raise ValueError(f"tasks must be strings, got {list(tasks)!r}")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to audit or reproduce a run; fields in manifest.json key order."""

    version: str
    run_dir: str
    spec: dict
    per_realization_seeds: list
    artifacts: dict
    branch_margin_warnings: list
    timings: dict
    notes: list

    def to_json(self) -> dict:
        return asdict(self)


def _worker_count(notes: list[str]) -> int:
    raw = os.environ.get("DTCNET_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        notes.append(f"DTCNET_THREADS={raw!r} is not a positive integer; realizations ran serially")
        return 1
    return workers


def check_size(n: int) -> None:
    """Refuse a chain too large for the dense propagator and its spectrum.

    A dense 2^n x 2^n complex matrix takes 16 * 4^n bytes, and the
    spectrum path holds about 9 of them at its peak (U and U^2, the
    eigensolver's work arrays, the eigenvectors and the effective
    Hamiltonians; `dtcnet simulate` peaks 91 MB above its import
    footprint at n = 10 and 313 MB at n = 11, 5.7 and 4.9 copies). That
    is about 2.4 GB at n = MAX_SITES = 12 and 9.7 GB at n = 13. Raises
    ValueError with a one-line message before anything is allocated.
    """
    if n > MAX_SITES:
        # 4.0**n overflows a float from n = 512 on, where the estimate already exceeds 1e300 GB
        gb = f"{9 * 16 / 1e9 * 4.0**n:.2g}" if n < 512 else "more than 1e300"
        raise ValueError(
            f"n = {n} exceeds the dense-matrix limit {MAX_SITES}: the spectrum needs about "
            f"9 x 16 * 4^n bytes = {gb} GB"
        )


def write_csv(path: Path, header: str, *columns) -> Path:
    """Write the header line, then one comma-joined row per entry of the columns.

    Each column is an array, a list or a scalar repeated on every row.
    Float columns render as .12g and every other cell as str; this is
    the rendering of every CSV table. Zero-length columns write the
    header alone. Returns path.
    """
    arrays = np.broadcast_arrays(*(np.atleast_1d(c) for c in columns))
    row = ",".join("{:.12g}" if a.dtype.kind == "f" else "{}" for a in arrays) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(row.format(*cells) for cells in zip(*(a.tolist() for a in arrays)))
    return path


def eps_tag(eps: float) -> str:
    """Epsilon as used in file names and payload keys: 0.012 -> '0p012'."""
    return f"{eps + 0.0:g}".replace(".", "p").replace("-", "m")  # -0.0 + 0.0 is 0.0: tag "0"


class Stages:
    """The chain of one (epsilon, realization): drive, spectra, effective Hamiltonians, graphs.

    U, spectrum (at T) and spectrum_2T are each computed on first read
    and only once; spectrum_2T is two_period_spectrum's, from U's solved
    spectrum. As each spectrum is solved its health goes into health
    (realization r): a note if blocks fell back to Schur, and a warnings
    record of its branch-cut warnings, each 2T one prefixed "2T: ".
    """

    def __init__(self, params: SpinChainParams, disorder, r: int = 0, health: dict | None = None) -> None:
        self.params, self.disorder, self.r = params, disorder, r
        self.health = {"warnings": [], "notes": []} if health is None else health

    @cached_property
    def U(self):
        return drive_unitary(self.params, self.disorder)

    @cached_property
    def spectrum(self):
        return self._recorded(floquet_spectrum(self.U), "T")

    @cached_property
    def spectrum_2T(self):
        return self._recorded(two_period_spectrum(self.U, self.spectrum), "2T")

    def graph(self, spectrum):
        """The percolation graph of spectrum's effective Hamiltonian, which is not kept."""
        return percolation_graph(effective_hamiltonian(spectrum))

    def _recorded(self, spectrum, tag: str):
        eps, r = self.params.epsilon, self.r
        if spectrum.schur_fallbacks:
            self.health["notes"].append(
                f"eps={eps:g} realization {r} {tag}: "
                f"{spectrum.schur_fallbacks} spectrum blocks solved by Schur fallback"
            )
        if spectrum.branch_warnings:
            warnings = [w if tag == "T" else f"{tag}: {w}" for w in spectrum.branch_warnings]
            self.health["warnings"].append({"epsilon": eps, "realization": r, "warnings": warnings})
        return spectrum


def realization_outputs(spec: EnsembleSpec, r: int) -> dict:
    """Everything disorder realization r contributes to a run.

    The result holds "warnings" (branch-cut records, each 2T string
    prefixed "2T: ", and skipped-task records), "notes" (spectra whose
    block solve fell back to Schur, for the manifest) and, for each task
    in spec.tasks, a dict keyed by eps_tag(epsilon):

    - "graph": (percolation graph at T, percolation graph at 2T);
    - "levelstats": (gap ratios, count of excluded degenerate gaps);
    - "spectrum": per-configuration fidelity of the magnetization power
      spectrum against epsilon = 0, NaN where either spectrum vanishes;
    - "magnetization" (with the spectrum task): the per-site
      magnetization series of the all-up configuration, m = 0..periods;
    - "walk" (epsilon > 0 only): (participation ratio per configuration,
      walk populations from the all-up configuration).

    Each epsilon reads one Stages, so it builds its propagator once, and
    only when a requested task reads it; when the spectrum or walk task
    is on, it propagates the whole basis once (basis_dynamics).
    The epsilon = 0 reference is the exact flip series: at zero error
    each pulse is a pi flip, so configuration i reads (-1)^m s_i / n
    whatever the disorder. run_ensemble and the level-stats, spectrum
    and walk subcommands all reduce these payloads.
    """
    disorder = sample_disorder(spec.params, spec.seed, r)
    payload: dict = {"warnings": [], "notes": []}
    n = spec.params.n
    periods = spec.periods if "spectrum" in spec.tasks else 0
    if periods:
        flips = (-1.0) ** np.arange(periods + 1)
        ref_V = dft_power(np.outer(flips, spin_z_table(n).sum(axis=1) / n))
        ref_norm = np.linalg.norm(ref_V, axis=0)

    for eps in spec.epsilons:
        stages = Stages(replace(spec.params, epsilon=eps), disorder, r, payload)
        key = eps_tag(eps)
        horizon = walk_horizon_periods(stages.params) if "walk" in spec.tasks and eps > 0.0 else None

        if "graph" in spec.tasks:
            graphs = stages.graph(stages.spectrum), stages.graph(stages.spectrum_2T)
            payload.setdefault("graph", {})[key] = graphs

        if "levelstats" in spec.tasks:
            sample = gap_ratios(stages.spectrum.quasienergies)
            payload.setdefault("levelstats", {})[key] = (sample.ratios, sample.excluded_degenerate)

        if "walk" in spec.tasks and eps <= 0.0:
            skipped = "walk task skipped: tunneling horizon diverges at epsilon = 0"
            payload["warnings"].append({"epsilon": eps, "realization": r, "warnings": [skipped]})
        if periods or horizon:
            magnetization, prs = basis_dynamics(stages.U, periods, horizon)
            if periods:
                V = dft_power(magnetization)
                norm = np.linalg.norm(V, axis=0)
                with np.errstate(invalid="ignore", divide="ignore"):
                    fidelity = np.sqrt(np.einsum("ki,ki->i", ref_V, V) / (ref_norm * norm))
                fidelity[(ref_norm < 1e-30) | (norm < 1e-30)] = np.nan
                payload.setdefault("spectrum", {})[key] = np.minimum(fidelity, 1.0)
                payload.setdefault("magnetization", {})[key] = magnetization[:, -1].copy()
            if horizon:
                populations = walk_populations(stages.U, Configuration(index=2**n - 1, n=n), horizon)
                payload.setdefault("walk", {})[key] = (prs, populations)
    return payload


def pooled_gap_ratios(payloads: list[dict], eps: float) -> tuple[np.ndarray, list[str]]:
    """The gap ratios of every payload at eps, and a note if degenerate gaps were excluded."""
    key = eps_tag(eps)
    ratios = np.concatenate([p["levelstats"][key][0] for p in payloads])
    excluded = sum(p["levelstats"][key][1] for p in payloads)
    return ratios, [f"levelstats eps={eps:g}: {excluded} degenerate gaps excluded"] if excluded else []


def run_ensemble(spec: EnsembleSpec, out_dir: str | Path = ".") -> RunManifest:
    """Execute the sweep and write pooled outputs plus manifest.json.

    Realizations run serially by default; DTCNET_THREADS > 1 maps them
    onto a thread pool. Either way results are reduced in realization
    order, so aggregates do not depend on scheduling. The run writes into
    <name>.partial and renames it to <name> once manifest.json is written.
    """
    t_start = time.perf_counter()
    run_dir, work_dir = _claim_run_dir(Path(out_dir), spec.seed)

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

    def record(task: str, *paths: Path) -> None:
        artifacts.setdefault(task, []).extend(str(run_dir / p.name) for p in paths)

    for eps in spec.epsilons:
        key = eps_tag(eps)

        if "graph" in spec.tasks:
            for tag, pick in (("T", 0), ("2T", 1)):
                graphs = [p["graph"][key][pick] for p in payloads]
                degrees = np.concatenate([g.degrees for g in graphs])
                sample = f"{tag}-eps{key}"
                try:
                    hist = log_binned_histogram(degrees)
                except ValueError as exc:
                    notes.append(f"degree-histogram skipped ({sample}): {exc}")
                else:
                    record("graph", write_csv(work_dir / f"degree-hist-{sample}.csv", "bin_lo,bin_hi,density",
                                              hist.bin_edges[:-1], hist.bin_edges[1:], hist.densities))
                try:
                    fit, verdict = degree_fit(degrees)
                except ValueError as exc:
                    notes.append(f"degree-fit skipped ({sample}): {exc}")
                else:
                    record("graph", write_degree_fit(work_dir / f"degree-fit-{sample}.csv",
                                                     eps, spec.params.n, fit, verdict))
                table = avg_degree_by_domain_walls(graphs)
                means, stds = zip(*table.values())
                record("graph", write_csv(work_dir / f"walls-{sample}.csv",
                                          "epsilon,walls,mean_degree,std_degree,realizations",
                                          eps, list(table), means, stds, len(graphs)))

        if "levelstats" in spec.tasks:
            ratios, excluded_notes = pooled_gap_ratios(payloads, eps)
            notes += excluded_notes
            record("levelstats", write_gap_ratio_table(work_dir / f"gap-ratios-eps{key}.csv", ratios))

        if "spectrum" in spec.tasks:
            record("spectrum", write_fidelity_table(work_dir / f"fidelity-eps{key}.csv", payloads, [eps]))

        if "walk" in spec.tasks and eps > 0.0:
            for r, p in enumerate(payloads):
                record("walk", *write_walk_tables(work_dir, f"eps{key}-r{r}", *p["walk"][key]))

    if "classical" in spec.tasks:
        record("classical", write_classical_table(work_dir / "classical.csv", spec.params))

    timings["total_s"] = round(time.perf_counter() - t_start, 3)
    manifest = RunManifest(
        version=__version__,
        run_dir=str(run_dir),
        spec=spec.to_json(),
        per_realization_seeds=[
            {"realization": r, "seed_sequence": [spec.seed, r]} for r in indices
        ],
        artifacts=artifacts,
        branch_margin_warnings=warnings,
        timings=timings,
        notes=notes,
    )
    with open(work_dir / "manifest.json", "w") as fh:
        json.dump(manifest.to_json(), fh, indent=2)
    work_dir.rename(run_dir)
    return manifest


def _claim_run_dir(out_dir: Path, seed: int) -> tuple[Path, Path]:
    """Claim run-<UTC stamp>-seed<seed>, or its first free -1, -2, ... variant.

    Returns (<name>, <name>.partial). The claim is an atomic mkdir of
    <name>.partial, kept only if no finished run holds <name>; the run's
    final rename frees the one and fills the other at once, so runs
    started in the same second never share a name.
    """
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
    base = f"run-{stamp}-seed{seed}"
    for k in count():
        run_dir = out_dir / (f"{base}-{k}" if k else base)
        work_dir = run_dir.with_name(f"{run_dir.name}.partial")
        try:
            work_dir.mkdir(parents=True, exist_ok=False)
        except FileExistsError:
            continue
        if not run_dir.exists():
            return run_dir, work_dir
        work_dir.rmdir()


def degree_fit(degrees):
    """Power-law tail fit and its lognormal comparison, as (fit, verdict).

    Raises ValueError when the sample cannot be fitted.
    """
    fit = kmin_scan(degrees)
    return fit, lognormal_lr_test(degrees, fit)


def write_degree_fit(path: Path, eps: float, n: int, fit, verdict) -> Path:
    """The one-row table of a degree_fit result."""
    return write_csv(
        path,
        "epsilon,n,beta,k_min,ks,n_tail,favored",
        eps, n, fit.beta, fit.k_min, fit.ks, fit.n_tail, verdict.favored,
    )


def write_gap_ratio_table(path: Path, ratios: np.ndarray) -> Path:
    """Gap-ratio density on GAP_HISTOGRAM_BINS bins with Poisson and COE overlays."""
    edges = np.linspace(0.0, 1.0, GAP_HISTOGRAM_BINS + 1)
    counts, _ = np.histogram(ratios, bins=edges)
    density = counts / (max(ratios.size, 1) * (edges[1] - edges[0]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    return write_csv(
        path,
        "r_lo,r_hi,density,reference_poisson,reference_coe",
        edges[:-1], edges[1:], density,
        [reference_pdf("poisson", m) for m in mids],
        [reference_pdf("coe", m) for m in mids],
    )


def write_fidelity_table(path: Path, payloads: list[dict], epsilons) -> Path:
    """Spectral fidelity per configuration and epsilon, averaged over realizations.

    Each mean runs over the realizations where the fidelity is finite
    and is NaN where it never is, which raises no RuntimeWarning.
    """
    means = []
    for eps in epsilons:
        stack = np.vstack([p["spectrum"][eps_tag(eps)] for p in payloads])
        finite = np.isfinite(stack)
        counts = finite.sum(axis=0)
        sums = np.where(finite, stack, 0.0).sum(axis=0)
        means.append(np.divide(sums, counts, out=np.full(stack.shape[1], np.nan), where=counts > 0))
    configs = means[0].size
    return write_csv(
        path,
        "config,epsilon,fidelity",
        np.tile(np.arange(configs), len(means)), np.repeat(epsilons, configs), np.concatenate(means),
    )


def write_walk_tables(out: Path, suffix: str, prs, populations) -> list[Path]:
    """Write pr-<suffix>.csv and walk-<suffix>.csv; returns both paths."""
    pr_path, walk_path = out / f"pr-{suffix}.csv", out / f"walk-{suffix}.csv"
    write_csv(pr_path, "config,pr", np.arange(len(prs)), prs)
    period, config = np.indices(populations.shape)
    write_csv(walk_path, "period,config,population", period.ravel(), config.ravel(), populations.ravel())
    return [pr_path, walk_path]


def write_classical_table(path: Path, params: SpinChainParams) -> Path:
    """Energy and fixed-point stability of every classical corner configuration."""
    n = params.n
    bits = [format(index, f"0{n}b") for index in range(2**n)]
    corners = [ClassicalConfiguration(thetas=np.array([0.0 if b == "1" else pi for b in c])) for c in bits]
    reports = [classify_fixed_point(jacobian(config, params)) for config in corners]
    return write_csv(
        path,
        "configuration,energy,min_eigenvalue,max_eigenvalue,classification",
        bits,
        [classical_energy(config, params) for config in corners],
        [report.eigenvalues.min() for report in reports],
        [report.eigenvalues.max() for report in reports],
        [report.classification for report in reports],
    )
