"""Command-line front end for the simulation and analysis pipeline.

Every subcommand resolves its settings with the same precedence: an
explicit flag wins over the --config JSON file, which wins over the
built-in defaults (J0 = 0.06, alpha = 1.51, W = pi, T1 = T2 = 1).
Validation problems exit with status 1 and a single-line diagnostic;
I/O problems exit with status 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, replace
from math import pi
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .diagnostics import magnetization_series, power_spectrum, walk_horizon_periods
from .ensemble import (
    EnsembleSpec,
    eps_tag,
    format_float,
    realization_outputs,
    run_ensemble,
    write_classical_table,
    write_csv,
    write_degree_fit,
    write_fidelity_table,
    write_gap_ratio_table,
    write_walk_tables,
)
from .floquet_core import (
    bch_effective_2T,
    effective_hamiltonian,
    drive_unitary,
    floquet_spectrum,
    squared_floquet,
)
from .netfit import poisson_fit
from .percolation_graph import clusters, export_graph, export_nodes_csv, percolation_graph
from .spin_hilbert import Configuration, SpinChainParams, sample_disorder

__all__ = ["CliInvocation", "main"]


class CliError(Exception):
    """Validation failure; rendered as one line on stderr, exit 1."""


@dataclass(frozen=True)
class CliInvocation:
    """One parsed invocation: subcommand, flag values, optional config path.

    Flags that were not given on the command line are stored as None so
    the config-file and default fallbacks stay distinguishable.
    """

    subcommand: str
    flags: Mapping[str, Any] = field(default_factory=dict)
    config_path: str | None = None

    def __getattr__(self, name: str) -> Any:
        # handlers read flags attribute-style, mirroring argparse
        try:
            return self.flags[name]
        except KeyError:
            raise AttributeError(name) from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="number of sites")
    p.add_argument("--epsilon", type=str, default=None, help="rotation error(s), comma separated")
    p.add_argument("--t1", type=float, default=None, help="pulse duration T1")
    p.add_argument("--t2", type=float, default=None, help="interaction duration T2")
    p.add_argument("--j0", type=float, default=None, help="interaction scale J0")
    p.add_argument("--alpha", type=float, default=None, help="coupling power-law exponent")
    p.add_argument("--disorder-w", type=float, default=None, help="disorder strength W")
    p.add_argument("--seed", type=int, default=None, help="base RNG seed")
    p.add_argument("--realizations", type=int, default=None, help="disorder realization count")
    p.add_argument("--periods", type=int, default=None, help="stroboscopic period count")
    p.add_argument("--out-dir", type=str, default=None, help="output directory")
    p.add_argument("--format", type=str, default=None, choices=("csv", "dot", "graphml"),
                   help="graph export format")
    p.add_argument("--config", type=str, default=None, help="JSON config file")


def _build_parser() -> _Parser:
    parser = _Parser(prog="dtcnet", description="driven spin chains as configuration-space graphs")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    descriptions = {
        "simulate": "write the propagator, effective Hamiltonians, and quasienergies",
        "graph": "build and export the percolation graph",
        "degree-fit": "power-law / lognormal / Poisson fits of a degree CSV",
        "level-stats": "pooled gap-ratio histogram with reference overlays",
        "spectrum": "magnetization series, power spectra, fidelity grid",
        "walk": "quantum-walk populations and participation ratios",
        "classical": "fixed-point stability sweep over corner configurations",
        "ensemble": "run a JSON-configured disorder ensemble",
    }
    for name, description in descriptions.items():
        p = sub.add_parser(name, help=description, description=description)
        _add_common_flags(p)
        if name == "degree-fit":
            p.add_argument("degree_csv", type=str, help="CSV with a degree column")
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise CliError(f"config {path} must hold a JSON object")
    return payload


def _resolve(args, config: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _parse_epsilons(raw) -> tuple[float, ...]:
    if raw is None:
        raise CliError("--epsilon is required")
    if isinstance(raw, (list, tuple)):
        values = [float(v) for v in raw]
    else:
        try:
            values = [float(tok) for tok in str(raw).split(",") if tok.strip() != ""]
        except ValueError:
            raise CliError(f"cannot parse --epsilon value {raw!r}")
    if not values:
        raise CliError("--epsilon list is empty")
    if any(v < 0 for v in values):
        raise CliError("epsilon values must be >= 0")
    return tuple(values)


def _single_epsilon(raw) -> float:
    values = _parse_epsilons(raw)
    if len(values) != 1:
        raise CliError("this subcommand takes a single --epsilon value")
    return values[0]


def _params_from(args, config: dict) -> SpinChainParams:
    n = _resolve(args, config, "n", None)
    if n is None:
        raise CliError("--n is required")
    try:
        return SpinChainParams(
            n=int(n),
            J0=float(_resolve(args, config, "j0", 0.06)),
            alpha=float(_resolve(args, config, "alpha", 1.51)),
            W=float(_resolve(args, config, "disorder_w", pi)),
            T1=float(_resolve(args, config, "t1", 1.0)),
            T2=float(_resolve(args, config, "t2", 1.0)),
        )
    except ValueError as exc:
        raise CliError(str(exc))


def _out_dir(args, config: dict) -> Path:
    out = Path(_resolve(args, config, "out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seeded_disorder(params: SpinChainParams, args, config: dict):
    """Realization 0 of the --seed disorder stream."""
    return sample_disorder(params, int(_resolve(args, config, "seed", 0)), 0)


def _cmd_simulate(args, config: dict) -> int:
    params = _params_from(args, config)
    eps = _single_epsilon(_resolve(args, config, "epsilon", None))
    params = replace(params, epsilon=eps)
    disorder = _seeded_disorder(params, args, config)
    out = _out_dir(args, config)

    U = drive_unitary(params, disorder)
    spectrum = floquet_spectrum(U)
    heff_T = effective_hamiltonian(spectrum)
    heff_2T = effective_hamiltonian(floquet_spectrum(squared_floquet(U)))
    bch = bch_effective_2T(params, disorder)

    np.save(out / "U.npy", U.matrix)
    np.save(out / "heff_T.npy", heff_T.matrix)
    np.save(out / "heff_2T.npy", heff_2T.matrix)
    np.save(out / "heff_2T_bch.npy", bch.matrix)
    write_csv(
        out / "quasienergies.csv",
        "level,quasienergy",
        ((s, format_float(lam)) for s, lam in enumerate(spectrum.quasienergies)),
    )
    for warning in spectrum.branch_warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote U.npy, heff_T.npy, heff_2T.npy, heff_2T_bch.npy, quasienergies.csv in {out}")
    return 0


def _cmd_graph(args, config: dict) -> int:
    params = _params_from(args, config)
    eps = _single_epsilon(_resolve(args, config, "epsilon", None))
    params = replace(params, epsilon=eps)
    disorder = _seeded_disorder(params, args, config)
    out = _out_dir(args, config)
    fmt = _resolve(args, config, "format", "csv")

    graph = percolation_graph(
        effective_hamiltonian(floquet_spectrum(drive_unitary(params, disorder)))
    )
    tag = eps_tag(eps)
    (out / f"nodes-eps{tag}.csv").write_bytes(export_nodes_csv(graph))
    written = [f"nodes-eps{tag}.csv"]
    if fmt == "csv":
        (out / f"edges-eps{tag}.csv").write_bytes(export_graph(graph, "edge-csv"))
        written.append(f"edges-eps{tag}.csv")
    else:
        suffix = "dot" if fmt == "dot" else "graphml"
        (out / f"graph-eps{tag}.{suffix}").write_bytes(export_graph(graph, fmt))
        written.append(f"graph-eps{tag}.{suffix}")
    decomposition = clusters(graph)
    write_csv(
        out / f"clusters-eps{tag}.csv",
        "cluster,size",
        ((c, s) for c, s in enumerate(decomposition.sizes)),
    )
    written.append(f"clusters-eps{tag}.csv")
    print(f"wrote {', '.join(written)} in {out}")
    return 0


def _read_degree_column(path: Path) -> np.ndarray:
    with open(path) as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise CliError(f"{path} is empty")
    header = [c.strip().lower() for c in rows[0]]
    if "degree" in header:
        col = header.index("degree")
        body = rows[1:]
    elif len(rows[0]) == 1 and not rows[0][0].strip().lstrip("-").isdigit():
        col, body = 0, rows[1:]
    else:
        col, body = 0, rows
    try:
        return np.array([int(row[col]) for row in body])
    except (ValueError, IndexError):
        raise CliError(f"{path} has no parseable integer degree column")


def _cmd_degree_fit(args, config: dict) -> int:
    degrees = _read_degree_column(Path(args.degree_csv))
    out = _out_dir(args, config)
    eps_raw = _resolve(args, config, "epsilon", None)
    eps = _single_epsilon(eps_raw) if eps_raw is not None else float("nan")
    n = _resolve(args, config, "n", 0)

    try:
        fit, verdict = write_degree_fit(out / "degree-fit.csv", eps, int(n), degrees)
    except ValueError as exc:
        raise CliError(f"degree fit failed: {exc}")
    lam = poisson_fit(degrees)
    write_csv(out / "poisson-fit.csv", "lambda", [(format_float(lam),)])
    print(
        f"beta={fit.beta:.4f} k_min={fit.k_min} ks={fit.ks:.4f} n_tail={fit.n_tail} "
        f"favored={verdict.favored} poisson_lambda={lam:.4f}"
    )
    return 0


def _payloads(args, config: dict, params, epsilons, task: str, realizations: int, periods=64):
    """realization_outputs of one task for realizations 0..realizations-1 of --seed."""
    spec = EnsembleSpec(
        params=params,
        epsilons=tuple(epsilons),
        realizations=realizations,
        seed=int(_resolve(args, config, "seed", 0)),
        tasks=frozenset({task}),
        periods=periods,
    )
    return [realization_outputs(spec, r) for r in range(realizations)]


def _cmd_level_stats(args, config: dict) -> int:
    params = _params_from(args, config)
    epsilons = _parse_epsilons(_resolve(args, config, "epsilon", None))
    out = _out_dir(args, config)

    realizations = int(_resolve(args, config, "realizations", 1))
    payloads = _payloads(args, config, params, epsilons, "levelstats", realizations)
    for eps in epsilons:
        tag = eps_tag(eps)
        ratios = np.concatenate([p["levelstats"][tag][0] for p in payloads])
        write_gap_ratio_table(out / f"gap-ratios-eps{tag}.csv", ratios)
        print(f"eps={eps:g}: mean gap ratio {ratios.mean():.4f} over {ratios.size} ratios")
    return 0


def _cmd_spectrum(args, config: dict) -> int:
    params = _params_from(args, config)
    epsilons = _parse_epsilons(_resolve(args, config, "epsilon", None))
    periods = int(_resolve(args, config, "periods", 64))
    out = _out_dir(args, config)

    # per-epsilon series and spectrum for the all-up initial configuration
    initial = Configuration(index=2**params.n - 1, n=params.n)
    disorder0 = _seeded_disorder(params, args, config)
    for eps in epsilons:
        swept = replace(params, epsilon=eps)
        U = drive_unitary(swept, disorder0)
        series = magnetization_series(U, initial, periods)
        spec = power_spectrum(series, period=swept.period)
        tag = eps_tag(eps)
        write_csv(
            out / f"magnetization-eps{tag}.csv",
            "period,magnetization",
            ((m, format_float(v)) for m, v in enumerate(series)),
        )
        write_csv(
            out / f"power-spectrum-eps{tag}.csv",
            "k,omega,V",
            (
                (k, format_float(spec.omega(k)), format_float(v))
                for k, v in enumerate(spec.V)
            ),
        )

    realizations = int(_resolve(args, config, "realizations", 1))
    payloads = _payloads(args, config, params, epsilons, "spectrum", realizations, periods)
    write_fidelity_table(out / "fidelity.csv", payloads, epsilons)
    print(f"wrote magnetization, power-spectrum, and fidelity CSVs in {out}")
    return 0


def _cmd_walk(args, config: dict) -> int:
    params = _params_from(args, config)
    eps = _single_epsilon(_resolve(args, config, "epsilon", None))
    if eps <= 0:
        raise CliError("walk requires epsilon > 0 (tunneling horizon diverges at 0)")
    params = replace(params, epsilon=eps)
    out = _out_dir(args, config)

    tag = eps_tag(eps)
    (payload,) = _payloads(args, config, params, (eps,), "walk", 1)
    write_walk_tables(out, f"eps{tag}", *payload["walk"][tag])
    horizon = walk_horizon_periods(params)
    print(f"wrote walk-eps{tag}.csv and pr-eps{tag}.csv in {out} (horizon {horizon} periods)")
    return 0


def _cmd_classical(args, config: dict) -> int:
    params = _params_from(args, config)
    out = _out_dir(args, config)
    write_classical_table(out / "classical.csv", params)
    print(f"wrote classical.csv in {out} ({2**params.n} configurations)")
    return 0


def _cmd_ensemble(args, config: dict) -> int:
    if not config:
        raise CliError("ensemble requires --config with an EnsembleSpec JSON object")
    payload = dict(config)
    payload.setdefault("params", {})
    overrides = {
        "n": args.n, "j0": args.j0, "alpha": args.alpha,
        "disorder_w": getattr(args, "disorder_w", None), "t1": args.t1, "t2": args.t2,
    }
    key_map = {"n": "n", "j0": "J0", "alpha": "alpha", "disorder_w": "W", "t1": "T1", "t2": "T2"}
    for flag, value in overrides.items():
        if value is not None:
            payload["params"][key_map[flag]] = value
    if args.epsilon is not None:
        payload["epsilons"] = list(_parse_epsilons(args.epsilon))
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.realizations is not None:
        payload["realizations"] = args.realizations
    if args.periods is not None:
        payload["periods"] = args.periods

    try:
        spec = EnsembleSpec.from_json(payload)
    except (KeyError, TypeError) as exc:
        raise CliError(f"invalid ensemble config: missing or malformed field {exc}")
    out = Path(_resolve(args, config, "out_dir", "."))
    manifest = run_ensemble(spec, out)
    print(f"run complete: {manifest.run_dir}/manifest.json")
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "graph": _cmd_graph,
    "degree-fit": _cmd_degree_fit,
    "level-stats": _cmd_level_stats,
    "spectrum": _cmd_spectrum,
    "walk": _cmd_walk,
    "classical": _cmd_classical,
    "ensemble": _cmd_ensemble,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError("a subcommand is required; see --help")
        flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        invocation = CliInvocation(
            subcommand=args.command, flags=flags, config_path=args.config
        )
        config = _load_config(invocation.config_path)
        return _HANDLERS[invocation.subcommand](invocation, config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON config: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
