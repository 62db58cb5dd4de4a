"""Command-line front end for the simulation and analysis pipeline.

Every subcommand resolves its settings with the same precedence: an
explicit flag wins over the --config JSON file, which wins over the
built-in defaults; chain settings left unset take the SpinChainParams
defaults.
Validation problems exit with status 1 and a single-line diagnostic;
I/O problems exit with status 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .diagnostics import power_spectrum, walk_horizon_periods
from .ensemble import (
    DEFAULT_PERIODS,
    EnsembleSpec,
    check_size,
    degree_fit,
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
    two_period_spectrum,
)
from .netfit import poisson_fit
from .percolation_graph import clusters, export_graph, export_nodes_csv, percolation_graph
from .spin_hilbert import SpinChainParams, sample_disorder

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


_FLAGS = {
    "n": dict(type=int, help="number of sites"),
    "epsilon": dict(type=str, help="rotation error(s), comma separated"),
    "t1": dict(type=float, help="pulse duration T1"),
    "t2": dict(type=float, help="interaction duration T2"),
    "j0": dict(type=float, help="interaction scale J0"),
    "alpha": dict(type=float, help="coupling power-law exponent"),
    "disorder-w": dict(type=float, help="disorder strength W"),
    "seed": dict(type=int, help="base RNG seed"),
    "realizations": dict(type=int, help="disorder realization count"),
    "periods": dict(type=int, help="stroboscopic period count"),
    "out-dir": dict(type=str, help="output directory"),
    "format": dict(type=str, choices=("csv", "dot", "graphml"), help="graph export format"),
    "config": dict(type=str, help="JSON config file"),
}
# chain flag -> SpinChainParams field; the config file and args use the flag with "_" for "-"
_CHAIN = {"n": "n", "t1": "T1", "t2": "T2", "j0": "J0", "alpha": "alpha", "disorder-w": "W"}


def _build_parser() -> _Parser:
    parser = _Parser(prog="dtcnet", description="driven spin chains as configuration-space graphs")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    for name, (_, description, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=description, description=description)
        for flag in (*flags, "config"):
            p.add_argument(f"--{flag}", default=None, **_FLAGS[flag])
        if name == "degree-fit":
            p.add_argument("degree_csv", type=str, help="CSV with a degree column")
    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"invalid JSON config {path}: {exc}")
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
    """Chain parameters, checked against the dense-matrix limit before any handler allocates.

    Every subcommand that builds a chain reads them here, except ensemble,
    whose run_ensemble makes the same check_size call.
    """
    given = {flag: _resolve(args, config, flag.replace("-", "_"), None) for flag in _CHAIN}
    if given["n"] is None:
        raise CliError("--n is required")
    check_size(int(given["n"]))
    try:
        # only the settings given; the rest take the SpinChainParams defaults
        return SpinChainParams(**{
            _CHAIN[flag]: _FLAGS[flag]["type"](value) for flag, value in given.items() if value is not None
        })
    except ValueError as exc:
        raise CliError(str(exc))


def _out_dir(args, config: dict) -> Path:
    """The output directory, created; handlers call it once their inputs are validated."""
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
    spectrum_2T = two_period_spectrum(U, spectrum)
    heff_2T = effective_hamiltonian(spectrum_2T)
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
    for tag, solved in (("T", spectrum), ("2T", spectrum_2T)):
        if solved.schur_fallbacks:
            print(
                f"warning: {solved.schur_fallbacks} spectrum blocks at {tag} "
                "solved by Schur fallback",
                file=sys.stderr,
            )
    print(f"wrote U.npy, heff_T.npy, heff_2T.npy, heff_2T_bch.npy, quasienergies.csv in {out}")
    return 0


def _cmd_graph(args, config: dict) -> int:
    params = _params_from(args, config)
    eps = _single_epsilon(_resolve(args, config, "epsilon", None))
    params = replace(params, epsilon=eps)
    disorder = _seeded_disorder(params, args, config)
    fmt = _resolve(args, config, "format", "csv")
    if fmt not in _FLAGS["format"]["choices"]:
        raise CliError(f"unsupported format {fmt!r}; expected one of {_FLAGS['format']['choices']}")
    out = _out_dir(args, config)

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
    eps_raw = _resolve(args, config, "epsilon", None)
    eps = _single_epsilon(eps_raw) if eps_raw is not None else float("nan")
    n = int(_resolve(args, config, "n", 0))

    try:
        fit, verdict = degree_fit(degrees)
    except ValueError as exc:
        raise CliError(f"degree fit failed: {exc}")
    out = _out_dir(args, config)
    write_degree_fit(out / "degree-fit.csv", eps, n, fit, verdict)
    lam = poisson_fit(degrees)
    write_csv(out / "poisson-fit.csv", "lambda", [(format_float(lam),)])
    print(
        f"beta={fit.beta:.4f} k_min={fit.k_min} ks={fit.ks:.4f} n_tail={fit.n_tail} "
        f"favored={verdict.favored} poisson_lambda={lam:.4f}"
    )
    return 0


def _spec(args, config: dict, params, epsilons, task: str, realizations: int,
          periods=DEFAULT_PERIODS) -> EnsembleSpec:
    """One task over realizations 0..realizations-1 of --seed; raises ValueError on bad settings."""
    return EnsembleSpec(
        params=params,
        epsilons=tuple(epsilons),
        realizations=realizations,
        seed=int(_resolve(args, config, "seed", 0)),
        tasks=frozenset({task}),
        periods=periods,
    )


def _payloads(spec: EnsembleSpec) -> list[dict]:
    return [realization_outputs(spec, r) for r in range(spec.realizations)]


def _cmd_level_stats(args, config: dict) -> int:
    params = _params_from(args, config)
    epsilons = _parse_epsilons(_resolve(args, config, "epsilon", None))
    realizations = int(_resolve(args, config, "realizations", 1))
    spec = _spec(args, config, params, epsilons, "levelstats", realizations)
    out = _out_dir(args, config)

    payloads = _payloads(spec)
    for eps in epsilons:
        tag = eps_tag(eps)
        ratios = np.concatenate([p["levelstats"][tag][0] for p in payloads])
        write_gap_ratio_table(out / f"gap-ratios-eps{tag}.csv", ratios)
        if ratios.size:
            print(f"eps={eps:g}: mean gap ratio {ratios.mean():.4f} over {ratios.size} ratios")
        else:
            print(f"eps={eps:g}: no gap ratios remain")
    return 0


def _cmd_spectrum(args, config: dict) -> int:
    params = _params_from(args, config)
    epsilons = _parse_epsilons(_resolve(args, config, "epsilon", None))
    periods = int(_resolve(args, config, "periods", DEFAULT_PERIODS))
    realizations = int(_resolve(args, config, "realizations", 1))
    spec = _spec(args, config, params, epsilons, "spectrum", realizations, periods)
    out = _out_dir(args, config)

    payloads = _payloads(spec)
    # per-epsilon series and spectrum of the all-up configuration in realization 0
    for eps in epsilons:
        tag = eps_tag(eps)
        series = payloads[0]["magnetization"][tag]
        spec = power_spectrum(series, period=params.period)
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
    write_fidelity_table(out / "fidelity.csv", payloads, epsilons)
    print(f"wrote magnetization, power-spectrum, and fidelity CSVs in {out}")
    return 0


def _cmd_walk(args, config: dict) -> int:
    params = _params_from(args, config)
    eps = _single_epsilon(_resolve(args, config, "epsilon", None))
    if eps <= 0:
        raise CliError("walk requires epsilon > 0 (tunneling horizon diverges at 0)")
    params = replace(params, epsilon=eps)
    spec = _spec(args, config, params, (eps,), "walk", 1)
    out = _out_dir(args, config)

    tag = eps_tag(eps)
    (payload,) = _payloads(spec)
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
    for flag, name in _CHAIN.items():
        value = getattr(args, flag.replace("-", "_"))
        if value is not None:
            payload["params"][name] = value
    if args.epsilon is not None:
        payload["epsilons"] = list(_parse_epsilons(args.epsilon))
    for flag in ("seed", "realizations", "periods"):
        if getattr(args, flag) is not None:
            payload[flag] = getattr(args, flag)

    try:
        spec = EnsembleSpec.from_json(payload)
    except (KeyError, TypeError) as exc:
        raise CliError(f"invalid ensemble config: missing or malformed field {exc}")
    out = Path(_resolve(args, config, "out_dir", "."))
    manifest = run_ensemble(spec, out)
    print(f"run complete: {manifest.run_dir}/manifest.json")
    return 0


# subcommand -> (handler, description, the flags the handler reads); any
# other flag is a parse error, while config-file keys are never checked
_SUBCOMMANDS = {
    "simulate": (_cmd_simulate, "write the propagator, effective Hamiltonians, and quasienergies",
                 (*_CHAIN, "epsilon", "seed", "out-dir")),
    "graph": (_cmd_graph, "build and export the percolation graph",
              (*_CHAIN, "epsilon", "seed", "out-dir", "format")),
    "degree-fit": (_cmd_degree_fit, "power-law / lognormal / Poisson fits of a degree CSV",
                   ("n", "epsilon", "out-dir")),
    "level-stats": (_cmd_level_stats, "pooled gap-ratio histogram with reference overlays",
                    (*_CHAIN, "epsilon", "seed", "realizations", "out-dir")),
    "spectrum": (_cmd_spectrum, "magnetization series, power spectra, fidelity grid",
                 (*_CHAIN, "epsilon", "seed", "realizations", "periods", "out-dir")),
    "walk": (_cmd_walk, "quantum-walk populations and participation ratios",
             (*_CHAIN, "epsilon", "seed", "out-dir")),
    "classical": (_cmd_classical, "fixed-point stability sweep over corner configurations",
                  (*_CHAIN, "out-dir")),
    "ensemble": (_cmd_ensemble, "run a JSON-configured disorder ensemble",
                 (*_CHAIN, "epsilon", "seed", "realizations", "periods", "out-dir")),
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
        handler = _SUBCOMMANDS[invocation.subcommand][0]
        return handler(invocation, config)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
