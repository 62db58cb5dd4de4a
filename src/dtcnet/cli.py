"""Command-line front end for the simulation and analysis pipeline.

main resolves each of a subcommand's flags once: an explicit flag wins
over the --config JSON file, which wins over _DEFAULTS; chain settings
left unset take the SpinChainParams defaults. An ensemble config is an
EnsembleSpec, which only the flags given override. Each value passes
through unconverted, and the object that owns a setting checks it, once:
each epsilon value is checked by its chain's SpinChainParams, and the
chain size by check_size, in EnsembleSpec or _params_from.
Validation problems exit with status 1 and a single-line diagnostic;
I/O problems exit with status 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .diagnostics import power_spectrum, walk_horizon_periods
from .ensemble import (
    DEFAULT_PERIODS,
    EnsembleSpec,
    Stages,
    check_size,
    degree_fit,
    eps_tag,
    pooled_gap_ratios,
    realization_outputs,
    run_ensemble,
    write_classical_table,
    write_csv,
    write_degree_fit,
    write_fidelity_table,
    write_gap_ratio_table,
    write_walk_tables,
)
from .floquet_core import bch_effective_2T, effective_hamiltonian
from .netfit import poisson_fit
from .percolation_graph import clusters, export_graph, export_nodes_csv
from .spin_hilbert import SpinChainParams, sample_disorder

__all__ = ["main"]


class CliError(Exception):
    """Validation failure; rendered as one line on stderr, exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _epsilon_list(raw: str) -> list[float]:
    """The --epsilon flag's comma-separated values."""
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {raw!r}")


_FLAGS = {
    "n": dict(type=int, help="number of sites"),
    "epsilon": dict(type=_epsilon_list, help="rotation error(s), comma separated"),
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
# the value of a setting that neither the command line nor the config file gives
_DEFAULTS = {"seed": 0, "realizations": 1, "periods": DEFAULT_PERIODS, "out_dir": ".", "format": "csv"}


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


def _resolve_flags(args: argparse.Namespace, config: dict) -> None:
    """Fill each flag left unset in args: the config key, else _DEFAULTS, else None.

    An ensemble config is an EnsembleSpec that only the flags given
    override, so there the output directory alone resolves this way.
    """
    for key in ("out_dir",) if args.command == "ensemble" else vars(args):
        if key not in ("command", "config") and getattr(args, key) is None:
            setattr(args, key, config.get(key, _DEFAULTS.get(key)))
    if not isinstance(args.out_dir, str):
        raise CliError(f"out_dir must be a string, got {args.out_dir!r}")


def _epsilons(args) -> tuple[float, ...]:
    """The epsilon values, the flag's list or a config value or list; each chain checks its own."""
    if args.epsilon is None:
        raise CliError("--epsilon is required")
    return tuple(args.epsilon) if isinstance(args.epsilon, list) else (args.epsilon,)


def _epsilon(args) -> float:
    """The one epsilon value of a subcommand that takes a single value."""
    values = _epsilons(args)
    if len(values) != 1:
        raise CliError("this subcommand takes a single epsilon value")
    return values[0]


def _chain_given(args) -> dict:
    """The chain settings given, by SpinChainParams field; the rest take its defaults."""
    values = {name: getattr(args, flag.replace("-", "_")) for flag, name in _CHAIN.items()}
    return {name: value for name, value in values.items() if value is not None}


def _params_from(args, single: bool = False) -> SpinChainParams:
    """Chain parameters, checked against the dense-matrix limit before any handler allocates.

    With single, the chain is at the subcommand's one --epsilon value.
    Every subcommand that builds a chain reads them here, except ensemble,
    whose EnsembleSpec makes the same check_size call.
    """
    if args.n is None:
        raise CliError("--n is required")
    params = SpinChainParams(**_chain_given(args))
    check_size(params.n)
    return replace(params, epsilon=_epsilon(args)) if single else params


def _report(payload: dict) -> None:
    """Print a payload's warning records and notes on stderr, one line per warning and per note."""
    for record in payload["warnings"]:
        for warning in record["warnings"]:
            print(f"warning: eps={record['epsilon']:g} realization {record['realization']}: {warning}",
                  file=sys.stderr)
    for note in payload["notes"]:
        print(f"warning: {note}", file=sys.stderr)


def _outputs(args, task: str = "", params=None, epsilons=()) -> tuple[Path, list[dict]]:
    """The output directory, created, and for a task each realization's payload, reported.

    A task runs over realizations 0..realizations-1 of --seed; its spec is
    checked (ValueError on bad settings) before the directory is created.
    Handlers call this once their other inputs are validated.
    """
    spec = EnsembleSpec(
        params=params, epsilons=epsilons, seed=args.seed, tasks=frozenset({task}),
        # walk declares neither: it runs realization 0 up to its horizon
        realizations=getattr(args, "realizations", 1), periods=getattr(args, "periods", DEFAULT_PERIODS),
    ) if task else None
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payloads = [realization_outputs(spec, r) for r in range(spec.realizations)] if task else []
    for payload in payloads:
        _report(payload)
    return out, payloads


def _cmd_simulate(args, config: dict) -> int:
    params = _params_from(args, single=True)
    stages = Stages(params, sample_disorder(params, args.seed, 0))
    out, _ = _outputs(args)

    np.save(out / "U.npy", stages.U.matrix)
    np.save(out / "heff_T.npy", effective_hamiltonian(stages.spectrum).matrix)
    np.save(out / "heff_2T.npy", effective_hamiltonian(stages.spectrum_2T).matrix)
    np.save(out / "heff_2T_bch.npy", bch_effective_2T(params, stages.disorder).matrix)
    levels = stages.spectrum.quasienergies
    write_csv(out / "quasienergies.csv", "level,quasienergy", np.arange(levels.size), levels)
    _report(stages.health)
    print(f"wrote U.npy, heff_T.npy, heff_2T.npy, heff_2T_bch.npy, quasienergies.csv in {out}")
    return 0


def _cmd_graph(args, config: dict) -> int:
    params = _params_from(args, single=True)
    stages = Stages(params, sample_disorder(params, args.seed, 0))
    fmt = args.format
    if fmt not in _FLAGS["format"]["choices"]:
        raise CliError(f"unsupported format {fmt!r}; expected one of {_FLAGS['format']['choices']}")
    out, _ = _outputs(args)

    graph = stages.graph(stages.spectrum)
    _report(stages.health)
    tag = eps_tag(params.epsilon)
    edges = f"edges-eps{tag}.csv" if fmt == "csv" else f"graph-eps{tag}.{fmt}"
    (out / f"nodes-eps{tag}.csv").write_bytes(export_nodes_csv(graph))
    (out / edges).write_bytes(export_graph(graph, "edge-csv" if fmt == "csv" else fmt))
    sizes = clusters(graph).sizes
    write_csv(out / f"clusters-eps{tag}.csv", "cluster,size", np.arange(len(sizes)), sizes)
    print(f"wrote nodes-eps{tag}.csv, {edges}, clusters-eps{tag}.csv in {out}")
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
    # the epsilon and n columns of the fit row: NaN and 0 when not given, else a chain's own values
    eps = float("nan") if args.epsilon is None else SpinChainParams(n=2, epsilon=_epsilon(args)).epsilon
    n = 0 if args.n is None else SpinChainParams(n=args.n).n

    try:
        fit, verdict = degree_fit(degrees)
    except ValueError as exc:
        raise CliError(f"degree fit failed: {exc}")
    out, _ = _outputs(args)
    write_degree_fit(out / "degree-fit.csv", eps, n, fit, verdict)
    lam = poisson_fit(degrees)
    write_csv(out / "poisson-fit.csv", "lambda", lam)
    print(
        f"beta={fit.beta:.4f} k_min={fit.k_min} ks={fit.ks:.4f} n_tail={fit.n_tail} "
        f"favored={verdict.favored} poisson_lambda={lam:.4f}"
    )
    return 0


def _cmd_level_stats(args, config: dict) -> int:
    params = _params_from(args)
    epsilons = _epsilons(args)
    out, payloads = _outputs(args, "levelstats", params, epsilons)
    for eps in epsilons:
        tag = eps_tag(eps)
        ratios, notes = pooled_gap_ratios(payloads, eps)
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
        write_gap_ratio_table(out / f"gap-ratios-eps{tag}.csv", ratios)
        if ratios.size:
            print(f"eps={eps:g}: mean gap ratio {ratios.mean():.4f} over {ratios.size} ratios")
        else:
            print(f"eps={eps:g}: no gap ratios remain")
    return 0


def _cmd_spectrum(args, config: dict) -> int:
    params = _params_from(args)
    epsilons = _epsilons(args)
    out, payloads = _outputs(args, "spectrum", params, epsilons)
    # per-epsilon series and spectrum of the all-up configuration in realization 0
    for eps in epsilons:
        tag = eps_tag(eps)
        series = payloads[0]["magnetization"][tag]
        power = power_spectrum(series, period=params.period)
        write_csv(out / f"magnetization-eps{tag}.csv", "period,magnetization", np.arange(series.size), series)
        k = np.arange(power.V.size)
        write_csv(out / f"power-spectrum-eps{tag}.csv", "k,omega,V", k, power.omega(k), power.V)
    write_fidelity_table(out / "fidelity.csv", payloads, epsilons)
    print(f"wrote magnetization, power-spectrum, and fidelity CSVs in {out}")
    return 0


def _cmd_walk(args, config: dict) -> int:
    params = _params_from(args, single=True)
    horizon = walk_horizon_periods(params)  # refuses epsilon = 0
    out, (payload,) = _outputs(args, "walk", params, (params.epsilon,))
    tag = eps_tag(params.epsilon)
    write_walk_tables(out, f"eps{tag}", *payload["walk"][tag])
    print(f"wrote walk-eps{tag}.csv and pr-eps{tag}.csv in {out} (horizon {horizon} periods)")
    return 0


def _cmd_classical(args, config: dict) -> int:
    params = _params_from(args)
    out, _ = _outputs(args)
    write_classical_table(out / "classical.csv", params)
    print(f"wrote classical.csv in {out} ({2**params.n} configurations)")
    return 0


def _cmd_ensemble(args, config: dict) -> int:
    if not config:
        raise CliError("ensemble requires --config with an EnsembleSpec JSON object")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise CliError("invalid ensemble config: malformed field 'params' (must be a JSON object)")
    payload = {**config, "params": {**params, **_chain_given(args)}}
    if args.epsilon is not None:
        payload["epsilons"] = list(_epsilons(args))
    given = {key: getattr(args, key) for key in ("seed", "realizations", "periods")}
    payload.update({key: value for key, value in given.items() if value is not None})

    try:
        spec = EnsembleSpec.from_json(payload)
    except (KeyError, TypeError) as exc:
        raise CliError(f"invalid ensemble config: missing or malformed field {exc}")
    manifest = run_ensemble(spec, args.out_dir)
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
        config = _load_config(args.config)
        _resolve_flags(args, config)
        return _SUBCOMMANDS[args.command][0](args, config)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
