"""End-to-end tests for the command-line front end.

All subcommand behavior is driven through main(argv) in process so exit
statuses and emitted files can be asserted directly; the console-script
tests run the `dtcnet` entry point declared in pyproject.toml in a fresh
interpreter, the way an installed wrapper would, to cover the packaging
contract without installing the package.
"""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import dtcnet
import dtcnet.ensemble
from dtcnet import CliInvocation
from dtcnet.cli import main
from dtcnet.diagnostics import magnetization_series, reference_pdf, walk_horizon_periods
from dtcnet.semiclassical import ClassicalConfiguration, classical_energy
from dtcnet.spin_hilbert import Configuration, SpinChainParams, sample_disorder
from invariants import sample_discrete_powerlaw


def _read_csv(path):
    with open(path) as fh:
        rows = [row for row in csv.reader(fh) if row]
    return rows[0], rows[1:]


def _column(header, body, name):
    idx = header.index(name)
    return [row[idx] for row in body]


class TestCliInvocation:
    def test_flags_read_attribute_style(self):
        inv = CliInvocation(subcommand="graph", flags={"n": 4, "seed": None})
        assert inv.subcommand == "graph"
        assert inv.n == 4
        assert inv.seed is None
        assert inv.config_path is None

    def test_missing_flag_raises_attribute_error(self):
        inv = CliInvocation(subcommand="graph", flags={"n": 4})
        with pytest.raises(AttributeError):
            inv.no_such_flag
        # getattr fallback is what the resolver relies on
        assert getattr(inv, "no_such_flag", "fallback") == "fallback"

    def test_frozen(self):
        inv = CliInvocation(subcommand="walk", flags={})
        with pytest.raises(dataclasses.FrozenInstanceError):
            inv.subcommand = "graph"


class TestDispatch:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["no-such-command"]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err  # single-line diagnostic

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["graph", "--n", "3", "--epsilon", "0", "--bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err


class TestValidation:
    """Bad values exit 1 with a one-line diagnostic."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--epsilon", "0"],  # --n required
            ["graph", "--n", "4"],  # --epsilon required
            ["graph", "--n", "4", "--epsilon", "0.01,0.02"],  # single-eps command
            ["graph", "--n", "4", "--epsilon", "abc"],
            ["graph", "--n", "4", "--epsilon", "-0.5"],
            ["graph", "--n", "1", "--epsilon", "0"],  # chain needs >= 2 sites
            ["graph", "--n", "4", "--epsilon", "0", "--format", "gexf"],
            ["walk", "--n", "4", "--epsilon", "0"],  # horizon diverges
            ["level-stats", "--n", "4", "--epsilon", "0.01", "--realizations", "0"],
            ["level-stats", "--n", "4", "--epsilon", "0.1,0.1"],  # colliding output tags
            ["spectrum", "--n", "4", "--epsilon", "0.01200001,0.01200002"],
            ["ensemble"],  # --config required
            ["walk", "--n", "4", "--epsilon", "0.1", "--realizations", "5"],  # one realization
            ["walk", "--n", "4", "--epsilon", "0.1", "--periods", "3"],  # horizon sets the length
            # each subcommand accepts only the flags it reads
            ["graph", "--n", "4", "--epsilon", "0.1", "--periods", "9"],
            ["graph", "--n", "4", "--epsilon", "0.1", "--realizations", "3"],
            ["classical", "--n", "3", "--epsilon", "0.1"],
            ["simulate", "--n", "3", "--epsilon", "0.1", "--format", "dot"],
            ["level-stats", "--n", "3", "--epsilon", "0.1", "--periods", "4"],
        ],
    )
    def test_exits_1(self, argv, capsys, tmp_path):
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err
        assert not out.exists()  # a rejected run creates no output directory

    def test_config_format_rejected_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "gexf"}))
        out = tmp_path / "out"
        argv = ["graph", "--n", "4", "--epsilon", "0.1", "--config", str(cfg), "--out-dir", str(out)]
        assert main(argv) == 1
        assert "unsupported format 'gexf'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_invalid_json_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["graph", "--n", "4", "--epsilon", "0", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid JSON config {cfg}: ")
        assert "\n" not in err.strip()

    def test_config_not_an_object_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["graph", "--n", "4", "--epsilon", "0", "--config", str(cfg)]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_ensemble_config_missing_tasks_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"n": 3}, "epsilons": [0.0]}))
        assert main(["ensemble", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestSizeLimit:
    """Every subcommand that builds a chain refuses n > MAX_SITES before allocating."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--epsilon", "0.1"],
            ["graph", "--epsilon", "0.1"],
            ["level-stats", "--epsilon", "0.1"],
            ["spectrum", "--epsilon", "0.1"],
            ["walk", "--epsilon", "0.1"],
            ["classical"],
            ["ensemble"],
        ],
    )
    def test_exits_1_without_building(self, argv, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a dense build was started")

        for module in (dtcnet.cli, dtcnet.ensemble):
            monkeypatch.setattr(module, "drive_unitary", forbidden)
            monkeypatch.setattr(module, "write_classical_table", forbidden)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"params": {"n": 4}, "epsilons": [0.1], "realizations": 1, "seed": 0, "tasks": list(dtcnet.TASKS)}
        ))
        n = str(dtcnet.MAX_SITES + 1)
        argv = argv + ["--n", n, "--config", str(cfg), "--out-dir", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: n = {n} exceeds the dense-matrix limit")
        assert "\n" not in err

    def test_limit_is_the_largest_allowed_size(self):
        dtcnet.ensemble.check_size(dtcnet.MAX_SITES)
        with pytest.raises(ValueError, match="dense-matrix limit"):
            dtcnet.ensemble.check_size(dtcnet.MAX_SITES + 1)


class TestIoFailures:
    """I/O problems exit 2."""

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["graph", "--n", "3", "--epsilon", "0", "--config", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_dir_collides_with_file_exits_2(self, tmp_path, capsys):
        blocked = tmp_path / "blocked"
        blocked.write_text("occupied")
        assert main(["classical", "--n", "2", "--out-dir", str(blocked)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_degree_fit_missing_input_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "degrees.csv"
        assert main(["degree-fit", str(missing), "--out-dir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestGraphCommand:
    def test_zero_error_nodes_all_degree_one(self, tmp_path):
        # n=8 at epsilon 0: every configuration pairs with its mirror
        assert main(
            ["graph", "--n", "8", "--epsilon", "0", "--seed", "7",
             "--out-dir", str(tmp_path)]
        ) == 0
        header, body = _read_csv(tmp_path / "nodes-eps0.csv")
        assert header == ["id", "label", "domain_walls", "degree"]
        assert len(body) == 256
        assert all(int(d) == 1 for d in _column(header, body, "degree"))

        eh, ebody = _read_csv(tmp_path / "edges-eps0.csv")
        assert eh == ["src", "dst"]
        assert len(ebody) == 128
        assert all(int(a) + int(b) == 255 for a, b in ebody)

        ch, cbody = _read_csv(tmp_path / "clusters-eps0.csv")
        assert ch == ["cluster", "size"]
        assert [int(s) for _, s in cbody] == [2] * 128

    def test_dot_and_graphml_formats(self, tmp_path):
        base = ["graph", "--n", "3", "--epsilon", "0.1", "--seed", "5"]
        for fmt, suffix in (("dot", "dot"), ("graphml", "graphml")):
            out = tmp_path / fmt
            assert main(base + ["--format", fmt, "--out-dir", str(out)]) == 0
            payload = (out / f"graph-eps0p1.{suffix}").read_text()
            if fmt == "dot":
                assert payload.startswith("graph")
                assert payload.count("[label=") == 8
            else:
                import xml.etree.ElementTree as ET

                root = ET.fromstring(payload)
                assert root.tag.endswith("graphml")
            assert (out / "nodes-eps0p1.csv").exists()
            assert not (out / "edges-eps0p1.csv").exists()

    def test_cluster_sizes_partition_all_nodes(self, tmp_path):
        assert main(
            ["graph", "--n", "5", "--epsilon", "0.05", "--seed", "2",
             "--out-dir", str(tmp_path)]
        ) == 0
        _, cbody = _read_csv(tmp_path / "clusters-eps0p05.csv")
        assert sum(int(s) for _, s in cbody) == 32


class TestSimulateCommand:
    def test_writes_propagator_and_effective_hamiltonians(self, tmp_path):
        assert main(
            ["simulate", "--n", "4", "--epsilon", "0.02", "--seed", "3",
             "--out-dir", str(tmp_path)]
        ) == 0
        U = np.load(tmp_path / "U.npy")
        assert U.shape == (16, 16)
        assert np.abs(U @ U.conj().T - np.eye(16)).max() < 1e-12

        heff = np.load(tmp_path / "heff_T.npy")
        assert np.abs(heff - heff.conj().T).max() < 1e-10
        assert np.abs(expm(-1j * heff * 2.0) - U).max() < 1e-8

        for name in ("heff_2T.npy", "heff_2T_bch.npy"):
            H = np.load(tmp_path / name)
            assert np.abs(H - H.conj().T).max() < 1e-10

        header, body = _read_csv(tmp_path / "quasienergies.csv")
        assert header == ["level", "quasienergy"]
        assert len(body) == 16
        lams = np.array([float(v) for _, v in body])
        assert np.all(np.abs(lams) <= np.pi / 2.0 + 1e-12)  # window for T = 2

    def test_schur_fallback_reported_on_stderr(self, tmp_path, capsys, skewed_eigh):
        assert main(
            ["simulate", "--n", "4", "--epsilon", "0.02", "--out-dir", str(tmp_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "warning: 1 spectrum blocks at T solved by Schur fallback" in err
        assert "warning: 1 spectrum blocks at 2T solved by Schur fallback" in err


class TestLevelStatsCommand:
    def test_histogram_with_reference_overlays(self, tmp_path):
        # pooled-histogram regime: 50 realizations at epsilon = 0.01
        assert main(
            ["level-stats", "--n", "8", "--epsilon", "0.01",
             "--realizations", "50", "--seed", "1", "--out-dir", str(tmp_path)]
        ) == 0
        header, body = _read_csv(tmp_path / "gap-ratios-eps0p01.csv")
        assert header == ["r_lo", "r_hi", "density", "reference_poisson", "reference_coe"]
        assert len(body) == 20
        lo = np.array([float(r[0]) for r in body])
        hi = np.array([float(r[1]) for r in body])
        density = np.array([float(r[2]) for r in body])
        assert abs(np.sum(density * (hi - lo)) - 1.0) < 1e-9
        mids = 0.5 * (lo + hi)
        # CSV cells carry 12 significant digits, hence the loose pin
        for col, name in ((3, "poisson"), (4, "coe")):
            ref = np.array([float(r[col]) for r in body])
            expected = np.array([reference_pdf(name, m) for m in mids])
            assert np.abs(ref - expected).max() < 1e-10

    def test_multiple_epsilons_write_separate_files(self, tmp_path):
        assert main(
            ["level-stats", "--n", "3", "--epsilon", "0.01,0.1",
             "--realizations", "2", "--seed", "4", "--out-dir", str(tmp_path)]
        ) == 0
        assert (tmp_path / "gap-ratios-eps0p01.csv").exists()
        assert (tmp_path / "gap-ratios-eps0p1.csv").exists()

    def test_empty_sample_reports_no_ratios(self, tmp_path, capsys):
        # uncoupled, field-free and unrotated: every level is degenerate,
        # so each gap ratio is excluded and no mean can be taken
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(
                ["level-stats", "--n", "3", "--epsilon", "0", "--disorder-w", "0", "--j0", "0",
                 "--out-dir", str(tmp_path)]
            ) == 0
        assert capsys.readouterr().out == "eps=0: no gap ratios remain\n"
        _, body = _read_csv(tmp_path / "gap-ratios-eps0.csv")
        assert all(float(row[2]) == 0.0 for row in body)


class TestSpectrumCommand:
    def test_series_spectrum_and_fidelity_grid(self, tmp_path):
        assert main(
            ["spectrum", "--n", "4", "--epsilon", "0,0.08", "--periods", "8",
             "--realizations", "2", "--seed", "5", "--out-dir", str(tmp_path)]
        ) == 0
        header, body = _read_csv(tmp_path / "magnetization-eps0.csv")
        assert header == ["period", "magnetization"]
        assert len(body) == 9  # m = 0..8
        series = np.array([float(v) for _, v in body])
        assert np.abs(series - [(-1.0) ** m for m in range(9)]).max() < 1e-10

        ph, pbody = _read_csv(tmp_path / "power-spectrum-eps0.csv")
        assert ph == ["k", "omega", "V"]
        assert len(pbody) == 8
        V = np.array([float(r[2]) for r in pbody])
        assert V[4] > 0.999  # subharmonic line at k = N/2
        assert V.sum() < 1.0 + 1e-9

        for tag in ("0", "0p08"):
            assert (tmp_path / f"magnetization-eps{tag}.csv").exists()
            assert (tmp_path / f"power-spectrum-eps{tag}.csv").exists()

        fh, fbody = _read_csv(tmp_path / "fidelity.csv")
        assert fh == ["config", "epsilon", "fidelity"]
        assert len(fbody) == 2 * 16
        for _, _, value in fbody:
            f = float(value)
            assert math.isnan(f) or 0.0 <= f <= 1.0


    def test_one_build_per_epsilon_and_realization(self, tmp_path, monkeypatch):
        # the all-up series is read from realization 0's basis propagation,
        # not from a second build of its propagator
        builds = []
        original = dtcnet.ensemble.drive_unitary

        def counted(params, disorder):
            builds.append((params.epsilon, tuple(disorder.fields)))
            return original(params, disorder)

        for module in (dtcnet.cli, dtcnet.ensemble):
            monkeypatch.setattr(module, "drive_unitary", counted)
        assert main(
            ["spectrum", "--n", "4", "--epsilon", "0,0.012", "--periods", "8",
             "--realizations", "2", "--seed", "5", "--out-dir", str(tmp_path)]
        ) == 0
        assert len(builds) == 4 and len(set(builds)) == 4
        params = SpinChainParams(n=4, epsilon=0.012)
        U = original(params, sample_disorder(params, 5, 0))
        expected = magnetization_series(U, Configuration(index=15, n=4), 8)
        _, body = _read_csv(tmp_path / "magnetization-eps0p012.csv")
        assert np.abs(np.array([float(v) for _, v in body]) - expected).max() < 1e-11


class TestWalkCommand:
    def test_populations_and_pr_files(self, tmp_path):
        params = SpinChainParams(n=4, epsilon=0.1)
        horizon = walk_horizon_periods(params)
        assert main(
            ["walk", "--n", "4", "--epsilon", "0.1", "--seed", "2",
             "--out-dir", str(tmp_path)]
        ) == 0
        header, body = _read_csv(tmp_path / "walk-eps0p1.csv")
        assert header == ["period", "config", "population"]
        assert len(body) == (horizon + 1) * 16
        totals = {}
        for period, config, population in body:
            totals[int(period)] = totals.get(int(period), 0.0) + float(population)
        assert max(totals) == horizon
        assert all(abs(t - 1.0) < 1e-9 for t in totals.values())
        start = {int(c): float(p) for m, c, p in body if int(m) == 0}
        assert start[15] == pytest.approx(1.0)  # walk starts at the all-up config

        ph, pbody = _read_csv(tmp_path / "pr-eps0p1.csv")
        assert ph == ["config", "pr"]
        assert len(pbody) == 16
        assert all(float(v) >= 1.0 - 1e-12 for _, v in pbody)

    def test_ensemble_config_keys_accepted(self, tmp_path):
        # one JSON file serves ensemble and walk; only the flags are refused
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "epsilon": 0.1, "realizations": 5, "periods": 3}))
        assert main(["walk", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        horizon = walk_horizon_periods(SpinChainParams(n=4, epsilon=0.1))
        _, body = _read_csv(tmp_path / "walk-eps0p1.csv")
        assert len(body) == (horizon + 1) * 16


class TestClassicalCommand:
    def test_sweeps_all_corner_configurations(self, tmp_path):
        assert main(["classical", "--n", "3", "--out-dir", str(tmp_path)]) == 0
        header, body = _read_csv(tmp_path / "classical.csv")
        assert header == [
            "configuration", "energy", "min_eigenvalue", "max_eigenvalue",
            "classification",
        ]
        assert len(body) == 8
        labels = _column(header, body, "configuration")
        assert sorted(labels) == sorted(format(i, "03b") for i in range(8))
        valid = {"stable", "unstable_saddle", "marginal"}
        assert set(_column(header, body, "classification")) <= valid
        energy = {row[0]: float(row[1]) for row in body}
        for label in labels:
            flipped = label.translate(str.maketrans("01", "10"))
            assert energy[label] == pytest.approx(energy[flipped], abs=1e-12)
        for row in body:
            assert float(row[2]) <= float(row[3])

    def test_energy_matches_library_value(self, tmp_path):
        assert main(["classical", "--n", "3", "--out-dir", str(tmp_path)]) == 0
        _, body = _read_csv(tmp_path / "classical.csv")
        params = SpinChainParams(n=3)
        energy = {row[0]: float(row[1]) for row in body}
        # label bit 1 = up (theta 0), bit 0 = down (theta pi)
        for label in ("111", "101"):
            config = ClassicalConfiguration(
                thetas=[0.0 if c == "1" else np.pi for c in label]
            )
            assert energy[label] == pytest.approx(
                classical_energy(config, params), abs=1e-12
            )


class TestEnsembleCommand:
    def test_runs_from_config_and_honors_flag_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "params": {"n": 3},
            "epsilons": [0.0],
            "realizations": 1,
            "seed": 3,
            "tasks": ["classical"],
            "out_dir": str(tmp_path / "runs"),
        }))
        assert main(["ensemble", "--config", str(cfg), "--epsilon", "0.05"]) == 0
        manifests = list((tmp_path / "runs").glob("run-*-seed3/manifest.json"))
        assert len(manifests) == 1
        payload = json.loads(manifests[0].read_text())
        assert payload["spec"]["epsilons"] == [0.05]  # flag overrode the config
        assert payload["spec"]["params"]["n"] == 3


class TestDegreeFitCommand:
    def _write_degrees(self, path, degrees, header=True):
        with open(path, "w") as fh:
            if header:
                fh.write("degree\n")
            fh.write("\n".join(str(int(k)) for k in degrees) + "\n")

    def test_powerlaw_sample_favored(self, tmp_path):
        rng = np.random.default_rng(1)
        degrees = sample_discrete_powerlaw(2.5, 5, 10000, rng)
        src = tmp_path / "degrees.csv"
        self._write_degrees(src, degrees)
        assert main(["degree-fit", str(src), "--out-dir", str(tmp_path)]) == 0

        header, body = _read_csv(tmp_path / "degree-fit.csv")
        assert header == ["epsilon", "n", "beta", "k_min", "ks", "n_tail", "favored"]
        assert len(body) == 1
        row = dict(zip(header, body[0]))
        assert row["favored"] == "powerlaw"
        assert 2.3 < float(row["beta"]) < 2.7
        assert 4 <= int(row["k_min"]) <= 6
        assert math.isnan(float(row["epsilon"]))  # not supplied on the command line

        ph, pbody = _read_csv(tmp_path / "poisson-fit.csv")
        assert ph == ["lambda"]
        assert float(pbody[0][0]) > 0

    def test_headerless_single_column_accepted(self, tmp_path):
        rng = np.random.default_rng(1)
        degrees = sample_discrete_powerlaw(2.5, 5, 5000, rng)
        src = tmp_path / "degrees.csv"
        self._write_degrees(src, degrees, header=False)
        assert main(["degree-fit", str(src), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "degree-fit.csv").exists()

    def test_unparseable_column_exits_1(self, tmp_path, capsys):
        src = tmp_path / "degrees.csv"
        src.write_text("k\nfoo\nbar\n")
        assert main(["degree-fit", str(src), "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_constant_degrees_exit_1(self, tmp_path, capsys):
        src = tmp_path / "degrees.csv"
        self._write_degrees(src, [3] * 50)
        out = tmp_path / "out"
        assert main(["degree-fit", str(src), "--out-dir", str(out)]) == 1
        assert "degree fit failed" in capsys.readouterr().err
        assert not out.exists()


def _console_script(argv):
    """Run the declared `dtcnet` console script with *argv* in a subprocess.

    The entry point comes from [project.scripts] in pyproject.toml and runs
    with the body an installed wrapper has; the child finds the package the
    tests imported, so no install is needed.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    ep = EntryPoint(name="dtcnet", value=scripts["dtcnet"], group="console_scripts")
    body = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    return subprocess.run(
        [sys.executable, "-c", body, *argv],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )


def _strict_module_run(argv):
    """Run `python -W error::RuntimeWarning -m dtcnet.cli` with *argv* in a subprocess."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "dtcnet.cli", *argv],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )


def _child_env() -> dict:
    """This environment, with the package the tests imported first on PYTHONPATH."""
    env = dict(os.environ)
    package_root = str(Path(dtcnet.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


class TestConsoleScript:
    def test_entry_point_installed_and_runs(self, tmp_path):
        proc = _console_script(["classical", "--n", "2", "--out-dir", str(tmp_path)])
        assert proc.returncode == 0
        assert (tmp_path / "classical.csv").exists()

    def test_module_run_is_warning_free(self, tmp_path):
        # `python -m dtcnet.cli` must not find dtcnet.cli already imported
        # by the package, which runpy reports with a RuntimeWarning
        proc = _strict_module_run(["classical", "--n", "3", "--out-dir", str(tmp_path)])
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert (tmp_path / "classical.csv").exists()

    @pytest.mark.parametrize(
        "argv, written",
        [
            (["classical", "--n", "3", "--j0", "0"], "classical.csv"),
            (["level-stats", "--n", "3", "--epsilon", "0", "--disorder-w", "0", "--j0", "0"],
             "gap-ratios-eps0.csv"),
        ],
    )
    def test_zero_coupling_run_is_warning_free(self, argv, written, tmp_path):
        proc = _strict_module_run(argv + ["--out-dir", str(tmp_path)])
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert (tmp_path / written).exists()

    def test_entry_point_propagates_validation_exit(self):
        proc = _console_script(["graph", "--n", "4", "--epsilon", "oops"])
        assert proc.returncode == 1
        assert proc.stderr.strip().startswith("error:")
