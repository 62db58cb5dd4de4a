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
from dtcnet import cli
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


_ENSEMBLE_CONFIG = {"params": {"n": 3}, "epsilons": [0.1], "realizations": 1, "seed": 0, "tasks": ["graph"]}

# each subcommand that reads epsilon; ensemble's config is _ENSEMBLE_CONFIG with its epsilons replaced
_EPSILON_ARGV = {
    "simulate": ["simulate", "--n", "3"],
    "graph": ["graph", "--n", "3"],
    "walk": ["walk", "--n", "3"],
    "degree-fit": ["degree-fit", "degrees.csv"],
    "level-stats": ["level-stats", "--n", "3"],
    "spectrum": ["spectrum", "--n", "3"],
    "ensemble": ["ensemble"],
}
_SINGLE_EPSILON = ("simulate", "graph", "walk", "degree-fit")
# an invalid epsilon form -> (its --epsilon value, else its config value; the refusal of its owner)
_EPSILON_FORMS = {
    "non-number": (None, "x", "epsilon must be a number, got 'x'"),
    "nan": ("nan", None, "epsilon must be finite, got nan"),
    "inf": ("inf", None, "epsilon must be finite, got inf"),
    "negative": ("-0.1", None, "epsilon must be >= 0"),
    "empty list": (None, [], "epsilons must be nonempty"),
    "two values": ("0.1,0.2", None, "this subcommand takes a single epsilon value"),
}


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


# each flag's command-line token and the value the parser gives it
_GIVEN = {
    "n": ("5", 5), "epsilon": ("0.3", [0.3]), "t1": ("1.5", 1.5), "t2": ("2.5", 2.5), "j0": ("0.5", 0.5),
    "alpha": ("3.5", 3.5), "disorder-w": ("0.25", 0.25), "seed": ("7", 7), "realizations": ("3", 3),
    "periods": ("9", 9), "out-dir": ("given-dir", "given-dir"), "format": ("dot", "dot"),
}


class TestSettingResolution:
    """What each handler reads: the flag, else the config key, else _DEFAULTS, else None.

    An ensemble config is an EnsembleSpec that only the flags given
    override, so there only out_dir falls back to the config or default.
    """

    @pytest.mark.parametrize(
        "subcommand, flag", [(name, flag) for name, (_, _, flags) in cli._SUBCOMMANDS.items() for flag in flags]
    )
    def test_flag_then_config_then_default(self, subcommand, flag, tmp_path, monkeypatch):
        _, description, flags = cli._SUBCOMMANDS[subcommand]
        read = []

        def record(args, config):
            read.append({f: getattr(args, f.replace("-", "_")) for f in flags})
            return 0

        monkeypatch.setitem(cli._SUBCOMMANDS, subcommand, (record, description, flags))
        key = flag.replace("-", "_")
        token, parsed = _GIVEN[flag]
        from_config = "config-dir" if key == "out_dir" else ["config", key]  # no parser makes a list of strings
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: from_config}))
        positional = ["degrees.csv"] if subcommand == "degree-fit" else []
        for extra in ([f"--{flag}", token, "--config", str(config)], ["--config", str(config)], []):
            assert main([subcommand, *positional, *extra]) == 0

        def fallback(f: str, configured=None):
            if subcommand == "ensemble" and f != "out-dir":
                return None
            return cli._DEFAULTS.get(f.replace("-", "_")) if configured is None else configured

        defaults = {f: fallback(f) for f in flags}
        assert read == [{**defaults, flag: parsed}, {**defaults, flag: fallback(flag, from_config)}, defaults]


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
            ["graph", "--n", "4", "--epsilon", ","],  # no value in the list
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
            # non-finite chain settings
            ["graph", "--n", "4", "--epsilon", "nan"],
            ["simulate", "--n", "4", "--epsilon", "inf"],
            ["walk", "--n", "4", "--epsilon", "nan"],
            ["level-stats", "--n", "4", "--epsilon", "0.1,nan"],
            ["spectrum", "--n", "4", "--epsilon", "inf"],
            ["classical", "--n", "4", "--t1", "nan"],
            ["classical", "--n", "4", "--j0", "nan"],
            ["graph", "--n", "4", "--epsilon", "0.1", "--disorder-w", "inf"],
        ],
    )
    def test_exits_1(self, argv, capsys, tmp_path):
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err
        assert not out.exists()  # a rejected run creates no output directory

    @pytest.mark.parametrize(
        "argv, config, setting",
        [
            (["classical"], {"n": 4.7}, "n"),
            (["level-stats", "--n", "3", "--epsilon", "0.1"], {"seed": 2.9}, "seed"),
            (["level-stats", "--n", "3", "--epsilon", "0.1"], {"realizations": True}, "realizations"),
            (["spectrum", "--n", "3", "--epsilon", "0.1"], {"periods": 5.5}, "periods"),
            (["graph", "--n", "3", "--epsilon", "0.1"], {"seed": "7"}, "seed"),
            (["walk", "--n", "3"], {"epsilon": ["0.1"]}, "epsilon"),
            (["degree-fit", "degrees.csv"], {"n": 4.5}, "n"),
            (["ensemble"], {**_ENSEMBLE_CONFIG, "params": {"n": 3.9}}, "n"),
            (["ensemble"], {**_ENSEMBLE_CONFIG, "realizations": 1.5}, "realizations"),
            (["ensemble"], {**_ENSEMBLE_CONFIG, "epsilons": 0.1}, "epsilons"),
            (["ensemble"], {**_ENSEMBLE_CONFIG, "tasks": "graph"}, "tasks"),
            (["ensemble"], {**_ENSEMBLE_CONFIG, "periods": "x"}, "periods"),
            (["ensemble"], {**_ENSEMBLE_CONFIG, "tasks": [["graph"]]}, "tasks"),
            (["ensemble"], {**_ENSEMBLE_CONFIG, "tasks": ["bogus", 5]}, "tasks"),
            # a given degree-fit --n follows the chain's rule
            (["degree-fit", "degrees.csv", "--n", "-3"], {}, "n"),
            (["degree-fit", "degrees.csv", "--n", "1"], {}, "n"),
            # the flag's comma list is parsed; a config string is not
            (["level-stats", "--n", "3"], {"epsilon": "0.1,0.2"}, "epsilon"),
        ],
    )
    def test_config_value_of_wrong_type_exits_1(self, argv, config, setting, tmp_path, capsys, monkeypatch):
        # a value is checked by the object that owns it, never truncated or parsed
        monkeypatch.chdir(tmp_path)
        Path("degrees.csv").write_text("degree\n" + "\n".join(map(str, range(1, 60))) + "\n")
        Path("cfg.json").write_text(json.dumps(config))
        assert main(argv + ["--config", "cfg.json", "--out-dir", "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {setting} must be ")
        assert err.count("\n") == 1
        assert not Path("out").exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["level-stats", "--n", "3"], {"epsilon": []}, "epsilons must be nonempty"),
            (["graph", "--n", "3"], {"epsilon": [0.1, 0.2]}, "this subcommand takes a single epsilon value"),
        ],
    )
    def test_config_epsilon_refused_without_naming_the_flag(self, argv, config, message, tmp_path, capsys, monkeypatch):
        # the value came from --config, so the message names the setting, not the flag
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(config))
        assert main(argv + ["--config", "cfg.json", "--out-dir", "out"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path("out").exists()

    @pytest.mark.parametrize(
        "subcommand, form",
        [(sub, form) for sub in _EPSILON_ARGV for form in _EPSILON_FORMS
         if form != "two values" or sub in _SINGLE_EPSILON],
    )
    def test_invalid_epsilon_refused_by_its_owner(self, subcommand, form, tmp_path, capsys, monkeypatch):
        # a chain's SpinChainParams checks each value; the spec, that its list is nonempty;
        # the subcommand, that it is given and, where it takes one, that there is one
        flag, value, message = _EPSILON_FORMS[form]
        if form == "empty list" and subcommand in _SINGLE_EPSILON:
            message = "this subcommand takes a single epsilon value"
        monkeypatch.chdir(tmp_path)
        Path("degrees.csv").write_text("degree\n" + "\n".join(map(str, range(1, 60))) + "\n")
        if subcommand == "ensemble":
            given = {} if value is None else {"epsilons": value if isinstance(value, list) else [value]}
            config = {**_ENSEMBLE_CONFIG, **given}
        else:
            config = {} if value is None else {"epsilon": value}
        Path("cfg.json").write_text(json.dumps(config))
        argv = _EPSILON_ARGV[subcommand] + ([] if flag is None else ["--epsilon", flag])
        assert main(argv + ["--config", "cfg.json", "--out-dir", "out"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path("out").exists()

    def test_config_out_dir_not_a_string_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"n": 3, "out_dir": 5}))
        assert main(["classical", "--config", "cfg.json"]) == 1
        assert capsys.readouterr().err == "error: out_dir must be a string, got 5\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

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

    @pytest.mark.parametrize("params", [[], "n=4", 4])
    @pytest.mark.parametrize("flags", [[], ["--n", "4"]])
    def test_ensemble_params_not_an_object_exits_1(self, params, flags, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": params, "epsilons": [0.0], "realizations": 1,
                                   "seed": 0, "tasks": ["graph"]}))
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(cfg), "--out-dir", str(out), *flags]) == 1
        err = capsys.readouterr().err.strip()
        assert err == "error: invalid ensemble config: malformed field 'params' (must be a JSON object)"
        assert not out.exists()

    def test_ensemble_non_finite_epsilon_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"n": 3}, "epsilons": [0.0, float("nan")],
                                   "realizations": 1, "seed": 0, "tasks": ["graph"]}))
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert "epsilon must be finite" in capsys.readouterr().err
        assert not out.exists()  # rejected before the run directory exists

    def test_ensemble_params_key_not_a_chain_setting_exits_1(self, tmp_path, capsys):
        # disorder_w is the settings-file name of W; inside params it would be ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**_ENSEMBLE_CONFIG, "params": {"n": 3, "disorder_w": 0.25}}))
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: params keys ['disorder_w'] are not chain settings")
        assert err.count("\n") == 1
        assert not out.exists()


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

        monkeypatch.setattr(dtcnet.ensemble, "drive_unitary", forbidden)
        for module in (dtcnet.cli, dtcnet.ensemble):
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

    @pytest.mark.parametrize("argv", [["walk", "--n", "4", "--epsilon", "1e-7"], ["ensemble"]])
    def test_walk_horizon_beyond_the_limit_exits_1(self, argv, tmp_path, capsys, monkeypatch):
        # 6.4e6 periods: the (horizon + 1) x 16 population table exceeds 4^MAX_SITES entries
        def forbidden(*args, **kwargs):
            raise AssertionError("a dense build was started")

        monkeypatch.setattr(dtcnet.ensemble, "drive_unitary", forbidden)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"params": {"n": 4}, "epsilons": [0.1, 1e-7], "realizations": 1, "seed": 0, "tasks": ["walk"]}
        ))
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the walk at epsilon = 1e-07 runs 6.366e+06 periods: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            # a 100000 x 100000 DFT phase matrix
            ["spectrum", "--n", "4", "--epsilon", "0.1", "--periods", "100000"],
            # 3000 steps of the 1024 x 1024 basis
            ["spectrum", "--n", "10", "--epsilon", "0.1", "--periods", "3000"],
            # 3183 steps of the 4096 x 4096 basis
            ["walk", "--n", "12", "--epsilon", "0.0002"],
        ],
    )
    def test_propagation_beyond_the_limit_exits_1(self, argv, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a dense build was started")

        monkeypatch.setattr(dtcnet.ensemble, "drive_unitary", forbidden)
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dense-matrix limit 4^12" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_limit_is_the_largest_allowed_size(self):
        dtcnet.ensemble.check_size(dtcnet.MAX_SITES)
        with pytest.raises(ValueError, match="dense-matrix limit"):
            dtcnet.ensemble.check_size(dtcnet.MAX_SITES + 1)

    @pytest.mark.parametrize(
        "argv, n",
        [
            (["graph", "--n", "600", "--epsilon", "0.1"], 600),  # 4.0**600 overflows a float
            (["ensemble"], 10**8),  # the spectrum and walk tasks of the config below
        ],
    )
    def test_any_oversized_chain_refused_in_one_line(self, argv, n, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"params": {"n": n}, "epsilons": [0.1], "realizations": 1, "seed": 0, "tasks": ["spectrum", "walk"]}
        ))
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: n = {n} exceeds the dense-matrix limit 12: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "n, estimate",
        [(13, "9.7 GB"), (511, "6.5e+300 GB"), (512, "more than 1e300 GB"), (10**10, "more than 1e300 GB")],
    )
    def test_estimate_is_finite_for_any_size(self, n, estimate):
        with pytest.raises(ValueError) as info:
            dtcnet.ensemble.check_size(n)
        assert str(info.value).endswith(f"9 x 16 * 4^n bytes = {estimate}")


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

    def test_schur_fallback_reported_on_stderr(self, tmp_path, capsys, skewed_eigh):
        assert main(
            ["graph", "--n", "4", "--epsilon", "0.02", "--out-dir", str(tmp_path)]
        ) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: eps=0.02 realization 0 T: 1 spectrum blocks solved by Schur fallback\n"
        written = "nodes-eps0p02.csv, edges-eps0p02.csv, clusters-eps0p02.csv"
        assert captured.out == f"wrote {written} in {tmp_path}\n"

    def test_negative_zero_tagged_as_zero(self, tmp_path):
        assert main(["graph", "--n", "4", "--epsilon", "-0", "--out-dir", str(tmp_path)]) == 0
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == ["clusters-eps0.csv", "edges-eps0.csv", "nodes-eps0.csv"]


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
        assert "warning: eps=0.02 realization 0 T: 1 spectrum blocks solved by Schur fallback" in err
        assert "warning: eps=0.02 realization 0 2T: 1 spectrum blocks solved by Schur fallback" in err

    def test_2T_branch_warnings_reported_on_stderr(self, tmp_path, capsys, monkeypatch):
        solve = dtcnet.ensemble.two_period_spectrum
        monkeypatch.setattr(
            dtcnet.ensemble, "two_period_spectrum",
            lambda U, spectrum: dataclasses.replace(solve(U, spectrum), branch_warnings=("phase near the cut",)),
        )
        assert main(
            ["simulate", "--n", "4", "--epsilon", "0.02", "--out-dir", str(tmp_path)]
        ) == 0
        assert capsys.readouterr().err == "warning: eps=0.02 realization 0: 2T: phase near the cut\n"

    def test_health_worded_as_the_ensemble_records_it(self, tmp_path, capsys):
        # uncoupled and unrotated, U = -sigma^x sigma^x: two eigenphases sit on the branch cut
        argv = ["--n", "2", "--epsilon", "0", "--disorder-w", "0", "--j0", "0"]
        assert main(["simulate", *argv, "--out-dir", str(tmp_path)]) == 0
        line = "warning: eps=0 realization 0: eigenphase +3.141592653590 within 1e-10 of the branch cut\n"
        assert capsys.readouterr().err == 2 * line
        params = SpinChainParams(n=2, epsilon=0.0, W=0.0, J0=0.0)
        spec = dtcnet.EnsembleSpec(params, epsilons=(0.0,), realizations=1, seed=0, tasks=frozenset({"graph"}))
        (record,) = dtcnet.realization_outputs(spec, 0)["warnings"]
        assert [f"warning: eps=0 realization 0: {w}\n" for w in record["warnings"]] == [line, line]


class TestOneSolveRoutePerCaller:
    """simulate and graph read the ensemble's stages: one build, one T solve, a 2T spectrum only where read."""

    @pytest.mark.parametrize(
        "argv, calls",
        [
            # the T graph alone: no 2T spectrum
            (["graph", "--epsilon", "0.012"], {"build": 1, "solve T": 1, "2T": 0, "solve U^2": 0, "scans": 1}),
            # the 2T spectrum reuses U's eigenpairs
            (["simulate", "--epsilon", "0.012"], {"build": 1, "solve T": 1, "2T": 1, "solve U^2": 0, "scans": 2}),
            # at epsilon = 0, U^2 is diagonal while U has dimer blocks: U^2 is solved
            # afresh, on the blocks its one scan found
            (["simulate", "--epsilon", "0"], {"build": 1, "solve T": 1, "2T": 1, "solve U^2": 1, "scans": 2}),
        ],
    )
    def test_calls_into_the_stages(self, argv, calls, tmp_path, monkeypatch):
        counts = dict.fromkeys(calls, 0)

        def count(module, name, key, when=lambda *args: True):
            original = getattr(module, name)

            def counted(*args):
                counts[key] += when(*args)
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        count(dtcnet.ensemble, "drive_unitary", "build")
        count(dtcnet.ensemble, "floquet_spectrum", "solve T")
        count(dtcnet.ensemble, "two_period_spectrum", "2T")
        # the block solve behind both spectra, counted on the two-period operator
        two_periods = 2 * SpinChainParams(n=4).period
        count(dtcnet.floquet_core, "_solve_blocks", "solve U^2", lambda op, *_: op.period == two_periods)
        count(dtcnet.floquet_core, "_support_components", "scans")
        assert main([*argv, "--n", "4", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
        assert counts == calls


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

    def test_spectrum_health_reported_on_stderr(self, tmp_path, capsys, monkeypatch, skewed_eigh):
        # one Schur fallback note and one branch-cut record, each naming epsilon and realization
        solve = dtcnet.ensemble.floquet_spectrum
        monkeypatch.setattr(
            dtcnet.ensemble, "floquet_spectrum",
            lambda U: dataclasses.replace(solve(U), branch_warnings=("phase near the cut",)),
        )
        assert main(
            ["level-stats", "--n", "4", "--epsilon", "0.02", "--out-dir", str(tmp_path)]
        ) == 0
        assert capsys.readouterr().err == (
            "warning: eps=0.02 realization 0: phase near the cut\n"
            "warning: eps=0.02 realization 0 T: 1 spectrum blocks solved by Schur fallback\n"
        )

    def test_excluded_degenerate_gaps_reported_on_stderr(self, tmp_path, capsys):
        # the note run_ensemble writes into its manifest; at zero error the
        # dimer pairs leave 24 of each realization's 63 gaps degenerate
        assert main(
            ["level-stats", "--n", "6", "--epsilon", "0", "--realizations", "3", "--seed", "2",
             "--out-dir", str(tmp_path)]
        ) == 0
        assert capsys.readouterr().err == "warning: levelstats eps=0: 72 degenerate gaps excluded\n"

    def test_negative_zero_collides_with_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["level-stats", "--n", "4", "--epsilon", "0,-0", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: epsilons [0.0, -0.0] share the output tag '0'; their files would collide\n"
        assert not out.exists()


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
        # not from a second build of its propagator; epsilon = 0 reads the
        # exact flip series and builds nothing
        builds = []
        original = dtcnet.ensemble.drive_unitary

        def counted(params, disorder):
            builds.append((params.epsilon, tuple(disorder.fields)))
            return original(params, disorder)

        monkeypatch.setattr(dtcnet.ensemble, "drive_unitary", counted)
        assert main(
            ["spectrum", "--n", "4", "--epsilon", "0,0.012", "--periods", "8",
             "--realizations", "2", "--seed", "5", "--out-dir", str(tmp_path)]
        ) == 0
        assert len(builds) == 2 and len(set(builds)) == 2 and {eps for eps, _ in builds} == {0.012}
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

    def test_zero_error_refused_by_the_horizon(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["walk", "--n", "4", "--epsilon", "0", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: epsilon must be positive: the tunneling time diverges at 0\n"
        assert not out.exists()

    def test_horizon_beyond_the_limit_at_any_t1(self, tmp_path, capsys, monkeypatch):
        # g eps T1 underflows to 0 here, while 2 / (pi eps) is 6.4e299 periods
        def forbidden(*args, **kwargs):
            raise AssertionError("a dense build was started")

        monkeypatch.setattr(dtcnet.ensemble, "drive_unitary", forbidden)
        out = tmp_path / "out"
        argv = ["walk", "--n", "4", "--epsilon", "1e-300", "--t1", "1e300", "--out-dir", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the walk at epsilon = 1e-300 runs 6.366e+299 periods: ")
        assert err.count("\n") == 1
        assert not out.exists()


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

    def test_empty_file_exits_1(self, tmp_path, capsys):
        src = tmp_path / "degrees.csv"
        src.write_text("")
        assert main(["degree-fit", str(src), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {src} is empty\n"
        assert not (tmp_path / "out").exists()

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
        # no Python warning; level-stats notes the gaps it excluded, here
        # all 6 of a chain whose levels are all degenerate
        notes = {"level-stats": "warning: levelstats eps=0: 6 degenerate gaps excluded\n"}
        assert proc.stderr == notes.get(argv[0], "")
        assert (tmp_path / written).exists()

    def test_import_leaves_optimize_and_integrate_unloaded(self):
        # both load on first use only; together they were a third of the import time
        probe = (
            "import sys, dtcnet, dtcnet.cli; "
            "print(sorted({'scipy.optimize', 'scipy.integrate'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=_child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_entry_point_propagates_validation_exit(self):
        proc = _console_script(["graph", "--n", "4", "--epsilon", "oops"])
        assert proc.returncode == 1
        assert proc.stderr.strip().startswith("error:")
