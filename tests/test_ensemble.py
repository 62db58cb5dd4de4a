"""Sweep orchestration: spec validation, outputs, reproducibility."""

import csv
import json
import re
import tempfile
import warnings
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import dtcnet
import dtcnet.ensemble
from dtcnet import (
    EnsembleSpec, SpinChainParams, pr_distribution, run_ensemble, sample_disorder, walk_horizon_periods,
)
from dtcnet.ensemble import eps_tag, realization_outputs
from invariants import (
    check_manifest_artifacts_parse,
    check_parallel_aggregate_equivalence,
    check_rerun_reproducibility_serial,
)


def _spec(**overrides) -> EnsembleSpec:
    base = dict(
        params=SpinChainParams(n=3),
        epsilons=(0.0,),
        realizations=1,
        seed=11,
        tasks=frozenset({"graph"}),
        periods=4,
    )
    base.update(overrides)
    return EnsembleSpec(**base)


class TestEnsembleSpec:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"realizations": 0},
            {"epsilons": ()},
            {"epsilons": (0.01, -0.2)},
            # distinct epsilons whose file tags collide, and a repeated one
            {"epsilons": (0.01200001, 0.01200002)},
            {"epsilons": (0.1, 0.05, 0.1)},
            {"tasks": frozenset({"graph", "bogus"})},
            {"periods": 1},
            {"epsilons": (0.1, float("nan"))},
            {"epsilons": (float("inf"),)},
            # integer and number settings are checked, not converted
            {"realizations": 1.5},
            {"realizations": True},
            {"seed": "7"},
            {"periods": 5.5},
            {"epsilons": ("0.1",)},
            {"tasks": frozenset({"bogus", 5})},
            {"tasks": frozenset()},
            {"seed": -1},
            # a walk horizon whose (horizon + 1) x 2^n table exceeds 4^MAX_SITES
            {"tasks": frozenset({"walk"}), "epsilons": (0.1, 1e-7)},
            # a periods x periods DFT beyond 4^MAX_SITES entries
            {"tasks": frozenset({"spectrum"}), "periods": 4097},
            # 4096 periods at n = MAX_SITES: the basis propagation refuses them
            {"tasks": frozenset({"spectrum"}), "params": SpinChainParams(n=dtcnet.MAX_SITES),
             "periods": 4096},
            # a basis propagation beyond 128 periods of 4^MAX_SITES entries
            {"tasks": frozenset({"spectrum"}), "params": SpinChainParams(n=dtcnet.MAX_SITES),
             "periods": 129},
            {"tasks": frozenset({"walk"}), "params": SpinChainParams(n=dtcnet.MAX_SITES),
             "epsilons": (0.0002,)},
        ],
    )
    def test_invalid_rejected(self, overrides):
        with pytest.raises(ValueError):
            _spec(**overrides)

    def test_walk_at_the_smallest_swept_error_accepted(self):
        # epsilon = 0.005 walks 127 periods: 128 x 4096 entries at n = MAX_SITES
        params = SpinChainParams(n=dtcnet.MAX_SITES)
        spec = _spec(params=params, epsilons=(0.0, 0.005), tasks=frozenset({"walk"}))
        assert spec.epsilons == (0.0, 0.005)

    def test_spectrum_at_the_largest_size_accepted(self):
        # 64 periods propagate 64 x 4^12 entries; 2 x 64 is the limit
        params = SpinChainParams(n=dtcnet.MAX_SITES)
        for periods in (64, 128):
            assert _spec(params=params, tasks=frozenset({"spectrum"}), periods=periods).periods == periods

    def test_unused_periods_not_bounded(self):
        # without the spectrum task nothing is propagated for periods
        spec = _spec(params=SpinChainParams(n=dtcnet.MAX_SITES), periods=10**6)
        assert spec.periods == 10**6

    @pytest.mark.parametrize("n", range(2, dtcnet.MAX_SITES + 1))
    def test_largest_accepted_runs(self, n):
        # the limits README states, reached exactly: one more period or horizon step is refused
        params = SpinChainParams(n=n)
        periods = {10: 2048, 11: 512, 12: 128}.get(n, 4096)
        assert _spec(params=params, tasks=frozenset({"spectrum"}), periods=periods).periods == periods
        with pytest.raises(ValueError):
            _spec(params=params, tasks=frozenset({"spectrum"}), periods=periods + 1)
        horizon = min(2 ** (24 - n) - 1, 2 ** (31 - 2 * n))
        for h in (horizon, horizon + 1):
            eps = 2 / (np.pi * h)
            assert walk_horizon_periods(replace(params, epsilon=eps)) == h
            if h == horizon:
                assert _spec(params=params, tasks=frozenset({"walk"}), epsilons=(eps,)).epsilons == (eps,)
            else:
                with pytest.raises(ValueError):
                    _spec(params=params, tasks=frozenset({"walk"}), epsilons=(eps,))

    def test_negative_zero_shares_the_zero_tag(self):
        assert eps_tag(-0.0) == eps_tag(0.0) == "0"
        with pytest.raises(ValueError, match=r"epsilons \[0.0, -0.0\] share the output tag '0'"):
            _spec(epsilons=(0.0, -0.0))

    def test_json_round_trip(self):
        spec = _spec(epsilons=(0.0, 0.05), tasks=frozenset({"graph", "walk"}))
        clone = EnsembleSpec.from_json(spec.to_json())
        assert clone == spec

    def test_from_json_fills_documented_defaults(self):
        spec = EnsembleSpec.from_json(
            {
                "params": {"n": 4},
                "epsilons": [0.01],
                "realizations": 2,
                "seed": 3,
                "tasks": ["graph"],
            }
        )
        assert spec.params.J0 == 0.06
        assert spec.params.alpha == 1.51
        assert spec.params.W == np.pi
        assert spec.params.T1 == 1.0 and spec.params.T2 == 1.0
        assert spec.periods == 64

    @pytest.mark.parametrize("tasks", [[1, "graph"], [["graph"]]])
    def test_from_json_tasks_must_be_strings(self, tasks):
        # the spec checks its tasks once, unhashable entries included, and names them in the order given
        payload = {**_spec().to_json(), "tasks": tasks}
        with pytest.raises(ValueError, match=re.escape(f"tasks must be strings, got {tasks!r}")):
            EnsembleSpec.from_json(payload)


class TestRunEnsemble:
    def test_dimer_outputs(self):
        spec = _spec(params=SpinChainParams(n=8), seed=5)
        with tempfile.TemporaryDirectory() as tmp:
            manifest = run_ensemble(spec, out_dir=tmp)
            run_dir = Path(manifest.run_dir)
            with open(run_dir / "walls-T-eps0.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert {int(r["walls"]) for r in rows} == set(range(8))
            for row in rows:
                assert float(row["mean_degree"]) == 1.0
                assert float(row["std_degree"]) == 0.0
                assert int(row["realizations"]) == 1
            # over 2T the zero-error propagator is diagonal: no edges,
            # so the histogram is skipped with an explanatory note
            with open(run_dir / "walls-2T-eps0.csv") as fh:
                for row in csv.DictReader(fh):
                    assert float(row["mean_degree"]) == 0.0
            names = {p.name for p in run_dir.glob("*.csv")}
            assert "degree-hist-T-eps0.csv" in names
            assert any("degree-histogram skipped (2T-eps0)" in note for note in manifest.notes)

    def test_identical_seeds_identical_manifests(self):
        spec = _spec(epsilons=(0.0, 0.03), realizations=2)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "a").mkdir()
            (root / "b").mkdir()
            first = run_ensemble(spec, out_dir=root / "a")
            second = run_ensemble(spec, out_dir=root / "b")
        assert first.spec == second.spec
        assert first.per_realization_seeds == second.per_realization_seeds
        assert first.branch_margin_warnings == second.branch_margin_warnings
        assert first.notes == second.notes
        names = lambda m: {k: sorted(Path(p).name for p in v) for k, v in m.artifacts.items()}
        assert names(first) == names(second)

    def test_oversized_chain_rejected(self):
        # a spec that cannot run cannot be built, so no run directory is claimed
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ValueError, match="n = 15 exceeds the dense-matrix limit"):
                run_ensemble(_spec(params=SpinChainParams(n=15), tasks=frozenset({"classical"})), out_dir=tmp)
            assert not any(Path(tmp).iterdir())

    def test_2T_branch_warnings_recorded(self, tmp_path, monkeypatch):
        solve = dtcnet.ensemble.two_period_spectrum
        monkeypatch.setattr(
            dtcnet.ensemble, "two_period_spectrum",
            lambda U, spectrum: replace(solve(U, spectrum), branch_warnings=("phase near the cut",)),
        )
        manifest = run_ensemble(_spec(epsilons=(0.1,)), out_dir=tmp_path)
        assert manifest.branch_margin_warnings == [
            {"epsilon": 0.1, "realization": 0, "warnings": ["2T: phase near the cut"]}
        ]
        on_disk = json.loads((Path(manifest.run_dir) / "manifest.json").read_text())
        assert on_disk["branch_margin_warnings"] == manifest.branch_margin_warnings

    def test_walk_skipped_at_zero_error(self):
        spec = _spec(tasks=frozenset({"walk"}), seed=2)
        with tempfile.TemporaryDirectory() as tmp:
            manifest = run_ensemble(spec, out_dir=tmp)
            flat = json.dumps(manifest.branch_margin_warnings)
            assert "walk task skipped" in flat
            assert list(Path(manifest.run_dir).glob("walk-*.csv")) == []

    def test_levelstats_histogram_schema(self):
        spec = _spec(tasks=frozenset({"levelstats"}), epsilons=(0.05,), realizations=2)
        with tempfile.TemporaryDirectory() as tmp:
            manifest = run_ensemble(spec, out_dir=tmp)
            with open(Path(manifest.run_dir) / "gap-ratios-eps0p05.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 20
            # overlay columns carry the analytic reference densities
            assert float(rows[0]["reference_poisson"]) > float(rows[-1]["reference_poisson"])
            mass = sum(
                float(r["density"]) * (float(r["r_hi"]) - float(r["r_lo"])) for r in rows
            )
            assert mass == pytest.approx(1.0, abs=1e-9)

    def test_manifest_records_version_and_timings(self):
        spec = _spec(seed=8)
        with tempfile.TemporaryDirectory() as tmp:
            manifest = run_ensemble(spec, out_dir=tmp)
            assert manifest.version == dtcnet.__version__
            assert manifest.timings["total_s"] >= manifest.timings["map_s"] >= 0.0
            assert Path(manifest.run_dir).name == "run-" + Path(manifest.run_dir).name.split("run-")[1]
            assert Path(manifest.run_dir).name.endswith("-seed8")
            echoed = manifest.spec
            assert echoed["seed"] == 8
            assert echoed["params"]["n"] == 3


class _FrozenClock(datetime):
    """A datetime whose now() is always the same second."""

    @classmethod
    def now(cls, tz=None):
        return datetime(2024, 1, 2, 3, 4, 5, tzinfo=timezone.utc)


def _csv_bytes(manifest) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(manifest.run_dir).glob("*.csv"))}


class TestRunHygiene:
    def test_spectrum_task_emits_no_runtime_warning(self, tmp_path):
        # zero-magnetization configurations have all-NaN fidelity columns;
        # their mean must come out as "nan" without a RuntimeWarning
        spec = _spec(params=SpinChainParams(n=4), epsilons=(0.0, 0.1), tasks=frozenset({"spectrum"}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            manifest = run_ensemble(spec, out_dir=tmp_path)
        assert "nan" in (Path(manifest.run_dir) / "fidelity-eps0p1.csv").read_text()

    def test_same_second_runs_do_not_collide(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dtcnet.ensemble, "datetime", _FrozenClock)
        first = run_ensemble(_spec(), out_dir=tmp_path)
        second = run_ensemble(_spec(), out_dir=tmp_path)
        assert Path(first.run_dir).name == "run-20240102-030405-seed11"
        assert Path(second.run_dir).name == "run-20240102-030405-seed11-1"
        for manifest in (first, second):
            assert (Path(manifest.run_dir) / "manifest.json").is_file()

    def test_raising_run_takes_no_final_name(self, tmp_path, monkeypatch):
        # the classical table is written last, after the other tasks' CSVs
        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(dtcnet.ensemble, "write_classical_table", fail)
        spec = _spec(params=SpinChainParams(n=4), epsilons=(0.1,), tasks=frozenset(dtcnet.TASKS))
        with pytest.raises(OSError, match="disk full"):
            run_ensemble(spec, out_dir=tmp_path)
        (left,) = tmp_path.iterdir()
        assert left.name.endswith(".partial")
        assert any(left.glob("*.csv"))
        assert not (left / "manifest.json").exists()

    def test_threaded_run_writes_identical_csvs(self, tmp_path, monkeypatch):
        spec = _spec(
            params=SpinChainParams(n=4),
            epsilons=(0.0, 0.1),
            realizations=2,
            tasks=frozenset(dtcnet.TASKS),
        )
        monkeypatch.delenv("DTCNET_THREADS", raising=False)
        serial = run_ensemble(spec, out_dir=tmp_path / "serial")
        monkeypatch.setenv("DTCNET_THREADS", "2")
        threaded = run_ensemble(spec, out_dir=tmp_path / "threaded")
        assert len(_csv_bytes(serial)) > 10
        assert _csv_bytes(threaded) == _csv_bytes(serial)

    def test_non_integer_thread_count_is_noted(self, tmp_path, monkeypatch):
        # so is a count below 1; each of these runs serially
        for raw in ("abc", "0", "-3"):
            monkeypatch.setenv("DTCNET_THREADS", raw)
            manifest = run_ensemble(_spec(), out_dir=tmp_path / raw)
            assert any(f"DTCNET_THREADS={raw!r}" in note for note in manifest.notes)
            saved = json.loads((Path(manifest.run_dir) / "manifest.json").read_text())
            assert saved["notes"] == manifest.notes

    def test_manifest_key_order(self, tmp_path):
        manifest = run_ensemble(_spec(), out_dir=tmp_path)
        saved = json.loads((Path(manifest.run_dir) / "manifest.json").read_text())
        assert list(saved) == [
            "version", "run_dir", "spec", "per_realization_seeds", "artifacts",
            "branch_margin_warnings", "timings", "notes",
        ]
        assert saved == manifest.to_json()

    def test_schur_fallbacks_are_noted(self, tmp_path, skewed_eigh):
        manifest = run_ensemble(_spec(epsilons=(0.1,)), out_dir=tmp_path)
        assert [note for note in manifest.notes if "Schur fallback" in note] == [
            "eps=0.1 realization 0 T: 1 spectrum blocks solved by Schur fallback",
            "eps=0.1 realization 0 2T: 1 spectrum blocks solved by Schur fallback",
        ]

    def test_every_written_table_is_listed(self, tmp_path):
        spec = _spec(
            params=SpinChainParams(n=4), epsilons=(0.0, 0.1), realizations=2, tasks=frozenset(dtcnet.TASKS)
        )
        manifest = run_ensemble(spec, out_dir=tmp_path)
        listed = [Path(p) for paths in manifest.artifacts.values() for p in paths]
        assert sorted(listed) == sorted(Path(manifest.run_dir).glob("*.csv"))
        assert len(listed) == len(set(listed)) > 10

    def test_no_fallback_note_without_fallbacks(self, tmp_path):
        manifest = run_ensemble(_spec(epsilons=(0.1,)), out_dir=tmp_path)
        assert not any("Schur fallback" in note for note in manifest.notes)


def _counted(monkeypatch, name: str) -> list:
    """Replace dtcnet.ensemble.<name> by a wrapper; returns its call arguments."""
    calls = []
    original = getattr(dtcnet.ensemble, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dtcnet.ensemble, name, wrapper)
    return calls


class TestOnePropagationPerEpsilon:
    """Each epsilon's U is built at most once, only when a task reads it; the basis propagated once."""

    @pytest.mark.parametrize(
        "epsilons, tasks, built, propagated",
        [
            # every task with epsilon = 0 swept: one build per epsilon (the graph task reads
            # U at 0 too) and one propagation per nonzero epsilon, as 0 reads the flip series
            ((0.0, 0.012, 0.1), frozenset(dtcnet.TASKS), [0.0, 0.012, 0.1], 2),
            # epsilon = 0 is not swept: its reference is the exact flip series, built from no U
            ((0.012, 0.1), frozenset({"spectrum", "walk"}), [0.012, 0.1], 2),
            # neither spectrum nor walk: no basis propagation at all
            ((0.0, 0.1), frozenset({"graph", "levelstats"}), [0.0, 0.1], 0),
            # no task reads U: no build at all
            ((0.0, 0.1), frozenset({"classical"}), [], 0),
            # the walk is skipped at epsilon = 0: no build
            ((0.0,), frozenset({"walk"}), [], 0),
            # the spectrum task alone: epsilon = 0 builds and propagates nothing
            ((0.0, 0.012), frozenset({"spectrum"}), [0.012], 1),
        ],
    )
    def test_build_and_propagation_counts(self, monkeypatch, epsilons, tasks, built, propagated):
        drives = _counted(monkeypatch, "drive_unitary")
        propagations = _counted(monkeypatch, "basis_dynamics")
        spec = _spec(params=SpinChainParams(n=4), epsilons=epsilons, tasks=tasks, periods=8)
        realization_outputs(spec, 0)
        assert sorted(params.epsilon for params, _ in drives) == built
        assert len(propagations) == propagated

    def test_fidelity_independent_of_zero_position(self):
        def fidelity(epsilons):
            spec = _spec(
                params=SpinChainParams(n=4), epsilons=epsilons, tasks=frozenset({"spectrum"}), periods=8
            )
            return realization_outputs(spec, 0)["spectrum"]["0p012"]

        alone = fidelity((0.012,))
        for epsilons in ((0.0, 0.012), (0.012, 0.0)):
            assert np.array_equal(fidelity(epsilons), alone, equal_nan=True)

    @pytest.mark.parametrize("n", [4, 5, 6])  # odd n: no configuration has zero magnetization
    @pytest.mark.parametrize("seed", [0, 7])
    def test_reference_is_the_propagated_zero_error_spectrum(self, n, seed):
        params = SpinChainParams(n=n, J0=0.4, W=1.3, T1=0.7)
        spec = _spec(params=params, epsilons=(0.012, 0.1), seed=seed, tasks=frozenset({"spectrum"}), periods=16)
        zero = replace(params, epsilon=0.0)
        ref_V = dtcnet.dft_power(
            dtcnet.basis_dynamics(dtcnet.drive_unitary(zero, sample_disorder(zero, seed, 0)), spec.periods)[0]
        )
        ref_norm = np.linalg.norm(ref_V, axis=0)
        for eps, fidelity in zip(spec.epsilons, realization_outputs(spec, 0)["spectrum"].values()):
            U = dtcnet.drive_unitary(replace(params, epsilon=eps), sample_disorder(params, seed, 0))
            V = dtcnet.dft_power(dtcnet.basis_dynamics(U, spec.periods)[0])
            norm = np.linalg.norm(V, axis=0)
            with np.errstate(invalid="ignore", divide="ignore"):
                expected = np.minimum(np.sqrt(np.einsum("ki,ki->i", ref_V, V) / (ref_norm * norm)), 1.0)
            expected[(ref_norm < 1e-30) | (norm < 1e-30)] = np.nan
            assert np.array_equal(np.isnan(fidelity), np.isnan(expected))
            assert np.isnan(fidelity).any() == (n % 2 == 0)
            np.testing.assert_allclose(fidelity, expected, rtol=0, atol=1e-12, equal_nan=True)

    @pytest.mark.parametrize("n", [4, 5])
    def test_zero_error_series_matches_its_propagation(self, n):
        # epsilon = 0 writes the exact flip series, not a propagation of its U
        params = SpinChainParams(n=n, J0=0.4, W=1.3, T1=0.7)
        spec = _spec(params=params, epsilons=(0.0,), seed=3, tasks=frozenset({"spectrum"}), periods=16)
        U0 = dtcnet.drive_unitary(params, sample_disorder(params, 3, 0))
        propagated = dtcnet.basis_dynamics(U0, spec.periods)[0]
        payload = realization_outputs(spec, 0)
        assert np.abs(payload["magnetization"]["0"] - propagated[:, -1]).max() < 5e-14
        fidelity = payload["spectrum"]["0"]
        assert np.isnan(fidelity).any() == (n % 2 == 0)
        np.testing.assert_allclose(fidelity[~np.isnan(fidelity)], 1.0, rtol=0, atol=1e-15)

    def test_magnetization_series_owns_its_data(self):
        spec = _spec(params=SpinChainParams(n=4), epsilons=(0.0, 0.1), tasks=frozenset({"spectrum"}), periods=8)
        for series in realization_outputs(spec, 0)["magnetization"].values():
            assert series.shape == (spec.periods + 1,)
            assert series.base is None and series.flags.owndata

    @pytest.mark.parametrize("eps, periods", [(0.1, 8), (0.005, 64)])
    def test_walk_prs_equal_pr_distribution(self, eps, periods):
        # horizons 6 and 127: before and past the spectrum's last period
        spec = _spec(
            params=SpinChainParams(n=4),
            epsilons=(0.0, eps),
            tasks=frozenset({"spectrum", "walk"}),
            periods=periods,
        )
        prs, _ = realization_outputs(spec, 0)["walk"][eps_tag(eps)]
        params = replace(spec.params, epsilon=eps)
        assert np.array_equal(prs, pr_distribution(params, sample_disorder(params, spec.seed, 0)))


class TestTwoPeriodGraph:
    """The 2T graph reuses U's eigenpairs; only epsilon = 0 solves U^2."""

    def test_squared_propagator_solved_only_at_zero_error(self, monkeypatch):
        # floquet_spectrum (the T solve) and two_period_spectrum's fresh
        # route both solve through the one block solve
        solved = []
        original = dtcnet.floquet_core._solve_blocks

        def counted(op, *partition):
            solved.append(op)
            return original(op, *partition)

        monkeypatch.setattr(dtcnet.floquet_core, "_solve_blocks", counted)
        spec = _spec(params=SpinChainParams(n=6), epsilons=(0.0, 0.012, 0.1), realizations=2)
        zero = replace(spec.params, epsilon=0.0)
        for r in range(spec.realizations):
            solved.clear()
            realization_outputs(spec, r)
            assert len(solved) == 4
            squared = [op for op in solved if op.period == 2.0 * spec.params.period]
            U0 = dtcnet.drive_unitary(zero, sample_disorder(zero, spec.seed, r))
            assert len(squared) == 1
            assert np.array_equal(squared[0].matrix, dtcnet.squared_floquet(U0).matrix)

    def test_graphs_match_fresh_squared_solve(self):
        spec = _spec(params=SpinChainParams(n=6), epsilons=(0.0, 0.012, 0.1), realizations=2)
        for r in range(spec.realizations):
            graphs = realization_outputs(spec, r)["graph"]
            for eps in spec.epsilons:
                params = replace(spec.params, epsilon=eps)
                U = dtcnet.drive_unitary(params, sample_disorder(params, spec.seed, r))
                fresh = dtcnet.effective_hamiltonian(dtcnet.floquet_spectrum(dtcnet.squared_floquet(U)))
                graph_2T = graphs[eps_tag(eps)][1]
                assert graph_2T.edges == dtcnet.percolation_graph(fresh).edges


class TestStages:
    """Each stage runs once, on first read; the T reads alone make no 2T solve."""

    @pytest.mark.parametrize("eps", [0.0, 0.012])
    def test_T_reads_solve_no_2T_spectrum(self, monkeypatch, eps):
        drives = _counted(monkeypatch, "drive_unitary")
        solves = _counted(monkeypatch, "floquet_spectrum")
        doubled = _counted(monkeypatch, "two_period_spectrum")
        params = SpinChainParams(n=4, epsilon=eps)
        stages = dtcnet.Stages(params, sample_disorder(params, 3, 0))
        for _ in range(2):
            stages.graph(stages.spectrum)
        assert (len(drives), len(solves), len(doubled)) == (1, 1, 0)
        stages.graph(stages.spectrum_2T)
        stages.graph(stages.spectrum_2T)
        assert (len(drives), len(solves), len(doubled)) == (1, 1, 1)

    def test_health_in_solve_order_whichever_spectrum_is_read_first(self, skewed_eigh):
        params = SpinChainParams(n=4, epsilon=0.02)
        health = {"warnings": [], "notes": []}
        stages = dtcnet.Stages(params, sample_disorder(params, 0, 0), r=5, health=health)
        stages.spectrum_2T
        stages.spectrum
        assert stages.health is health
        assert health == {"warnings": [], "notes": [
            f"eps=0.02 realization 5 {tag}: 1 spectrum blocks solved by Schur fallback" for tag in ("T", "2T")
        ]}


class TestReproducibility:
    def test_serial_rerun_bit_identical(self):
        check_rerun_reproducibility_serial()

    def test_parallel_matches_serial(self):
        check_parallel_aggregate_equivalence()

    def test_artifacts_exist_and_parse(self):
        check_manifest_artifacts_parse()


def _row_wise_csv(header, rows) -> str:
    """The row-wise rendering write_csv replaced: .12g floats, str for the rest."""
    cell = lambda c: f"{c:.12g}" if isinstance(c, (float, np.floating)) else str(c)
    return "".join(",".join(cell(c) for c in row) + "\n" for row in [[header], *rows])


class TestWriteCsv:
    """write_csv renders column-wise exactly what the row-wise rendering gives."""

    @pytest.mark.parametrize(
        "columns",
        [
            # float columns: NaN, signed zero, tiny, integral, long mantissa
            (np.array([np.nan, -0.0, 1e-300, 3.0, 0.1 + 0.2]), [2.0, float("nan"), 0.0, -1e300, 1 / 3]),
            # numpy and Python ints
            (np.arange(5), [0, -7, 2**40, 12, 3], np.array([5, 4, 3, 2, 1], dtype=np.int32)),
            # str columns next to floats
            (["0101", "1010", "1111"], ["stable", "unstable", "marginal"], np.array([0.5, 1e-9, -2.5])),
            # scalars repeated on every row
            (0.012, np.arange(4), np.array([1.5, 2.5, np.nan, 4.0]), 7, "lognormal"),
        ],
    )
    def test_matches_row_wise_rendering(self, columns, tmp_path):
        header = ",".join(f"c{i}" for i in range(len(columns)))
        length = max(np.size(c) for c in columns)
        rows = [[c if np.ndim(c) == 0 else c[i] for c in columns] for i in range(length)]
        path = tmp_path / "table.csv"
        dtcnet.ensemble.write_csv(path, header, *columns)
        assert path.read_bytes() == _row_wise_csv(header, rows).encode()

    def test_all_scalars_give_one_row(self, tmp_path):
        path = tmp_path / "table.csv"
        dtcnet.ensemble.write_csv(path, "epsilon,n,favored", float("nan"), 8, "inconclusive")
        assert path.read_text() == "epsilon,n,favored\nnan,8,inconclusive\n"

    def test_zero_length_columns_write_header_only(self, tmp_path):
        path = tmp_path / "table.csv"
        dtcnet.ensemble.write_csv(path, "config,epsilon,pr", np.arange(0), 0.1, np.zeros(0))
        assert path.read_text() == "config,epsilon,pr\n"

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            dtcnet.ensemble.write_csv(tmp_path / "table.csv", "a,b", np.arange(3), np.zeros(4))
