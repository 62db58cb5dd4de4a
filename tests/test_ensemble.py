"""Sweep orchestration: spec validation, outputs, reproducibility."""

import csv
import json
import tempfile
import warnings
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import dtcnet
import dtcnet.ensemble
from dtcnet import EnsembleSpec, SpinChainParams, run_ensemble
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
            {"tasks": frozenset({"graph", "bogus"})},
            {"periods": 1},
        ],
    )
    def test_invalid_rejected(self, overrides):
        with pytest.raises(ValueError):
            _spec(**overrides)

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
        spec = _spec(params=SpinChainParams(n=15), tasks=frozenset({"classical"}))
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(ValueError):
                run_ensemble(spec, out_dir=tmp)

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
        monkeypatch.setenv("DTCNET_THREADS", "abc")
        manifest = run_ensemble(_spec(), out_dir=tmp_path)
        assert any("DTCNET_THREADS='abc'" in note for note in manifest.notes)
        saved = json.loads((Path(manifest.run_dir) / "manifest.json").read_text())
        assert saved["notes"] == manifest.notes


class TestReproducibility:
    def test_serial_rerun_bit_identical(self):
        check_rerun_reproducibility_serial()

    def test_parallel_matches_serial(self):
        check_parallel_aggregate_equivalence()

    def test_artifacts_exist_and_parse(self):
        check_manifest_artifacts_parse()
