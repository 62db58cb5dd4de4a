"""The edge gate's verdict (tools/edge_gate.py), on synthetic reports."""

import importlib.util
import io
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

import dtcnet
import dtcnet.cli

_spec = importlib.util.spec_from_file_location(
    "edge_gate", Path(__file__).resolve().parent.parent / "tools" / "edge_gate.py"
)
edge_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(edge_gate)


def _graphs(*margins: float) -> dict:
    flips = [
        {"graph": f"sweep eps=0.012 r={r}", "pair": [r, r + 1], "added": True, "baseline_margin": m}
        for r, m in enumerate(margins)
    ]
    return {"graphs": 600, "baseline_edges": 1000, "flips": len(flips), "flip_list": flips}


def _csvs(files: int = 102, differing: tuple[str, ...] = ()) -> dict:
    return {"files": files, "identical": files - len(differing), "differing": list(differing)}


def _verdicts(*differing: str) -> dict:
    return {"samples": 42, "max_abs_dnR": 1e-6, "differing": list(differing)}


def _exports(*differing: str) -> dict:
    documents = 432
    return {"documents": documents, "identical": documents - len(differing), "skipped_flipped": 0,
            "differing": list(differing)}


def _report(graphs: dict | None = None, csvs: dict | None = None, verdicts: dict | None = None,
            exports: dict | None = None, cli: dict | None = None) -> dict:
    return {
        "sweep_n8_fixture": graphs or _graphs(),
        "sweep_n8_fresh_u2": _graphs(),
        "ensemble_graphs": _graphs(),
        "ensemble_exports": exports or _exports(),
        "ensemble_csvs": csvs or _csvs(),
        "cli_outputs": cli or _csvs(files=29),
        "degree_verdicts": verdicts or _verdicts(),
        "public_api": {"removed": [], "added": []},
    }


def test_clean_report_passes():
    assert edge_gate.failures(_report()) == []


@pytest.mark.parametrize("margin", [0.0, 3e-15, -9.9e-12])
def test_roundoff_flip_passes(margin):
    assert edge_gate.failures(_report(graphs=_graphs(margin))) == []


@pytest.mark.parametrize("margin", [1e-11, -1e-11, 2e-9, -0.3])
def test_flip_at_or_above_the_margin_fails(margin):
    (reason,) = edge_gate.failures(_report(graphs=_graphs(1e-15, margin)))
    assert reason.startswith("sweep_n8_fixture: sweep eps=0.012 r=1 pair [1, 2] flipped")


def test_differing_csv_fails():
    csvs = _csvs(differing=("seed 1: gap_ratios.csv differs",))
    assert edge_gate.failures(_report(csvs=csvs)) == ["ensemble_csvs: seed 1: gap_ratios.csv differs"]


def test_differing_file_lists_fail():
    csvs = _csvs(files=100, differing=("seed 2: file lists differ",))
    assert edge_gate.failures(_report(csvs=csvs)) == ["ensemble_csvs: seed 2: file lists differ"]


def test_differing_cli_output_fails():
    cli = _csvs(files=29, differing=("walk: stderr differs", "simulate: U.npy differs"))
    assert edge_gate.failures(_report(cli=cli)) == [
        "cli_outputs: walk: stderr differs", "cli_outputs: simulate: U.npy differs"
    ]


def _npy(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def test_differing_npy_quantified():
    # the report says how an array differs; the verdict is the same as for any file
    H = np.array([[0.5, 0.25j], [-0.25j, -0.5]])
    moved = H + np.array([[0.0, 3e-15], [3e-15, 0.0]])
    old = {"heff_T.npy": _npy(H), "U.npy": _npy(H), "quasienergies.npy": _npy(H.real)}
    new = {"heff_T.npy": _npy(moved), "U.npy": _npy(H), "quasienergies.npy": _npy(H.real[0])}
    part = {"files": 0, "identical": 0, "differing": []}
    edge_gate.compare_files("simulate", new, old, part)
    assert part == {"files": 3, "identical": 1, "differing": [
        "simulate: heff_T.npy differs (same shape and dtype, max |diff| 3.000e-15)",
        "simulate: quasienergies.npy differs (shape (2, 2) -> (2,), dtype float64 -> float64)",
    ]}
    assert edge_gate.failures({**_report(), "cli_outputs": part}) == [
        f"cli_outputs: {line}" for line in part["differing"]
    ]


def test_differing_csv_quantified():
    # cells that moved are counted with their max |diff|; any other change is a layout change
    old = {
        "pr.csv": b"config,pr\n0,91.9244714877\n1,2.5\n",
        "rows.csv": b"config,pr\n0,1\n",
        "header.csv": b"config,pr\n0,1\n",
        "text.csv": b"name,value\na,1\n",
        "same.csv": b"k,V\n0,1\n",
    }
    new = {
        "pr.csv": b"config,pr\n0,91.9244714876\n1,2.5\n",
        "rows.csv": b"config,pr\n0,1\n1,2\n",
        "header.csv": b"config,PR\n0,1\n",
        "text.csv": b"name,value\nb,1\n",
        "same.csv": b"k,V\n0,1\n",
    }
    part = {"files": 0, "identical": 0, "differing": []}
    edge_gate.compare_files("seed 0", new, old, part)
    assert part == {"files": 5, "identical": 1, "differing": [
        "seed 0: header.csv differs (layout differs)",
        "seed 0: pr.csv differs (1 of 4 cells differ, max |diff| 1.000e-10)",
        "seed 0: rows.csv differs (layout differs)",
        "seed 0: text.csv differs (layout differs)",
    ]}
    assert edge_gate.failures({**_report(), "ensemble_csvs": part}) == [
        f"ensemble_csvs: {line}" for line in part["differing"]
    ]


class _LoudCli:
    """dtcnet whose command line prints one extra line before every run."""

    class cli:
        @staticmethod
        def main(argv):
            print("extra")
            return dtcnet.cli.main(argv)


def test_cli_runs_compared(monkeypatch):
    monkeypatch.setattr(edge_gate, "CLI_RUNS", {
        "graph": "graph --n 3 --epsilon 0.1 --format dot",
        "classical": "classical --n 3",
        "walk": "walk --n 3 --epsilon 0",  # refused: exit 1 and a one-line message
    })
    assert edge_gate.cli_gate(dtcnet, dtcnet) == {"files": 4, "identical": 4, "differing": []}
    assert edge_gate.cli_gate(_LoudCli(), dtcnet)["differing"] == [
        f"{name}: stdout differs" for name in ("graph", "classical", "walk")
    ]


def test_differing_degree_verdict_fails():
    verdicts = _verdicts("ensemble seed=3 eps=0.012 2T: inconclusive -> lognormal")
    assert edge_gate.failures(_report(verdicts=verdicts)) == [
        "degree_verdicts: ensemble seed=3 eps=0.012 2T: inconclusive -> lognormal"
    ]


def test_differing_export_fails():
    exports = _exports("ensemble seed=0 eps=0.1 r=2 2T: graphml differs")
    assert edge_gate.failures(_report(exports=exports)) == [
        "ensemble_exports: ensemble seed=0 eps=0.1 r=2 2T: graphml differs"
    ]


class _DotChanged:
    """dtcnet with one extra byte at the end of every DOT document."""

    def __getattr__(self, name):
        return getattr(dtcnet, name)

    def export_graph(self, g, format):
        return dtcnet.export_graph(g, format) + (b" " if format == "dot" else b"")


def _spectra(eps: float) -> tuple:
    params = dtcnet.SpinChainParams(n=3, epsilon=eps)
    spectrum = dtcnet.floquet_spectrum(dtcnet.drive_unitary(params, dtcnet.sample_disorder(params, 0, 0)))
    return spectrum, dtcnet.effective_hamiltonian(spectrum)


def test_exports_compared_byte_for_byte():
    gate = edge_gate.Gate()
    for label, pkg in (("same", dtcnet), ("dot", _DotChanged())):
        graphs = gate.compare(label, pkg, dtcnet, (_spectra(0.1), _spectra(0.1)))
        gate.compare_exports(label, pkg, dtcnet, *graphs)
    assert gate.exports == {
        "documents": 8, "identical": 7, "skipped_flipped": 0, "differing": ["dot: dot differs"]
    }


def test_flipped_graph_exports_skipped():
    gate = edge_gate.Gate()
    # epsilon 0 pairs every configuration with its mirror; 0.5 couples far more pairs
    graphs = gate.compare("flipped", dtcnet, dtcnet, (_spectra(0.5), _spectra(0.0)))
    gate.compare_exports("flipped", dtcnet, dtcnet, *graphs)
    assert gate.flips
    assert gate.exports == {"documents": 0, "identical": 0, "skipped_flipped": 1, "differing": []}


class _AlwaysFresh:
    """dtcnet whose two_period_spectrum solves U^2 afresh at every epsilon."""

    def __getattr__(self, name):
        return getattr(dtcnet, name)

    def two_period_spectrum(self, U, spectrum):
        return dtcnet.floquet_core.floquet_spectrum(dtcnet.squared_floquet(U))


def test_two_period_routes_counted_per_side(monkeypatch):
    monkeypatch.setattr(edge_gate, "ENSEMBLE", {**edge_gate.ENSEMBLE, "params": {"n": 4}, "realizations": 1})
    monkeypatch.setattr(edge_gate, "GRAPH_SEEDS", range(1))
    same = edge_gate.ensemble_gate(dtcnet, dtcnet).report()
    # epsilon = 0 solves U^2 on its diagonal blocks; 0.012 and 0.1 reuse U's eigenpairs
    assert same["two_period_routes"] == {side: {"reused": 2, "fresh": 1} for side in ("change", "baseline")}
    assert edge_gate.failures({"ensemble_graphs": same}) == []
    changed = edge_gate.ensemble_gate(_AlwaysFresh(), dtcnet).report()
    assert changed["two_period_routes"]["change"] == {"reused": 0, "fresh": 3}
    assert edge_gate.failures({"ensemble_graphs": changed}) == [
        "ensemble_graphs: ensemble seed=0 eps=0.012 r=0: 2T route reused -> fresh",
        "ensemble_graphs: ensemble seed=0 eps=0.1 r=0: 2T route reused -> fresh",
    ]


def test_every_reason_is_listed():
    report = _report(graphs=_graphs(5e-10, 1e-16, -4e-8), csvs=_csvs(differing=("seed 0: a.csv differs",)))
    assert len(edge_gate.failures(report)) == 3


@dataclass
class _Record:
    values: int


@dataclass
class _SizedRecord:
    values: int
    size: int


def _package(record: type) -> ModuleType:
    """A package with one function, one module, one _ name and the dataclass record as Record."""
    pkg = ModuleType("pkg")
    pkg.run = lambda spec, seed=0: None
    pkg.inner = ModuleType("pkg.inner")
    pkg._private = lambda x: x
    pkg.Record = record
    return pkg


def test_public_api_lists_a_removed_field():
    assert edge_gate.public_api(_package(_Record)) == {"Record", "Record(values)", "run", "run(seed)", "run(spec)"}
    part = edge_gate.api_gate(_package(_Record), _package(_SizedRecord))
    assert part == {"removed": ["Record(size)"], "added": []}
    assert edge_gate.failures({**_report(), "public_api": part}) == []
