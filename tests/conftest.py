"""Shared fixtures and the acceptance-summary reporting hook.

The acceptance tests register one line each through record_criterion;
pytest_terminal_summary prints the collected lines at the end of the
run so the per-criterion verdicts are visible regardless of capture
settings.
"""

from __future__ import annotations

import time

import pytest
import scipy.linalg

from dtcnet import SpinChainParams, Stages, clusters, gap_ratios, sample_disorder

_CRITERION_LINES: list[tuple[int, str]] = []


def record_criterion(num: int, name: str, ok: bool, detail: str) -> None:
    """Store and emit one acceptance verdict line, then assert it."""
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {verdict} -- {detail}"
    _CRITERION_LINES.append((num, line))
    print(line, flush=True)
    assert ok, line


def pytest_terminal_summary(terminalreporter) -> None:
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)


# Epsilon values needed jointly by the degree-regime, wall-class, and
# level-statistics acceptance tests. One spectral decomposition per
# (epsilon, realization) pair serves all three.
SWEEP_EPSILONS = (0.005, 0.01, 0.012, 0.02, 0.05, 0.1)
SWEEP_REALIZATIONS = 100
SWEEP_SEED = 1234
SWEEP_N = 8


@pytest.fixture(scope="session")
def sweep_n8():
    """n=8 disorder sweep shared by the statistics acceptance tests.

    Returns per-epsilon lists (one entry per realization) of gap-ratio
    arrays, degree arrays, wall labels, and largest-cluster fractions,
    plus the wall-clock seconds the whole sweep took. Disorder fields
    are fixed per realization index across the epsilon sweep.
    """
    t0 = time.perf_counter()
    base = SpinChainParams(n=SWEEP_N)
    dim = base.dim
    data = {
        eps: {"ratios": [], "degrees": [], "walls": None, "largest": []}
        for eps in SWEEP_EPSILONS
    }
    for r in range(SWEEP_REALIZATIONS):
        disorder = sample_disorder(base, SWEEP_SEED, r)
        for eps in SWEEP_EPSILONS:
            stages = Stages(SpinChainParams(n=SWEEP_N, epsilon=eps), disorder)
            spectrum = stages.spectrum
            graph = stages.graph(spectrum)
            bucket = data[eps]
            bucket["ratios"].append(gap_ratios(spectrum.quasienergies).ratios)
            bucket["degrees"].append(graph.degrees.copy())
            if bucket["walls"] is None:
                bucket["walls"] = graph.domain_walls.copy()
            bucket["largest"].append(clusters(graph).sizes[0] / dim)
    elapsed = time.perf_counter() - t0
    return {"data": data, "elapsed": elapsed, "dim": dim}


@pytest.fixture
def skewed_eigh(monkeypatch):
    """Make every scipy.linalg.eigh basis non-orthonormal.

    floquet_spectrum's real solve of a drive propagator then fails both
    its residual and its orthonormality gate and falls back to Schur.
    """
    real_eigh = scipy.linalg.eigh

    def skewed(*args, **kwargs):
        w, z = real_eigh(*args, **kwargs)
        z[:, 0] += 1e-6 * z[:, 1]
        return w, z

    monkeypatch.setattr(scipy.linalg, "eigh", skewed)
