"""Level statistics, magnetization power spectra, and walk diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np
from scipy.integrate import quad

from .floquet_core import FloquetOperator, drive_unitary, stroboscopic_evolve
from .spin_hilbert import (
    Configuration,
    DisorderRealization,
    SpinChainParams,
    pauli_string,
    spin_z_table,
)

__all__ = [
    "GapRatioSample",
    "PowerSpectrum",
    "WalkRecord",
    "gap_ratios",
    "reference_pdf",
    "reference_mean",
    "reference_normalization",
    "mean_gap_ratio",
    "magnetization_series",
    "power_spectrum",
    "dft_power",
    "spectral_fidelity",
    "walk_populations",
    "participation_ratio",
    "walk_horizon_periods",
    "pr_distribution",
]

# Gaps below this are exact degeneracies for our purposes: their ratios
# would be 0/0 noise, so they are dropped and counted instead.
DEGENERATE_GAP_CUTOFF = 1e-12
CROSS_CHECK_TOL = 1e-10
REFERENCE_KINDS = ("poisson", "goe", "coe")


@dataclass(frozen=True, eq=False)
class GapRatioSample:
    """Adjacent-gap ratios r = min/max, all in [0, 1].

    source optionally records (n, epsilon, realization count) for
    provenance; excluded_degenerate counts gaps dropped by the cutoff.
    """

    ratios: np.ndarray
    source: tuple | None = None
    excluded_degenerate: int = 0


@dataclass(frozen=True, eq=False)
class PowerSpectrum:
    """Squared DFT magnitudes V_k of a stroboscopic series, k = 0..N-1."""

    V: np.ndarray
    N: int
    period: float

    def omega(self, k: int) -> float:
        """Angular frequency 2 pi k / (N T) of bin k."""
        return 2.0 * pi * k / (self.N * self.period)


@dataclass(frozen=True, eq=False)
class WalkRecord:
    """Configuration populations over stroboscopic time, one row per period."""

    populations: np.ndarray
    initial: Configuration


def gap_ratios(quasienergies, source: tuple | None = None) -> GapRatioSample:
    """Ratios of consecutive level spacings of a sorted spectrum.

    Gaps below DEGENERATE_GAP_CUTOFF are removed before pairing (and
    counted), so exact degeneracies do not contribute 0/0 ratios.
    """
    levels = np.sort(np.asarray(quasienergies, dtype=float))
    if levels.size < 3:
        raise ValueError(f"need at least 3 levels, got {levels.size}")
    gaps = np.diff(levels)
    keep = gaps >= DEGENERATE_GAP_CUTOFF
    excluded = int(np.count_nonzero(~keep))
    gaps = gaps[keep]
    if gaps.size >= 2:
        ratios = np.minimum(gaps[:-1], gaps[1:]) / np.maximum(gaps[:-1], gaps[1:])
    else:
        ratios = np.empty(0)
    return GapRatioSample(ratios=ratios, source=source, excluded_degenerate=excluded)


def _poisson_pdf(r):
    return 2.0 / (1.0 + r) ** 2


def _goe_pdf(r):
    return (27.0 / 4.0) * (r + r**2) / (1.0 + r + r**2) ** 2.5


def _coe_pdf(r):
    """Closed-form three-level surmise for the circular beta = 1 ensemble.

    Normalized antiderivative of the gap-pair density
    sin(s/2) sin(rs/2) sin((1+r)s/2); the often-quoted short form keeps
    only its sine terms and diverges at r -> 0, so the two cosine terms
    are restored here. Integrates to 1 over [0, 1] (checked at runtime
    by reference_normalization) with mean 0.52692.
    """
    r = np.asarray(r, dtype=float)
    safe = np.where(r == 0.0, 1.0, r)
    L = 2.0 * pi / (1.0 + safe)
    rL = 2.0 * pi * safe / (1.0 + safe)
    bracket = (
        np.sin(L)
        - L * np.cos(L)
        + np.sin(rL) / safe**2
        - (L / safe) * np.cos(rL)
        + 2.0 * pi / (1.0 + safe) ** 2
    )
    return np.where(r == 0.0, 0.0, bracket / (3.0 * pi))


_REFERENCE_PDFS = {"poisson": _poisson_pdf, "goe": _goe_pdf, "coe": _coe_pdf}


def reference_pdf(kind: str, r):
    """Reference gap-ratio density at r in [0, 1].

    kind is one of 'poisson', 'goe', 'coe'; scalar or array r.
    """
    if kind not in _REFERENCE_PDFS:
        raise ValueError(f"unknown reference kind {kind!r}; expected one of {REFERENCE_KINDS}")
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("gap ratio r must lie in [0, 1]")
    out = _REFERENCE_PDFS[kind](arr)
    return float(out) if np.isscalar(r) or arr.ndim == 0 else out


def reference_normalization(kind: str) -> float:
    """Quadrature of the reference density over [0, 1] (should be ~1)."""
    val, _ = quad(lambda r: reference_pdf(kind, r), 0.0, 1.0, limit=200)
    return float(val)


def reference_mean(kind: str) -> float:
    """Mean of the reference density over [0, 1] by quadrature."""
    val, _ = quad(lambda r: r * reference_pdf(kind, r), 0.0, 1.0, limit=200)
    return float(val)


def mean_gap_ratio(sample: GapRatioSample) -> float:
    if sample.ratios.size == 0:
        raise ValueError("empty gap-ratio sample")
    return float(sample.ratios.mean())


def magnetization_series(U: FloquetOperator, initial: Configuration, N: int) -> np.ndarray:
    """Total z magnetization per site at m = 0..N periods.

    Computed twice: as the operator expectation value and from the
    configuration populations weighted by per-site signs. The two code
    paths must agree to CROSS_CHECK_TOL; a mismatch means the basis
    conventions have drifted and raises immediately.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    n = U.dim.bit_length() - 1
    if initial.n != n or 2**n != U.dim:
        raise ValueError("initial configuration does not match the propagator dimension")
    states = stroboscopic_evolve(U, initial, N)

    sz_total = sum(pauli_string([(l, "z")], n).matrix for l in range(1, n + 1))
    direct = np.real(np.einsum("mi,ij,mj->m", states.conj(), sz_total, states)) / n

    # population path: bit b of config j contributes -(-1)^b
    sign_sum = spin_z_table(n).sum(axis=1)
    populations = np.abs(states) ** 2
    via_populations = populations @ sign_sum / n

    mismatch = np.abs(direct - via_populations).max()
    if mismatch > CROSS_CHECK_TOL:
        raise RuntimeError(f"magnetization cross-check failed: mismatch {mismatch:.3e}")
    return direct


def power_spectrum(series, period: float = 2.0) -> PowerSpectrum:
    """Direct DFT of a stroboscopic series of N+1 samples.

    M(k) = (1/N) sum_{m=1..N} exp(-i 2 pi k m / N) series[m]; the m = 0
    sample anchors the series but does not enter the sum. Satisfies
    sum_k V_k = (1/N) sum_{m=1..N} |series[m]|^2.
    """
    values = np.asarray(series, dtype=float)
    if values.ndim != 1:
        raise ValueError("series must be one-dimensional")
    N = values.size - 1
    if N < 2:
        raise ValueError(f"need at least 3 samples (N >= 2), got {values.size}")
    return PowerSpectrum(V=dft_power(values), N=N, period=period)


def dft_power(series: np.ndarray) -> np.ndarray:
    """|M(k)|^2 of power_spectrum along axis 0: one series, or one per column.

    A direct phase-matrix product, not an FFT: the two round differently
    in the near-zero bins, and the written spectra keep this arithmetic.
    """
    N = series.shape[0] - 1
    m = np.arange(1, N + 1)
    k = np.arange(N)
    phases = np.exp(-2j * pi * np.outer(k, m) / N)
    return np.abs(phases @ series[1:] / N) ** 2


def spectral_fidelity(V_ref: PowerSpectrum, V_eps: PowerSpectrum) -> float:
    """Cosine-overlap fidelity sqrt(V_ref . V_eps / (|V_ref| |V_eps|))."""
    a, b = V_ref.V, V_eps.V
    if a.size != b.size:
        raise ValueError(f"spectra differ in length: {a.size} vs {b.size}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-30 or nb < 1e-30:
        raise ValueError("zero-norm power spectrum")
    return float(min(1.0, np.sqrt(max(0.0, float(a @ b)) / (na * nb))))


def walk_populations(U: FloquetOperator, initial: Configuration, N: int) -> WalkRecord:
    """Configuration populations |<i|psi(mT)>|^2 for m = 0..N."""
    if N < 0:
        raise ValueError("N must be >= 0")
    n = U.dim.bit_length() - 1
    if initial.n != n or 2**n != U.dim:
        raise ValueError("initial configuration does not match the propagator dimension")
    populations = np.abs(stroboscopic_evolve(U, initial, N)) ** 2
    row_defect = np.abs(populations.sum(axis=1) - 1.0).max()
    if row_defect > 1e-10:
        raise RuntimeError(f"walk populations not normalized: defect {row_defect:.3e}")
    return WalkRecord(populations=populations, initial=initial)


def participation_ratio(state) -> float:
    """1 / sum |A_i|^4: how many configurations a state occupies."""
    psi = np.asarray(state, dtype=complex).reshape(-1)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state is not normalized: |psi| = {norm:.12f}")
    return float(1.0 / np.sum(np.abs(psi) ** 4))


def walk_horizon_periods(params: SpinChainParams) -> int:
    """Tunneling horizon tau = T/(g eps T1) rounded to whole periods, >= 1."""
    if params.epsilon <= 0.0:
        raise ValueError("epsilon must be positive: the tunneling time diverges at 0")
    tau_over_T = 1.0 / (params.g * params.epsilon * params.T1)
    return max(1, int(round(tau_over_T)))


def pr_distribution(params: SpinChainParams, disorder: DisorderRealization) -> np.ndarray:
    """Participation ratio of every initial configuration at the horizon.

    Evolves each basis state for walk_horizon_periods(params) periods
    (all at once by powering the propagator) and returns the vector of
    participation ratios indexed by configuration.
    """
    periods = walk_horizon_periods(params)
    U = drive_unitary(params, disorder)
    W = np.eye(U.dim, dtype=complex)
    for _ in range(periods):
        W = U.matrix @ W
    return 1.0 / np.sum(np.abs(W) ** 4, axis=0)
