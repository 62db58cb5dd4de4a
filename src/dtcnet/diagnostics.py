"""Level statistics, magnetization power spectra, and walk diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .floquet_core import FloquetOperator, drive_unitary, stroboscopic_evolve
from .spin_hilbert import (
    Configuration,
    DisorderRealization,
    SpinChainParams,
    spin_z_table,
)

__all__ = [
    "GapRatioSample",
    "PowerSpectrum",
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
    "basis_dynamics",
    "pr_distribution",
]

# Gaps below this are exact degeneracies for our purposes: their ratios
# would be 0/0 noise, so they are dropped and counted instead.
DEGENERATE_GAP_CUTOFF = 1e-12
REFERENCE_KINDS = ("poisson", "goe", "coe")


@dataclass(frozen=True, eq=False)
class GapRatioSample:
    """Adjacent-gap ratios r = min/max, all in [0, 1].

    excluded_degenerate counts gaps dropped by the cutoff.
    """

    ratios: np.ndarray
    excluded_degenerate: int = 0


@dataclass(frozen=True, eq=False)
class PowerSpectrum:
    """Squared DFT magnitudes V_k of a stroboscopic series, k = 0..N-1."""

    V: np.ndarray
    N: int
    period: float

    def omega(self, k):
        """Angular frequency 2 pi k / (N T) of bin k, or of each bin in an array k."""
        return 2.0 * pi * k / (self.N * self.period)


def gap_ratios(quasienergies) -> GapRatioSample:
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
    return GapRatioSample(ratios=ratios, excluded_degenerate=excluded)


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
    # imported on first use: with the scipy.special it loads, scipy.integrate
    # and scipy.optimize make up a third of `import dtcnet`
    from scipy.integrate import quad
    val, _ = quad(lambda r: reference_pdf(kind, r), 0.0, 1.0, limit=200)
    return float(val)


def reference_mean(kind: str) -> float:
    """Mean of the reference density over [0, 1] by quadrature."""
    from scipy.integrate import quad  # on first use, as in reference_normalization
    val, _ = quad(lambda r: r * reference_pdf(kind, r), 0.0, 1.0, limit=200)
    return float(val)


def mean_gap_ratio(sample: GapRatioSample) -> float:
    if sample.ratios.size == 0:
        raise ValueError("empty gap-ratio sample")
    return float(sample.ratios.mean())


def magnetization_series(U: FloquetOperator, initial: Configuration, N: int) -> np.ndarray:
    """Total z magnetization per site at m = 0..N periods.

    The expectation value of sum_l sigma^z_l, which is diagonal with
    entries spin_z_table(n).sum(axis=1), in each evolved state.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    states = stroboscopic_evolve(U, initial, N)
    sz_total = spin_z_table(initial.n).sum(axis=1)
    return np.real(np.einsum("mi,i,mi->m", states.conj(), sz_total, states)) / initial.n


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


def walk_populations(U: FloquetOperator, initial: Configuration, N: int) -> np.ndarray:
    """Configuration populations |<i|psi(mT)>|^2, one row per period m = 0..N."""
    if N < 0:
        raise ValueError("N must be >= 0")
    populations = np.abs(stroboscopic_evolve(U, initial, N)) ** 2
    row_defect = np.abs(populations.sum(axis=1) - 1.0).max()
    if row_defect > 1e-10:
        raise RuntimeError(f"walk populations not normalized: defect {row_defect:.3e}")
    return populations


def participation_ratio(state) -> float:
    """1 / sum |A_i|^4: how many configurations a state occupies."""
    psi = np.asarray(state, dtype=complex).reshape(-1)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state is not normalized: |psi| = {norm:.12f}")
    return float(1.0 / np.sum(np.abs(psi) ** 4))


def walk_horizon_periods(params: SpinChainParams) -> int:
    """Tunneling horizon tau = T/(g eps T1) = 2/(pi eps) periods (g T1 = pi/2), rounded, >= 1."""
    if params.epsilon <= 0.0:
        raise ValueError("epsilon must be positive: the tunneling time diverges at 0")
    tau_over_T = 2.0 / (pi * params.epsilon)
    if tau_over_T == float("inf"):
        raise ValueError(f"epsilon = {params.epsilon:g} is too small: the tunneling horizon overflows")
    return max(1, int(round(tau_over_T)))


def basis_dynamics(
    U: FloquetOperator, periods: int, horizon: int | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Evolve every initial configuration at once by powering the propagator.

    Starts from W = I and repeats W = U W (FloquetOperator.apply, the
    factored product for a drive propagator) up to max(periods, horizon).
    Returns (magnetization, prs): magnetization[m, i] is the per-site z
    magnetization at m = 0..periods of the state started in
    configuration i, and prs[i] its participation ratio 1 / sum |W|^4 at
    m = horizon (None when no horizon is given).
    """
    if periods < 0 or (horizon is not None and horizon < 1):
        raise ValueError(f"need periods >= 0 and horizon >= 1, got {periods} and {horizon}")
    n = U.dim.bit_length() - 1
    sign_sum = spin_z_table(n).sum(axis=1)
    magnetization = np.empty((periods + 1, U.dim))
    magnetization[0] = sign_sum / n  # m = 0: populations are the basis states themselves
    prs = None
    W = np.eye(U.dim, dtype=complex)
    for m in range(1, max(periods, horizon or 0) + 1):
        W = U.apply(W)
        if m <= periods:
            magnetization[m] = sign_sum @ (np.abs(W) ** 2) / n
        if m == horizon:
            prs = 1.0 / np.sum(np.abs(W) ** 4, axis=0)
    return magnetization, prs


def pr_distribution(params: SpinChainParams, disorder: DisorderRealization) -> np.ndarray:
    """Participation ratio of every configuration at walk_horizon_periods(params)."""
    horizon = walk_horizon_periods(params)
    return basis_dynamics(drive_unitary(params, disorder), 0, horizon)[1]
