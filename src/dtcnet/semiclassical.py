"""Classical stroboscopic energy surface and fixed-point stability.

Spins become unit vectors with polar angles theta_l; the two-period
energy surface at zero rotation error is (T2/T) sum_{l<m} J_lm
cos(theta_l) cos(theta_m). Configurations with every angle in {0, pi}
are fixed points; their character follows from the eigenvalues of the
curvature (Jacobian) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi

import numpy as np

from .spin_hilbert import SpinChainParams

__all__ = [
    "ClassicalConfiguration",
    "StabilityReport",
    "classical_energy",
    "jacobian",
    "classify_fixed_point",
]

ANGLE_TOL = 1e-12
MARGINAL_TOL = 1e-12
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ClassicalConfiguration:
    """Polar angles of n classical spins, each in [0, pi]."""

    thetas: np.ndarray
    fixed_point_flag: bool = field(init=False)

    def __post_init__(self) -> None:
        thetas = np.asarray(self.thetas, dtype=float)
        if thetas.ndim != 1 or thetas.size < 2:
            raise ValueError("need a vector of at least 2 angles")
        if np.any(thetas < 0.0) or np.any(thetas > pi):
            raise ValueError("angles must lie in [0, pi]")
        object.__setattr__(self, "thetas", thetas)
        at_pole = (np.abs(thetas) < ANGLE_TOL) | (np.abs(thetas - pi) < ANGLE_TOL)
        object.__setattr__(self, "fixed_point_flag", bool(np.all(at_pole)))

    @property
    def n(self) -> int:
        return self.thetas.size


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Spectrum of a curvature matrix and the resulting classification."""

    eigenvalues: np.ndarray
    classification: str


def classical_energy(config: ClassicalConfiguration, params: SpinChainParams) -> float:
    """(T2/T) sum_{l<m} J_lm cos(theta_l) cos(theta_m)."""
    if config.n != params.n:
        raise ValueError(f"configuration has {config.n} angles, params.n = {params.n}")
    c = np.cos(config.thetas)
    J = params.couplings()
    return float((params.T2 / params.period) * 0.5 * c @ J @ c)


def jacobian(config: ClassicalConfiguration, params: SpinChainParams) -> np.ndarray:
    """Second-derivative matrix of the pair energy sum_{l<m} J cos cos.

    Entries are J_ii = -sum_m J_im cos(theta_i) cos(theta_m) and
    J_ij = J_ij sin(theta_i) sin(theta_j), valid at any angles. Note
    the scale: this is the Hessian of the bare pair sum, i.e. (T/T2)
    times the Hessian of classical_energy.
    """
    if config.n != params.n:
        raise ValueError(f"configuration has {config.n} angles, params.n = {params.n}")
    c = np.cos(config.thetas)
    s = np.sin(config.thetas)
    J = params.couplings()
    matrix = J * np.outer(s, s)
    np.fill_diagonal(matrix, -c * (J @ c))
    return matrix


def classify_fixed_point(j: np.ndarray) -> StabilityReport:
    """Spectrum-based stability of a symmetric curvature matrix.

    stable: all eigenvalues share a sign (either extremum counts);
    unstable_saddle: mixed signs; marginal: any eigenvalue within
    MARGINAL_TOL of zero.
    """
    matrix = np.asarray(j, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("jacobian must be a square matrix")
    defect = np.abs(matrix - matrix.T).max()
    if not defect <= SYMMETRY_TOL:
        raise ValueError(f"jacobian not symmetric: defect {defect:.3e}")
    eigenvalues = np.linalg.eigvalsh(matrix)
    if np.any(np.abs(eigenvalues) < MARGINAL_TOL):
        classification = "marginal"
    elif np.all(eigenvalues > 0.0) or np.all(eigenvalues < 0.0):
        classification = "stable"
    else:
        classification = "unstable_saddle"
    return StabilityReport(eigenvalues=eigenvalues, classification=classification)
