"""Floquet operator, quasienergy spectrum, and effective Hamiltonians.

The drive alternates a global x pulse (duration T1) with a disordered
Ising step (duration T2); the one-period propagator is
U = exp(-i H2 T2) exp(-i H1 T1). Quasienergies are the eigenphase map
lambda_s = -arg(mu_s)/period folded into (-pi/period, pi/period].
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .spin_hilbert import (
    Configuration,
    DenseOperator,
    DisorderRealization,
    SpinChainParams,
    diagonal_energies,
    interaction_energies,
    pauli_string,
)

__all__ = [
    "FloquetOperator",
    "FloquetSpectrum",
    "EffectiveHamiltonian",
    "floquet_operator",
    "drive_unitary",
    "squared_floquet",
    "floquet_spectrum",
    "effective_hamiltonian",
    "bch_effective_2T",
    "stroboscopic_evolve",
]

# Entries below SUPPORT_TOL are treated as structural zeros when the
# propagator is split into independent blocks. The threshold sits far
# above matmul roundoff (~1e-16) and far below any physical amplitude
# at the epsilon values of interest, so blocks only appear where the
# dynamics is exactly decoupled (e.g. the perfect-pulse dimers).
SUPPORT_TOL = 1e-13
# Quasienergy gaps below this are treated as a degenerate cluster.
DEGENERACY_TOL = 1e-10
# Eigenphases this close to +-pi get a branch-margin warning: the
# folding of lambda is numerically unstable there.
BRANCH_MARGIN = 1e-10
ORTHONORMALITY_TOL = 1e-12
# Deviation allowed when verifying the rigid drive shape (uniform
# transverse pulse, diagonal Ising step) that the closed-form
# exponentials rely on.
STRUCTURE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FloquetOperator:
    """One- or multi-period propagator with its provenance hash."""

    matrix: np.ndarray
    period: float
    params_hash: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class FloquetSpectrum:
    """Quasienergies (ascending) with matching eigenvector columns.

    branch_warnings lists eigenphases that sit within BRANCH_MARGIN of
    the +-pi cut, where the fold direction is not numerically robust.
    """

    quasienergies: np.ndarray
    states: np.ndarray
    eigenvalues: np.ndarray
    period: float
    branch_warnings: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonian:
    """Hermitian generator H with U = exp(-i H period)."""

    matrix: np.ndarray
    period: float

    def onsite(self, i: int) -> float:
        """Configuration energy E_i (diagonal element, real part)."""
        return float(self.matrix[i, i].real)

    def coupling(self, i: int, j: int) -> complex:
        """Transition amplitude K_ij between distinct configurations."""
        if i == j:
            raise ValueError("coupling is defined for i != j; use onsite")
        return complex(self.matrix[i, j])


def _params_hash(params: SpinChainParams, diag: np.ndarray, pulse: float) -> str:
    h = hashlib.sha256()
    h.update(
        repr(
            (params.n, params.J0, params.alpha, params.W, params.epsilon, params.T1, params.T2)
        ).encode()
    )
    h.update(np.ascontiguousarray(diag).tobytes())
    h.update(np.float64(pulse).tobytes())
    return h.hexdigest()[:16]


def floquet_operator(H1: DenseOperator, H2: DenseOperator, params: SpinChainParams) -> FloquetOperator:
    """Build the one-period propagator U = exp(-i H2 T2) exp(-i H1 T1).

    Both exponentials are assembled in closed form, which only works
    because the drive has a rigid shape: H1 must be a uniform transverse
    pulse c * sum_l sigma_l^x (commuting single-site terms, so its
    exponential is a tensor power of one-qubit rotations) and H2 must be
    diagonal. Both structures are verified, not assumed. This is the
    reference path that drive_unitary is tested against.
    """
    if H1.matrix.shape != H2.matrix.shape:
        raise ValueError(
            f"dimension mismatch: H1 is {H1.matrix.shape}, H2 is {H2.matrix.shape}"
        )
    if H1.n != params.n:
        raise ValueError(f"drive acts on {H1.n} sites, params.n = {params.n}")
    n = params.n

    offdiag = H2.matrix - np.diag(H2.matrix.diagonal())
    if np.abs(offdiag).max() > STRUCTURE_TOL:
        raise ValueError("H2 must be diagonal in the configuration basis")

    c = H1.matrix[0, 1].real
    xsum = sum(pauli_string([(l, "x")], n).matrix for l in range(1, n + 1))
    if np.abs(H1.matrix - c * xsum).max() > STRUCTURE_TOL * max(1.0, abs(c)):
        raise ValueError("H1 must be a uniform transverse pulse c * sum_l sigma_l^x")
    return _closed_form_propagator(params, H2.matrix.diagonal().real, c)


def _closed_form_propagator(params: SpinChainParams, diag: np.ndarray, c: float) -> FloquetOperator:
    """U = diag(exp(-i diag T2)) R^(x n), with R = exp(-i c T1 sigma^x) one pulsed spin."""
    theta = c * params.T1
    rot = np.array(
        [[np.cos(theta), -1j * np.sin(theta)], [-1j * np.sin(theta), np.cos(theta)]]
    )
    U1 = np.array([[1.0 + 0.0j]])
    for _ in range(params.n):
        U1 = np.kron(U1, rot)
    matrix = np.exp(-1j * diag * params.T2)[:, None] * U1
    return FloquetOperator(
        matrix=matrix, period=params.period, params_hash=_params_hash(params, diag, c)
    )


def drive_unitary(params: SpinChainParams, disorder: DisorderRealization) -> FloquetOperator:
    """One-period propagator of the drive, built straight from its parameters.

    Takes the Ising-step energies and the pulse amplitude g(1 - epsilon)
    without assembling the dense drive Hamiltonians; the matrix and hash
    equal floquet_operator(*build_drive(params, disorder), params).
    """
    diag = diagonal_energies(params, disorder)
    return _closed_form_propagator(params, diag, params.g * (1.0 - params.epsilon))


def squared_floquet(op: FloquetOperator) -> FloquetOperator:
    """Two-period propagator U^2; period doubles, hash is preserved."""
    return FloquetOperator(
        matrix=op.matrix @ op.matrix, period=2.0 * op.period, params_hash=op.params_hash
    )


def floquet_spectrum(op: FloquetOperator) -> FloquetSpectrum:
    """Diagonalize a unitary propagator block by block.

    The support graph of |U_ij| > SUPPORT_TOL is split into connected
    components and each block gets its own complex Schur decomposition.
    Decoupled blocks therefore never mix: at zero rotation error the
    mirror-symmetric dimer pairs are exactly degenerate, and a dense
    solver would rotate them into each other at machine precision,
    producing spurious couplings. Eigenvectors across blocks have
    disjoint support, hence exact zeros in the effective Hamiltonian.
    """
    U = op.matrix
    dim = U.shape[0]
    if U.shape != (dim, dim):
        raise ValueError("propagator must be square")
    support = csr_matrix(np.abs(U) > SUPPORT_TOL)
    n_comp, labels = connected_components(support, directed=False)
    eigenvalues = np.zeros(dim, dtype=complex)
    states = np.zeros((dim, dim), dtype=complex)
    col = 0
    for comp in range(n_comp):
        idx = np.flatnonzero(labels == comp)
        tmat, z = scipy.linalg.schur(U[np.ix_(idx, idx)], output="complex")
        eigenvalues[col : col + idx.size] = np.diag(tmat)
        states[idx, col : col + idx.size] = z
        col += idx.size

    cut = np.pi / op.period
    lam = -np.angle(eigenvalues) / op.period
    # np.angle lands in (-pi, pi]; fold the single boundary case onto +cut
    lam = np.where(lam <= -cut, lam + 2.0 * cut, lam)

    margins = np.pi - np.abs(np.angle(eigenvalues))
    warnings = tuple(
        f"eigenphase {np.angle(eigenvalues[s]):+.12f} within {BRANCH_MARGIN:g} of the branch cut"
        for s in np.flatnonzero(margins < BRANCH_MARGIN)
    )

    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    eigenvalues = eigenvalues[order]
    states = states[:, order]
    _reorthonormalize_clusters(lam, states)
    return FloquetSpectrum(
        quasienergies=lam,
        states=states,
        eigenvalues=eigenvalues,
        period=op.period,
        branch_warnings=warnings,
    )


def _reorthonormalize_clusters(lam: np.ndarray, states: np.ndarray) -> None:
    """QR-clean eigenvector clusters of near-degenerate quasienergies.

    Schur blocks already give orthonormal columns, so this is a safety
    net: it only rewrites a cluster whose Gram matrix departs from the
    identity by more than ORTHONORMALITY_TOL.
    """
    if lam.size < 2:
        return
    breaks = np.flatnonzero(np.diff(lam) >= DEGENERACY_TOL)
    start = 0
    for stop in [*list(breaks + 1), lam.size]:
        if stop - start > 1:
            block = states[:, start:stop]
            gram = block.conj().T @ block
            if np.abs(gram - np.eye(stop - start)).max() > ORTHONORMALITY_TOL:
                q, _ = np.linalg.qr(block)
                states[:, start:stop] = q
        start = stop


def effective_hamiltonian(spectrum: FloquetSpectrum) -> EffectiveHamiltonian:
    """Spectral synthesis H = sum_s lambda_s |Phi_s><Phi_s|."""
    V = spectrum.states
    matrix = (V * spectrum.quasienergies) @ V.conj().T
    return EffectiveHamiltonian(matrix=matrix, period=spectrum.period)


def bch_effective_2T(params: SpinChainParams, disorder: DisorderRealization) -> EffectiveHamiltonian:
    """First-order closed form for the two-period effective Hamiltonian.

    H = (T2/T) sum_{l<m} J_lm sigma_l^z sigma_m^z
        - (g eps T1)/(2T) sum_l [(cos(2 B_l T2) + 1) sigma_l^x
                                 + sin(2 B_l T2) sigma_l^y]

    with T = T1 + T2 the single-drive period. The truncation keeps the
    bare transverse term only; its error is linear in epsilon (the
    dropped Ising-dressing commutators enter at the same order), which
    the scaling tests document.
    """
    if disorder.n != params.n:
        raise ValueError(f"disorder has {disorder.n} fields, params.n = {params.n}")
    n = params.n
    T = params.period
    matrix = np.diag((params.T2 / T) * interaction_energies(params)).astype(complex)
    pref = params.g * params.epsilon * params.T1 / (2.0 * T)
    rows = np.arange(2**n)
    for l in range(1, n + 1):
        phase = 2.0 * params.T2 * disorder.fields[l - 1]
        flip = 1 << (n - l)
        # sigma_l^x and sigma_l^y live on the single-flip pairs (i, i ^ flip);
        # sigma_l^y[i, i ^ flip] is +i where site l is down in row i, -i where up
        y_sign = np.where(rows & flip, 1.0, -1.0)
        x_part = -pref * (np.cos(phase) + 1.0)
        matrix[rows, rows ^ flip] = x_part + 1j * (pref * np.sin(phase)) * y_sign
    return EffectiveHamiltonian(matrix=matrix, period=2.0 * T)


def stroboscopic_evolve(
    op: FloquetOperator, initial: Configuration | np.ndarray, num_periods: int
) -> np.ndarray:
    """States at m = 0..num_periods periods, one per row.

    initial may be a Configuration (mapped to its basis vector) or any
    state vector. Row m is U^m psi0 computed by repeated application,
    not by powering the matrix, so roundoff grows only linearly in m.
    """
    if num_periods < 0:
        raise ValueError("num_periods must be >= 0")
    if isinstance(initial, Configuration):
        psi0 = np.zeros(op.dim, dtype=complex)
        psi0[initial.index] = 1.0
    else:
        psi0 = np.asarray(initial, dtype=complex).reshape(-1)
    if psi0.size != op.dim:
        raise ValueError(f"state has length {psi0.size}, expected {op.dim}")
    if not np.all(np.isfinite(psi0.view(float))):
        raise ValueError("state contains non-finite entries")
    out = np.empty((num_periods + 1, op.dim), dtype=complex)
    out[0] = psi0
    for m in range(1, num_periods + 1):
        out[m] = op.matrix @ out[m - 1]
    return out
