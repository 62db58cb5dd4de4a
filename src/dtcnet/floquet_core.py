"""Floquet operator, quasienergy spectrum, and effective Hamiltonians.

The drive alternates a global x pulse (duration T1) with a disordered
Ising step (duration T2); the one-period propagator is
U = exp(-i H2 T2) exp(-i H1 T1). Quasienergies are the eigenphase map
lambda_s = -arg(mu_s)/period folded into (-pi/period, pi/period].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
    "two_period_spectrum",
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
# Eigenphases this close to +-pi get a branch-margin warning: the
# folding of lambda is numerically unstable there.
BRANCH_MARGIN = 1e-10
ORTHONORMALITY_TOL = 1e-12
# The real eigensolve (_symmetrized_eigensystem) diagonalizes the Cayley
# matrix of e^{-i phi} U_s, whose pole sits at the eigenphase phi + pi.
# The angle phi is generic, so that no symmetry of the drive places an
# eigenphase on that pole.
SPECTRAL_ROTATION = 0.6180339887498949
# Largest max |U Z - Z mu| the real solve may leave before Schur takes over.
RESIDUAL_TOL = 1e-10
# Deviation allowed when verifying the rigid drive shape (uniform
# transverse pulse, diagonal Ising step) that the closed-form
# exponentials rely on.
STRUCTURE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FloquetOperator:
    """One- or multi-period propagator.

    A one-period drive propagator also keeps its factors
    U = diag(phase) R^(x n): phase is the 2^n Ising-step phase vector and
    theta the pulse angle, R = exp(-i theta sigma^x) on one spin. The
    half pulse R^(1/2) = exp(-i theta/2 sigma^x) makes S U S^H symmetric
    with S = (R^(1/2))^(x n). squared_floquet keeps theta but not phase;
    hand-made operators have neither. Without phase, apply falls back to
    the dense matrix; without theta, floquet_spectrum solves by Schur.
    """

    matrix: np.ndarray
    period: float
    phase: np.ndarray | None = None
    theta: float | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, states: np.ndarray) -> np.ndarray:
        """U states, for one state vector or a block of state columns.

        With factors, R^(x n) acts by one factored product (_kron_apply),
        then the phase: O(dim k (dA + dB)) work instead of O(dim^2 k).
        """
        if self.phase is None:
            return self.matrix @ states
        Y = _kron_apply(_x_rotation(self.theta), states)
        Y *= self.phase if Y.ndim == 1 else self.phase[:, None]
        return Y


@dataclass(frozen=True, eq=False)
class FloquetSpectrum:
    """Quasienergies (ascending) with their eigenvalues and eigenbasis.

    basis holds the eigenvector columns as the solver returned them, and
    order[s] is the column of level s. On the real path basis is the
    real orthogonal O of the symmetrized frame and half_angle is the
    half pulse angle theta/2: U's eigenvectors are S^H O, with
    S = exp(-i half_angle sigma^x)^(x n). Schur-solved spectra keep
    their complex eigenvectors and have no half_angle. states forms U's
    eigenvectors in level order on each read.

    branch_warnings lists eigenphases that sit within BRANCH_MARGIN of
    the +-pi cut, where the fold direction is not numerically robust.
    schur_fallbacks counts the real solves (_symmetrized_eigensystem)
    that failed their Cholesky, residual or orthonormality gate and were
    replaced by a complex Schur. residual (max |B Z - Z mu|) and
    gram_defect (max |Z^H Z - 1|) are the largest over the blocks, from
    whichever solver produced each block's eigenpairs. A
    two_period_spectrum that reuses U's eigenpairs (U^2 one block)
    shares U's basis and carries U's three values. The real solve reads
    both on O; S^H O matches them up to the roundoff of the unitary S.
    """

    quasienergies: np.ndarray
    basis: np.ndarray
    order: np.ndarray
    eigenvalues: np.ndarray
    period: float
    half_angle: float | None = None
    branch_warnings: tuple[str, ...] = ()
    schur_fallbacks: int = 0
    residual: float = 0.0
    gram_defect: float = 0.0

    @property
    def states(self) -> np.ndarray:
        """U's eigenvectors, column s for quasienergy s: basis in level order, or S^H O."""
        states = self.basis[:, self.order]
        if self.half_angle is None:
            return states
        return _kron_apply(_x_rotation(self.half_angle).conj(), states)


class _Eigensystem(NamedTuple):
    """One block's eigenpairs and the health of the solve that gave them."""

    values: np.ndarray
    vectors: np.ndarray
    fallback: bool
    residual: float
    gram_defect: float
    half_angle: float | None = None


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
    phase = np.exp(-1j * diag * params.T2)
    return FloquetOperator(
        matrix=phase[:, None] * _kron_power(_x_rotation(theta), params.n),
        period=params.period,
        phase=phase,
        theta=theta,
    )


def _x_rotation(theta: float) -> np.ndarray:
    """exp(-i theta sigma^x) on one spin."""
    c, s = np.cos(theta), -1j * np.sin(theta)
    return np.array([[c, s], [s, c]])


def _kron_power(rot: np.ndarray, k: int) -> np.ndarray:
    """rot (x) rot (x) ... (k factors), folded from the left; 1x1 identity at k = 0.

    Each fold is np.kron(out, rot) written as one broadcast product,
    which gives the same entries without np.kron's per-call overhead.
    The power keeps rot's dtype, so a real rot gives a real power.
    """
    out = np.ones((1, 1), dtype=rot.dtype)
    for _ in range(k):
        d = 2 * out.shape[0]
        out = (out[:, None, :, None] * rot[None, :, None, :]).reshape(d, d)
    return out


def _kron_apply(rot: np.ndarray, states: np.ndarray, rows: bool = False) -> np.ndarray:
    """rot^(x n) states, for one vector or a block of columns of length 2^n.

    rot^(x n) = A (x) B with A = rot^(x floor(n/2)) and B = rot^(x ceil(n/2)),
    so the product is one A @ X on the (dA, dB k) view of the states and
    one batched B @ on the (dA, dB, k) view (the Kronecker shuffle
    product; Fernandes, Plateau and Stewart, J. ACM 45, 381 (1998)).
    With rows, rot^(x n) acts on each row of a (k, 2^n) block instead,
    giving states (rot^(x n))^T by one @ B^T on the (k dA, dB) view and
    one batched A @ on the (k, dA, dB) view: no transposed copy is made.
    """
    n = np.shape(states)[-1 if rows else 0].bit_length() - 1
    A, B = _kron_power(rot, n // 2), _kron_power(rot, n - n // 2)
    if rows:
        Y = (states.reshape(-1, B.shape[0]) @ B.T).reshape(-1, A.shape[0], B.shape[0])
        Y = np.matmul(A, Y)
    else:
        X = np.asarray(states).reshape(A.shape[0], -1)
        Y = np.matmul(B, (A @ X).reshape(A.shape[0], B.shape[0], -1))
    return Y.reshape(np.shape(states))


def drive_unitary(params: SpinChainParams, disorder: DisorderRealization) -> FloquetOperator:
    """One-period propagator of the drive, built straight from its parameters.

    Takes the Ising-step energies and the pulse amplitude g(1 - epsilon)
    without assembling the dense drive Hamiltonians; the matrix equals
    floquet_operator(*build_drive(params, disorder), params).
    """
    diag = diagonal_energies(params, disorder)
    return _closed_form_propagator(params, diag, params.g * (1.0 - params.epsilon))


def squared_floquet(op: FloquetOperator) -> FloquetOperator:
    """Two-period propagator U^2; period doubles, pulse angle theta is preserved.

    U^2 is formed as U applied to U's matrix (FloquetOperator.apply): a
    factored product for a drive U, the dense one otherwise.
    """
    return FloquetOperator(matrix=op.apply(op.matrix), period=2.0 * op.period, theta=op.theta)


def floquet_spectrum(op: FloquetOperator) -> FloquetSpectrum:
    """Diagonalize a unitary propagator block by block.

    One scan (_support_components) splits the support graph of
    |U_ij| > SUPPORT_TOL into connected components, which _solve_blocks
    solves. A one-component U or U^2 of the drive (an operator with a
    pulse angle theta) takes one real orthogonal eigensolve of the Cayley
    matrix of its symmetrized form (_symmetrized_eigensystem), gated on
    its Cholesky, residual and orthonormality, with a complex Schur of U
    as the fallback. Every other block (the epsilon = 0 blocks, hand-made
    operators) takes one complex Schur (_schur_eigensystem).
    Decoupled blocks therefore never mix: at zero rotation error the
    mirror-symmetric dimer pairs are exactly degenerate, and a dense
    solver would rotate them into each other at machine precision,
    producing spurious couplings. Eigenvectors across blocks have
    disjoint support, hence exact zeros in the effective Hamiltonian.
    """
    if op.matrix.shape != (op.dim, op.dim):
        raise ValueError("propagator must be square")
    return _solve_blocks(op, *_support_components(op.matrix))


def _solve_blocks(op: FloquetOperator, n_comp: int, labels: np.ndarray) -> FloquetSpectrum:
    """op's spectrum on the components of _support_components(op.matrix), grouped by one stable sort."""
    U, dim = op.matrix, labels.size
    if n_comp == 1 and op.theta is not None:
        solved = [_symmetrized_eigensystem(op)]
        eigenvalues, basis = solved[0].values, solved[0].vectors
    else:
        eigenvalues = np.zeros(dim, dtype=complex)
        basis = np.zeros((dim, dim), dtype=complex)
        solved, col = [], 0
        for idx in np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1]):
            block = _schur_eigensystem(U[np.ix_(idx, idx)])
            eigenvalues[col : col + idx.size] = block.values
            basis[idx, col : col + idx.size] = block.vectors
            solved.append(block)
            col += idx.size
    fallbacks = sum(b.fallback for b in solved)
    residual, gram_defect = max(b.residual for b in solved), max(b.gram_defect for b in solved)
    return _sorted_spectrum(
        eigenvalues, basis, np.arange(dim), solved[0].half_angle, op.period, fallbacks, residual, gram_defect
    )


def two_period_spectrum(op: FloquetOperator, spectrum: FloquetSpectrum) -> FloquetSpectrum:
    """Spectrum of U^2 (period 2T) from U's solved spectrum.

    U's eigenvectors diagonalize U^2 with eigenvalues mu^2, so they are
    reused, and nothing is solved, when the support of U^2 is one block:
    the spectrum shares U's basis array (on the real path O, which the
    same S symmetrizes for U^2) and its half pulse angle.
    U^2 then has no exact zeros to keep, and U, whose blocks U^2 can
    only refine, is one block too. Otherwise (at epsilon = 0 U^2 is
    diagonal while U has dimer blocks) U^2 is solved on the blocks that
    scan found (_solve_blocks), into a basis of its own: the route shows
    as whether the result's basis is spectrum.basis. spectrum must be
    floquet_spectrum(op).
    """
    if spectrum.basis.shape[0] != op.dim or spectrum.period != op.period:
        raise ValueError("spectrum does not belong to this propagator")
    squared = squared_floquet(op)
    n_comp, labels = _support_components(squared.matrix)
    if n_comp != 1:
        return _solve_blocks(squared, n_comp, labels)
    health = (spectrum.schur_fallbacks, spectrum.residual, spectrum.gram_defect)
    return _sorted_spectrum(
        spectrum.eigenvalues**2, spectrum.basis, spectrum.order, spectrum.half_angle, squared.period, *health
    )


def _support_components(U: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of |U_ij| > SUPPORT_TOL, numbered by smallest node.

    A support that the nodes reached from node 0 span skips csgraph.
    """
    mask = np.abs(U) > SUPPORT_TOL
    mask |= mask.T
    reached = mask[0] | (np.arange(mask.shape[0]) == 0)
    while not reached.all():
        grown = reached | mask[reached].any(axis=0)
        if np.array_equal(grown, reached):
            return connected_components(csr_matrix(mask), directed=False)
        reached = grown
    return 1, np.zeros(mask.shape[0], dtype=np.int32)


def _sorted_spectrum(
    eigenvalues: np.ndarray, basis: np.ndarray, columns: np.ndarray, half_angle: float | None,
    period: float, fallbacks: int, residual: float, gram_defect: float,
) -> FloquetSpectrum:
    """Quasienergies -arg(mu)/period, folded, flagged near the cut and sorted.

    columns[s] is the basis column of eigenvalues[s]. The basis is
    stored as it is, not reordered: the spectrum's order maps each
    sorted level to its column.
    """
    cut = np.pi / period
    lam = -np.angle(eigenvalues) / period
    # np.angle lands in (-pi, pi]; fold the single boundary case onto +cut
    lam = np.where(lam <= -cut, lam + 2.0 * cut, lam)

    margins = np.pi - np.abs(np.angle(eigenvalues))
    warnings = tuple(
        f"eigenphase {np.angle(eigenvalues[s]):+.12f} within {BRANCH_MARGIN:g} of the branch cut"
        for s in np.flatnonzero(margins < BRANCH_MARGIN)
    )

    order = np.argsort(lam, kind="stable")
    return FloquetSpectrum(
        quasienergies=lam[order],
        basis=basis,
        order=columns[order],
        eigenvalues=eigenvalues[order],
        period=period,
        half_angle=half_angle,
        branch_warnings=warnings,
        schur_fallbacks=fallbacks,
        residual=residual,
        gram_defect=gram_defect,
    )


def _schur_eigensystem(B: np.ndarray) -> _Eigensystem:
    """Eigenvalues and orthonormal eigenvectors of one unitary block by complex Schur.

    B is normal, so its Schur form is diagonal to roundoff and the Schur
    vectors are its eigenvectors. The health fields are the solve's own
    residual max |B z - z mu| and Gram defect.
    """
    if B.shape[0] == 1:
        return _Eigensystem(B[0].copy(), np.ones((1, 1), dtype=complex), False, 0.0, 0.0)
    tmat, z = scipy.linalg.schur(B, output="complex")
    mu = np.diag(tmat).copy()
    Bz = B @ z
    Bz -= z * mu
    return _Eigensystem(mu, z, False, float(np.abs(Bz).max()), _gram_defect(z))


def _symmetrized_eigensystem(op: FloquetOperator) -> _Eigensystem:
    """Eigenpairs of a drive propagator (U or U^2) from one real orthogonal eigensolve.

    Both drive steps are complex symmetric in the configuration basis,
    so with the half pulse S = exp(-i (op.theta/2) sigma^x)^(x n) the
    symmetrized propagator U_s = S U S^H (S diag(phase) S, or its square
    for U^2) is a symmetric unitary. Its real and imaginary parts are real
    symmetric and commute, and a real orthogonal O diagonalizes it: the
    structure of Dyson's circular orthogonal ensemble (Dyson, J. Math.
    Phys. 3, 140 (1962); Haake, Quantum Signatures of Chaos). With
    W = e^{-i phi} U_s = C + i B (phi = SPECTRAL_ROTATION), the Cayley
    matrix K = (I + C)^{-1} B is real symmetric with eigenvalues
    tan((arg mu - phi)/2), which is monotone in the eigenphase, so no two
    eigenphases fold together (Higham, Functions of Matrices, SIAM 2008).
    One Cholesky solve and one real eigh of K give O; mu = diag(O^T U_s O)
    is read off, and U's eigenvectors are V = S^H O. O itself is
    returned, with the half angle theta/2: no complex V is formed here
    (FloquetSpectrum.states forms it on read). S enters only through
    factored products. Both gates read the real O: U_s's residual
    (RESIDUAL_TOL), which is U's up to the roundoff of two unitary
    products, and O's Gram defect (ORTHONORMALITY_TOL), which is V's up
    to the roundoff of S. If either fails, or I + C is not positive
    definite (an eigenphase at the pole phi + pi, or an S that does not
    symmetrize U), U is solved by _schur_eigensystem instead, marked as
    a fallback, with complex vectors and no half angle.
    """
    S = _x_rotation(0.5 * op.theta)
    # U_s = (S U) S^H, S^H = (conj(S)^(x n))^T acting on the rows of S U;
    # each temporary is dropped once used, to keep the peak low
    SU = _kron_apply(S, op.matrix)
    Us = _kron_apply(S.conj(), SU, rows=True)
    del SU
    c, s = np.cos(SPECTRAL_ROTATION), np.sin(SPECTRAL_ROTATION)
    # B before I + C: the other order left 16 MB more resident at n = 10
    # (peak RSS of one T + 2T pipeline under glibc malloc), same values
    B = c * Us.imag
    B -= s * Us.real
    IC = c * Us.real
    IC += s * Us.imag
    IC[np.diag_indices_from(IC)] += 1.0
    # I + C and B are symmetric: their transposes are the column-major
    # arrays LAPACK overwrites
    try:
        factor = scipy.linalg.cho_factor(IC.T, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return _schur_eigensystem(op.matrix)._replace(fallback=True)
    del IC
    K = scipy.linalg.cho_solve(factor, B.T, overwrite_b=True, check_finite=False)
    del factor, B
    # K + K^T is exactly symmetric and has K's eigenvectors; its
    # transpose is the column-major view of the row-major sum
    K = (K + K.T).T
    _, O = scipy.linalg.eigh(K, overwrite_a=True, check_finite=False, driver="evd")
    del K
    # U_s O = (O^T U_s)^T for symmetric U_s: one real product over the
    # (re, im) pairs of U_s instead of a complex one
    UsO = (O.T @ Us.view(np.float64)).view(complex).T
    del Us
    mu = np.einsum("ij,ij->j", O, UsO)
    UsO -= O * mu
    residual = float(np.abs(UsO).max())
    del UsO
    gram_defect = _gram_defect(O)
    if residual > RESIDUAL_TOL or gram_defect > ORTHONORMALITY_TOL:
        return _schur_eigensystem(op.matrix)._replace(fallback=True)
    return _Eigensystem(mu, O, False, residual, gram_defect, 0.5 * op.theta)


def _gram_defect(Z: np.ndarray) -> float:
    """max |Z^H Z - 1|; for a real Z, Z.conj() is Z and numpy forms Z^T Z by syrk."""
    gram = Z.conj().T @ Z
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.abs(gram).max())


def effective_hamiltonian(spectrum: FloquetSpectrum) -> EffectiveHamiltonian:
    """Spectral synthesis H = sum_s lambda_s |Phi_s><Phi_s| in the spectrum's basis.

    G = (basis lambda) basis^H, columns in level order. On the real path
    G = O lambda O^T is one real product and H = S^H G S two factored
    ones, so U's complex eigenvectors S^H O are not formed. A Schur-solved
    spectrum's G is H; its blocks' vectors have disjoint support, so the
    couplings across blocks are exact zeros.
    """
    basis = spectrum.basis[:, spectrum.order]
    matrix = (basis * spectrum.quasienergies) @ basis.conj().T
    del basis
    if spectrum.half_angle is not None:
        S = _x_rotation(spectrum.half_angle)
        # S^H = conj(S)^(x n) acts on the columns, S = S^T on the rows; one
        # product at a time, so G is dropped before the second (peak memory)
        matrix = _kron_apply(S.conj(), matrix)
        matrix = _kron_apply(S, matrix, rows=True)
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

    initial may be a Configuration of the propagator's chain length
    (2^initial.n == op.dim; mapped to its basis vector) or any state
    vector of length op.dim. Row m is U^m psi0 computed by repeated
    application (FloquetOperator.apply), not by powering the matrix, so
    roundoff grows only linearly in m.
    """
    if num_periods < 0:
        raise ValueError("num_periods must be >= 0")
    if isinstance(initial, Configuration):
        if 2**initial.n != op.dim:
            raise ValueError("initial configuration does not match the propagator dimension")
        psi0 = np.zeros(op.dim, dtype=complex)
        psi0[initial.index] = 1.0
    else:
        psi0 = np.asarray(initial, dtype=complex).reshape(-1)
    if psi0.size != op.dim:
        raise ValueError(f"state has length {psi0.size}, expected {op.dim}")
    if not np.all(np.isfinite(psi0)):
        raise ValueError("state contains non-finite entries")
    out = np.empty((num_periods + 1, op.dim), dtype=complex)
    out[0] = psi0
    for m in range(1, num_periods + 1):
        out[m] = op.apply(out[m - 1])
    return out
