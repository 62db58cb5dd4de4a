"""Spin-chain configuration-space primitives.

Configurations are indexed by n-bit integers: bit 1 means spin up
(sigma^z eigenvalue +1), bit 0 spin down, and site 1 is the most
significant bit, so index (j_1 j_2 ... j_n)_2 lists sites left to right.
All operators are dense 2^n x 2^n complex matrices in this basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

__all__ = [
    "SpinChainParams",
    "Configuration",
    "DisorderRealization",
    "DenseOperator",
    "domain_walls",
    "parity_partner",
    "pauli_string",
    "sample_disorder",
    "build_drive",
    "spin_z_table",
    "domain_wall_counts",
    "domain_wall_operator",
    "parity_operator",
    "interaction_energies",
    "diagonal_energies",
]

HERMITICITY_TOL = 1e-12

# Single-site Pauli matrices in basis order (down, up). sigma^z is
# diag(-1, +1) because bit 1 maps to spin up; sigma^y carries the sign
# that keeps sigma^x sigma^y = i sigma^z in this ordering.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
_IDENTITY_2 = np.eye(2, dtype=complex)
_AXIS_MATRICES = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


@dataclass(frozen=True)
class SpinChainParams:
    """Parameters of the two-step driven spin chain.

    The pulse amplitude g is not free: it is pinned to pi/(2*T1) so that
    a full pulse of duration T1 rotates every spin by exactly pi when
    epsilon = 0.

    Parameters
    ----------
    n : int
        Site count, at least 2.
    J0 : float
        Interaction scale of the power-law Ising couplings
        J_lm = J0 / |l - m|**alpha.
    alpha : float
        Power-law exponent of the couplings.
    W : float
        Disorder strength; longitudinal fields are drawn from [0, W].
    epsilon : float
        Rotation error of the pulse, >= 0.
    T1, T2 : float
        Durations of the pulse and interaction steps; the drive period
        is T = T1 + T2.
    """

    n: int
    J0: float = 0.06
    alpha: float = 1.51
    W: float = pi
    epsilon: float = 0.0
    T1: float = 1.0
    T2: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.T1 <= 0 or self.T2 <= 0:
            raise ValueError("T1 and T2 must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.W < 0:
            raise ValueError("W must be >= 0")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")

    @property
    def g(self) -> float:
        """Pulse amplitude pi/(2*T1), enforcing 2*g*T1 = pi."""
        return pi / (2.0 * self.T1)

    @property
    def period(self) -> float:
        """Drive period T = T1 + T2."""
        return self.T1 + self.T2

    @property
    def dim(self) -> int:
        return 2**self.n

    def couplings(self) -> np.ndarray:
        """Symmetric n x n matrix J_lm = J0/|l-m|**alpha, zero diagonal."""
        idx = np.arange(self.n)
        dist = np.abs(idx[:, None] - idx[None, :]).astype(float)
        J = np.zeros((self.n, self.n))
        off = dist > 0
        J[off] = self.J0 / dist[off] ** self.alpha
        return J


@dataclass(frozen=True)
class Configuration:
    """A computational-basis product state, indexed by its bit string."""

    index: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.index < 2**self.n:
            raise ValueError(f"index {self.index} out of range for n={self.n}")

    @property
    def label(self) -> str:
        """Bit string with site 1 leftmost."""
        return format(self.index, f"0{self.n}b")

    def spin_z(self) -> np.ndarray:
        """Vector of sigma^z eigenvalues (+-1) per site, site 1 first."""
        return np.array(
            [1.0 if (self.index >> (self.n - 1 - l)) & 1 else -1.0 for l in range(self.n)]
        )


@dataclass(frozen=True, eq=False)
class DisorderRealization:
    """One draw of the longitudinal fields B_l.

    Reproducible: identical (seed, realization_index) yields identical
    fields bit for bit.
    """

    fields: np.ndarray
    seed: int
    realization_index: int

    @property
    def n(self) -> int:
        return len(self.fields)


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A dense 2^n x 2^n complex matrix with an optional hermiticity pledge."""

    matrix: np.ndarray
    n: int
    hermitian_flag: bool = False

    def __post_init__(self) -> None:
        dim = 2**self.n
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({dim}, {dim})")
        if self.hermitian_flag:
            defect = np.abs(self.matrix - self.matrix.conj().T).max()
            if defect >= HERMITICITY_TOL:
                raise ValueError(f"hermitian_flag set but defect {defect:.3e}")


def domain_walls(config: Configuration) -> int:
    """Count adjacent site pairs with opposite spins (open chain)."""
    mask = (1 << (config.n - 1)) - 1
    return ((config.index ^ (config.index >> 1)) & mask).bit_count()


def parity_partner(config: Configuration) -> Configuration:
    """The globally spin-flipped configuration 2^n - 1 - index."""
    return Configuration(index=2**config.n - 1 - config.index, n=config.n)


def pauli_string(axes: list[tuple[int, str]], n: int) -> DenseOperator:
    """Tensor product of Pauli matrices on the listed sites, identity elsewhere.

    Parameters
    ----------
    axes : list of (site, axis)
        Sites are 1-based and must be distinct; axis is 'x', 'y' or 'z'.
    n : int
        Total site count.

    Returns
    -------
    DenseOperator
        Hermitian 2^n x 2^n matrix; squares to the identity.
    """
    seen = set()
    per_site = {}
    for site, axis in axes:
        if not 1 <= site <= n:
            raise ValueError(f"site {site} out of range [1, {n}]")
        if site in seen:
            raise ValueError(f"duplicate site {site}")
        if axis not in _AXIS_MATRICES:
            raise ValueError(f"unknown axis {axis!r}")
        seen.add(site)
        per_site[site] = _AXIS_MATRICES[axis]
    matrix = np.array([[1.0 + 0.0j]])
    for site in range(1, n + 1):
        matrix = np.kron(matrix, per_site.get(site, _IDENTITY_2))
    return DenseOperator(matrix=matrix, n=n, hermitian_flag=True)


def sample_disorder(params: SpinChainParams, seed: int, realization_index: int) -> DisorderRealization:
    """Draw the n longitudinal fields uniformly from [0, W].

    The stream is keyed by (seed, realization_index) through a splittable
    counter-based generator, so ensemble members are independent and the
    draw does not depend on evaluation order.
    """
    if seed < 0 or realization_index < 0:
        raise ValueError("seed and realization_index must be >= 0")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(realization_index,))
    rng = np.random.Generator(np.random.Philox(ss))
    fields = rng.uniform(0.0, params.W, size=params.n)
    return DisorderRealization(fields=fields, seed=seed, realization_index=realization_index)


def spin_z_table(n: int) -> np.ndarray:
    """(2^n, n) array of sigma^z eigenvalues: row i is Configuration(i).spin_z()."""
    idx = np.arange(2**n)
    shifts = n - 1 - np.arange(n)
    return np.where((idx[:, None] >> shifts[None, :]) & 1, 1.0, -1.0)


def domain_wall_counts(n: int) -> np.ndarray:
    """Wall count for every configuration index, as an integer vector."""
    mask = (1 << (n - 1)) - 1
    return np.array([((i ^ (i >> 1)) & mask).bit_count() for i in range(2**n)])


def interaction_energies(params: SpinChainParams) -> np.ndarray:
    """Diagonal of the Ising term: E_int(i) = sum_{l<m} J_lm z_l z_m."""
    zs = spin_z_table(params.n)
    J = params.couplings()
    # einsum gives sum over ordered pairs; halve for l<m
    return 0.5 * np.einsum("il,lm,im->i", zs, J, zs)


def diagonal_energies(params: SpinChainParams, disorder: DisorderRealization) -> np.ndarray:
    """Diagonal of the Ising step H2: E(i) = sum_{l<m} J_lm z_l z_m + sum_l B_l z_l."""
    if disorder.n != params.n:
        raise ValueError(f"disorder has {disorder.n} fields, params.n = {params.n}")
    return interaction_energies(params) + spin_z_table(params.n) @ disorder.fields


def build_drive(params: SpinChainParams, disorder: DisorderRealization) -> tuple[DenseOperator, DenseOperator]:
    """Build the two step Hamiltonians of the drive as dense matrices.

    H1 = g(1 - epsilon) * sum_l sigma_l^x couples configurations one bit
    flip apart; H2 = sum_{l<m} J_lm sigma_l^z sigma_m^z + sum_l B_l
    sigma_l^z is diagonal in the configuration basis. This is the
    reference path: drive_unitary builds the propagator from the same
    parameters without these matrices.
    """
    diag = diagonal_energies(params, disorder)
    n = params.n
    amp = params.g * (1.0 - params.epsilon)
    H1 = np.zeros((2**n, 2**n), dtype=complex)
    for l in range(1, n + 1):
        H1 += amp * pauli_string([(l, "x")], n).matrix
    H2 = np.diag(diag.astype(complex))
    return (
        DenseOperator(matrix=H1, n=n, hermitian_flag=True),
        DenseOperator(matrix=H2, n=n, hermitian_flag=True),
    )


def domain_wall_operator(n: int) -> DenseOperator:
    """The operator sum_l (1 - sigma_l^z sigma_{l+1}^z); eigenvalue 2 * walls."""
    matrix = np.zeros((2**n, 2**n), dtype=complex)
    eye = np.eye(2**n, dtype=complex)
    for l in range(1, n):
        matrix += eye - pauli_string([(l, "z"), (l + 1, "z")], n).matrix
    return DenseOperator(matrix=matrix, n=n, hermitian_flag=True)


def parity_operator(n: int) -> DenseOperator:
    """Global spin flip: product of sigma_l^x over all sites."""
    return pauli_string([(l, "x") for l in range(1, n + 1)], n)
