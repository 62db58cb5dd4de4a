"""Propagator construction, quasienergy spectra, effective Hamiltonians."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from dtcnet import (
    Configuration,
    DenseOperator,
    SpinChainParams,
    bch_effective_2T,
    build_drive,
    effective_hamiltonian,
    floquet_operator,
    floquet_spectrum,
    gap_ratios,
    interaction_energies,
    magnetization_series,
    pauli_string,
    percolation_graph,
    sample_disorder,
    squared_floquet,
    stroboscopic_evolve,
    two_period_spectrum,
    walk_populations,
)
from dtcnet import floquet_core
from dtcnet.floquet_core import FloquetOperator, FloquetSpectrum, drive_unitary
from invariants import (
    check_bch_quadratic_scaling,
    check_conserved_at_zero_error,
    check_propagator_unitarity,
    check_spectral_reconstruction,
    check_zero_error_pairing,
)


def _identity_floquet(dim: int, period: float = 2.0) -> FloquetOperator:
    return FloquetOperator(matrix=np.eye(dim, dtype=complex), period=period)


def _zero_operator(n: int) -> DenseOperator:
    return DenseOperator(matrix=np.zeros((2**n, 2**n), dtype=complex), n=n)


class TestFloquetOperator:
    def test_zero_hamiltonians_give_identity(self):
        params = SpinChainParams(n=3)
        U = floquet_operator(_zero_operator(3), _zero_operator(3), params)
        assert np.allclose(U.matrix, np.eye(8), atol=1e-14)
        assert U.period == params.period

    def test_perfect_pulse_is_global_flip(self):
        # with the Ising step switched off, U reduces to exp(-i H1 T1),
        # a global pi pulse: (-i)^n times the product of all sigma x
        for n in (2, 3, 4):
            params = SpinChainParams(n=n, epsilon=0.0)
            H1, _ = build_drive(params, sample_disorder(params, 21, 0))
            U = floquet_operator(H1, _zero_operator(n), params)
            flip = pauli_string([(l, "x") for l in range(1, n + 1)], n).matrix
            assert np.abs(U.matrix - (-1j) ** n * flip).max() < 1e-12

    def test_zero_error_swaps_mirror_configs(self):
        params = SpinChainParams(n=8, epsilon=0.0)
        U = drive_unitary(params, sample_disorder(params, 31, 0))
        for i in range(256):
            column = U.matrix[:, i]
            assert abs(abs(column[255 - i]) - 1.0) < 1e-12
            column[255 - i] = 0.0
            assert np.abs(column).max() < 1e-12

    def test_product_order_matches_general_exponentials(self):
        params = SpinChainParams(n=4, epsilon=0.07)
        H1, H2 = build_drive(params, sample_disorder(params, 41, 0))
        U = floquet_operator(H1, H2, params)
        direct = scipy.linalg.expm(-1j * H2.matrix * params.T2) @ scipy.linalg.expm(
            -1j * H1.matrix * params.T1
        )
        assert np.abs(U.matrix - direct).max() < 1e-12

    def test_dimension_mismatch_rejected(self):
        params = SpinChainParams(n=3)
        with pytest.raises(ValueError):
            floquet_operator(_zero_operator(3), _zero_operator(2), params)
        with pytest.raises(ValueError):
            floquet_operator(_zero_operator(2), _zero_operator(2), params)

    def test_structure_violations_rejected(self):
        params = SpinChainParams(n=2)
        H1, H2 = build_drive(params, sample_disorder(params, 51, 0))
        lopsided = H1.matrix.copy()
        lopsided[0, 1] *= 1.5
        lopsided[1, 0] *= 1.5
        with pytest.raises(ValueError):
            floquet_operator(DenseOperator(matrix=lopsided, n=2), H2, params)
        with pytest.raises(ValueError):
            floquet_operator(H1, H1, params)  # off-diagonal second step
        with pytest.raises(ValueError, match="not Hermitian"):
            floquet_operator(H1, DenseOperator(matrix=H2.matrix + 0.5j * np.eye(4), n=2), params)

    def test_unitarity(self):
        check_propagator_unitarity()


def _random_states(dim: int, columns: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, columns)) + 1j * rng.normal(size=(dim, columns))


class TestFactoredPropagator:
    """U = diag(phase) R^(x n): the kept factors and FloquetOperator.apply."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_factors_rebuild_matrix_exactly(self, n):
        params = SpinChainParams(n=n, epsilon=0.012)
        U = drive_unitary(params, sample_disorder(params, 71, 0))
        rotation = floquet_core._x_rotation(U.theta)
        assert U.phase.shape == (2**n,) and rotation.shape == (2, 2)
        tensor_power = np.array([[1.0 + 0.0j]])
        for _ in range(n):
            tensor_power = np.kron(tensor_power, rotation)
        assert np.array_equal(U.phase[:, None] * tensor_power, U.matrix)

    def test_reference_path_keeps_the_factors(self):
        params = SpinChainParams(n=4, epsilon=0.05)
        disorder = sample_disorder(params, 73, 0)
        reference = floquet_operator(*build_drive(params, disorder), params)
        U = drive_unitary(params, disorder)
        assert np.array_equal(reference.phase, U.phase)
        assert reference.theta == U.theta

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("eps", [0.0, 0.012, 0.3])
    def test_apply_matches_dense_product(self, n, eps):
        params = SpinChainParams(n=n, epsilon=eps)
        U = drive_unitary(params, sample_disorder(params, 79, 0))
        block = _random_states(2**n, 5, n)
        vector = block[:, 0].copy()
        assert U.apply(vector).shape == vector.shape
        assert np.abs(U.apply(vector) - U.matrix @ vector).max() < 1e-13
        assert U.apply(block).shape == block.shape
        assert np.abs(U.apply(block) - U.matrix @ block).max() < 1e-13

    def test_squared_operator_takes_dense_path(self):
        params = SpinChainParams(n=5, epsilon=0.04)
        U2 = squared_floquet(drive_unitary(params, sample_disorder(params, 83, 0)))
        assert U2.phase is None
        block = _random_states(32, 4, 1)
        assert np.array_equal(U2.apply(block), U2.matrix @ block)
        assert np.array_equal(U2.apply(block[:, 1]), U2.matrix @ block[:, 1])

    def test_hand_made_operator_takes_dense_path(self):
        q, _ = np.linalg.qr(_random_states(16, 16, 2))
        op = FloquetOperator(matrix=q, period=2.0)
        block = _random_states(16, 3, 3)
        assert np.array_equal(op.apply(block), q @ block)
        states = stroboscopic_evolve(op, block[:, 0], 3)
        assert np.array_equal(states[3], q @ (q @ (q @ block[:, 0])))


class TestRealGaugeOfThePulse:
    """exp(-i theta sigma^x)^(x n) = Phi M^(x n) Phi, M real and Phi = diag((-i)^popcount)."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("theta", [np.pi / 2, 0.7, 0.5 * np.pi * (1.0 - 0.012)])
    def test_gauge_rebuilds_the_pulse(self, n, theta):
        M = np.array([[np.cos(theta), np.sin(theta)], [np.sin(theta), -np.cos(theta)]])
        phi = (-1j) ** np.array([bin(i).count("1") for i in range(2**n)])
        gauged = phi[:, None] * floquet_core._kron_power(M, n) * phi[None, :]
        assert np.abs(gauged - floquet_core._kron_power(floquet_core._x_rotation(theta), n)).max() <= 1e-15

    def test_real_factor_keeps_its_dtype(self):
        M = np.array([[0.6, 0.8], [0.8, -0.6]])
        assert floquet_core._kron_power(M, 4).dtype == np.float64
        assert floquet_core._kron_power(M, 0).dtype == np.float64
        assert floquet_core._kron_power(floquet_core._x_rotation(0.3), 3).dtype == np.complex128


class TestFloquetSpectrum:
    def test_identity_has_zero_quasienergies(self):
        spectrum = floquet_spectrum(_identity_floquet(8))
        assert np.all(spectrum.quasienergies == 0.0)

    def test_half_pi_phases(self):
        U = FloquetOperator(
            matrix=np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]),
            period=1.0,
        )
        lams = sorted(floquet_spectrum(U).quasienergies)
        assert lams == pytest.approx([-np.pi / 2, np.pi / 2])

    def test_quasienergies_inside_principal_window(self):
        params = SpinChainParams(n=5, epsilon=0.04)
        spectrum = floquet_spectrum(drive_unitary(params, sample_disorder(params, 61, 0)))
        edge = np.pi / spectrum.period
        assert np.all(spectrum.quasienergies > -edge)
        assert np.all(spectrum.quasienergies <= edge)

    def test_residual_and_orthonormality(self):
        params = SpinChainParams(n=6, epsilon=0.07)
        U = drive_unitary(params, sample_disorder(params, 71, 0))
        spectrum = floquet_spectrum(U)
        phases = np.exp(-1j * spectrum.quasienergies * spectrum.period)
        V = spectrum.states
        residual = U.matrix @ V - V * phases
        assert np.abs(np.linalg.norm(residual, axis=0)).max() < 1e-8
        gram = V.conj().T @ V
        assert np.abs(gram - np.eye(64)).max() < 1e-8

    def test_zero_error_pair_splitting(self):
        check_zero_error_pairing()

    def test_branch_margin_flagged(self):
        U = FloquetOperator(
            matrix=np.diag([np.exp(1j * (np.pi - 1e-12)), 1.0 + 0j]),
            period=1.0,
        )
        spectrum = floquet_spectrum(U)
        assert len(spectrum.branch_warnings) == 1
        assert "branch" in spectrum.branch_warnings[0]
        clean = floquet_spectrum(_identity_floquet(2, period=1.0))
        assert clean.branch_warnings == ()

    def test_non_square_operator_rejected(self):
        op = FloquetOperator(matrix=np.zeros((4, 2), dtype=complex), period=2.0)
        with pytest.raises(ValueError, match="propagator must be square"):
            floquet_spectrum(op)


def _schur_reference(op: FloquetOperator) -> FloquetSpectrum:
    """The spectrum from one complex Schur decomposition per support block."""
    U = op.matrix
    dim = U.shape[0]
    support = csr_matrix(np.abs(U) > floquet_core.SUPPORT_TOL)
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
    lam = np.where(lam <= -cut, lam + 2.0 * cut, lam)
    order = np.argsort(lam, kind="stable")
    return FloquetSpectrum(
        quasienergies=lam[order], basis=states, order=order, eigenvalues=eigenvalues[order],
        period=op.period,
    )


def _random_unitary(dim: int, phases: np.ndarray, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return (q * np.exp(1j * phases)) @ q.conj().T


class TestBlockEigensolver:
    """floquet_spectrum against one complex Schur per support block."""

    @pytest.mark.parametrize("n", [3, 6, 8])
    @pytest.mark.parametrize("eps", [0.0, 0.012, 0.1])
    @pytest.mark.parametrize("squared", [False, True])
    def test_matches_schur_reference(self, n, eps, squared):
        params = SpinChainParams(n=n, epsilon=eps)
        op = drive_unitary(params, sample_disorder(params, 1234, 1))
        if squared:
            op = squared_floquet(op)
        spectrum = floquet_spectrum(op)
        reference = _schur_reference(op)
        assert spectrum.schur_fallbacks == 0
        assert np.abs(spectrum.quasienergies - reference.quasienergies).max() < 1e-13
        H = effective_hamiltonian(spectrum)
        H_ref = effective_hamiltonian(reference)
        assert np.abs(H.matrix - H_ref.matrix).max() < 1e-11
        assert percolation_graph(H).edges == percolation_graph(H_ref).edges
        assert (
            gap_ratios(spectrum.quasienergies).excluded_degenerate
            == gap_ratios(reference.quasienergies).excluded_degenerate
        )

    def test_folded_eigenphase_pairs_need_no_schur(self, monkeypatch):
        # eigenphases phi +- delta share the rotated cosine part's
        # eigenvalue cos(delta) exactly; the Cayley matrix's tan(+-delta/2)
        # keeps them apart, so the real solve alone separates each pair,
        # with no Schur of any size. Q diag(e^{i phases}) Q^T with Q real
        # orthogonal is a symmetric unitary, so the identity half pulse
        # (theta = 0) symmetrizes it.
        phi = floquet_core.SPECTRAL_ROTATION
        folded = np.array([phi - 1.7, phi - 0.9, phi - 0.3, phi + 0.3, phi + 0.9, phi + 1.7])
        others = [-2.9, -2.6, -2.2, -1.9, -1.2, -0.4, 0.05, 2.5, 2.8, 3.0]
        phases = np.concatenate([folded, others])
        op = _symmetric_unitary(phases, seed=7)
        calls = _record_solvers(monkeypatch)
        schur_sizes = _record_schur_sizes(monkeypatch)
        spectrum = floquet_spectrum(op)
        assert calls == [("symmetrized", phases.size)]
        assert spectrum.schur_fallbacks == 0
        assert schur_sizes == []
        expected = np.sort(-np.angle(np.exp(1j * phases)))
        assert np.abs(spectrum.quasienergies - expected).max() < 1e-13
        mu = np.exp(-1j * spectrum.quasienergies)
        V = spectrum.states
        assert np.abs(op.matrix @ V - V * mu).max() < 1e-13
        assert np.abs(V.conj().T @ V - np.eye(phases.size)).max() < 1e-13

    @pytest.mark.parametrize("seed", [0, 11])
    def test_eigenphase_at_the_cayley_pole_falls_back_to_schur(self, seed):
        # an eigenphase at phi + pi makes I + C singular to roundoff. At
        # seed 11 its Cholesky fails, and the failure is a failed gate;
        # at seed 0 it passes with a pivot near 1e-16 and the residual
        # gate fails. Either way the Schur solve answers, without an
        # error or a warning.
        pole = floquet_core.SPECTRAL_ROTATION + np.pi
        others = [-2.9, -2.2, -1.2, -0.4, 0.05, 0.9, 1.6]
        op = _symmetric_unitary(np.array([pole, *others]), seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectrum = floquet_spectrum(op)
        reference = _schur_reference(op)
        assert spectrum.schur_fallbacks == 1
        assert np.array_equal(spectrum.quasienergies, reference.quasienergies)
        assert np.array_equal(spectrum.states, reference.states)

    def test_gate_failure_falls_back_to_schur(self, skewed_eigh):
        params = SpinChainParams(n=6, epsilon=0.012)
        op = drive_unitary(params, sample_disorder(params, 1234, 0))
        spectrum = floquet_spectrum(op)
        reference = _schur_reference(op)
        assert spectrum.schur_fallbacks == 1
        assert spectrum.half_angle is None
        assert np.array_equal(spectrum.quasienergies, reference.quasienergies)
        assert np.array_equal(spectrum.eigenvalues, reference.eigenvalues)
        assert np.array_equal(spectrum.states, reference.states)
        H = effective_hamiltonian(spectrum).matrix
        assert np.array_equal(H, effective_hamiltonian(reference).matrix)

    def test_gram_gate_alone_falls_back_to_schur(self, monkeypatch):
        # column 0 of the eigh basis scaled by 1 + 1e-11: its residual
        # (about 4e-12) passes RESIDUAL_TOL, its Gram defect (about 2e-11)
        # fails ORTHONORMALITY_TOL, so only the Gram gate sends it to Schur
        real_eigh = scipy.linalg.eigh

        def stretched(*args, **kwargs):
            w, z = real_eigh(*args, **kwargs)
            z[:, 0] *= 1.0 + 1e-11
            return w, z

        monkeypatch.setattr(scipy.linalg, "eigh", stretched)
        params = SpinChainParams(n=6, epsilon=0.012)
        op = drive_unitary(params, sample_disorder(params, 1234, 0))
        with monkeypatch.context() as gate_off:
            gate_off.setattr(floquet_core, "ORTHONORMALITY_TOL", np.inf)
            assert floquet_spectrum(op).schur_fallbacks == 0
        spectrum = floquet_spectrum(op)
        reference = _schur_reference(op)
        assert spectrum.schur_fallbacks == 1
        assert spectrum.half_angle is None
        assert np.array_equal(spectrum.quasienergies, reference.quasienergies)
        assert np.array_equal(spectrum.eigenvalues, reference.eigenvalues)
        assert np.array_equal(spectrum.states, reference.states)
        H = effective_hamiltonian(spectrum).matrix
        assert np.array_equal(H, effective_hamiltonian(reference).matrix)


def _symmetric_unitary(phases: np.ndarray, seed: int) -> FloquetOperator:
    """Q diag(e^{i phases}) Q^T with Q real orthogonal, marked with the identity half pulse."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(phases.size, phases.size)))
    return FloquetOperator(matrix=(q * np.exp(1j * phases)) @ q.T, period=1.0, theta=0.0)


def _record_schur_sizes(monkeypatch) -> list[int]:
    """Wrap scipy.linalg.schur so the size of each matrix it decomposes is logged."""
    sizes = []
    real_schur = scipy.linalg.schur

    def recording_schur(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real_schur(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", recording_schur)
    return sizes


def _record_solvers(monkeypatch) -> list[tuple[str, int]]:
    """Wrap both eigensolvers so each call is logged as (solver, size)."""
    calls = []
    real_schur = floquet_core._schur_eigensystem
    real_symmetrized = floquet_core._symmetrized_eigensystem

    def schur(B):
        calls.append(("schur", B.shape[0]))
        return real_schur(B)

    def symmetrized(op):
        calls.append(("symmetrized", op.dim))
        return real_symmetrized(op)

    monkeypatch.setattr(floquet_core, "_schur_eigensystem", schur)
    monkeypatch.setattr(floquet_core, "_symmetrized_eigensystem", symmetrized)
    return calls


def _check_against_schur(monkeypatch, op: FloquetOperator) -> None:
    """op takes the real path, and its spectrum agrees with the Schur reference."""
    calls = _record_solvers(monkeypatch)
    schur_sizes = _record_schur_sizes(monkeypatch)
    spectrum = floquet_spectrum(op)
    assert calls == [("symmetrized", op.dim)]
    assert schur_sizes == []
    reference = _schur_reference(op)
    assert spectrum.schur_fallbacks == 0
    assert np.abs(spectrum.quasienergies - reference.quasienergies).max() < 1e-13
    H = effective_hamiltonian(spectrum)
    H_ref = effective_hamiltonian(reference)
    assert np.abs(H.matrix - H_ref.matrix).max() < 1e-11
    assert percolation_graph(H).edges == percolation_graph(H_ref).edges
    # the Gram defect is read on the real basis O; it bounds S^H O's too
    V = spectrum.states
    assert np.abs(V.conj().T @ V - np.eye(op.dim)).max() <= spectrum.gram_defect + 1e-14


class TestSymmetrizedSolver:
    """The real orthogonal solve of the drive's U and U^2."""

    def test_routing(self, monkeypatch):
        calls = _record_solvers(monkeypatch)
        params = SpinChainParams(n=6, epsilon=0.012)
        U = drive_unitary(params, sample_disorder(params, 3, 0))
        floquet_spectrum(U)
        assert calls == [("symmetrized", 64)]
        calls.clear()
        floquet_spectrum(squared_floquet(U))
        assert calls == [("symmetrized", 64)]
        calls.clear()
        zero = SpinChainParams(n=6, epsilon=0.0)
        floquet_spectrum(drive_unitary(zero, sample_disorder(zero, 3, 0)))
        assert calls == [("schur", 2)] * 32
        calls.clear()
        hand_made = FloquetOperator(matrix=U.matrix.copy(), period=U.period)
        floquet_spectrum(hand_made)
        assert calls == [("schur", 64)]

    @pytest.mark.parametrize("n", [2, 5, 7])
    @pytest.mark.parametrize("eps", [0.005, 0.5, 0.9])
    def test_matches_schur_reference(self, monkeypatch, n, eps):
        params = SpinChainParams(n=n, epsilon=eps)
        op = drive_unitary(params, sample_disorder(params, 4321, 2))
        _check_against_schur(monkeypatch, op)

    @pytest.mark.parametrize("n", [2, 5, 7])
    @pytest.mark.parametrize("eps", [0.005, 0.5, 0.9])
    def test_square_matches_schur_reference(self, monkeypatch, n, eps):
        # U^2 takes the same real path: S U^2 S^H = (S U S^H)^2 is symmetric
        params = SpinChainParams(n=n, epsilon=eps)
        op = squared_floquet(drive_unitary(params, sample_disorder(params, 4321, 2)))
        _check_against_schur(monkeypatch, op)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_zero_error_square_keeps_diagonal_blocks(self, monkeypatch, n):
        # U^2 is diagonal at epsilon = 0: 1x1 blocks, whose couplings
        # stay exactly zero, rather than one symmetrized solve
        params = SpinChainParams(n=n, epsilon=0.0)
        U2 = squared_floquet(drive_unitary(params, sample_disorder(params, 6, 0)))
        calls = _record_solvers(monkeypatch)
        H = effective_hamiltonian(floquet_spectrum(U2)).matrix
        assert calls == [("schur", 1)] * 2**n
        assert np.count_nonzero(H - np.diag(H.diagonal())) == 0

    def test_symmetrizer_is_carried(self):
        params = SpinChainParams(n=4, epsilon=0.03)
        U = drive_unitary(params, sample_disorder(params, 7, 0))
        theta = params.g * (1.0 - params.epsilon) * params.T1
        half_pulse = scipy.linalg.expm(-0.5j * theta * np.array([[0.0, 1.0], [1.0, 0.0]]))
        symmetrizer = floquet_core._x_rotation(0.5 * U.theta)
        assert np.abs(symmetrizer - half_pulse).max() < 1e-15
        rotation = floquet_core._x_rotation(U.theta)
        assert np.abs(symmetrizer @ symmetrizer - rotation).max() < 1e-15
        assert squared_floquet(U).theta == U.theta
        hand_made = FloquetOperator(matrix=U.matrix.copy(), period=U.period)
        assert hand_made.theta is None

    @pytest.mark.parametrize("squared", [False, True])
    def test_wrong_symmetrizer_falls_back_to_schur(self, monkeypatch, squared):
        # a pulse angle other than the drive's gives a half pulse that
        # leaves S U S^H unsymmetric, so no real orthogonal basis passes
        # the residual gate
        params = SpinChainParams(n=6, epsilon=0.05)
        U = drive_unitary(params, sample_disorder(params, 12, 0))
        if squared:
            U = squared_floquet(U)
        op = FloquetOperator(matrix=U.matrix, period=U.period, theta=0.6)
        calls = _record_solvers(monkeypatch)
        spectrum = floquet_spectrum(op)
        assert calls == [("symmetrized", 64), ("schur", 64)]
        assert spectrum.schur_fallbacks == 1
        V = spectrum.states
        assert np.abs(op.matrix @ V - V * spectrum.eigenvalues).max() < 1e-13
        assert np.abs(V.conj().T @ V - np.eye(64)).max() < 1e-13
        reference = _schur_reference(U)
        assert np.abs(spectrum.quasienergies - reference.quasienergies).max() < 1e-13

    def test_n10_edges_match_schur_reference(self):
        params = SpinChainParams(n=10, epsilon=0.012)
        op = drive_unitary(params, sample_disorder(params, 1234, 0))
        spectrum = floquet_spectrum(op)
        reference = _schur_reference(op)
        assert np.abs(spectrum.quasienergies - reference.quasienergies).max() < 1e-13
        edges = percolation_graph(effective_hamiltonian(spectrum)).edges
        assert edges == percolation_graph(effective_hamiltonian(reference)).edges

    def test_health_fields(self):
        params = SpinChainParams(n=6, epsilon=0.012)
        op = drive_unitary(params, sample_disorder(params, 8, 0))
        spectrum = floquet_spectrum(op)
        assert 0.0 < spectrum.residual <= 1e-10
        assert 0.0 < spectrum.gram_defect <= 1e-12
        doubled = two_period_spectrum(op, spectrum)
        assert (doubled.residual, doubled.gram_defect) == (spectrum.residual, spectrum.gram_defect)
        zero = SpinChainParams(n=6, epsilon=0.0)
        dimers = floquet_spectrum(drive_unitary(zero, sample_disorder(zero, 8, 0)))
        assert dimers.residual <= 1e-10 and dimers.gram_defect <= 1e-12

    def test_health_fields_after_fallback(self, skewed_eigh):
        # the skewed eigh basis fails its gate by about 1e-6; the fields
        # describe the Schur eigenpairs that replaced it
        params = SpinChainParams(n=6, epsilon=0.012)
        op = drive_unitary(params, sample_disorder(params, 8, 0))
        spectrum = floquet_spectrum(op)
        assert spectrum.schur_fallbacks == 1
        assert 0.0 < spectrum.residual <= 1e-10
        assert 0.0 < spectrum.gram_defect <= 1e-12
        V = spectrum.states
        measured = np.abs(op.matrix @ V - V * spectrum.eigenvalues).max()
        assert spectrum.residual == pytest.approx(measured, rel=0.5)


def _csgraph_components(U: np.ndarray) -> tuple[int, np.ndarray]:
    """The support components as csgraph alone finds them."""
    return connected_components(csr_matrix(np.abs(U) > floquet_core.SUPPORT_TOL), directed=False)


def _assert_same_components(U: np.ndarray) -> None:
    n_comp, labels = floquet_core._support_components(U)
    ref_comp, ref_labels = _csgraph_components(U)
    assert n_comp == ref_comp
    assert labels.dtype == ref_labels.dtype
    assert np.array_equal(labels, ref_labels)


class TestSupportComponents:
    """The dense reachability scan gives csgraph's components and labels."""

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("squared", [False, True])
    def test_zero_error_blocks(self, n, squared):
        params = SpinChainParams(n=n, epsilon=0.0)
        op = drive_unitary(params, sample_disorder(params, 14, 0))
        if squared:
            op = squared_floquet(op)
        _assert_same_components(op.matrix)

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("eps", [0.005, 0.012, 0.1])
    def test_connected_drive(self, n, eps):
        params = SpinChainParams(n=n, epsilon=eps)
        op = drive_unitary(params, sample_disorder(params, 15, 0))
        for U in (op.matrix, squared_floquet(op).matrix):
            assert floquet_core._support_components(U)[0] == 1
            _assert_same_components(U)

    @pytest.mark.parametrize("components", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_sparse_masks(self, components, seed):
        # a random sparse graph on each of `components` shuffled node
        # groups: a spanning path per group keeps the groups connected
        rng = np.random.default_rng(seed)
        dim = 40
        group = rng.permutation(np.arange(dim) % components)
        U = np.zeros((dim, dim), dtype=complex)
        for g in range(components):
            nodes = rng.permutation(np.flatnonzero(group == g))
            U[nodes[:-1], nodes[1:]] = 0.5
        same = group[:, None] == group[None, :]
        U[same & (rng.random((dim, dim)) < 0.05)] = 0.3j
        U[~same] = 0.1 * floquet_core.SUPPORT_TOL  # below the threshold
        assert floquet_core._support_components(U)[0] == components
        _assert_same_components(U)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("eps", [0.0, 1e-12, 0.005, 0.5, 1.0 - 1e-12, 1.0])
    def test_drive_grid(self, n, eps):
        # the exact dimers (epsilon = 0), the diagonal U of epsilon = 1,
        # and the near-threshold entries next to both
        params = SpinChainParams(n=n, epsilon=eps)
        op = drive_unitary(params, sample_disorder(params, 5, 0))
        _assert_same_components(op.matrix)
        _assert_same_components(squared_floquet(op).matrix)

    def test_one_way_mask(self, monkeypatch):
        # edges given in one direction only still join their nodes, and a
        # chain that reaches node 0 only through edges pointing into it
        # is found connected without csgraph
        scans = []
        real_scan = floquet_core.connected_components
        monkeypatch.setattr(
            floquet_core, "connected_components",
            lambda *args, **kwargs: scans.append(1) or real_scan(*args, **kwargs),
        )
        dim = 12
        U = np.eye(dim, dtype=complex)
        U[np.arange(1, dim), np.arange(dim - 1)] = 1.0  # 11 -> 10 -> ... -> 0
        assert floquet_core._support_components(U)[0] == 1
        _assert_same_components(U)
        _assert_same_components(U.T.copy())
        assert scans == []
        U[6, 5] = 0.0  # two one-way chains, 0..5 and 6..11
        U[7, 11] = 1.0
        assert floquet_core._support_components(U)[0] == 2
        _assert_same_components(U)
        _assert_same_components(U.T.copy())
        assert scans


class TestEffectiveHamiltonian:
    def test_identity_gives_zero(self):
        H = effective_hamiltonian(floquet_spectrum(_identity_floquet(4)))
        assert np.abs(H.matrix).max() == 0.0

    def test_zero_error_support_is_diag_and_antidiag(self):
        params = SpinChainParams(n=8, epsilon=0.0)
        spectrum = floquet_spectrum(drive_unitary(params, sample_disorder(params, 81, 0)))
        H = effective_hamiltonian(spectrum).matrix
        cutoff = 1e-12 * np.abs(H).max()
        rows, cols = np.nonzero(np.abs(H) > cutoff)
        assert np.all((rows == cols) | (rows + cols == 255))

    def test_zero_error_active_pair_is_ghz(self):
        params = SpinChainParams(n=8, epsilon=0.0)
        spectrum = floquet_spectrum(drive_unitary(params, sample_disorder(params, 91, 0)))
        V = spectrum.states
        weight = np.abs(V[0, :]) ** 2
        pair = np.argsort(weight)[-2:]
        for s in pair:
            state = V[:, s]
            assert abs(abs(state[0]) - 1.0 / np.sqrt(2.0)) < 1e-8
            assert abs(abs(state[255]) - 1.0 / np.sqrt(2.0)) < 1e-8

    def test_accessors_read_matrix_entries(self):
        params = SpinChainParams(n=3, epsilon=0.05)
        H = effective_hamiltonian(
            floquet_spectrum(drive_unitary(params, sample_disorder(params, 101, 0)))
        )
        assert H.onsite(2) == H.matrix[2, 2].real
        assert H.coupling(1, 6) == H.matrix[1, 6]

    def test_spectral_reconstruction(self):
        check_spectral_reconstruction()

    def test_conserved_quantities_at_zero_error(self):
        check_conserved_at_zero_error()

    def test_coupling_of_a_node_to_itself_rejected(self):
        H = effective_hamiltonian(floquet_spectrum(_identity_floquet(4)))
        with pytest.raises(ValueError, match="coupling is defined for i != j"):
            H.coupling(1, 1)


class TestRealBasisSynthesis:
    """H = S^H (O lambda O^T) S on the real path, against the complex synthesis from S^H O."""

    @pytest.mark.parametrize("n", [3, 6, 8])
    @pytest.mark.parametrize("eps", [0.012, 0.1])
    @pytest.mark.parametrize("route", ["T", "2T reused", "U^2 solved"])
    def test_matches_complex_synthesis(self, n, eps, route):
        params = SpinChainParams(n=n, epsilon=eps)
        op = drive_unitary(params, sample_disorder(params, 1234, 1))
        spectrum = floquet_spectrum(op)
        if route == "2T reused":
            spectrum = two_period_spectrum(op, spectrum)
        elif route == "U^2 solved":
            spectrum = floquet_spectrum(squared_floquet(op))
        assert spectrum.half_angle == 0.5 * op.theta
        H = effective_hamiltonian(spectrum)
        V = spectrum.states
        reference = (V * spectrum.quasienergies) @ V.conj().T
        assert np.abs(H.matrix - reference).max() < 1e-13
        assert np.abs(H.matrix - H.matrix.conj().T).max() < 1e-14
        assert percolation_graph(H).edges == percolation_graph(
            floquet_core.EffectiveHamiltonian(matrix=reference, period=spectrum.period)
        ).edges

    def test_two_period_spectrum_shares_the_real_basis(self):
        params = SpinChainParams(n=6, epsilon=0.012)
        op = drive_unitary(params, sample_disorder(params, 3, 0))
        spectrum = floquet_spectrum(op)
        assert spectrum.basis.dtype == np.float64
        doubled = two_period_spectrum(op, spectrum)
        assert doubled.basis is spectrum.basis
        assert doubled.half_angle == spectrum.half_angle == 0.5 * op.theta
        assert not np.array_equal(doubled.order, spectrum.order)  # levels re-sorted, columns kept

    def test_t_pipeline_never_forms_the_complex_eigenvectors(self, monkeypatch):
        # floquet_spectrum -> effective_hamiltonian -> percolation_graph
        # reads no spectrum.states, the only place S^H O is formed
        params = SpinChainParams(n=6, epsilon=0.012)
        op = drive_unitary(params, sample_disorder(params, 5, 0))
        expected = percolation_graph(effective_hamiltonian(floquet_spectrum(op))).edges

        def unread(spectrum):
            raise AssertionError("FloquetSpectrum.states was read")

        monkeypatch.setattr(FloquetSpectrum, "states", property(unread))
        spectrum = floquet_spectrum(op)
        assert spectrum.basis.dtype == np.float64
        assert percolation_graph(effective_hamiltonian(spectrum)).edges == expected


class TestSquaredFloquet:
    def test_identity_squares_to_identity(self):
        U2 = squared_floquet(_identity_floquet(4, period=1.0))
        assert np.array_equal(U2.matrix, np.eye(4))
        assert U2.period == 2.0

    def test_disorder_cancels_at_zero_error(self):
        # even chains only: odd n picks up a global (-1)^n from the two pulses
        for n in (4, 6):
            params = SpinChainParams(n=n, epsilon=0.0)
            U = drive_unitary(params, sample_disorder(params, 111, 0))
            target = np.diag(np.exp(-2j * params.T2 * interaction_energies(params)))
            assert np.abs(squared_floquet(U).matrix - target).max() < 1e-10

    def test_spectral_mapping(self):
        # the eigenphase doubles along with the period, so the squared
        # propagator's quasienergies are the originals folded into the
        # halved window (-pi/2T, pi/2T]
        params = SpinChainParams(n=4, epsilon=0.06)
        U = drive_unitary(params, sample_disorder(params, 121, 0))
        lam = floquet_spectrum(U).quasienergies
        doubled = floquet_spectrum(squared_floquet(U)).quasienergies
        edge = np.pi / (2.0 * U.period)
        folded = (lam + edge) % (2.0 * edge) - edge
        folded[folded == -edge] = edge  # window is half-open on the left
        assert np.allclose(np.sort(folded), np.sort(doubled), atol=1e-10)


def _fresh_two_period(op: FloquetOperator) -> FloquetSpectrum:
    """The reference 2T spectrum: a block solve of U^2 from scratch."""
    return floquet_spectrum(squared_floquet(op))


class TestTwoPeriodSpectrum:
    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("eps", [0.0, 0.005, 0.012, 0.1])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fresh_solve(self, n, eps, seed):
        params = SpinChainParams(n=n, epsilon=eps)
        op = drive_unitary(params, sample_disorder(params, seed, 0))
        spectrum = two_period_spectrum(op, floquet_spectrum(op))
        reference = _fresh_two_period(op)
        assert spectrum.period == reference.period == 2.0 * op.period
        assert np.abs(spectrum.quasienergies - reference.quasienergies).max() < 1e-13
        H = effective_hamiltonian(spectrum)
        H_ref = effective_hamiltonian(reference)
        assert np.abs(H.matrix - H_ref.matrix).max() < 1e-12
        assert percolation_graph(H).edges == percolation_graph(H_ref).edges

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_zero_error_takes_the_fresh_solve(self, n):
        # U has dimer blocks and U^2 is diagonal, not one block, so U^2
        # is solved on its own 1x1 blocks, bit for bit as before
        params = SpinChainParams(n=n, epsilon=0.0)
        op = drive_unitary(params, sample_disorder(params, 5, 0))
        solved = floquet_spectrum(op)
        spectrum = two_period_spectrum(op, solved)
        assert spectrum.basis is not solved.basis
        reference = _fresh_two_period(op)
        assert np.array_equal(spectrum.quasienergies, reference.quasienergies)
        assert np.array_equal(spectrum.eigenvalues, reference.eigenvalues)
        assert np.array_equal(spectrum.states, reference.states)
        assert spectrum.branch_warnings == reference.branch_warnings
        H = effective_hamiltonian(spectrum).matrix
        assert np.count_nonzero(H - np.diag(H.diagonal())) == 0  # no couplings, hence no edges

    def test_one_block_with_split_square_takes_the_fresh_solve(self):
        # a 4-cycle U is one block, and U^2 (i -> i + 2) splits into
        # {0, 2} and {1, 3}, all four onsite energies equal: U's vectors
        # would leave roundoff couplings across the blocks at dE = 0,
        # which the strict rule counts as edges
        phis = np.array([0.3, -1.1, 0.7, 2.0])
        U = np.zeros((4, 4), dtype=complex)
        U[(np.arange(4) + 1) % 4, np.arange(4)] = np.exp(1j * phis)
        op = FloquetOperator(matrix=U, period=1.0)
        assert floquet_core._support_components(U)[0] == 1
        H = effective_hamiltonian(two_period_spectrum(op, floquet_spectrum(op)))
        cross = np.arange(4)[:, None] % 2 != np.arange(4)[None, :] % 2
        assert np.count_nonzero(H.matrix[cross]) == 0
        assert all(i % 2 == j % 2 for i, j in percolation_graph(H).edges)

    def test_two_blocks_kept_by_the_square_take_the_fresh_solve(self):
        # U = Q1 (+) Q2 and U^2 split into the same two dense blocks; only
        # a U^2 of one block reuses U's eigenpairs
        rng = np.random.default_rng(4)
        Q1, Q2 = (np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
                  for _ in range(2))
        op = FloquetOperator(matrix=scipy.linalg.block_diag(Q1, Q2), period=1.0)
        assert floquet_core._support_components(squared_floquet(op).matrix)[0] == 2
        spectrum = two_period_spectrum(op, floquet_spectrum(op))
        reference = _fresh_two_period(op)
        assert np.array_equal(spectrum.quasienergies, reference.quasienergies)
        assert np.array_equal(spectrum.eigenvalues, reference.eigenvalues)
        assert np.array_equal(spectrum.states, reference.states)

    def test_matching_blocks_reuse_the_eigenpairs(self, monkeypatch):
        params = SpinChainParams(n=6, epsilon=0.012)
        op = drive_unitary(params, sample_disorder(params, 3, 0))
        spectrum = floquet_spectrum(op)
        basis, order = spectrum.basis.copy(), spectrum.order.copy()
        solves = _record_solvers(monkeypatch)
        doubled = two_period_spectrum(op, spectrum)
        assert solves == []
        assert doubled.basis is spectrum.basis
        assert doubled.schur_fallbacks == 0
        # the input is left as it was
        assert np.array_equal(spectrum.basis, basis) and np.array_equal(spectrum.order, order)
        mu = np.exp(-1j * doubled.quasienergies * doubled.period)
        V = doubled.states
        assert np.abs(squared_floquet(op).matrix @ V - V * mu).max() < 1e-13

    @pytest.mark.parametrize("eps", [0.0, 0.012])
    def test_square_scanned_once(self, monkeypatch, eps):
        # the fresh route solves U^2 on the blocks its one scan found
        params = SpinChainParams(n=6, epsilon=eps)
        op = drive_unitary(params, sample_disorder(params, 3, 0))
        spectrum = floquet_spectrum(op)
        scans, scan = [], floquet_core._support_components
        monkeypatch.setattr(floquet_core, "_support_components", lambda U: scans.append(U) or scan(U))
        two_period_spectrum(op, spectrum)
        assert len(scans) == 1

    def test_branch_warnings_match_fresh_solve(self):
        # U eigenphases within BRANCH_MARGIN of +-pi/2 double onto the cut
        near = 0.5 * np.pi - 0.02 * floquet_core.BRANCH_MARGIN
        phases = np.array([near, -near, 0.3, -1.1, 2.0, -2.6, 1.3, 0.9])
        op = FloquetOperator(matrix=_random_unitary(phases.size, phases, 11), period=1.0)
        spectrum = floquet_spectrum(op)
        assert spectrum.branch_warnings == ()
        doubled = two_period_spectrum(op, spectrum)
        reference = _fresh_two_period(op)
        assert len(reference.branch_warnings) == 2
        assert sorted(doubled.branch_warnings) == sorted(reference.branch_warnings)
        assert np.abs(doubled.quasienergies - reference.quasienergies).max() < 1e-13

    def test_fallback_count_carries_over(self, skewed_eigh):
        # the blocks of U^2 are U's, and so are the Schur-solved eigenpairs
        params = SpinChainParams(n=4, epsilon=0.1)
        op = drive_unitary(params, sample_disorder(params, 9, 0))
        spectrum = floquet_spectrum(op)
        assert spectrum.schur_fallbacks == 1
        assert two_period_spectrum(op, spectrum).schur_fallbacks == 1

    def test_foreign_spectrum_rejected(self):
        params = SpinChainParams(n=4, epsilon=0.1)
        op = drive_unitary(params, sample_disorder(params, 9, 0))
        doubled = squared_floquet(op)
        with pytest.raises(ValueError, match="does not belong"):
            two_period_spectrum(op, floquet_spectrum(doubled))
        with pytest.raises(ValueError, match="does not belong"):
            two_period_spectrum(op, floquet_spectrum(_identity_floquet(4, period=op.period)))


class TestDriveUnitary:
    @pytest.mark.parametrize("n", [2, 3, 6, 8])
    @pytest.mark.parametrize("eps", [0.0, 0.012, 0.3])
    def test_matches_reference_path(self, n, eps):
        # built from (params, disorder) it must equal the dense reference
        # path exactly: same matrix bits
        params = SpinChainParams(n=n, epsilon=eps)
        disorder = sample_disorder(params, 17, 2)
        direct = drive_unitary(params, disorder)
        reference = floquet_operator(*build_drive(params, disorder), params)
        assert np.array_equal(direct.matrix, reference.matrix)
        assert direct.period == reference.period

    def test_disorder_size_mismatch_rejected(self):
        disorder = sample_disorder(SpinChainParams(n=3), 1, 0)
        with pytest.raises(ValueError):
            drive_unitary(SpinChainParams(n=4), disorder)


def _dense_bch_reference(params: SpinChainParams, disorder) -> np.ndarray:
    """The paper formula summed over dense single-site Pauli strings."""
    n, T = params.n, params.period
    matrix = np.diag((params.T2 / T) * interaction_energies(params)).astype(complex)
    pref = params.g * params.epsilon * params.T1 / (2.0 * T)
    for l in range(1, n + 1):
        phase = 2.0 * params.T2 * disorder.fields[l - 1]
        matrix -= pref * (np.cos(phase) + 1.0) * pauli_string([(l, "x")], n).matrix
        matrix -= pref * np.sin(phase) * pauli_string([(l, "y")], n).matrix
    return matrix


class TestBchEffective2T:
    @pytest.mark.parametrize("n", [3, 6])
    def test_matches_dense_pauli_reference(self, n):
        params = SpinChainParams(n=n, epsilon=0.02, W=np.pi)
        disorder = sample_disorder(params, 161, 0)
        assert np.any(disorder.fields != 0.0)
        got = bch_effective_2T(params, disorder).matrix
        assert np.array_equal(got, _dense_bch_reference(params, disorder))

    def test_zero_error_is_pure_ising(self):
        params = SpinChainParams(n=4, epsilon=0.0)
        H = bch_effective_2T(params, sample_disorder(params, 131, 0))
        scale = params.T2 / params.period
        target = np.diag(scale * interaction_energies(params))
        assert np.abs(H.matrix - target).max() < 1e-14
        assert H.period == 2.0 * params.period

    def test_zero_field_transverse_part(self):
        params = SpinChainParams(n=3, epsilon=0.02, W=0.0)
        H = bch_effective_2T(params, sample_disorder(params, 141, 0))
        scale = params.T2 / params.period
        ising = np.diag(scale * interaction_energies(params))
        coeff = params.g * params.epsilon * params.T1 / params.period
        xsum = sum(
            pauli_string([(l, "x")], 3).matrix for l in range(1, 4)
        )
        assert np.abs(H.matrix - (ising - coeff * xsum)).max() < 1e-12

    def test_hermitian(self):
        params = SpinChainParams(n=4, epsilon=0.05)
        H = bch_effective_2T(params, sample_disorder(params, 151, 0)).matrix
        assert np.abs(H - H.conj().T).max() < 1e-12

    def test_error_quadratic_in_epsilon(self):
        # measured reduction is ~2x (linear), outside the stated [2, 8]
        check_bch_quadratic_scaling()

    def test_disorder_of_another_size_rejected(self):
        params = SpinChainParams(n=4, epsilon=0.05)
        disorder = sample_disorder(SpinChainParams(n=3), 151, 0)
        with pytest.raises(ValueError, match="disorder has 3 fields, params.n = 4"):
            bch_effective_2T(params, disorder)


class TestStroboscopicEvolve:
    def test_identity_keeps_state_constant(self):
        states = stroboscopic_evolve(_identity_floquet(8), Configuration(index=5, n=3), 4)
        assert len(states) == 5
        for psi in states:
            assert psi[5] == 1.0
            assert np.count_nonzero(psi) == 1

    def test_zero_error_two_period_revival(self):
        params = SpinChainParams(n=4, epsilon=0.0)
        U = drive_unitary(params, sample_disorder(params, 161, 0))
        states = stroboscopic_evolve(U, Configuration(index=15, n=4), 2)
        assert abs(states[1][0]) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(states[2][15]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved(self):
        params = SpinChainParams(n=4, epsilon=0.08)
        U = drive_unitary(params, sample_disorder(params, 171, 0))
        for psi in stroboscopic_evolve(U, Configuration(index=3, n=4), 12):
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-10

    def test_zero_periods_allowed(self):
        states = stroboscopic_evolve(_identity_floquet(4), Configuration(index=1, n=2), 0)
        assert len(states) == 1

    def test_negative_periods_rejected(self):
        with pytest.raises(ValueError):
            stroboscopic_evolve(_identity_floquet(4), Configuration(index=1, n=2), -1)

    @pytest.mark.parametrize(
        "state, message",
        [(np.ones(3), "state has length 3, expected 4"), ([1.0, np.nan, 0.0, 0.0], "non-finite")],
    )
    def test_invalid_state_vector_rejected(self, state, message):
        with pytest.raises(ValueError, match=message):
            stroboscopic_evolve(_identity_floquet(4), state, 1)

    @pytest.mark.parametrize("evolve", [stroboscopic_evolve, magnetization_series, walk_populations])
    @pytest.mark.parametrize("n", [3, 5])
    def test_configuration_of_another_chain_length_rejected(self, evolve, n):
        # configuration 5 of 3 or 5 sites must not run as 0101 of 4 sites
        params = SpinChainParams(n=4, epsilon=0.05)
        U = drive_unitary(params, sample_disorder(params, 5, 0))
        with pytest.raises(ValueError, match="does not match the propagator dimension"):
            evolve(U, Configuration(index=5, n=n), 3)
