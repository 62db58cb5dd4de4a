"""Propagator construction, quasienergy spectra, effective Hamiltonians."""

import numpy as np
import pytest
import scipy.linalg

from dtcnet import (
    Configuration,
    DenseOperator,
    SpinChainParams,
    bch_effective_2T,
    build_drive,
    effective_hamiltonian,
    floquet_operator,
    floquet_spectrum,
    interaction_energies,
    pauli_string,
    sample_disorder,
    squared_floquet,
    stroboscopic_evolve,
)
from dtcnet.floquet_core import FloquetOperator, drive_unitary
from invariants import (
    check_bch_quadratic_scaling,
    check_conserved_at_zero_error,
    check_propagator_unitarity,
    check_spectral_reconstruction,
    check_zero_error_pairing,
)


def _identity_floquet(dim: int, period: float = 2.0) -> FloquetOperator:
    return FloquetOperator(
        matrix=np.eye(dim, dtype=complex), period=period, params_hash="test"
    )


def _zero_operator(n: int) -> DenseOperator:
    return DenseOperator(
        matrix=np.zeros((2**n, 2**n), dtype=complex), n=n, hermitian_flag=True
    )


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
            floquet_operator(
                DenseOperator(matrix=lopsided, n=2, hermitian_flag=True), H2, params
            )
        with pytest.raises(ValueError):
            floquet_operator(H1, H1, params)  # off-diagonal second step

    def test_unitarity(self):
        check_propagator_unitarity()


class TestFloquetSpectrum:
    def test_identity_has_zero_quasienergies(self):
        spectrum = floquet_spectrum(_identity_floquet(8))
        assert np.all(spectrum.quasienergies == 0.0)

    def test_half_pi_phases(self):
        U = FloquetOperator(
            matrix=np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]),
            period=1.0,
            params_hash="test",
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
        residual = U.matrix @ spectrum.states - spectrum.states * phases
        assert np.abs(np.linalg.norm(residual, axis=0)).max() < 1e-8
        gram = spectrum.states.conj().T @ spectrum.states
        assert np.abs(gram - np.eye(64)).max() < 1e-8

    def test_zero_error_pair_splitting(self):
        check_zero_error_pairing()

    def test_branch_margin_flagged(self):
        U = FloquetOperator(
            matrix=np.diag([np.exp(1j * (np.pi - 1e-12)), 1.0 + 0j]),
            period=1.0,
            params_hash="test",
        )
        spectrum = floquet_spectrum(U)
        assert len(spectrum.branch_warnings) == 1
        assert "branch" in spectrum.branch_warnings[0]
        clean = floquet_spectrum(_identity_floquet(2, period=1.0))
        assert clean.branch_warnings == ()


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
        weight = np.abs(spectrum.states[0, :]) ** 2
        pair = np.argsort(weight)[-2:]
        for s in pair:
            state = spectrum.states[:, s]
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


class TestDriveUnitary:
    @pytest.mark.parametrize("n", [2, 3, 6, 8])
    @pytest.mark.parametrize("eps", [0.0, 0.012, 0.3])
    def test_matches_reference_path(self, n, eps):
        # built from (params, disorder) it must equal the dense reference
        # path exactly: same matrix bits, same provenance hash
        params = SpinChainParams(n=n, epsilon=eps)
        disorder = sample_disorder(params, 17, 2)
        direct = drive_unitary(params, disorder)
        reference = floquet_operator(*build_drive(params, disorder), params)
        assert np.array_equal(direct.matrix, reference.matrix)
        assert direct.params_hash == reference.params_hash
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
