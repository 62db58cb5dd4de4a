"""Level statistics, power spectra, quantum-walk observables."""

import numpy as np
import pytest

from dtcnet import (
    Configuration,
    SpinChainParams,
    gap_ratios,
    magnetization_series,
    mean_gap_ratio,
    participation_ratio,
    power_spectrum,
    pr_distribution,
    reference_mean,
    reference_pdf,
    sample_disorder,
    spectral_fidelity,
    walk_horizon_periods,
    walk_populations,
)
from dtcnet.diagnostics import PowerSpectrum, basis_dynamics
from dtcnet.spin_hilbert import pauli_string, spin_z_table
from dtcnet.floquet_core import FloquetOperator, drive_unitary, stroboscopic_evolve
from invariants import (
    check_fidelity_symmetry_scale,
    check_gap_ratio_invariance,
    check_magnetization_dual_paths,
    check_parseval,
    check_reference_normalizations,
)


def _identity(dim: int) -> FloquetOperator:
    return FloquetOperator(matrix=np.eye(dim, dtype=complex), period=2.0)


class TestGapRatios:
    def test_small_spectrum_example(self):
        sample = gap_ratios(np.array([0.0, 1.0, 3.0, 4.0]))
        assert np.allclose(sample.ratios, [0.5, 0.5])
        assert sample.excluded_degenerate == 0

    def test_equally_spaced_all_ones(self):
        sample = gap_ratios(np.linspace(-1.0, 1.0, 17))
        assert np.allclose(sample.ratios, 1.0)

    def test_degenerate_gaps_excluded_and_counted(self):
        sample = gap_ratios(np.array([0.0, 0.0, 1.0, 2.0]))
        assert sample.excluded_degenerate == 1
        assert np.allclose(sample.ratios, [1.0])

    def test_unsorted_input_handled(self):
        shuffled = gap_ratios(np.array([4.0, 0.0, 3.0, 1.0]))
        assert np.allclose(shuffled.ratios, [0.5, 0.5])

    def test_ratios_bounded(self):
        rng = np.random.default_rng(14)
        sample = gap_ratios(rng.normal(size=64))
        assert np.all(sample.ratios >= 0.0)
        assert np.all(sample.ratios <= 1.0)

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError):
            gap_ratios(np.array([0.0, 1.0]))

    def test_shift_scale_invariance(self):
        check_gap_ratio_invariance()


class TestReferenceDensities:
    def test_poisson_endpoints(self):
        assert reference_pdf("poisson", 0.0) == pytest.approx(2.0)
        assert reference_pdf("poisson", 1.0) == pytest.approx(0.5)

    def test_goe_vanishes_at_zero(self):
        assert reference_pdf("goe", 0.0) == pytest.approx(0.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            reference_pdf("gue", 0.5)
        with pytest.raises(ValueError):
            reference_pdf("poisson", 1.5)

    def test_normalizations(self):
        check_reference_normalizations()

    def test_reference_means(self):
        assert reference_mean("poisson") == pytest.approx(2.0 * np.log(2.0) - 1.0, abs=1e-9)
        assert reference_mean("coe") == pytest.approx(0.527, abs=1e-3)

    def test_mean_gap_ratio(self):
        sample = gap_ratios(np.linspace(0.0, 1.0, 12))
        assert mean_gap_ratio(sample) == pytest.approx(1.0)
        empty = gap_ratios(np.array([0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            mean_gap_ratio(empty)


class TestMagnetizationSeries:
    def test_all_up_starts_at_one(self):
        params = SpinChainParams(n=4, epsilon=0.02)
        U = drive_unitary(params, sample_disorder(params, 201, 0))
        series = magnetization_series(U, Configuration(index=15, n=4), 3)
        assert series[0] == pytest.approx(1.0)

    def test_zero_error_alternates(self):
        params = SpinChainParams(n=4, epsilon=0.0)
        U = drive_unitary(params, sample_disorder(params, 211, 0))
        series = magnetization_series(U, Configuration(index=0b1110, n=4), 6)
        for m, value in enumerate(series):
            assert value == pytest.approx((-1) ** m * series[0], abs=1e-10)

    def test_balanced_config_starts_at_zero(self):
        params = SpinChainParams(n=4, epsilon=0.03)
        U = drive_unitary(params, sample_disorder(params, 221, 0))
        series = magnetization_series(U, Configuration(index=0b1010, n=4), 2)
        assert series[0] == pytest.approx(0.0, abs=1e-12)

    def test_length_and_bounds(self):
        params = SpinChainParams(n=3, epsilon=0.09)
        U = drive_unitary(params, sample_disorder(params, 231, 0))
        series = magnetization_series(U, Configuration(index=1, n=3), 9)
        assert series.shape == (10,)
        assert np.all(np.abs(series) <= 1.0 + 1e-12)

    def test_zero_periods_rejected(self):
        with pytest.raises(ValueError):
            magnetization_series(_identity(8), Configuration(index=0, n=3), 0)

    def test_dual_computation_agreement(self):
        check_magnetization_dual_paths()

    def test_matches_dense_pauli_reference(self):
        # the operator path used to contract with the dense sum of n sigma^z strings
        for n in (2, 3, 5):
            params = SpinChainParams(n=n, epsilon=0.07)
            U = drive_unitary(params, sample_disorder(params, 241, 0))
            initial = Configuration(index=2**n - 2, n=n)
            states = stroboscopic_evolve(U, initial, 6)
            sz_total = sum(pauli_string([(l, "z")], n).matrix for l in range(1, n + 1))
            dense = np.real(np.einsum("mi,ij,mj->m", states.conj(), sz_total, states)) / n
            assert np.abs(magnetization_series(U, initial, 6) - dense).max() < 1e-13


class TestBasisDynamics:
    def test_columns_match_single_state_paths(self):
        params = SpinChainParams(n=4, epsilon=0.05)
        U = drive_unitary(params, sample_disorder(params, 301, 0))
        magnetization, prs = basis_dynamics(U, 6, 9)
        assert magnetization.shape == (7, 16) and prs.shape == (16,)
        for index in (0, 5, 15):
            initial = Configuration(index=index, n=4)
            series = magnetization_series(U, initial, 6)
            assert np.abs(magnetization[:, index] - series).max() < 1e-12
            state = stroboscopic_evolve(U, initial, 9)[9]
            assert prs[index] == pytest.approx(participation_ratio(state), rel=1e-12)

    def test_horizon_past_periods(self):
        params = SpinChainParams(n=3, epsilon=0.02)
        U = drive_unitary(params, sample_disorder(params, 311, 0))
        short, prs = basis_dynamics(U, 2, 12)
        full, _ = basis_dynamics(U, 12)
        assert np.array_equal(short, full[:3])
        assert np.array_equal(prs, basis_dynamics(U, 0, 12)[1])

    def test_no_horizon_no_prs(self):
        magnetization, prs = basis_dynamics(_identity(8), 3)
        assert prs is None
        assert np.array_equal(magnetization, np.tile(spin_z_table(3).mean(axis=1), (4, 1)))

    @pytest.mark.parametrize("periods, horizon", [(-1, None), (2, 0)])
    def test_invalid_rejected(self, periods, horizon):
        with pytest.raises(ValueError):
            basis_dynamics(_identity(8), periods, horizon)

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("eps", [0.0, 0.012, 0.1])
    def test_factored_steps_match_dense_loop(self, n, eps):
        # the dense loop basis_dynamics ran before it stepped by U.apply
        params = SpinChainParams(n=n, epsilon=eps)
        U = drive_unitary(params, sample_disorder(params, 321, 0))
        periods, horizon = 64, walk_horizon_periods(params) if eps > 0 else 83
        sign_sum = spin_z_table(n).sum(axis=1)
        dense = np.empty((periods + 1, 2**n))
        dense[0] = sign_sum / n
        W = np.eye(2**n, dtype=complex)
        for m in range(1, max(periods, horizon) + 1):
            W = U.matrix @ W
            if m <= periods:
                dense[m] = sign_sum @ (np.abs(W) ** 2) / n
            if m == horizon:
                dense_prs = 1.0 / np.sum(np.abs(W) ** 4, axis=0)
        magnetization, prs = basis_dynamics(U, periods, horizon)
        assert np.abs(magnetization - dense).max() <= 5e-14
        assert (np.abs(prs - dense_prs) / dense_prs).max() <= 1e-13

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("eps", [0.0, 0.012, 0.1])
    def test_real_gauge_matches_the_hand_made_copy(self, monkeypatch, n, eps):
        # the drive operator steps in the real gauge of its pulse, its copy without
        # factors by U.apply on the dense matrix
        params = SpinChainParams(n=n, epsilon=eps)
        U = drive_unitary(params, sample_disorder(params, 331, 0))
        copy = FloquetOperator(matrix=U.matrix.copy(), period=U.period)
        periods, horizon = 64, walk_horizon_periods(params) if eps > 0 else 83
        applied, original = [], FloquetOperator.apply

        def counted(op, states):
            applied.append(op)
            return original(op, states)

        monkeypatch.setattr(FloquetOperator, "apply", counted)
        magnetization, prs = basis_dynamics(U, periods, horizon)
        assert applied == []
        copy_magnetization, copy_prs = basis_dynamics(copy, periods, horizon)
        assert len(applied) == max(periods, horizon) and all(op is copy for op in applied)
        assert np.abs(magnetization - copy_magnetization).max() <= 5e-14
        assert (np.abs(prs - copy_prs) / copy_prs).max() <= 1e-13


class TestPowerSpectrum:
    def test_constant_series_peaks_at_zero(self):
        spec = power_spectrum(np.full(9, 0.7))
        assert spec.V[0] == pytest.approx(0.49)
        assert np.all(spec.V[1:] < 1e-20)

    def test_alternating_series_peaks_at_half(self):
        N = 16
        series = np.array([(-1.0) ** m for m in range(N + 1)])
        spec = power_spectrum(series)
        assert spec.V[N // 2] == pytest.approx(1.0)
        others = np.delete(spec.V, N // 2)
        assert np.all(others < 1e-20)

    def test_zero_series(self):
        spec = power_spectrum(np.zeros(8))
        assert np.all(spec.V == 0.0)

    def test_omega_grid(self):
        spec = power_spectrum(np.ones(5), period=2.0)
        assert spec.N == 4
        assert spec.omega(1) == pytest.approx(2.0 * np.pi / (4 * 2.0))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            power_spectrum(np.array([1.0, -1.0]))

    def test_parseval(self):
        check_parseval()

    def test_two_dimensional_series_rejected(self):
        with pytest.raises(ValueError, match="series must be one-dimensional"):
            power_spectrum(np.zeros((5, 3)))


class TestSpectralFidelity:
    def test_identical_spectra(self):
        spec = power_spectrum(np.sin(np.arange(12)))
        assert spectral_fidelity(spec, spec) == pytest.approx(1.0)

    def test_disjoint_support(self):
        a = PowerSpectrum(V=np.array([1.0, 0.0, 0.0, 0.0]), N=4, period=2.0)
        b = PowerSpectrum(V=np.array([0.0, 0.0, 1.0, 0.0]), N=4, period=2.0)
        assert spectral_fidelity(a, b) == 0.0

    def test_zero_norm_rejected(self):
        a = power_spectrum(np.ones(6))
        zero = PowerSpectrum(V=np.zeros(5), N=5, period=2.0)
        with pytest.raises(ValueError):
            spectral_fidelity(a, zero)

    def test_length_mismatch_rejected(self):
        a = power_spectrum(np.ones(6))
        b = power_spectrum(np.ones(7))
        with pytest.raises(ValueError):
            spectral_fidelity(a, b)

    def test_symmetry_and_rescaling(self):
        check_fidelity_symmetry_scale()


class TestWalkPopulations:
    def test_zero_error_two_site_shuttle(self):
        params = SpinChainParams(n=4, epsilon=0.0)
        U = drive_unitary(params, sample_disorder(params, 241, 0))
        populations = walk_populations(U, Configuration(index=15, n=4), 4)
        for m in range(5):
            target = 15 if m % 2 == 0 else 0
            assert populations[m, target] == pytest.approx(1.0, abs=1e-12)

    def test_identity_stays_put(self):
        populations = walk_populations(_identity(8), Configuration(index=3, n=3), 5)
        assert np.all(populations[:, 3] == 1.0)

    def test_non_unitary_operator_rejected(self):
        doubling = FloquetOperator(matrix=2.0 * np.eye(4, dtype=complex), period=2.0)
        with pytest.raises(RuntimeError, match="walk populations not normalized"):
            walk_populations(doubling, Configuration(index=1, n=2), 1)

    def test_rows_normalized(self):
        params = SpinChainParams(n=5, epsilon=0.08)
        U = drive_unitary(params, sample_disorder(params, 251, 0))
        populations = walk_populations(U, Configuration(index=7, n=5), 10)
        assert np.allclose(populations.sum(axis=1), 1.0, atol=1e-10)

    def test_large_error_spreads(self):
        params = SpinChainParams(n=5, epsilon=0.1)
        U = drive_unitary(params, sample_disorder(params, 261, 0))
        populations = walk_populations(U, Configuration(index=31, n=5), 12)
        assert np.count_nonzero(populations[12] > 1e-3) > 4

    @pytest.mark.parametrize("n", [5, 6, 7])
    @pytest.mark.parametrize("eps", [0.012, 0.1])
    def test_factored_steps_match_dense_loop(self, n, eps):
        # the dense loop stroboscopic_evolve ran before it stepped by U.apply
        params = SpinChainParams(n=n, epsilon=eps)
        U = drive_unitary(params, sample_disorder(params, 271, 0))
        horizon = walk_horizon_periods(params)
        psi = np.zeros(2**n, dtype=complex)
        psi[-1] = 1.0
        dense = [np.abs(psi) ** 2]
        for _ in range(horizon):
            psi = U.matrix @ psi
            dense.append(np.abs(psi) ** 2)
        populations = walk_populations(U, Configuration(index=2**n - 1, n=n), horizon)
        assert np.abs(populations - np.array(dense)).max() <= 5e-14

    def test_negative_period_count_rejected(self):
        with pytest.raises(ValueError, match="N must be >= 0"):
            walk_populations(_identity(4), Configuration(index=1, n=2), -1)


class TestParticipationRatio:
    def test_basis_state(self):
        state = np.zeros(16)
        state[5] = 1.0
        assert participation_ratio(state) == pytest.approx(1.0)

    def test_uniform_superposition(self):
        for d in (2, 4, 8):
            state = np.zeros(8, dtype=complex)
            state[:d] = 1.0 / np.sqrt(d)
            assert participation_ratio(state) == pytest.approx(float(d))

    def test_ghz_state(self):
        state = np.zeros(256, dtype=complex)
        state[0] = state[255] = 1.0 / np.sqrt(2.0)
        assert participation_ratio(state) == pytest.approx(2.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            participation_ratio(np.array([1.0, 1.0]))


class TestPrDistribution:
    def test_horizon_examples(self):
        assert walk_horizon_periods(SpinChainParams(n=8, epsilon=0.012)) == 53
        assert walk_horizon_periods(SpinChainParams(n=8, epsilon=0.1)) == 6

    def test_horizon_floor_at_one_period(self):
        assert walk_horizon_periods(SpinChainParams(n=4, epsilon=5.0)) == 1

    def test_horizon_overflow_rejected(self):
        # 2 / (pi eps) is inf at the smallest subnormal epsilon
        with pytest.raises(ValueError, match="tunneling horizon overflows"):
            walk_horizon_periods(SpinChainParams(n=4, epsilon=5e-324))

    def test_zero_error_rejected(self):
        params = SpinChainParams(n=4, epsilon=0.0)
        with pytest.raises(ValueError):
            pr_distribution(params, sample_disorder(params, 271, 0))

    def test_values_bounded_and_complete(self):
        params = SpinChainParams(n=5, epsilon=0.05)
        prs = pr_distribution(params, sample_disorder(params, 281, 0))
        assert prs.shape == (32,)
        assert np.all(prs >= 1.0 - 1e-12)
        assert np.all(prs <= 32.0 + 1e-9)

    def test_zero_error_limit_pairs(self):
        # tiny error, single-period horizon capped by the pulse: each
        # configuration shuttles toward its mirror, PR stays near 1
        params = SpinChainParams(n=4, epsilon=2.0)
        prs = pr_distribution(params, sample_disorder(params, 291, 0))
        assert prs.shape == (16,)

    def test_horizon_is_two_over_pi_epsilon_at_any_t1(self):
        # T1 cancels; the product g eps T1 would underflow to 0 at T1 = 1e300
        for T1 in (1e-3, 1.0, 1e300):
            params = SpinChainParams(n=4, epsilon=1e-300, T1=T1)
            assert walk_horizon_periods(params) == round(2 / (np.pi * 1e-300))
