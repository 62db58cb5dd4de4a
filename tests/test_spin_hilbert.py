"""Configuration-space primitives: conventions, builders, disorder."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtcnet import (
    Configuration,
    DisorderRealization,
    SpinChainParams,
    build_drive,
    domain_wall_operator,
    domain_walls,
    interaction_energies,
    parity_operator,
    parity_partner,
    pauli_string,
    sample_disorder,
)
from invariants import (
    check_built_operators_hermitian,
    check_ising_diagonal_commutes,
    check_pulse_hop_structure,
    check_wall_operator_and_parity,
)


class TestParams:
    def test_pi_pulse_condition_exact(self):
        for T1 in (0.25, 1.0, 3.0):
            params = SpinChainParams(n=4, T1=T1)
            assert 2.0 * params.g * params.T1 == np.pi

    def test_defaults(self):
        params = SpinChainParams(n=8)
        assert params.J0 == 0.06
        assert params.alpha == 1.51
        assert params.W == np.pi
        assert params.T1 == 1.0 and params.T2 == 1.0
        assert params.epsilon == 0.0
        assert params.period == 2.0
        assert params.dim == 256

    @pytest.mark.parametrize("J0", [0.0, 0.06])
    def test_couplings_power_law_with_zero_diagonal(self, J0):
        params = SpinChainParams(n=5, J0=J0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # J0 = 0 must not divide 0 by 0 on the diagonal
            J = params.couplings()
        expected = [[J0 / abs(l - m) ** params.alpha if l != m else 0.0 for m in range(5)] for l in range(5)]
        np.testing.assert_allclose(J, expected, rtol=1e-14, atol=0.0)
        assert np.all(np.diag(J) == 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1},
            {"n": 4, "T1": 0.0},
            {"n": 4, "T2": -1.0},
            {"n": 4, "alpha": 0.0},
            {"n": 4, "W": -0.1},
            {"n": 4, "epsilon": -0.01},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SpinChainParams(**kwargs)


class TestConfiguration:
    def test_bit_convention(self):
        # site 1 is the most significant bit; bit 1 means spin up
        cfg = Configuration(index=0b100, n=3)
        assert cfg.label == "100"
        assert np.array_equal(cfg.spin_z(), [1.0, -1.0, -1.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Configuration(index=8, n=3)
        with pytest.raises(ValueError):
            Configuration(index=-1, n=3)

    @pytest.mark.parametrize(
        "index, n, walls",
        [(0, 8, 0), (0b00001111, 8, 1), (0b01010101, 8, 7)],
    )
    def test_domain_wall_examples(self, index, n, walls):
        assert domain_walls(Configuration(index=index, n=n)) == walls

    @given(st.integers(min_value=2, max_value=10), st.data())
    def test_domain_walls_match_bitstring(self, n, data):
        index = data.draw(st.integers(min_value=0, max_value=2**n - 1))
        bits = format(index, f"0{n}b")
        expected = sum(a != b for a, b in zip(bits, bits[1:]))
        assert domain_walls(Configuration(index=index, n=n)) == expected

    @pytest.mark.parametrize("index, n, partner", [(2, 3, 5), (0, 8, 255)])
    def test_parity_partner_examples(self, index, n, partner):
        assert parity_partner(Configuration(index=index, n=n)).index == partner

    def test_parity_partner_involution(self):
        for i in range(16):
            cfg = Configuration(index=i, n=4)
            assert parity_partner(parity_partner(cfg)).index == i


class TestPauliString:
    def test_sigma_z_on_up_state(self):
        up = np.array([0.0, 1.0])  # index 1 carries bit 1 (spin up)
        out = pauli_string([(1, "z")], 1).matrix @ up
        assert np.allclose(out, up)

    def test_sigma_x_is_bit_flip(self):
        sx = pauli_string([(1, "x")], 1).matrix
        assert np.array_equal(sx.real, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.all(sx.imag == 0.0)

    def test_zz_on_up_down(self):
        up_down = np.zeros(4)
        up_down[0b10] = 1.0
        zz = pauli_string([(1, "z"), (2, "z")], 2).matrix
        assert np.allclose(zz @ up_down, -up_down)

    def test_algebra_xy_equals_iz(self):
        sx = pauli_string([(1, "x")], 1).matrix
        sy = pauli_string([(1, "y")], 1).matrix
        sz = pauli_string([(1, "z")], 1).matrix
        assert np.allclose(sx @ sy, 1j * sz)

    def test_squares_to_identity(self):
        op = pauli_string([(1, "x"), (3, "y"), (4, "z")], 4).matrix
        assert np.allclose(op @ op, np.eye(16))

    @pytest.mark.parametrize("axes", [[(1, "x"), (1, "y")], [(0, "z")], [(5, "x")]])
    def test_bad_sites_rejected(self, axes):
        with pytest.raises(ValueError):
            pauli_string(axes, 4)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            pauli_string([(1, "q")], 2)


class TestDisorder:
    def test_zero_width_gives_zero_fields(self):
        params = SpinChainParams(n=5, W=0.0)
        assert np.all(sample_disorder(params, 3, 0).fields == 0.0)

    def test_deterministic_replay(self):
        params = SpinChainParams(n=6)
        a = sample_disorder(params, 12, 4)
        b = sample_disorder(params, 12, 4)
        assert np.array_equal(a.fields, b.fields)
        assert a.seed == b.seed and a.realization_index == b.realization_index

    def test_realizations_differ_and_mean_converges(self):
        params = SpinChainParams(n=4)
        a = sample_disorder(params, 1, 0)
        b = sample_disorder(params, 1, 1)
        assert not np.array_equal(a.fields, b.fields)
        draws = np.concatenate(
            [sample_disorder(params, 1, r).fields for r in range(2500)]
        )
        # mean of 10^4 uniform [0, W] draws: W/2 within 3 sigma
        sigma = params.W / np.sqrt(12.0) / np.sqrt(draws.size)
        assert abs(draws.mean() - params.W / 2.0) < 3.0 * sigma

    def test_fields_within_range(self):
        params = SpinChainParams(n=8)
        for r in range(20):
            fields = sample_disorder(params, 77, r).fields
            assert np.all(fields >= 0.0) and np.all(fields <= params.W)

    def test_site_count_follows_fields(self):
        disorder = DisorderRealization(fields=np.zeros(3), seed=0, realization_index=0)
        assert disorder.n == 3


class TestBuildDrive:
    def test_ising_diagonal_example(self):
        params = SpinChainParams(n=2, W=0.0)
        _, H2 = build_drive(params, sample_disorder(params, 0, 0))
        assert np.allclose(
            H2.matrix.diagonal().real, [0.06, -0.06, -0.06, 0.06], atol=1e-15
        )

    def test_long_range_coupling_value(self):
        # J_13 recovered from the n=3 interaction diagonal
        params = SpinChainParams(n=3, W=0.0)
        energies = interaction_energies(params)
        j13 = (energies[0b000] + energies[0b010]) / 2.0
        assert j13 == pytest.approx(0.06 / 2**1.51, abs=1e-15)
        assert j13 == pytest.approx(0.021057, abs=2e-5)

    def test_full_rotation_error_kills_pulse(self):
        params = SpinChainParams(n=3, epsilon=1.0)
        H1, _ = build_drive(params, sample_disorder(params, 0, 0))
        assert np.all(H1.matrix == 0.0)

    def test_mismatched_disorder_rejected(self):
        params = SpinChainParams(n=4)
        other = sample_disorder(SpinChainParams(n=3), 0, 0)
        with pytest.raises(ValueError):
            build_drive(params, other)

    def test_fields_enter_diagonal(self):
        params = SpinChainParams(n=2, W=0.0)
        disorder = DisorderRealization(
            fields=np.array([0.3, 0.5]), seed=0, realization_index=0
        )
        _, H2 = build_drive(params, disorder)
        base = interaction_energies(params)
        # z_l = +1 for bit 1: index 0b10 adds +0.3 - 0.5
        shifts = H2.matrix.diagonal().real - base
        assert shifts[0b11] == pytest.approx(0.8)
        assert shifts[0b10] == pytest.approx(-0.2)
        assert shifts[0b00] == pytest.approx(-0.8)


class TestOperatorInvariants:
    def test_pulse_hop_structure(self):
        check_pulse_hop_structure()

    def test_ising_diagonal_commutes(self):
        check_ising_diagonal_commutes()

    def test_wall_operator_and_parity_action(self):
        check_wall_operator_and_parity()

    def test_everything_hermitian(self):
        check_built_operators_hermitian()

    def test_wall_operator_matches_pauli_sum(self):
        n = 5
        walls = domain_wall_operator(n).matrix
        direct = sum(
            np.eye(2**n) - pauli_string([(l, "z"), (l + 1, "z")], n).matrix
            for l in range(1, n)
        )
        assert np.allclose(walls, direct, atol=1e-12)

    def test_parity_operator_matches_x_product(self):
        n = 4
        parity = parity_operator(n).matrix
        direct = pauli_string([(l, "x") for l in range(1, n + 1)], n).matrix
        assert np.allclose(parity, direct, atol=1e-12)
