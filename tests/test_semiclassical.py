"""Classical energy surface at zero error: fixed points and stability."""

import numpy as np
import pytest

from dtcnet import (
    ClassicalConfiguration,
    SpinChainParams,
    classical_energy,
    classify_fixed_point,
    jacobian,
)
from invariants import (
    check_corner_gradients_vanish,
    check_energy_flip_symmetry,
    check_jacobian_matches_fd_hessian,
)


def _couplings(params: SpinChainParams) -> dict[tuple[int, int], float]:
    return {
        (l, m): params.J0 / abs(l - m) ** params.alpha
        for l in range(1, params.n + 1)
        for m in range(l + 1, params.n + 1)
    }


class TestClassicalConfiguration:
    def test_fixed_point_flag(self):
        corner = ClassicalConfiguration(thetas=np.array([0.0, np.pi, np.pi]))
        assert corner.fixed_point_flag
        interior = ClassicalConfiguration(thetas=np.array([0.0, 1.2, np.pi]))
        assert not interior.fixed_point_flag

    def test_angle_domain_enforced(self):
        with pytest.raises(ValueError):
            ClassicalConfiguration(thetas=np.array([0.0, -0.1]))
        with pytest.raises(ValueError):
            ClassicalConfiguration(thetas=np.array([0.0, np.pi + 0.1]))

    @pytest.mark.parametrize("thetas", [[0.0], [], [[0.0, np.pi]]])
    def test_fewer_than_two_angles_rejected(self, thetas):
        with pytest.raises(ValueError, match="need a vector of at least 2 angles"):
            ClassicalConfiguration(thetas=np.array(thetas))


class TestClassicalEnergy:
    def test_aligned_pair(self):
        params = SpinChainParams(n=2)
        config = ClassicalConfiguration(thetas=np.zeros(2))
        assert classical_energy(config, params) == pytest.approx(0.03, abs=1e-15)

    def test_antialigned_pair(self):
        params = SpinChainParams(n=2)
        config = ClassicalConfiguration(thetas=np.array([0.0, np.pi]))
        assert classical_energy(config, params) == pytest.approx(-0.03, abs=1e-15)

    def test_equator_vanishes(self):
        params = SpinChainParams(n=5)
        config = ClassicalConfiguration(thetas=np.full(5, np.pi / 2.0))
        assert classical_energy(config, params) == pytest.approx(0.0, abs=1e-15)

    def test_matches_pair_sum(self):
        params = SpinChainParams(n=4)
        rng = np.random.default_rng(15)
        thetas = rng.uniform(0.0, np.pi, size=4)
        expected = (params.T2 / params.period) * sum(
            j * np.cos(thetas[l - 1]) * np.cos(thetas[m - 1])
            for (l, m), j in _couplings(params).items()
        )
        config = ClassicalConfiguration(thetas=thetas)
        assert classical_energy(config, params) == pytest.approx(expected, abs=1e-14)

    def test_global_flip_symmetry(self):
        check_energy_flip_symmetry()

    def test_corner_gradients_vanish(self):
        check_corner_gradients_vanish()

    def test_configuration_of_another_size_rejected(self):
        config = ClassicalConfiguration(thetas=np.zeros(3))
        with pytest.raises(ValueError, match="configuration has 3 angles, params.n = 4"):
            classical_energy(config, SpinChainParams(n=4))


class TestJacobian:
    def test_all_up_corner(self):
        params = SpinChainParams(n=4)
        J = _couplings(params)
        mat = jacobian(ClassicalConfiguration(thetas=np.zeros(4)), params)
        assert np.abs(mat - np.diag(np.diag(mat))).max() == 0.0
        assert mat[0, 0] == pytest.approx(-(J[1, 2] + J[1, 3] + J[1, 4]), abs=1e-15)
        # quoted rounded value, good to ~4e-5
        assert mat[0, 0] == pytest.approx(-0.09245, abs=1e-4)

    def test_one_wall_corner(self):
        params = SpinChainParams(n=4)
        J = _couplings(params)
        thetas = np.array([0.0, 0.0, np.pi, np.pi])
        diag = np.diag(jacobian(ClassicalConfiguration(thetas=thetas), params))
        expected = [
            -J[1, 2] + J[1, 3] + J[1, 4],
            -J[1, 2] + J[2, 3] + J[2, 4],
            J[1, 3] + J[2, 3] - J[3, 4],
            J[1, 4] + J[2, 4] - J[3, 4],
        ]
        assert np.allclose(diag, expected, atol=1e-15)

    def test_alternating_corner_positive(self):
        params = SpinChainParams(n=4)
        thetas = np.array([0.0, np.pi, 0.0, np.pi])
        diag = np.diag(jacobian(ClassicalConfiguration(thetas=thetas), params))
        assert np.all(diag > 0.0)

    def test_interior_off_diagonals(self):
        params = SpinChainParams(n=3)
        J = _couplings(params)
        thetas = np.array([0.4, 1.1, 2.0])
        mat = jacobian(ClassicalConfiguration(thetas=thetas), params)
        assert np.abs(mat - mat.T).max() < 1e-12
        assert mat[0, 1] == pytest.approx(
            J[1, 2] * np.sin(thetas[0]) * np.sin(thetas[1]), abs=1e-15
        )

    def test_matches_fd_hessian(self):
        check_jacobian_matches_fd_hessian()

    def test_configuration_of_another_size_rejected(self):
        config = ClassicalConfiguration(thetas=np.zeros(3))
        with pytest.raises(ValueError, match="configuration has 3 angles, params.n = 4"):
            jacobian(config, SpinChainParams(n=4))


class TestClassifyFixedPoint:
    def test_all_negative_stable(self):
        report = classify_fixed_point(np.diag([-1.0, -1.0, -1.0]))
        assert report.classification == "stable"

    def test_mixed_signs_saddle(self):
        report = classify_fixed_point(np.diag([-1.0, 1.0]))
        assert report.classification == "unstable_saddle"

    def test_all_positive_stable(self):
        # same-sign criterion: the alternating corner is an energy
        # extremum with an all-positive spectrum
        params = SpinChainParams(n=4)
        thetas = np.array([0.0, np.pi, 0.0, np.pi])
        report = classify_fixed_point(jacobian(ClassicalConfiguration(thetas=thetas), params))
        assert report.classification == "stable"
        assert np.all(report.eigenvalues > 0.0)

    def test_one_wall_corner_is_saddle(self):
        # mixed curvature: melting a domain wall lowers the energy in
        # some directions and raises it in others
        params = SpinChainParams(n=4)
        thetas = np.array([0.0, 0.0, np.pi, np.pi])
        report = classify_fixed_point(jacobian(ClassicalConfiguration(thetas=thetas), params))
        assert report.classification == "unstable_saddle"

    def test_near_zero_eigenvalue_marginal(self):
        report = classify_fixed_point(np.diag([0.0, 1.0, 2.0]))
        assert report.classification == "marginal"

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            classify_fixed_point(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="jacobian not symmetric: defect nan"):
            classify_fixed_point(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_eigenvalues_sorted_and_real(self):
        report = classify_fixed_point(np.array([[2.0, 0.5], [0.5, -1.0]]))
        assert report.eigenvalues.dtype.kind == "f"
        assert np.all(np.diff(report.eigenvalues) >= 0.0)

    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_non_square_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="jacobian must be a square matrix"):
            classify_fixed_point(np.zeros(shape))
