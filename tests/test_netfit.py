"""Degree statistics: binning, tail fitting, model comparison."""

import numpy as np
import pytest
import scipy.optimize

from dtcnet import (
    EnsembleSpec,
    LikelihoodRatioResult,
    PowerLawFit,
    SpinChainParams,
    avg_degree_by_domain_walls,
    kmin_scan,
    ks_distance,
    log_binned_histogram,
    lognormal_lr_test,
    percolation_graph,
    poisson_fit,
    powerlaw_mle,
    realization_outputs,
)
from dtcnet.floquet_core import EffectiveHamiltonian
from dtcnet.netfit import _lognormal_logpdf
from invariants import (
    check_histogram_normalization,
    check_ks_sample_size_decreasing,
    check_lr_shuffle_invariance,
    check_mle_duplication_consistency,
    sample_discrete_lognormal,
    sample_discrete_powerlaw,
)


class TestDegreeInput:
    def test_non_integer_rejected(self):
        sample = sample_discrete_powerlaw(2.5, 3, 500, np.random.default_rng(2)).astype(float)
        sample[0] = 1000.004  # within the relative tolerance 1e-5 of 1000
        with pytest.raises(ValueError, match="degrees must be integers"):
            kmin_scan(sample)
        with pytest.raises(ValueError, match="degrees must be integers"):
            log_binned_histogram(sample)

    def test_integer_within_roundoff_accepted(self):
        sample = sample_discrete_powerlaw(2.5, 3, 500, np.random.default_rng(2))
        nudged = sample.astype(float)
        nudged[0] = 7.0 + 1e-12
        sample[0] = 7
        assert kmin_scan(nudged) == kmin_scan(sample)
        assert np.array_equal(log_binned_histogram(nudged).densities, log_binned_histogram(sample).densities)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degrees must be >= 0"):
            log_binned_histogram([1, 2, -3, 4])


class TestFitRecords:
    @pytest.mark.parametrize(
        "beta, k_min, ks, message",
        [(1.0, 2, 0.1, "beta must exceed 1"), (2.5, 0, 0.1, "k_min must be >= 1"),
         (2.5, 2, 1.5, "ks must lie in")],
    )
    def test_power_law_fit_checked(self, beta, k_min, ks, message):
        with pytest.raises(ValueError, match=message):
            PowerLawFit(beta=beta, k_min=k_min, ks=ks, n_tail=50)

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError, match="unknown verdict 'exponential'"):
            LikelihoodRatioResult(R=0.0, favored="exponential", normalized_R=0.0)


class TestLogBinnedHistogram:
    def test_constant_ones_single_bin(self):
        hist = log_binned_histogram(np.ones(50, dtype=np.int64), 1.5)
        occupied = np.nonzero(hist.densities)[0]
        assert occupied.size == 1
        width = hist.bin_edges[occupied[0] + 1] - hist.bin_edges[occupied[0]]
        assert hist.densities[occupied[0]] * width == pytest.approx(1.0)

    def test_uniform_counts_match_direct_binning(self):
        degrees = np.arange(1, 101, dtype=np.int64)
        hist = log_binned_histogram(degrees, 2.0)
        assert np.allclose(hist.bin_edges, [2.0**k for k in range(len(hist.bin_edges))])
        for b in range(len(hist.bin_edges) - 1):
            lo, hi = hist.bin_edges[b], hist.bin_edges[b + 1]
            count = np.count_nonzero((degrees >= lo) & (degrees < hi))
            assert hist.densities[b] * (hi - lo) * degrees.size == pytest.approx(count)

    def test_powerlaw_sample_decays_monotonically(self):
        rng = np.random.default_rng(1)
        sample = sample_discrete_powerlaw(2.5, 1, 10**5, rng)
        hist = log_binned_histogram(sample)  # default ratio 1.5
        occupied = hist.densities[hist.densities > 0.0]
        assert occupied.size >= 8
        assert np.all(np.diff(occupied) < 0.0)

    def test_zero_degrees_reported_separately(self):
        degrees = np.array([0, 0, 1, 2, 4], dtype=np.int64)
        hist = log_binned_histogram(degrees, 2.0)
        assert hist.zero_count == 2
        widths = np.diff(hist.bin_edges)
        assert float(hist.densities @ widths) == pytest.approx(1.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            log_binned_histogram(np.array([], dtype=np.int64), 1.5)
        with pytest.raises(ValueError):
            log_binned_histogram(np.array([1, 2, 3]), 1.0)  # ratio must exceed 1

    def test_normalization_property(self):
        check_histogram_normalization()


class TestPowerlawMle:
    def test_recovers_beta_2p5(self):
        rng = np.random.default_rng(1)
        sample = sample_discrete_powerlaw(2.5, 3, 10**4, rng)
        assert 2.4 <= powerlaw_mle(sample, 3) <= 2.6

    def test_recovers_beta_3(self):
        # k_min = 5 keeps the continuous-approximation bias small
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            sample = sample_discrete_powerlaw(3.0, 5, 10**4, rng)
            assert 2.85 <= powerlaw_mle(sample, 5) <= 3.15

    def test_constant_tail_rejected(self):
        with pytest.raises(ValueError):
            powerlaw_mle(np.full(100, 7, dtype=np.int64), 7)

    def test_insufficient_tail_rejected(self):
        degrees = np.array([1, 1, 1, 1, 50], dtype=np.int64)
        with pytest.raises(ValueError):
            powerlaw_mle(degrees, 50)

    def test_duplication_consistency(self):
        check_mle_duplication_consistency()

    def test_k_min_below_one_rejected(self):
        sample = sample_discrete_powerlaw(2.5, 3, 500, np.random.default_rng(2))
        with pytest.raises(ValueError, match="k_min must be >= 1, got 0"):
            powerlaw_mle(sample, 0)


class TestKsDistance:
    def test_large_model_sample_fits_tightly(self):
        fit = PowerLawFit(beta=2.5, k_min=5, ks=0.0, n_tail=10)
        sample = sample_discrete_powerlaw(2.5, 5, 10**5, np.random.default_rng(11))
        assert ks_distance(sample, fit) < 0.01

    def test_single_point_closed_form(self):
        fit = PowerLawFit(beta=2.5, k_min=5, ks=0.0, n_tail=1)
        sample = np.array([5], dtype=np.int64)
        # empirical CDF jumps to 1 at k_min; model CDF there is
        # 1 - ((k_min + 0.5)/(k_min - 0.5))^(1 - beta)
        expected = (5.5 / 4.5) ** (1.0 - 2.5)
        assert ks_distance(sample, fit) == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            beta = float(rng.uniform(1.5, 4.0))
            sample = sample_discrete_powerlaw(beta, 2, 500, rng)
            fit = PowerLawFit(beta=float(rng.uniform(1.5, 4.0)), k_min=2, ks=0.0, n_tail=1)
            d = ks_distance(sample, fit)
            assert 0.0 <= d <= 1.0

    def test_shrinks_with_sample_size(self):
        check_ks_sample_size_decreasing()

    def test_k_min_above_every_sample_rejected(self):
        fit = PowerLawFit(beta=2.5, k_min=10, ks=0.1, n_tail=50)
        with pytest.raises(ValueError, match="no samples >= k_min = 10"):
            ks_distance([1, 2, 3, 9], fit)


class TestKminScan:
    def test_pure_sample_recovers_cutoff(self):
        # one distinct-value step of slack around the generation cutoff
        for seed in (1, 2, 3):
            sample = sample_discrete_powerlaw(2.5, 5, 10**4, np.random.default_rng(seed))
            fit = kmin_scan(sample)
            assert 4 <= fit.k_min <= 6, (seed, fit.k_min)

    def test_grafted_tail_located(self):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            body = rng.integers(1, 10, 4000)
            tail = sample_discrete_powerlaw(2.5, 10, 6000, rng)
            fit = kmin_scan(np.concatenate([body, tail]))
            assert 8 <= fit.k_min <= 12, (seed, fit.k_min)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            kmin_scan(np.full(200, 3, dtype=np.int64))

    def test_reported_ks_matches_recomputation(self):
        sample = sample_discrete_powerlaw(2.2, 4, 3000, np.random.default_rng(13))
        fit = kmin_scan(sample)
        assert fit.ks == pytest.approx(ks_distance(sample, fit), abs=1e-12)
        assert fit.n_tail == int(np.count_nonzero(sample >= fit.k_min))


def _best_of_nine(minimize):
    """The former 3x3 grid of Nelder-Mead starts around the moment start, best fit of nine."""

    def best(fun, x0, **kwargs):
        mu0, sigma0 = x0
        starts = [(m, s) for m in (mu0, 0.0, max(mu0 - 1.0, 0.0)) for s in (sigma0, 1.0, 2.0 * sigma0)]
        return min((minimize(fun, x0=np.array(start), **kwargs) for start in starts), key=lambda res: res.fun)

    return best


def _ensemble_2T_degrees() -> np.ndarray:
    """Pooled 2T degrees of the ensemble_n8 config (n = 8, three realizations) at seed 0, epsilon = 0.1."""
    spec = EnsembleSpec(
        params=SpinChainParams(n=8), epsilons=(0.1,), realizations=3, seed=0, tasks=frozenset({"graph"})
    )
    return np.concatenate([realization_outputs(spec, r)["graph"]["0p1"][1].degrees for r in range(3)])


class TestLognormalLrTest:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: sample_discrete_powerlaw(2.5, 5, 10**4, np.random.default_rng(1)),
            lambda: sample_discrete_lognormal(1.0, 0.5, 10**4, np.random.default_rng(1)),
            lambda: sample_discrete_lognormal(1.0, 0.5, 200, np.random.default_rng(9)),
            _ensemble_2T_degrees,
        ],
        ids=["powerlaw-1e4", "lognormal-1e4", "lognormal-200", "ensemble-2T-eps0.1"],
    )
    def test_single_start_matches_best_of_nine(self, make, monkeypatch):
        sample = make()
        fit = kmin_scan(sample)
        result = lognormal_lr_test(sample, fit)
        monkeypatch.setattr(scipy.optimize, "minimize", _best_of_nine(scipy.optimize.minimize))
        reference = lognormal_lr_test(sample, fit)
        assert result.favored == reference.favored
        assert abs(result.R - reference.R) <= 1e-5

    def test_one_minimization_per_test(self, monkeypatch):
        minimize = scipy.optimize.minimize
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", counted)
        sample = sample_discrete_powerlaw(2.5, 5, 2000, np.random.default_rng(3))
        lognormal_lr_test(sample, kmin_scan(sample))
        assert len(calls) == 1

    def test_powerlaw_sample_favors_powerlaw(self):
        sample = sample_discrete_powerlaw(2.5, 5, 10**4, np.random.default_rng(1))
        fit = kmin_scan(sample)
        result = lognormal_lr_test(sample, fit)
        assert result.favored == "powerlaw"
        assert result.R > 0.0
        assert result.normalized_R > 1.96

    def test_lognormal_sample_favors_lognormal(self):
        sample = sample_discrete_lognormal(1.0, 0.5, 10**4, np.random.default_rng(1))
        fit = kmin_scan(sample)
        result = lognormal_lr_test(sample, fit)
        assert result.favored == "lognormal"
        assert result.R < 0.0
        assert result.normalized_R < -1.96

    def test_weak_evidence_is_inconclusive(self):
        sample = sample_discrete_lognormal(1.0, 0.5, 200, np.random.default_rng(9))
        result = lognormal_lr_test(sample, kmin_scan(sample))
        assert result.favored == "inconclusive"
        assert abs(result.normalized_R) <= 1.96

    def test_degenerate_tail_is_inconclusive(self):
        degrees = np.full(60, 7, dtype=np.int64)
        fit = PowerLawFit(beta=2.5, k_min=7, ks=0.0, n_tail=60)
        result = lognormal_lr_test(degrees, fit)
        assert result.favored == "inconclusive"
        assert result.normalized_R == 0.0

    def test_short_tail_rejected(self):
        fit = PowerLawFit(beta=2.5, k_min=1, ks=0.0, n_tail=5)
        with pytest.raises(ValueError, match="insufficient tail: 5 samples >= 1, need 10"):
            lognormal_lr_test(np.arange(1, 6), fit)

    def test_underflowing_tail_mass_gives_floor_loglikelihood(self):
        # a truncation point far above the lognormal's bulk leaves a tail
        # mass that underflows to 0; log(0) is replaced by a finite floor
        logpdf = _lognormal_logpdf(np.array([2000.0, 3000.0]), 1999.5, 0.0, 0.01)
        assert np.array_equal(logpdf, np.full(2, -1e12))

    def test_shuffle_invariance(self):
        check_lr_shuffle_invariance()


class TestPoissonFit:
    def test_constant_degrees(self):
        assert poisson_fit(np.full(25, 4, dtype=np.int64)) == 4.0

    def test_poisson_sample(self):
        sample = np.random.default_rng(4).poisson(3.0, 10**4)
        assert 2.9 <= poisson_fit(sample) <= 3.1

    def test_balanced_zero_two(self):
        assert poisson_fit(np.array([0, 2, 0, 2], dtype=np.int64)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            poisson_fit(np.array([], dtype=np.int64))


class TestAvgDegreeByDomainWalls:
    def _dimer_graph(self, n: int):
        dim = 2**n
        H = np.zeros((dim, dim), dtype=complex)
        for i in range(dim // 2):
            H[i, dim - 1 - i] = 1.0
            H[dim - 1 - i, i] = 1.0
        return percolation_graph(EffectiveHamiltonian(matrix=H, period=2.0))

    def _complete_graph(self, n: int):
        dim = 2**n
        H = np.ones((dim, dim), dtype=complex)
        np.fill_diagonal(H, 0.0)
        return percolation_graph(EffectiveHamiltonian(matrix=H, period=2.0))

    def test_dimer_ensemble_all_ones(self):
        table = avg_degree_by_domain_walls([self._dimer_graph(4) for _ in range(3)])
        assert sorted(table) == [0, 1, 2, 3]
        for mean, std in table.values():
            assert mean == pytest.approx(1.0)
            assert std == pytest.approx(0.0)

    def test_complete_graph_means(self):
        table = avg_degree_by_domain_walls([self._complete_graph(3)])
        for mean, _ in table.values():
            assert mean == pytest.approx(7.0)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError, match="differ in node count"):
            avg_degree_by_domain_walls([self._dimer_graph(3), self._dimer_graph(4)])

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="empty ensemble"):
            avg_degree_by_domain_walls([])

    def test_matches_graph_wise_pooling_exactly(self):
        # the pools keep the graph-by-graph, node-by-node order, so the
        # float sums, and hence means and stds, are bit for bit the same
        rng = np.random.default_rng(3)
        graphs = []
        for _ in range(4):
            A = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
            H = (A + A.conj().T) / 2 + np.diag(rng.normal(scale=8.0, size=32))
            graphs.append(percolation_graph(EffectiveHamiltonian(matrix=H, period=2.0)))
        walls = graphs[0].domain_walls
        expected = {
            int(w): np.concatenate([g.degrees[walls == w] for g in graphs]) for w in np.unique(walls)
        }
        table = avg_degree_by_domain_walls(graphs)
        assert list(table) == sorted(expected)
        for w, pool in expected.items():
            assert table[w] == (float(pool.mean()), float(pool.std()))

    def test_pooling_over_realizations(self):
        # one dimer graph plus one complete graph: per-class mean is the
        # pooled node average, not the average of per-graph means
        table = avg_degree_by_domain_walls([self._dimer_graph(3), self._complete_graph(3)])
        for mean, std in table.values():
            assert mean == pytest.approx(4.0)
            assert std == pytest.approx(3.0)
