"""Acceptance gate: one test per stated criterion.

Each test evaluates its criterion at the stated tolerance and registers
a single PASS/FAIL line through record_criterion, so the terminal
summary lists every verdict. Expensive statistics (criteria 5 to 7)
share the session-scoped n=8 disorder sweep from conftest.
"""

import time

import numpy as np
from scipy.linalg import expm
from scipy.stats import skew

from conftest import record_criterion
from dtcnet import (
    ClassicalConfiguration,
    Configuration,
    EnsembleSpec,
    SpinChainParams,
    bch_effective_2T,
    domain_wall_operator,
    drive_unitary,
    effective_hamiltonian,
    floquet_spectrum,
    interaction_energies,
    jacobian,
    kmin_scan,
    lognormal_lr_test,
    magnetization_series,
    parity_operator,
    percolation_graph,
    power_spectrum,
    pr_distribution,
    reference_mean,
    sample_disorder,
    squared_floquet,
)
from dtcnet.ensemble import realization_outputs
from invariants import SUITE, _fd_hessian


def _heff(params: SpinChainParams, disorder) -> np.ndarray:
    return effective_hamiltonian(
        floquet_spectrum(drive_unitary(params, disorder))
    ).matrix


def test_c01_zero_error_dimer_structure():
    t0 = time.perf_counter()
    params = SpinChainParams(n=8, epsilon=0.0)
    expected = frozenset((i, 255 - i) for i in range(128))
    violations = 0
    for r in range(10):
        graph = percolation_graph(
            effective_hamiltonian(
                floquet_spectrum(drive_unitary(params, sample_disorder(params, 101, r)))
            )
        )
        if len(graph.edges) != 128 or graph.edges != expected:
            violations += 1
    elapsed = time.perf_counter() - t0
    record_criterion(
        1,
        "zero-error dimer structure",
        violations == 0 and elapsed < 10.0,
        f"10 realizations, 128 mirror edges {{i, 255-i}} each, "
        f"violations {violations}, {elapsed:.1f}s (< 10s)",
    )


def test_c02_disorder_cancellation():
    worst = 0.0
    for n in (4, 6, 8):
        params = SpinChainParams(n=n, epsilon=0.0)
        target = np.diag(np.exp(-2j * params.T2 * interaction_energies(params)))
        for r in range(10):
            U2 = squared_floquet(drive_unitary(params, sample_disorder(params, 202, r)))
            worst = max(worst, float(np.abs(U2.matrix - target).max()))
    record_criterion(
        2,
        "disorder cancellation in U^2",
        worst < 1e-10,
        f"n in (4, 6, 8), 10 realizations each: max |U^2 - exp(-2i T2 H_int)| "
        f"= {worst:.3e} (< 1e-10)",
    )


def test_c03_effective_hamiltonian_reconstruction():
    rng = np.random.default_rng(303)
    worst_rec, worst_herm = 0.0, 0.0
    for _ in range(20):
        eps = float(rng.uniform(0.0, 0.1))
        seed = int(rng.integers(0, 2**31 - 1))
        params = SpinChainParams(n=8, epsilon=eps)
        U = drive_unitary(params, sample_disorder(params, seed, 0))
        H = effective_hamiltonian(floquet_spectrum(U)).matrix
        worst_herm = max(worst_herm, float(np.abs(H - H.conj().T).max()))
        worst_rec = max(
            worst_rec, float(np.abs(expm(-1j * H * params.period) - U.matrix).max())
        )
    record_criterion(
        3,
        "effective-Hamiltonian reconstruction",
        worst_rec < 1e-8 and worst_herm < 1e-10,
        f"20 random (eps, seed) pairs at n=8: max |exp(-i H T) - U| = "
        f"{worst_rec:.3e} (< 1e-8), max hermiticity defect = {worst_herm:.3e} "
        f"(< 1e-10)",
    )


def test_c04_conserved_quantities():
    worst = 0.0
    for n in (4, 6, 8):
        params = SpinChainParams(n=n, epsilon=0.0)
        wall = domain_wall_operator(n).matrix
        par = parity_operator(n).matrix
        for r in range(3):
            U2 = squared_floquet(drive_unitary(params, sample_disorder(params, 404, r)))
            H = effective_hamiltonian(floquet_spectrum(U2)).matrix
            worst = max(
                worst,
                float(np.abs(H @ wall - wall @ H).max()),
                float(np.abs(H @ par - par @ H).max()),
            )
    record_criterion(
        4,
        "conserved quantities at zero error",
        worst < 1e-10,
        f"n in (4, 6, 8), 3 realizations each: max |[H_eff, N]|, |[H_eff, Pi]| "
        f"= {worst:.3e} (< 1e-10)",
    )


def test_c05_level_statistics_crossover(sweep_n8):
    data = sweep_n8["data"]
    mean_p = float(np.concatenate(data[0.01]["ratios"][:50]).mean())
    mean_c = float(np.concatenate(data[0.1]["ratios"][:50]).mean())
    mu_poisson = reference_mean("poisson")
    mu_coe = reference_mean("coe")
    ok_p = abs(mean_p - mu_poisson) <= 0.03
    ok_c = abs(mean_c - mu_coe) <= 0.03
    elapsed = sweep_n8["elapsed"]
    record_criterion(
        5,
        "level-statistics crossover",
        ok_p and ok_c and elapsed < 900.0,
        f"50 realizations at n=8: mean r(eps=0.01) = {mean_p:.4f} vs Poisson "
        f"{mu_poisson:.4f} +/- 0.03 [{'ok' if ok_p else 'out'}]; "
        f"mean r(eps=0.1) = {mean_c:.4f} vs COE {mu_coe:.4f} +/- 0.03 "
        f"[{'ok' if ok_c else 'out'}]; sweep {elapsed:.0f}s (< 900s)",
    )


def test_c06_degree_distribution_regimes(sweep_n8):
    data = sweep_n8["data"]
    pooled_low = np.concatenate(data[0.012]["degrees"])
    verdict_low = lognormal_lr_test(pooled_low, kmin_scan(pooled_low))
    ok_powerlaw = verdict_low.favored == "powerlaw"

    pooled_high = np.concatenate(data[0.1]["degrees"])
    verdict_high = lognormal_lr_test(pooled_high, kmin_scan(pooled_high))
    fraction = float(np.mean(data[0.1]["largest"]))
    ok_giant = fraction >= 0.90 and verdict_high.favored != "powerlaw"

    elapsed = sweep_n8["elapsed"]
    record_criterion(
        6,
        "degree-distribution regimes",
        ok_powerlaw and ok_giant and elapsed < 1800.0,
        f"100 realizations at n=8: eps=0.012 favored={verdict_low.favored} "
        f"(nR={verdict_low.normalized_R:.2f}, need powerlaw) "
        f"[{'ok' if ok_powerlaw else 'out'}]; eps=0.1 largest-cluster fraction "
        f"{fraction:.4f} (>= 0.90) with favored={verdict_high.favored} "
        f"[{'ok' if ok_giant else 'out'}]; sweep {elapsed:.0f}s (< 1800s)",
    )


def test_c07_preferential_attachment_signature(sweep_n8):
    data = sweep_n8["data"]
    pairs = {}
    failures = []
    for eps in (0.005, 0.01, 0.02):
        walls = np.tile(data[eps]["walls"], len(data[eps]["degrees"]))
        degrees = np.concatenate(data[eps]["degrees"])
        hi = float(degrees[np.isin(walls, (5, 6))].mean())
        lo = float(degrees[np.isin(walls, (0, 1))].mean())
        pairs[eps] = (hi, lo)
        if not hi > lo:
            failures.append(eps)
    detail = "; ".join(
        f"eps={eps}: 5&6-wall mean {hi:.2f} vs 0&1-wall {lo:.2f}"
        for eps, (hi, lo) in pairs.items()
    )
    record_criterion(
        7,
        "preferential-attachment signature",
        not failures,
        f"100 realizations at n=8: {detail}"
        + (f"; ordering fails at {failures}" if failures else ""),
    )


def test_c08_first_order_2T_scaling():
    norms = {}
    for eps in (0.005, 0.01, 0.02):
        params = SpinChainParams(n=6, epsilon=eps)
        vals = []
        for r in range(5):
            disorder = sample_disorder(params, 808, r)
            U = drive_unitary(params, disorder)
            exact = effective_hamiltonian(floquet_spectrum(squared_floquet(U))).matrix
            vals.append(float(np.abs(bch_effective_2T(params, disorder).matrix - exact).max()))
        norms[eps] = float(np.mean(vals))
    ratios = [norms[eps] / eps**2 for eps in norms]
    spread = max(ratios) / min(ratios)
    record_criterion(
        8,
        "first-order 2T formula quadratic scaling",
        spread <= 2.0,
        f"n=6, 5 realizations: mean |H_bch - H_exact,2T| = "
        + ", ".join(f"{norms[eps]:.3e} (eps={eps})" for eps in norms)
        + f"; norm/eps^2 max/min = {spread:.3f} (<= 2)",
    )


def test_c09_subharmonic_response():
    params = SpinChainParams(n=8, epsilon=0.0)
    U = drive_unitary(params, sample_disorder(params, 909, 0))
    initial = Configuration(index=255, n=8)  # fully polarized, M(0) = 1
    series = magnetization_series(U, initial, 64)
    spectrum = power_spectrum(series, period=params.period)
    weight = float(spectrum.V[32] / spectrum.V.sum())
    record_criterion(
        9,
        "subharmonic response at zero error",
        weight >= 0.999,
        f"n=8, N=64 periods: spectral weight at k = N/2 is {weight:.6f} (>= 0.999)",
    )


def test_c10_stability_ranking():
    spec = EnsembleSpec(
        params=SpinChainParams(n=8),
        epsilons=(0.03,),
        realizations=10,
        seed=1010,
        tasks=frozenset({"spectrum"}),
        periods=64,
    )
    stack = np.vstack(
        [realization_outputs(spec, r)["spectrum"]["0p03"] for r in range(10)]
    )
    finite = np.isfinite(stack)
    mean_fid = np.where(finite, stack, 0.0).sum(axis=0) / np.maximum(
        finite.sum(axis=0), 1
    )
    median = float(np.nanmedian(mean_fid))
    ok = mean_fid[0] >= median and mean_fid[255] >= median
    record_criterion(
        10,
        "stability ranking of polarized configs",
        ok,
        f"n=8, eps=0.03, 10 realizations: fidelity(config 0) = {mean_fid[0]:.4f}, "
        f"fidelity(config 255) = {mean_fid[255]:.4f}, median over 256 configs "
        f"= {median:.4f}",
    )


def test_c11_semiclassical_analytic_match():
    params = SpinChainParams(n=4)
    J = params.couplings()
    J12, J13, J14 = J[0, 1], J[0, 2], J[0, 3]
    J23, J24, J34 = J[1, 2], J[1, 3], J[2, 3]
    # element lists for the three corner configurations; off-diagonal
    # entries vanish there because sin(theta) = 0 at theta in {0, pi}
    corners = {
        (0.0, 0.0, 0.0, 0.0): [
            -(J12 + J13 + J14), -(J12 + J23 + J24),
            -(J13 + J23 + J34), -(J14 + J24 + J34),
        ],
        (0.0, 0.0, np.pi, np.pi): [
            -J12 + J13 + J14, -J12 + J23 + J24,
            J13 + J23 - J34, J14 + J24 - J34,
        ],
        (0.0, np.pi, 0.0, np.pi): [
            J12 - J13 + J14, J12 + J23 - J24,
            -J13 + J23 + J34, J14 - J24 + J34,
        ],
    }
    worst_formula, worst_fd = 0.0, 0.0
    for thetas, diag in corners.items():
        got = jacobian(ClassicalConfiguration(thetas=thetas), params)
        worst_formula = max(worst_formula, float(np.abs(got - np.diag(diag)).max()))
        worst_fd = max(
            worst_fd, float(np.abs(got - _fd_hessian(np.array(thetas), params)).max())
        )
    # quoted rounded element at the all-up corner, good to ~4e-5
    j11 = jacobian(ClassicalConfiguration(thetas=(0.0, 0.0, 0.0, 0.0)), params)[0, 0]
    ok = worst_formula < 1e-12 and worst_fd < 1e-6 and abs(j11 + 0.09245) < 1e-4
    record_criterion(
        11,
        "semiclassical analytic match",
        ok,
        f"element formulas at 3 corners: max deviation {worst_formula:.3e} "
        f"(< 1e-12); finite-difference Hessians: max deviation {worst_fd:.3e} "
        f"(< 1e-6); J_11(all-up) = {j11:.6f} vs -0.09245",
    )


def test_c12_pr_distribution_contrast():
    results = {}
    for eps in (0.012, 0.1):
        params = SpinChainParams(n=8, epsilon=eps)
        prs = pr_distribution(params, sample_disorder(params, 1212, 0))
        sample = np.rint(prs).astype(int)
        verdict = lognormal_lr_test(sample, kmin_scan(sample))
        results[eps] = (verdict.favored, float(skew(prs)))
    ok_low = results[0.012][0] == "powerlaw"
    ok_high = results[0.1][0] != "powerlaw"
    ok_skew = results[0.012][1] > results[0.1][1]
    record_criterion(
        12,
        "PR-distribution shape contrast",
        ok_low and ok_high and ok_skew,
        f"n=8, one realization: eps=0.012 favored={results[0.012][0]} "
        f"(need powerlaw) [{'ok' if ok_low else 'out'}]; eps=0.1 favored="
        f"{results[0.1][0]} [{'ok' if ok_high else 'out'}]; skew "
        f"{results[0.012][1]:.3f} > {results[0.1][1]:.3f} "
        f"[{'ok' if ok_skew else 'out'}]",
    )


def test_c13_property_suites():
    failures = []
    for module, name, check in SUITE:
        try:
            check()
        except Exception:  # noqa: BLE001 - aggregate verdict, details in test_invariants
            failures.append(f"{module}: {name}")
    record_criterion(
        13,
        "module property suites",
        not failures,
        f"{len(SUITE) - len(failures)}/{len(SUITE)} properties pass"
        + (f"; failing: {'; '.join(failures)}" if failures else ""),
    )
