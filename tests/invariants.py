"""Shared property checks mirroring each module's invariant list.

Every check_* function raises AssertionError on violation and returns
None on success; SUITE enumerates them all so the aggregate acceptance
test can run the complete set. Unit tests import individual checks
where that avoids duplicating nontrivial measurement code.

Synthetic-sample generators live here too so the statistical tests in
test_netfit.py and the acceptance gate draw from one frozen convention.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import scipy.linalg

import dtcnet
from dtcnet import (
    ClassicalConfiguration,
    Configuration,
    EnsembleSpec,
    SpinChainParams,
    bch_effective_2T,
    build_drive,
    classical_energy,
    domain_wall_operator,
    domain_walls,
    effective_hamiltonian,
    floquet_spectrum,
    gap_ratios,
    jacobian,
    kmin_scan,
    ks_distance,
    log_binned_histogram,
    lognormal_lr_test,
    magnetization_series,
    parity_operator,
    parity_partner,
    pauli_string,
    percolation_graph,
    power_spectrum,
    powerlaw_mle,
    reference_normalization,
    run_ensemble,
    sample_disorder,
    spectral_fidelity,
    spin_z_table,
    squared_floquet,
    stroboscopic_evolve,
    two_level_analysis,
)
from dtcnet.floquet_core import EffectiveHamiltonian, drive_unitary
from dtcnet.percolation_graph import PercolationGraph


def sample_discrete_powerlaw(beta, kmin, size, rng, kmax=10**6):
    """Integer power-law sample via the rounded inverse CDF.

    x = (kmin - 0.5) (1 - u)^(-1/(beta-1)) rounded to the nearest
    integer, capped at kmax; kmin - 0.5 is the continuous lower edge
    matching the discrete MLE convention.
    """
    u = rng.random(size)
    x = (kmin - 0.5) * (1.0 - u) ** (-1.0 / (beta - 1.0))
    return np.minimum(np.rint(x).astype(np.int64), kmax)


def sample_discrete_lognormal(mu, sigma, size, rng):
    """Integer lognormal sample: rounded, floored at 1."""
    return np.maximum(np.rint(rng.lognormal(mu, sigma, size)).astype(np.int64), 1)


def _commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a @ b - b @ a).max())


# ---------------------------------------------------------------------
# spin-hilbert


def check_pulse_hop_structure():
    """H1 couples only single-bit flips, every element g(1 - eps)."""
    params = SpinChainParams(n=3, epsilon=0.3)
    disorder = sample_disorder(params, 5, 0)
    H1, _ = build_drive(params, disorder)
    c = params.g * (1.0 - params.epsilon)
    for i in range(params.dim):
        for j in range(params.dim):
            expected = c if bin(i ^ j).count("1") == 1 else 0.0
            assert abs(H1.matrix[i, j] - expected) < 1e-12, (i, j)


def check_ising_diagonal_commutes():
    """H2 is diagonal and commutes with every single-site sigma z."""
    params = SpinChainParams(n=3, epsilon=0.1)
    disorder = sample_disorder(params, 6, 0)
    _, H2 = build_drive(params, disorder)
    off = H2.matrix - np.diag(H2.matrix.diagonal())
    assert np.abs(off).max() == 0.0
    for l in range(1, params.n + 1):
        sz = pauli_string([(l, "z")], params.n).matrix
        assert _commutator_norm(H2.matrix, sz) < 1e-12


def check_wall_operator_and_parity():
    """Wall operator eigenvalues are 2x the wall count; parity flips all."""
    n = 4
    wall_op = domain_wall_operator(n).matrix
    off = wall_op - np.diag(wall_op.diagonal())
    assert np.abs(off).max() == 0.0
    parity = parity_operator(n).matrix
    for i in range(2**n):
        cfg = Configuration(index=i, n=n)
        assert wall_op[i, i].real == 2 * domain_walls(cfg)
        column = parity[:, i]
        partner = parity_partner(cfg).index
        assert column[partner] == 1.0
        assert np.count_nonzero(column) == 1


def check_built_operators_hermitian():
    """Everything built by the primitives is Hermitian to 1e-12."""
    params = SpinChainParams(n=3, epsilon=0.2)
    disorder = sample_disorder(params, 7, 0)
    H1, H2 = build_drive(params, disorder)
    ops = [
        H1.matrix,
        H2.matrix,
        domain_wall_operator(3).matrix,
        parity_operator(3).matrix,
        pauli_string([(1, "x"), (3, "y")], 3).matrix,
        pauli_string([(2, "z")], 3).matrix,
    ]
    for op in ops:
        assert np.abs(op - op.conj().T).max() < 1e-12


# ---------------------------------------------------------------------
# floquet-core


def check_propagator_unitarity():
    """|U_dag U - I| below 1e-10 for drive and squared propagators."""
    rng = np.random.default_rng(42)
    for n in (4, 5):
        params = SpinChainParams(n=n, epsilon=float(rng.uniform(0.0, 0.1)))
        U = drive_unitary(params, sample_disorder(params, 11, 0))
        eye = np.eye(U.dim)
        assert np.abs(U.matrix.conj().T @ U.matrix - eye).max() < 1e-10
        U2 = squared_floquet(U)
        assert np.abs(U2.matrix.conj().T @ U2.matrix - eye).max() < 1e-10


def check_spectral_reconstruction():
    """exp(-i H_eff period) rebuilds U to 1e-8 for n in {4, 6, 8}."""
    rng = np.random.default_rng(43)
    for n in (4, 6, 8):
        params = SpinChainParams(n=n, epsilon=float(rng.uniform(0.0, 0.1)))
        U = drive_unitary(params, sample_disorder(params, int(rng.integers(1, 10**6)), 0))
        H = effective_hamiltonian(floquet_spectrum(U))
        assert np.abs(H.matrix - H.matrix.conj().T).max() < 1e-10
        rebuilt = scipy.linalg.expm(-1j * H.matrix * H.period)
        assert np.abs(rebuilt - U.matrix).max() < 1e-8, n


def check_conserved_at_zero_error():
    """H_eff(2T) at eps=0 commutes with wall and parity operators."""
    for n in (4, 6, 8):
        params = SpinChainParams(n=n, epsilon=0.0)
        U2 = squared_floquet(drive_unitary(params, sample_disorder(params, 13, 0)))
        H = effective_hamiltonian(floquet_spectrum(U2)).matrix
        assert _commutator_norm(H, domain_wall_operator(n).matrix) < 1e-10
        assert _commutator_norm(H, parity_operator(n).matrix) < 1e-10


def check_zero_error_pairing():
    """At eps=0, each mirror pair's quasienergies differ by pi/T mod 2pi/T."""
    for n in (4, 6):
        params = SpinChainParams(n=n, epsilon=0.0)
        spectrum = floquet_spectrum(drive_unitary(params, sample_disorder(params, 17, 0)))
        period = spectrum.period
        states = spectrum.states
        blocks: dict[int, list[float]] = {}
        for s in range(2**n):
            home = int(np.argmax(np.abs(states[:, s])))
            key = min(home, 2**n - 1 - home)
            blocks.setdefault(key, []).append(float(spectrum.quasienergies[s]))
        for key, lams in blocks.items():
            assert len(lams) == 2, (key, lams)
            diff = abs(lams[0] - lams[1]) % (2.0 * np.pi / period)
            assert abs(diff - np.pi / period) < 1e-8, (key, diff)


def check_bch_quadratic_scaling():
    """Ratio test: halving eps from 0.02 to 0.01 should shrink the
    BCH-vs-exact norm by about 4x (within a factor of 2, i.e. into
    [2, 8]). The truncation error is actually linear in eps, so the
    measured reduction sits at ~2.0 and this check fails; kept as
    stated rather than weakened.
    """
    norms = {}
    for eps in (0.01, 0.02):
        params = SpinChainParams(n=6, epsilon=eps)
        vals = []
        for r in range(5):
            disorder = sample_disorder(params, 808, r)
            exact = effective_hamiltonian(
                floquet_spectrum(squared_floquet(drive_unitary(params, disorder)))
            ).matrix
            vals.append(np.abs(bch_effective_2T(params, disorder).matrix - exact).max())
        norms[eps] = float(np.mean(vals))
    reduction = norms[0.02] / norms[0.01]
    assert 2.0 <= reduction <= 8.0, (
        f"reduction {reduction:.4f} outside [2, 8]; norms {norms} "
        "(error is linear in eps, not quadratic)"
    )


# ---------------------------------------------------------------------
# percolation-graph


def check_edge_rule_consistency():
    """Graph edges coincide with the two-level activity flag."""
    rng = np.random.default_rng(44)
    dim = 8
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = 0.05 * (raw + raw.conj().T)
    eff = EffectiveHamiltonian(matrix=H, period=2.0)
    graph = percolation_graph(eff)
    for i in range(dim):
        for j in range(i + 1, dim):
            active = two_level_analysis(H[i, i].real, H[j, j].real, H[i, j]).active
            assert ((i, j) in graph.edges) == active, (i, j)


def check_zero_error_dimers():
    """eps=0 graphs are perfect matchings of mirror partners."""
    for n in (4, 6, 8):
        params = SpinChainParams(n=n, epsilon=0.0)
        for r in range(10):
            disorder = sample_disorder(params, 19, r)
            graph = percolation_graph(
                effective_hamiltonian(floquet_spectrum(drive_unitary(params, disorder)))
            )
            assert len(graph.edges) == 2 ** (n - 1)
            assert np.all(graph.degrees == 1)
            for i, j in graph.edges:
                assert j == 2**n - 1 - i, (n, r, i, j)


def check_shift_invariance():
    """Adding c I to the effective Hamiltonian keeps the edge set."""
    rng = np.random.default_rng(45)
    dim = 16
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = 0.05 * (raw + raw.conj().T)
    base = percolation_graph(EffectiveHamiltonian(matrix=H, period=2.0))
    shifted = percolation_graph(
        EffectiveHamiltonian(matrix=H + 0.37 * np.eye(dim), period=2.0)
    )
    assert base.edges == shifted.edges


# ---------------------------------------------------------------------
# netfit


def check_mle_duplication_consistency():
    """Duplicating every sample leaves the exponent estimate unchanged."""
    rng = np.random.default_rng(46)
    sample = sample_discrete_powerlaw(2.5, 3, 2000, rng)
    once = powerlaw_mle(sample, 3)
    twice = powerlaw_mle(np.concatenate([sample, sample]), 3)
    assert abs(once - twice) < 1e-12


def check_ks_sample_size_decreasing():
    """KS distance to the generating model shrinks from 1e3 to 1e5 draws."""
    from dtcnet import PowerLawFit

    fit = PowerLawFit(beta=2.5, k_min=5, ks=0.0, n_tail=10)
    small = sample_discrete_powerlaw(2.5, 5, 10**3, np.random.default_rng(11))
    large = sample_discrete_powerlaw(2.5, 5, 10**5, np.random.default_rng(11))
    assert ks_distance(large, fit) < ks_distance(small, fit)


def check_lr_shuffle_invariance():
    """The likelihood-ratio verdict ignores sample order."""
    rng = np.random.default_rng(47)
    sample = sample_discrete_powerlaw(2.5, 5, 5000, rng)
    fit = kmin_scan(sample)
    first = lognormal_lr_test(sample, fit)
    shuffled = sample.copy()
    rng.shuffle(shuffled)
    second = lognormal_lr_test(shuffled, kmin_scan(shuffled))
    assert first.favored == second.favored
    assert abs(first.R - second.R) < 1e-9


def check_histogram_normalization():
    """Sum over bins of density x width is 1 for positive-degree data."""
    rng = np.random.default_rng(48)
    for sample in (
        np.ones(50, dtype=np.int64),
        rng.integers(1, 101, 4000),
        sample_discrete_powerlaw(2.5, 1, 3000, rng),
    ):
        hist = log_binned_histogram(sample, 1.5)
        widths = np.diff(hist.bin_edges)
        assert abs(float(hist.densities @ widths) - 1.0) < 1e-9


# ---------------------------------------------------------------------
# diagnostics


def check_reference_normalizations():
    """Reference densities integrate to 1 (looser gate for the COE form)."""
    assert abs(reference_normalization("poisson") - 1.0) < 1e-9
    assert abs(reference_normalization("goe") - 1.0) < 1e-9
    assert abs(reference_normalization("coe") - 1.0) < 1e-2


def check_gap_ratio_invariance():
    """Gap ratios survive global shifts and positive rescalings."""
    rng = np.random.default_rng(49)
    levels = np.sort(rng.normal(size=40))
    base = gap_ratios(levels).ratios
    moved = gap_ratios(3.7 * levels + 11.0).ratios
    assert np.allclose(base, moved, atol=1e-9)


def check_parseval():
    """Total spectral weight equals the mean squared series value."""
    rng = np.random.default_rng(50)
    series = rng.normal(size=33)
    spec = power_spectrum(series, period=2.0)
    lhs = float(spec.V.sum())
    rhs = float(np.sum(series[1:] ** 2) / (series.size - 1))
    assert abs(lhs - rhs) < 1e-9


def check_fidelity_symmetry_scale():
    """Fidelity is symmetric and blind to common positive rescaling."""
    rng = np.random.default_rng(51)
    a = power_spectrum(rng.normal(size=17))
    b = power_spectrum(rng.normal(size=17))
    fab, fba = spectral_fidelity(a, b), spectral_fidelity(b, a)
    assert abs(fab - fba) < 1e-12
    from dtcnet import PowerSpectrum

    scaled = PowerSpectrum(V=4.0 * a.V, N=a.N, period=a.period)
    scaled_b = PowerSpectrum(V=4.0 * b.V, N=b.N, period=b.period)
    assert abs(spectral_fidelity(scaled, scaled_b) - fab) < 1e-12


def check_magnetization_dual_paths():
    """Expectation-value and population formulas agree along evolution.

    magnetization_series contracts each evolved state with the diagonal
    of sum_l sigma^z_l; the population path weights |psi_i|^2 by the
    per-site signs of configuration i. They agree to 1e-10 on generic
    evolved states.
    """
    rng = np.random.default_rng(52)
    for n in (3, 4, 5):
        params = SpinChainParams(n=n, epsilon=0.07)
        U = drive_unitary(params, sample_disorder(params, 23, 0))
        initial = Configuration(index=int(rng.integers(0, 2**n)), n=n)
        series = magnetization_series(U, initial, 8)
        populations = np.abs(stroboscopic_evolve(U, initial, 8)) ** 2
        via_populations = populations @ spin_z_table(n).sum(axis=1) / n
        assert np.abs(series - via_populations).max() < 1e-10
        assert np.all(np.abs(series) <= 1.0 + 1e-12)


# ---------------------------------------------------------------------
# semiclassical


def _reflect(thetas: np.ndarray) -> np.ndarray:
    """Fold angles into [0, pi] by reflection at both boundaries.

    The energy is even in each angle around 0 and pi (it enters through
    cos only), so finite differences at corner configurations evaluate
    the even extension through this fold.
    """
    t = np.abs(np.asarray(thetas, dtype=float))
    return np.where(t > np.pi, 2.0 * np.pi - t, t)


def _pair_energy(thetas: np.ndarray, params: SpinChainParams) -> float:
    """Energy with the jacobian's normalization: (T/T2) x classical_energy.

    The printed per-element second-derivative formulas carry no T2/T
    prefactor, so the finite-difference comparison must use the bare
    pair sum they derive from.
    """
    scale = params.period / params.T2
    return scale * classical_energy(ClassicalConfiguration(thetas=_reflect(thetas)), params)


def _fd_hessian(thetas: np.ndarray, params: SpinChainParams, h: float = 1e-5) -> np.ndarray:
    n = thetas.size
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            tpp = thetas.copy(); tpp[i] += h; tpp[j] += h
            tpm = thetas.copy(); tpm[i] += h; tpm[j] -= h
            tmp = thetas.copy(); tmp[i] -= h; tmp[j] += h
            tmm = thetas.copy(); tmm[i] -= h; tmm[j] -= h
            out[i, j] = (
                _pair_energy(tpp, params)
                - _pair_energy(tpm, params)
                - _pair_energy(tmp, params)
                + _pair_energy(tmm, params)
            ) / (4.0 * h * h)
    return out


def check_corner_gradients_vanish():
    """Central finite-difference gradient is ~0 at every corner config."""
    params = SpinChainParams(n=4)
    h = 1e-5
    for index in range(2**4):
        thetas = np.array([0.0 if (index >> (3 - l)) & 1 else np.pi for l in range(4)])
        for i in range(4):
            tp = thetas.copy(); tp[i] += h
            tm = thetas.copy(); tm[i] -= h
            grad = (
                classical_energy(ClassicalConfiguration(thetas=_reflect(tp)), params)
                - classical_energy(ClassicalConfiguration(thetas=_reflect(tm)), params)
            ) / (2.0 * h)
            assert abs(grad) < 1e-8, (index, i, grad)


def check_jacobian_matches_fd_hessian():
    """Printed second-derivative formulas equal the numerical Hessian."""
    params = SpinChainParams(n=4)
    rng = np.random.default_rng(53)
    corner = [
        np.zeros(4),
        np.array([0.0, 0.0, np.pi, np.pi]),
        np.array([0.0, np.pi, 0.0, np.pi]),
    ]
    interior = [rng.uniform(0.3, np.pi - 0.3, size=4) for _ in range(3)]
    for thetas in corner + interior:
        analytic = jacobian(ClassicalConfiguration(thetas=thetas), params)
        numeric = _fd_hessian(thetas, params)
        assert np.abs(analytic - numeric).max() < 1e-6, thetas


def check_energy_flip_symmetry():
    """theta_l -> pi - theta_l on every site leaves the energy fixed."""
    params = SpinChainParams(n=5)
    rng = np.random.default_rng(54)
    for _ in range(5):
        thetas = rng.uniform(0.0, np.pi, size=5)
        a = classical_energy(ClassicalConfiguration(thetas=thetas), params)
        b = classical_energy(ClassicalConfiguration(thetas=np.pi - thetas), params)
        assert abs(a - b) < 1e-12


# ---------------------------------------------------------------------
# ensemble-runner

_ARTIFACT_SCHEMAS = (
    ("degree-hist-", ["bin_lo", "bin_hi", "density"]),
    ("degree-fit-", ["epsilon", "n", "beta", "k_min", "ks", "n_tail", "favored"]),
    ("walls-", ["epsilon", "walls", "mean_degree", "std_degree", "realizations"]),
    ("gap-ratios-", ["r_lo", "r_hi", "density", "reference_poisson", "reference_coe"]),
    ("fidelity-", ["config", "epsilon", "fidelity"]),
    ("pr-", ["config", "pr"]),
    ("walk-", ["period", "config", "population"]),
    ("classical.csv", ["configuration", "energy", "min_eigenvalue", "max_eigenvalue", "classification"]),
)

_NON_NUMERIC_COLUMNS = {"favored", "classification", "configuration"}


def _small_spec(seed: int = 5) -> EnsembleSpec:
    return EnsembleSpec(
        params=SpinChainParams(n=3),
        epsilons=(0.0, 0.05),
        realizations=2,
        seed=seed,
        tasks=frozenset(dtcnet.TASKS),
        periods=8,
    )


def _run_in_fresh_dir(spec: EnsembleSpec, root: Path, tag: str):
    parent = root / tag
    parent.mkdir()
    return run_ensemble(spec, out_dir=parent)


def _csv_map(run_dir: Path) -> dict[str, list[str]]:
    return {
        p.name: p.read_text().splitlines() for p in sorted(Path(run_dir).glob("*.csv"))
    }


def check_rerun_reproducibility_serial():
    """Identical specs reproduce every CSV byte-for-byte in serial mode."""
    spec = _small_spec()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        first = _run_in_fresh_dir(spec, root, "a")
        second = _run_in_fresh_dir(spec, root, "b")
        lhs, rhs = _csv_map(Path(first.run_dir)), _csv_map(Path(second.run_dir))
        assert lhs.keys() == rhs.keys()
        for name in lhs:
            assert lhs[name] == rhs[name], name
        assert first.spec == second.spec
        assert first.per_realization_seeds == second.per_realization_seeds


def check_parallel_aggregate_equivalence():
    """Thread-pool execution reproduces serial aggregates to 1e-12."""
    spec = _small_spec()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        serial = _run_in_fresh_dir(spec, root, "serial")
        saved = os.environ.get("DTCNET_THREADS")
        os.environ["DTCNET_THREADS"] = "2"
        try:
            parallel = _run_in_fresh_dir(spec, root, "parallel")
        finally:
            if saved is None:
                del os.environ["DTCNET_THREADS"]
            else:
                os.environ["DTCNET_THREADS"] = saved
        lhs, rhs = _csv_map(Path(serial.run_dir)), _csv_map(Path(parallel.run_dir))
        assert lhs.keys() == rhs.keys()
        for name in lhs:
            assert lhs[name][0] == rhs[name][0], name
            for row_a, row_b in zip(lhs[name][1:], rhs[name][1:]):
                for cell_a, cell_b in zip(row_a.split(","), row_b.split(",")):
                    try:
                        va, vb = float(cell_a), float(cell_b)
                    except ValueError:
                        assert cell_a == cell_b, name
                        continue
                    if math.isnan(va) and math.isnan(vb):
                        continue
                    assert abs(va - vb) <= 1e-12, (name, cell_a, cell_b)


def check_manifest_artifacts_parse():
    """Every manifest artifact exists and obeys its declared schema."""
    spec = _small_spec()
    with tempfile.TemporaryDirectory() as tmp:
        manifest = _run_in_fresh_dir(spec, Path(tmp), "run")
        run_dir = Path(manifest.run_dir)
        assert (run_dir / "manifest.json").exists()
        json.loads((run_dir / "manifest.json").read_text())
        seen = 0
        for paths in manifest.artifacts.values():
            for raw in paths:
                path = Path(raw)
                assert path.exists(), raw
                header = None
                for prefix, columns in _ARTIFACT_SCHEMAS:
                    if path.name.startswith(prefix) or path.name == prefix:
                        header = columns
                        break
                assert header is not None, f"no schema for {path.name}"
                with open(path) as fh:
                    rows = list(csv.reader(fh))
                assert rows[0] == header, (path.name, rows[0])
                assert len(rows) > 1, f"{path.name} has no data rows"
                for row in rows[1:]:
                    assert len(row) == len(header), (path.name, row)
                    for column, cell in zip(header, row):
                        if column in _NON_NUMERIC_COLUMNS:
                            continue
                        float(cell)  # nan parses too
                seen += 1
        assert seen > 0


# ---------------------------------------------------------------------
# cli


def check_unknown_inputs_rejected():
    """Unknown subcommands and unknown flags exit with status 1."""
    from dtcnet.cli import main

    assert main(["no-such-command"]) == 1
    assert main(["graph", "--n", "3", "--epsilon", "0", "--bogus-flag", "1"]) == 1


def check_flag_config_default_precedence():
    """Flags beat the config file, which beats documented defaults."""
    from dtcnet.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = {
            "params": {"n": 3, "J0": 0.2},
            "epsilons": [0.0],
            "realizations": 1,
            "seed": 9,
            "tasks": ["classical"],
        }
        config_path = root / "spec.json"
        config_path.write_text(json.dumps(config))
        out = root / "out"
        out.mkdir()
        status = main(
            ["ensemble", "--config", str(config_path), "--j0", "0.31", "--out-dir", str(out)]
        )
        assert status == 0
        run_dir = next(out.glob("run-*"))
        manifest = json.loads((run_dir / "manifest.json").read_text())
        params = manifest["spec"]["params"]
        assert params["J0"] == 0.31  # flag wins over config
        assert params["n"] == 3  # config wins where no flag given
        assert params["alpha"] == 1.51  # documented default fills the rest
        assert params["W"] == np.pi
        assert params["T1"] == 1.0 and params["T2"] == 1.0


SUITE = [
    ("spin-hilbert", "pulse couples single bit flips uniformly", check_pulse_hop_structure),
    ("spin-hilbert", "ising step diagonal and z-commuting", check_ising_diagonal_commutes),
    ("spin-hilbert", "wall operator and parity action", check_wall_operator_and_parity),
    ("spin-hilbert", "built operators hermitian", check_built_operators_hermitian),
    ("floquet-core", "propagator unitarity", check_propagator_unitarity),
    ("floquet-core", "spectral reconstruction", check_spectral_reconstruction),
    ("floquet-core", "conserved quantities at zero error", check_conserved_at_zero_error),
    ("floquet-core", "zero-error pair splitting", check_zero_error_pairing),
    ("floquet-core", "first-order 2T formula quadratic scaling", check_bch_quadratic_scaling),
    ("percolation-graph", "edge rule matches two-level analysis", check_edge_rule_consistency),
    ("percolation-graph", "zero-error mirror dimers", check_zero_error_dimers),
    ("percolation-graph", "global shift invariance", check_shift_invariance),
    ("netfit", "exponent invariant under duplication", check_mle_duplication_consistency),
    ("netfit", "ks shrinks with sample size", check_ks_sample_size_decreasing),
    ("netfit", "lr verdict shuffle invariant", check_lr_shuffle_invariance),
    ("netfit", "histogram normalization", check_histogram_normalization),
    ("diagnostics", "reference density normalization", check_reference_normalizations),
    ("diagnostics", "gap ratios shift and scale invariant", check_gap_ratio_invariance),
    ("diagnostics", "spectral weight conservation", check_parseval),
    ("diagnostics", "fidelity symmetric and scale blind", check_fidelity_symmetry_scale),
    ("diagnostics", "magnetization dual computation", check_magnetization_dual_paths),
    ("semiclassical", "corner gradients vanish", check_corner_gradients_vanish),
    ("semiclassical", "jacobian equals numerical hessian", check_jacobian_matches_fd_hessian),
    ("semiclassical", "global flip symmetry", check_energy_flip_symmetry),
    ("ensemble-runner", "serial rerun bit-identical", check_rerun_reproducibility_serial),
    ("ensemble-runner", "parallel aggregates match serial", check_parallel_aggregate_equivalence),
    ("ensemble-runner", "manifest artifacts parse", check_manifest_artifacts_parse),
    ("cli", "unknown inputs rejected", check_unknown_inputs_rejected),
    ("cli", "flag config default precedence", check_flag_config_default_precedence),
]
