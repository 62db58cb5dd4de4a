"""dtcnet: driven spin chains as percolation graphs in configuration space.

The pipeline: build the two-step Floquet propagator of a disordered
Ising chain, extract its effective Hamiltonian from the quasienergy
spectrum, map configurations to graph nodes with the percolation rule,
and analyze the result (degree statistics, level statistics, power
spectra, quantum walks, classical stability) over disorder ensembles.
"""

__version__ = "0.1.0"

from .diagnostics import (
    GapRatioSample,
    PowerSpectrum,
    WalkRecord,
    dft_power,
    gap_ratios,
    magnetization_series,
    mean_gap_ratio,
    participation_ratio,
    power_spectrum,
    pr_distribution,
    reference_mean,
    reference_normalization,
    reference_pdf,
    spectral_fidelity,
    walk_horizon_periods,
    walk_populations,
)
from .ensemble import MAX_SITES, TASKS, EnsembleSpec, RunManifest, realization_outputs, run_ensemble
from .floquet_core import (
    EffectiveHamiltonian,
    FloquetOperator,
    FloquetSpectrum,
    bch_effective_2T,
    effective_hamiltonian,
    drive_unitary,
    floquet_operator,
    floquet_spectrum,
    squared_floquet,
    stroboscopic_evolve,
    two_period_spectrum,
)
from .netfit import (
    DegreeHistogram,
    LikelihoodRatioResult,
    PowerLawFit,
    avg_degree_by_domain_walls,
    kmin_scan,
    ks_distance,
    log_binned_histogram,
    lognormal_lr_test,
    poisson_fit,
    powerlaw_mle,
)
from .percolation_graph import (
    ClusterDecomposition,
    PercolationGraph,
    TwoLevelResult,
    clusters,
    export_graph,
    export_nodes_csv,
    percolation_graph,
    two_level_analysis,
)
from .semiclassical import (
    ClassicalConfiguration,
    StabilityReport,
    classical_energy,
    classify_fixed_point,
    jacobian,
)
from .spin_hilbert import (
    Configuration,
    DenseOperator,
    DisorderRealization,
    SpinChainParams,
    build_drive,
    diagonal_energies,
    domain_wall_counts,
    domain_wall_operator,
    domain_walls,
    interaction_energies,
    parity_operator,
    parity_partner,
    pauli_string,
    sample_disorder,
    spin_z_table,
)
