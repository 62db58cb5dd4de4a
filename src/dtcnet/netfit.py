"""Degree-distribution statistics: histograms, power-law MLE, LR tests.

The power-law model throughout is the continuous half-integer proxy of
the standard discrete estimator: a Pareto density on [k_min - 0.5, inf)
evaluated at the integer degrees, with model CDF at integer k equal to
1 - ((k + 0.5)/(k_min - 0.5))**(1 - beta). The lognormal alternative is
the truncated lognormal on the same support with the location parameter
constrained to mu >= 0; unconstrained, the truncated lognormal nests
every finite-range power law and the likelihood-ratio test degenerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erfc, log, pi, sqrt

import numpy as np
from scipy.optimize import minimize

__all__ = [
    "DegreeHistogram",
    "PowerLawFit",
    "LikelihoodRatioResult",
    "log_binned_histogram",
    "powerlaw_mle",
    "ks_distance",
    "kmin_scan",
    "lognormal_lr_test",
    "poisson_fit",
    "avg_degree_by_domain_walls",
]

DEFAULT_BIN_RATIO = 1.5
MIN_TAIL = 10
SIGNIFICANCE = 1.96


@dataclass(frozen=True, eq=False)
class DegreeHistogram:
    """Log-binned degree densities.

    Bins are geometric from k0 = 1; densities are counts divided by bin
    width and by the number of positive-degree samples, so densities
    times widths sum to one. Zero-degree nodes are excluded from the
    bins and reported in zero_count.
    """

    bin_edges: np.ndarray
    densities: np.ndarray
    zero_count: int
    sample_size: int


@dataclass(frozen=True)
class PowerLawFit:
    beta: float
    k_min: int
    ks: float
    n_tail: int

    def __post_init__(self) -> None:
        if not self.beta > 1.0:
            raise ValueError(f"beta must exceed 1, got {self.beta}")
        if self.k_min < 1:
            raise ValueError(f"k_min must be >= 1, got {self.k_min}")
        if not 0.0 <= self.ks <= 1.0:
            raise ValueError(f"ks must lie in [0, 1], got {self.ks}")


@dataclass(frozen=True)
class LikelihoodRatioResult:
    """Power-law minus lognormal log-likelihood comparison on one tail."""

    R: float
    favored: str
    normalized_R: float

    def __post_init__(self) -> None:
        if self.favored not in ("powerlaw", "lognormal", "inconclusive"):
            raise ValueError(f"unknown verdict {self.favored!r}")


def _as_degree_array(degrees) -> np.ndarray:
    arr = np.asarray(degrees)
    if arr.size == 0:
        raise ValueError("empty degree input")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.allclose(arr, rounded, atol=1e-9):
            raise ValueError("degrees must be integers")
        arr = rounded.astype(np.int64)
    if np.any(arr < 0):
        raise ValueError("degrees must be >= 0")
    return arr.astype(np.int64, copy=False)


def log_binned_histogram(degrees, ratio: float = DEFAULT_BIN_RATIO) -> DegreeHistogram:
    """Histogram positive degrees into geometric bins starting at 1.

    Parameters
    ----------
    degrees : integer vector
        Node degrees, >= 0; zeros are counted separately, not binned.
    ratio : float
        Geometric bin growth factor, > 1.

    Returns
    -------
    DegreeHistogram
        sum(density * width) = 1 over the positive-degree sample.
    """
    if ratio <= 1.0:
        raise ValueError(f"bin ratio must exceed 1, got {ratio}")
    arr = _as_degree_array(degrees)
    zero_count = int(np.count_nonzero(arr == 0))
    positive = arr[arr > 0]
    if positive.size == 0:
        raise ValueError("no positive degrees to bin")
    edges = [1.0]
    while edges[-1] <= positive.max():
        edges.append(edges[-1] * ratio)
    edges_arr = np.array(edges)
    counts, _ = np.histogram(positive, bins=edges_arr)
    widths = np.diff(edges_arr)
    densities = counts / (widths * positive.size)
    return DegreeHistogram(
        bin_edges=edges_arr,
        densities=densities,
        zero_count=zero_count,
        sample_size=int(positive.size),
    )


def powerlaw_mle(degrees, k_min: int) -> float:
    """Closed-form tail exponent beta = 1 + n / sum ln(k_i/(k_min - 0.5)).

    Requires at least MIN_TAIL samples at or above k_min; a tail in
    which every sample equals k_min has no information about the slope
    and is rejected.
    """
    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
    arr = _as_degree_array(degrees)
    tail = arr[arr >= k_min]
    if tail.size < MIN_TAIL:
        raise ValueError(
            f"insufficient tail: {tail.size} samples >= {k_min}, need {MIN_TAIL}"
        )
    if np.all(tail == k_min):
        raise ValueError("all tail samples equal k_min; estimator divergent")
    return 1.0 + tail.size / np.log(tail / (k_min - 0.5)).sum()


def _model_cdf(k: np.ndarray, k_min: int, beta: float) -> np.ndarray:
    return 1.0 - ((k + 0.5) / (k_min - 0.5)) ** (1.0 - beta)


def ks_distance(degrees, fit: PowerLawFit) -> float:
    """Max |empirical CDF - model CDF| over the fitted tail."""
    return _ks(_as_degree_array(degrees), fit.k_min, fit.beta)


def _ks(arr: np.ndarray, k_min: int, beta: float) -> float:
    tail = np.sort(arr[arr >= k_min])
    if tail.size == 0:
        raise ValueError(f"no samples >= k_min = {k_min}")
    uniq = np.unique(tail)
    empirical = np.searchsorted(tail, uniq, side="right") / tail.size
    return float(np.abs(empirical - _model_cdf(uniq, k_min, beta)).max())


def kmin_scan(degrees) -> PowerLawFit:
    """Pick the cutoff k_min that minimizes the KS distance of its fit.

    Every distinct degree value >= 1 present in the sample is a
    candidate, subject to a tail of at least MIN_TAIL samples that is
    not entirely concentrated at the candidate. Ties in KS go to the
    smaller k_min.
    """
    arr = _as_degree_array(degrees)
    positive = arr[arr >= 1]
    if np.unique(arr).size < 2:
        raise ValueError("need at least 2 distinct degree values")
    best: PowerLawFit | None = None
    for candidate in np.unique(positive):
        k_min = int(candidate)
        tail = positive[positive >= k_min]
        if tail.size < MIN_TAIL or np.all(tail == k_min):
            continue
        beta = powerlaw_mle(positive, k_min)
        fit = PowerLawFit(
            beta=beta,
            k_min=k_min,
            ks=_ks(positive, k_min, beta),
            n_tail=int(tail.size),
        )
        if best is None or fit.ks < best.ks - 1e-15:
            best = fit
    if best is None:
        raise ValueError("no candidate k_min with a sufficient tail")
    return best


def _lognormal_logpdf(x: np.ndarray, x_min: float, mu: float, sigma: float) -> np.ndarray:
    lx = np.log(x)
    tail_prob = 0.5 * erfc((log(x_min) - mu) / (sqrt(2.0) * sigma))
    if tail_prob <= 0.0:
        return np.full_like(lx, -1e12)
    return (
        -lx
        - log(sigma)
        - 0.5 * log(2.0 * pi)
        - (lx - mu) ** 2 / (2.0 * sigma**2)
        - log(tail_prob)
    )


def lognormal_lr_test(degrees, fit: PowerLawFit) -> LikelihoodRatioResult:
    """Compare the fitted power law against a truncated lognormal.

    The lognormal is fit by maximum likelihood on the same tail
    (support [k_min - 0.5, inf), mu >= 0) via deterministic multistart
    Nelder-Mead. R sums the pointwise log-likelihood differences
    (power law minus lognormal); normalized_R divides by the standard
    deviation of the differences times sqrt(n_tail). Verdicts need
    |normalized_R| > SIGNIFICANCE; a degenerate tail (zero variance of
    the differences) is inconclusive.
    """
    arr = _as_degree_array(degrees)
    tail = arr[arr >= fit.k_min].astype(float)
    if tail.size < MIN_TAIL:
        raise ValueError(
            f"insufficient tail: {tail.size} samples >= {fit.k_min}, need {MIN_TAIL}"
        )
    x_min = fit.k_min - 0.5
    log_tail = np.log(tail)

    def nll(p: np.ndarray) -> float:
        mu, sigma = p
        if sigma <= 1e-4 or mu < 0.0:
            return 1e12
        return float(-_lognormal_logpdf(tail, x_min, mu, sigma).sum())

    best = None
    sigma0 = max(float(log_tail.std()), 1e-2)
    for mu0 in (max(float(log_tail.mean()), 0.0), 0.0, max(float(log_tail.mean()) - 1.0, 0.0)):
        for s0 in (sigma0, 1.0, 2.0 * sigma0):
            res = minimize(
                nll,
                x0=np.array([mu0, s0]),
                method="Nelder-Mead",
                options=dict(xatol=1e-9, fatol=1e-11, maxiter=3000),
            )
            if best is None or res.fun < best.fun:
                best = res
    mu, sigma = best.x

    ll_powerlaw = log(fit.beta - 1.0) - log(x_min) - fit.beta * np.log(tail / x_min)
    diffs = ll_powerlaw - _lognormal_logpdf(tail, x_min, mu, sigma)
    R = float(diffs.sum())
    spread = float(diffs.std())
    if spread <= 1e-12:
        return LikelihoodRatioResult(R=R, favored="inconclusive", normalized_R=0.0)
    normalized = R / (spread * sqrt(tail.size))
    if R > 0 and abs(normalized) > SIGNIFICANCE:
        verdict = "powerlaw"
    elif R < 0 and abs(normalized) > SIGNIFICANCE:
        verdict = "lognormal"
    else:
        verdict = "inconclusive"
    return LikelihoodRatioResult(R=R, favored=verdict, normalized_R=normalized)


def poisson_fit(degrees) -> float:
    """Poisson MLE: the sample mean."""
    return float(_as_degree_array(degrees).mean())


def avg_degree_by_domain_walls(ensemble) -> dict[int, tuple[float, float]]:
    """Pool node degrees by wall count across realizations.

    Parameters
    ----------
    ensemble : sequence of PercolationGraph
        All graphs must share the node count.

    Returns
    -------
    dict
        wall count -> (mean degree, population standard deviation).
    """
    pooled: dict[int, list[np.ndarray]] = {}
    num_nodes = None
    for graph in ensemble:
        if num_nodes is None:
            num_nodes = graph.num_nodes
        elif graph.num_nodes != num_nodes:
            raise ValueError("graphs in the ensemble differ in node count")
        walls = graph.domain_walls
        for w in np.unique(walls):
            pooled.setdefault(int(w), []).append(graph.degrees[walls == w])
    if num_nodes is None:
        raise ValueError("empty ensemble")
    return {
        w: (float(np.concatenate(parts).mean()), float(np.concatenate(parts).std()))
        for w, parts in sorted(pooled.items())
    }
