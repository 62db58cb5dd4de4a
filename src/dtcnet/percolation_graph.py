"""Percolation rule, cluster analysis, and graph export.

An undirected edge {i, j} is active iff |E_j - E_i| < |K_ij| with E the
diagonal and K the off-diagonal of an effective Hamiltonian. The
comparison is a strict floating-point inequality with no tolerance
band; per-edge margins |K| - |dE| are kept so near-threshold edges can
be audited after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .floquet_core import EffectiveHamiltonian
from .spin_hilbert import domain_wall_counts

__all__ = [
    "PercolationGraph",
    "ClusterDecomposition",
    "TwoLevelResult",
    "percolation_graph",
    "clusters",
    "two_level_analysis",
    "export_graph",
    "export_nodes_csv",
]

HERMITICITY_PRE_TOL = 1e-8
EXPORT_FORMATS = ("dot", "graphml", "edge-csv")


@dataclass(frozen=True, eq=False)
class PercolationGraph:
    """Graph over the 2^n configurations under the percolation rule.

    Active edge k joins rows[k] < cols[k]; the pairs are in lexicographic
    order and slack[k] = |K_ij| - |E_i - E_j| > 0 is the edge's margin.
    """

    num_nodes: int
    rows: np.ndarray
    cols: np.ndarray
    slack: np.ndarray
    domain_walls: np.ndarray
    degrees: np.ndarray

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Active edges as (i, j) tuples with i < j, built on each access."""
        return frozenset(zip(self.rows.tolist(), self.cols.tolist()))

    @property
    def margins(self) -> dict[tuple[int, int], float]:
        """Active edge (i, j) -> its margin, built on each access."""
        return dict(zip(zip(self.rows.tolist(), self.cols.tolist()), self.slack.tolist()))

    def margin(self, i: int, j: int) -> float:
        """Percolation margin of an active edge; KeyError if inactive."""
        (hit,) = np.nonzero((self.rows == min(i, j)) & (self.cols == max(i, j)))
        if hit.size == 0:
            raise KeyError((min(i, j), max(i, j)))
        return float(self.slack[hit[0]])


@dataclass(frozen=True)
class ClusterDecomposition:
    """Connected components; sizes sorted descending, ties by smallest node."""

    components: tuple[frozenset[int], ...]
    sizes: tuple[int, ...]


@dataclass(frozen=True)
class TwoLevelResult:
    """Gap and mixing angles of an isolated configuration pair."""

    gap: float
    cos_theta: float
    sin_theta: float
    active: bool


def percolation_graph(H: EffectiveHamiltonian) -> PercolationGraph:
    """Apply the percolation rule to every configuration pair.

    Parameters
    ----------
    H : EffectiveHamiltonian
        Hermitian within HERMITICITY_PRE_TOL; dimension must be a power
        of two so nodes can carry domain-wall annotations.

    Returns
    -------
    PercolationGraph
        Edge {i, j} present iff |E_j - E_i| < |K_ij|, strictly.
    """
    matrix = H.matrix
    dim = matrix.shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    defect = np.abs(matrix - matrix.conj().T).max()
    if not defect < HERMITICITY_PRE_TOL:
        raise ValueError(f"effective Hamiltonian not Hermitian: defect {defect:.3e}")

    energies = np.real(np.diag(matrix))
    # evaluate on the upper triangle only so roundoff asymmetry in
    # |K_ij| vs |K_ji| cannot desymmetrize the edge set; abs_k is zero
    # elsewhere and gap >= 0, so only pairs i < j can be active
    abs_k = np.abs(np.triu(matrix, k=1))
    gap = np.abs(energies[:, None] - energies[None, :])
    rows, cols = np.nonzero(abs_k > gap)
    return PercolationGraph(
        num_nodes=dim,
        rows=rows,
        cols=cols,
        slack=abs_k[rows, cols] - gap[rows, cols],
        domain_walls=domain_wall_counts(n),
        degrees=np.bincount(np.concatenate([rows, cols]), minlength=dim),
    )


def clusters(g: PercolationGraph) -> ClusterDecomposition:
    """Connected components by csgraph; sizes descending, ties by smallest node."""
    adjacency = coo_matrix((np.ones(g.rows.size), (g.rows, g.cols)), shape=(g.num_nodes,) * 2)
    _, labels = connected_components(adjacency, directed=False)
    # csgraph numbers components in order of their smallest node, and
    # list.sort is stable, so equal sizes keep that order
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    members.sort(key=len, reverse=True)
    return ClusterDecomposition(
        components=tuple(frozenset(m.tolist()) for m in members),
        sizes=tuple(len(m) for m in members),
    )


def two_level_analysis(E_i: float, E_j: float, K_ij: complex) -> TwoLevelResult:
    """Gap and mixing of the pair Hamiltonian [[E_i, K], [K*, E_j]].

    The gap is delta = sqrt((E_i - E_j)^2 + |K|^2); cos_theta and
    sin_theta are |dE|/delta and |K|/delta. The edge is active iff
    |K| > |dE|, which coincides with sin_theta > cos_theta.
    """
    de = abs(E_i - E_j)
    k = abs(K_ij)
    if de == 0.0 and k == 0.0:
        raise ValueError("degenerate two-level input: zero gap and zero coupling")
    gap = math.hypot(de, k)
    return TwoLevelResult(
        gap=gap, cos_theta=de / gap, sin_theta=k / gap, active=k > de
    )


def export_graph(g: PercolationGraph, format: str) -> bytes:
    """Serialize the graph; nodes in index order, edges sorted.

    Supported formats: 'dot', 'graphml', 'edge-csv'. The edge CSV holds
    src,dst rows only; node attributes travel in a companion file (see
    export_nodes_csv).
    """
    edges = zip(g.rows.tolist(), g.cols.tolist())
    if format == "dot":
        lines = ["graph configuration_space {"]
        lines += [f'  {i} [label="{label}" domain_walls={walls} degree={degree}];'
                  for i, label, walls, degree in _nodes(g)]
        lines += [f"  {i} -- {j};" for i, j in edges]
        lines.append("}")
    elif format == "graphml":
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
            '  <key id="label" for="node" attr.name="label" attr.type="string"/>',
            '  <key id="domain_walls" for="node" attr.name="domain_walls" attr.type="int"/>',
            '  <key id="degree" for="node" attr.name="degree" attr.type="int"/>',
            '  <graph id="configuration_space" edgedefault="undirected">',
        ]
        for i, label, walls, degree in _nodes(g):
            lines += [
                f'    <node id="n{i}">',
                f'      <data key="label">{label}</data>',
                f'      <data key="domain_walls">{walls}</data>',
                f'      <data key="degree">{degree}</data>',
                "    </node>",
            ]
        lines += [f'    <edge source="n{i}" target="n{j}"/>' for i, j in edges]
        lines += ["  </graph>", "</graphml>"]
    elif format == "edge-csv":
        lines = ["src,dst"] + [f"{i},{j}" for i, j in edges]
    else:
        raise ValueError(f"unsupported format {format!r}; expected one of {EXPORT_FORMATS}")
    return ("\n".join(lines) + "\n").encode()


def export_nodes_csv(g: PercolationGraph) -> bytes:
    """Companion node table: id,label,domain_walls,degree."""
    lines = ["id,label,domain_walls,degree"]
    lines += [f"{i},{label},{walls},{degree}" for i, label, walls, degree in _nodes(g)]
    return ("\n".join(lines) + "\n").encode()


def _nodes(g: PercolationGraph):
    """The node table every export renders: (index, n-bit label, domain walls, degree), by index."""
    width = g.num_nodes.bit_length() - 1
    labels = (format(i, f"0{width}b") for i in range(g.num_nodes))
    return zip(range(g.num_nodes), labels, g.domain_walls.tolist(), g.degrees.tolist())
