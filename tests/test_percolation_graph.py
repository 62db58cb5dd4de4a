"""Percolation rule, cluster decomposition, degree data, graph export."""

from functools import partial

import numpy as np
import pytest

from dtcnet import (
    SpinChainParams,
    clusters,
    effective_hamiltonian,
    export_graph,
    export_nodes_csv,
    floquet_spectrum,
    percolation_graph,
    sample_disorder,
    two_level_analysis,
)
from dtcnet.floquet_core import EffectiveHamiltonian, drive_unitary
from invariants import (
    check_edge_rule_consistency,
    check_shift_invariance,
    check_zero_error_dimers,
)


def _graph_from(diagonal, offdiag):
    """Build a graph from explicit onsite energies and couplings."""
    dim = len(diagonal)
    H = np.diag(np.asarray(diagonal, dtype=complex))
    for (i, j), k in offdiag.items():
        H[i, j] = k
        H[j, i] = np.conj(k)
    return percolation_graph(EffectiveHamiltonian(matrix=H, period=2.0))


def _reference_graph(matrix):
    """The frozenset/dict construction the edge arrays replaced."""
    energies = np.real(np.diag(matrix))
    abs_k = np.abs(np.triu(matrix, k=1))
    gap = np.abs(energies[:, None] - energies[None, :])
    active = abs_k > np.triu(gap, k=1)
    np.fill_diagonal(active, False)
    rows, cols = np.nonzero(active)
    edges = frozenset((int(i), int(j)) for i, j in zip(rows, cols))
    margins = {(int(i), int(j)): float(abs_k[i, j] - gap[i, j]) for i, j in zip(rows, cols)}
    degrees = np.zeros(len(energies), dtype=int)
    np.add.at(degrees, rows, 1)
    np.add.at(degrees, cols, 1)
    return edges, margins, degrees


def _reference_clusters(num_nodes, edges):
    """The union-find the csgraph components replaced."""
    parent = list(range(num_nodes))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for node in range(num_nodes):
        groups.setdefault(find(node), []).append(node)
    components = sorted(groups.values(), key=lambda c: (-len(c), c[0]))
    return tuple(frozenset(c) for c in components), tuple(len(c) for c in components)


def _random_hermitian(dim, scale, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.diag(rng.normal(size=dim)) + scale * (raw + raw.conj().T)


def _realization_heff(n, eps, seed):
    params = SpinChainParams(n=n, epsilon=eps)
    return effective_hamiltonian(
        floquet_spectrum(drive_unitary(params, sample_disorder(params, seed, 0)))
    ).matrix


class TestAgainstReference:
    """Edge arrays and csgraph components reproduce the tuple-set graph exactly."""

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(partial(_random_hermitian, dim, scale, dim), id=f"random-{dim}-{scale}")
            for dim in (2, 4, 8, 16, 32, 64)
            for scale in (0.03, 0.3, 3.0)
        ]
        + [pytest.param(partial(_realization_heff, n, 0.0, 19), id=f"dimers-n{n}") for n in (4, 6, 8)]
        + [pytest.param(partial(_realization_heff, 8, 0.1, 37), id="n8-eps0.1")],
    )
    def test_matches_reference(self, make):
        matrix = make()
        g = percolation_graph(EffectiveHamiltonian(matrix=matrix, period=2.0))
        edges, margins, degrees = _reference_graph(matrix)
        assert g.edges == edges
        assert g.margins == margins  # exact: the arithmetic is unchanged
        assert all(g.margin(j, i) == m for (i, j), m in margins.items())
        np.testing.assert_array_equal(g.degrees, degrees)
        assert list(zip(g.rows.tolist(), g.cols.tolist())) == sorted(edges)
        assert g.slack.tolist() == [margins[e] for e in sorted(edges)]
        decomposition = clusters(g)
        assert (decomposition.components, decomposition.sizes) == _reference_clusters(
            g.num_nodes, edges
        )

    def test_equal_sizes_ordered_by_smallest_node(self):
        g = _graph_from([10.0 * k for k in range(8)], {(5, 6): 100.0, (0, 3): 100.0, (1, 2): 100.0})
        decomposition = clusters(g)
        assert decomposition.components == (
            frozenset({0, 3}),
            frozenset({1, 2}),
            frozenset({5, 6}),
            frozenset({4}),
            frozenset({7}),
        )
        assert decomposition.sizes == (2, 2, 2, 1, 1)


class TestPercolationRule:
    def test_dominant_coupling_activates(self):
        g = _graph_from([0.0, 0.5, 9.0, -9.0], {(0, 1): 1.0})
        assert (0, 1) in g.edges

    def test_dominant_detuning_deactivates(self):
        g = _graph_from([0.0, 1.0], {(0, 1): 0.5})
        assert g.edges == set()

    def test_strict_inequality_at_threshold(self):
        g = _graph_from([0.0, 0.5], {(0, 1): 0.5})
        assert g.edges == set()

    def test_zero_error_dimer_graph(self):
        params = SpinChainParams(n=8, epsilon=0.0)
        H = effective_hamiltonian(
            floquet_spectrum(drive_unitary(params, sample_disorder(params, 7, 0)))
        )
        g = percolation_graph(H)
        assert len(g.edges) == 128
        assert g.edges == {(i, 255 - i) for i in range(128)}

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.eye(3, dtype=complex), "dimension 3 is not a power of two"),
            (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), "not Hermitian"),
            # a NaN coupling, even a symmetric one, leaves a NaN defect
            (np.array([[0, np.nan, 0, 0], [np.nan, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], dtype=complex),
             "not Hermitian: defect nan"),
        ],
    )
    def test_invalid_hamiltonian_rejected(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            percolation_graph(EffectiveHamiltonian(matrix=matrix, period=2.0))

    def test_no_self_loops_and_degree_sum(self):
        params = SpinChainParams(n=6, epsilon=0.05)
        H = effective_hamiltonian(
            floquet_spectrum(drive_unitary(params, sample_disorder(params, 17, 0)))
        )
        g = percolation_graph(H)
        assert all(i != j for i, j in g.edges)
        assert all(0 <= i < j < g.num_nodes for i, j in g.edges)
        assert int(g.degrees.sum()) == 2 * len(g.edges)

    def test_margin_positive_on_active_edges(self):
        g = _graph_from([0.0, 0.5, 0.3, 2.0], {(0, 1): 1.0, (2, 3): 3.0, (0, 3): 0.1})
        for i, j in g.edges:
            assert g.margin(i, j) > 0.0
        assert g.margin(0, 1) == pytest.approx(0.5)

    def test_consistency_with_two_level_analysis(self):
        check_edge_rule_consistency()

    def test_global_shift_invariance(self):
        check_shift_invariance()

    def test_dimers_across_sizes(self):
        check_zero_error_dimers()

    def test_margin_of_an_inactive_pair_rejected(self):
        g = _graph_from([0.0, 0.5, 9.0, -9.0], {(0, 1): 1.0})
        assert g.margin(1, 0) == pytest.approx(0.5)
        with pytest.raises(KeyError):
            g.margin(3, 2)


class TestClusters:
    def test_dimer_graph_gives_128_pairs(self):
        params = SpinChainParams(n=8, epsilon=0.0)
        g = percolation_graph(
            effective_hamiltonian(
                floquet_spectrum(drive_unitary(params, sample_disorder(params, 27, 0)))
            )
        )
        decomposition = clusters(g)
        assert tuple(decomposition.sizes) == (2,) * 128

    def test_empty_graph_gives_singletons(self):
        g = _graph_from([float(i) for i in range(8)], {})
        decomposition = clusters(g)
        assert tuple(decomposition.sizes) == (1,) * 8
        assert len(decomposition.components) == 8

    def test_large_error_percolates(self):
        params = SpinChainParams(n=8, epsilon=0.1)
        g = percolation_graph(
            effective_hamiltonian(
                floquet_spectrum(drive_unitary(params, sample_disorder(params, 37, 0)))
            )
        )
        assert clusters(g).sizes[0] > 128

    def test_components_partition_nodes(self):
        params = SpinChainParams(n=5, epsilon=0.03)
        g = percolation_graph(
            effective_hamiltonian(
                floquet_spectrum(drive_unitary(params, sample_disorder(params, 47, 0)))
            )
        )
        decomposition = clusters(g)
        seen = sorted(node for comp in decomposition.components for node in comp)
        assert seen == list(range(32))
        assert list(decomposition.sizes) == sorted(decomposition.sizes, reverse=True)


class TestDegreeSequence:
    def test_dimer_degrees_all_one(self):
        params = SpinChainParams(n=4, epsilon=0.0)
        g = percolation_graph(
            effective_hamiltonian(
                floquet_spectrum(drive_unitary(params, sample_disorder(params, 57, 0)))
            )
        )
        assert np.all(g.degrees == 1)
        assert g.domain_walls.shape == g.degrees.shape

    def test_complete_graph_degrees(self):
        g = _graph_from([0.0, 0.0, 0.0, 0.0], {(i, j): 1.0 for i in range(4) for j in range(i + 1, 4)})
        assert np.all(g.degrees == 3)

    def test_wall_labels_match_configurations(self):
        g = _graph_from([0.0] * 8, {})
        assert list(g.domain_walls) == [0, 1, 2, 1, 1, 2, 1, 0]  # n=3 wall counts


class TestTwoLevelAnalysis:
    def test_resonant_pair_fully_mixed(self):
        result = two_level_analysis(0.7, 0.7, 0.25)
        assert result.sin_theta == pytest.approx(1.0)
        assert result.cos_theta == pytest.approx(0.0)
        assert result.active

    def test_uncoupled_pair_localized(self):
        result = two_level_analysis(0.1, 0.9, 0.0)
        assert result.sin_theta == pytest.approx(0.0)
        assert result.cos_theta == pytest.approx(1.0)
        assert not result.active

    def test_three_four_five(self):
        result = two_level_analysis(0.0, 3.0, 4.0)
        assert result.gap == pytest.approx(5.0)
        assert result.cos_theta == pytest.approx(0.6)
        assert result.sin_theta == pytest.approx(0.8)
        assert result.active

    def test_complex_coupling_uses_modulus(self):
        result = two_level_analysis(0.0, 3.0, 4j)
        assert result.gap == pytest.approx(5.0)
        assert result.sin_theta == pytest.approx(0.8)

    def test_mixing_normalized(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            ei, ej = rng.normal(size=2)
            k = complex(*rng.normal(size=2))
            result = two_level_analysis(ei, ej, k)
            assert result.cos_theta**2 + result.sin_theta**2 == pytest.approx(1.0, abs=1e-12)
            assert result.gap == pytest.approx(np.hypot(ei - ej, abs(k)))

    def test_degenerate_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            two_level_analysis(0.4, 0.4, 0.0)


class TestExport:
    def test_empty_dot_document(self):
        g = _graph_from([float(i + 1) for i in range(8)], {})
        text = export_graph(g, "dot").decode()
        assert text.startswith("graph")
        assert text.count("--") == 0
        # one node statement per configuration
        assert text.count("[label=") == 8

    def test_single_edge_records(self):
        g = _graph_from([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5], {(0, 7): 2.0})
        dot = export_graph(g, "dot").decode()
        assert dot.count("--") == 1
        csv_text = export_graph(g, "edge-csv").decode()
        rows = [line for line in csv_text.splitlines() if line and line != "src,dst"]
        assert rows == ["0,7"]
        graphml = export_graph(g, "graphml").decode()
        assert graphml.count("<edge ") == 1

    def test_edge_csv_round_trip(self):
        params = SpinChainParams(n=5, epsilon=0.06)
        g = percolation_graph(
            effective_hamiltonian(
                floquet_spectrum(drive_unitary(params, sample_disorder(params, 67, 0)))
            )
        )
        text = export_graph(g, "edge-csv").decode()
        parsed = set()
        for line in text.splitlines()[1:]:
            if not line:
                continue
            a, b = line.split(",")
            parsed.add((int(a), int(b)))
        assert parsed == g.edges

    def test_node_csv_attributes(self):
        g = _graph_from([0.0, 0.0, 0.0, 5.0], {(0, 1): 1.0})
        text = export_nodes_csv(g).decode()
        lines = text.splitlines()
        assert lines[0] == "id,label,domain_walls,degree"
        assert lines[1] == "0,00,0,1"
        assert lines[4] == "3,11,0,0"

    def test_unsupported_format_rejected(self):
        g = _graph_from([0.0, 1.0], {})
        with pytest.raises(ValueError):
            export_graph(g, "gexf")

    def test_documents_pinned(self):
        g = _graph_from([0.0, 0.1, 0.7, 0.2], {(0, 1): 1.0, (1, 2): 2.0})
        assert export_graph(g, "dot").decode() == (
            "graph configuration_space {\n"
            '  0 [label="00" domain_walls=0 degree=1];\n'
            '  1 [label="01" domain_walls=1 degree=2];\n'
            '  2 [label="10" domain_walls=1 degree=1];\n'
            '  3 [label="11" domain_walls=0 degree=0];\n'
            "  0 -- 1;\n"
            "  1 -- 2;\n"
            "}\n"
        )
        assert export_graph(g, "graphml").decode() == (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
            '  <key id="label" for="node" attr.name="label" attr.type="string"/>\n'
            '  <key id="domain_walls" for="node" attr.name="domain_walls" attr.type="int"/>\n'
            '  <key id="degree" for="node" attr.name="degree" attr.type="int"/>\n'
            '  <graph id="configuration_space" edgedefault="undirected">\n'
            '    <node id="n0">\n'
            '      <data key="label">00</data>\n'
            '      <data key="domain_walls">0</data>\n'
            '      <data key="degree">1</data>\n'
            "    </node>\n"
            '    <node id="n1">\n'
            '      <data key="label">01</data>\n'
            '      <data key="domain_walls">1</data>\n'
            '      <data key="degree">2</data>\n'
            "    </node>\n"
            '    <node id="n2">\n'
            '      <data key="label">10</data>\n'
            '      <data key="domain_walls">1</data>\n'
            '      <data key="degree">1</data>\n'
            "    </node>\n"
            '    <node id="n3">\n'
            '      <data key="label">11</data>\n'
            '      <data key="domain_walls">0</data>\n'
            '      <data key="degree">0</data>\n'
            "    </node>\n"
            '    <edge source="n0" target="n1"/>\n'
            '    <edge source="n1" target="n2"/>\n'
            "  </graph>\n"
            "</graphml>\n"
        )
        assert export_graph(g, "edge-csv").decode() == "src,dst\n0,1\n1,2\n"
        assert export_nodes_csv(g).decode() == (
            "id,label,domain_walls,degree\n0,00,0,1\n1,01,1,2\n2,10,1,1\n3,11,0,0\n"
        )

    def test_graphml_well_formed(self):
        import xml.etree.ElementTree as ET

        g = _graph_from([0.0, 0.1, 0.7, 0.2], {(0, 1): 1.0, (1, 2): 2.0})
        root = ET.fromstring(export_graph(g, "graphml").decode())
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        nodes = root.findall(f".//{ns}node")
        edges = root.findall(f".//{ns}edge")
        assert len(nodes) == 4
        assert len(edges) == 2
