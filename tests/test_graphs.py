import numpy as np
import pytest

from masobs.errors import CycleError, SymmetryError
from masobs.graphs import (DirectedGraph, algebraic_connectivity, augment,
                           binary_weights, grounded_blocks, has_spanning_tree,
                           is_strongly_connected, laplacian,
                           normalized_in_weights, normalized_out_weights,
                           topological_ordering)
from masobs.synth import random_digraph, random_strongly_connected


def _cycle3():
    return DirectedGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])


def _example_interaction_graphs():
    # four-agent cascade: agent 4 drives 3 drives 2 drives 1
    gs = DirectedGraph.from_edges(4, [(2, 1), (3, 1), (3, 2), (4, 3)])
    go = DirectedGraph.from_edges(4, [(2, 1), (3, 2), (4, 3)])
    return gs, go


class TestLaplacian:
    def test_single_node(self):
        g = DirectedGraph(np.zeros((1, 1)))
        assert laplacian(g).shape == (1, 1)
        assert laplacian(g)[0, 0] == 0.0

    def test_undirected_unit_edge(self):
        g = DirectedGraph.from_edges(2, [(1, 2), (2, 1)])
        assert np.array_equal(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_directed_cycle_spectrum(self):
        eigs = np.linalg.eigvals(laplacian(_cycle3()))
        eigs = sorted(eigs, key=lambda z: (z.real, z.imag))
        expected = [0.0, 1.5 - np.sqrt(3) / 2 * 1j, 1.5 + np.sqrt(3) / 2 * 1j]
        assert np.allclose(eigs, expected, atol=1e-9)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(1, 9)))
            assert np.allclose(laplacian(g).sum(axis=1), 0.0, atol=1e-12)


class TestConnectivity:
    def test_path_has_spanning_tree(self):
        g = DirectedGraph.from_edges(3, [(1, 2), (2, 3)])
        assert has_spanning_tree(g)
        assert not is_strongly_connected(g)

    def test_isolated_nodes(self):
        g = DirectedGraph(np.zeros((2, 2)))
        assert not has_spanning_tree(g)
        assert not is_strongly_connected(g)

    def test_cycle_strongly_connected(self):
        assert is_strongly_connected(_cycle3())
        assert has_spanning_tree(_cycle3())

    def test_single_node_conventions(self):
        g = DirectedGraph(np.zeros((1, 1)))
        assert is_strongly_connected(g)
        assert has_spanning_tree(g)

    def test_spanning_tree_matches_zero_eigenvalue_count(self):
        # one zero Laplacian eigenvalue exactly when a rooted branching exists
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            g = random_digraph(rng, m, density=rng.uniform(0.05, 0.6))
            eigs = np.linalg.eigvals(laplacian(g))
            scale = max(1.0, np.abs(laplacian(g)).sum(axis=1).max())
            zeros = int(np.sum(np.abs(eigs) < 1e-8 * scale))
            assert (zeros == 1) == has_spanning_tree(g)
            assert np.all(eigs.real > -1e-10)

    def test_strong_connectivity_matches_transitive_closure(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            g = random_digraph(rng, m, density=rng.uniform(0.1, 0.7))
            reach = (g.weights > 0).astype(bool)
            np.fill_diagonal(reach, True)
            for _ in range(m):
                reach = reach | (reach @ reach)
            assert is_strongly_connected(g) == bool(reach.all())


class TestTopologicalOrdering:
    def test_cascade_ordering(self):
        gs, go = _example_interaction_graphs()
        assert topological_ordering(gs) == (4, 3, 2, 1)
        assert topological_ordering(go) == (4, 3, 2, 1)
        assert topological_ordering(gs.union(go)) == (4, 3, 2, 1)

    def test_single_node(self):
        assert topological_ordering(DirectedGraph(np.zeros((1, 1)))) == (1,)

    def test_two_cycle_raises(self):
        g = DirectedGraph.from_edges(2, [(1, 2), (2, 1)])
        with pytest.raises(CycleError) as excinfo:
            topological_ordering(g)
        assert excinfo.value.cycle is not None

    def test_cycle_witness_is_a_cycle_of_the_graph(self):
        rng = np.random.default_rng(11)
        cyclic = 0
        for _ in range(300):
            g = random_digraph(rng, int(rng.integers(2, 10)), float(rng.uniform(0.1, 0.5)))
            try:
                topological_ordering(g)
            except CycleError as exc:
                cycle = exc.cycle
                cyclic += 1
                assert len(cycle) >= 2 and len(set(cycle)) == len(cycle), cycle
                closing = zip(cycle, cycle[1:] + cycle[:1])
                assert all(edge in g.edges for edge in closing), (cycle, g.edges)
        assert cyclic > 100

    def test_ordering_respects_every_edge_on_random_dags(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(1, 10))
            edges = [(j, i) for j in range(1, m + 1) for i in range(j + 1, m + 1)
                     if rng.random() < 0.4]
            g = DirectedGraph.from_edges(m, edges)
            order = topological_ordering(g)
            position = {node: idx for idx, node in enumerate(order)}
            for src, dst in g.edges:
                assert position[src] < position[dst]

    def test_smallest_index_tiebreak(self):
        g = DirectedGraph.from_edges(4, [(2, 4), (3, 4)])
        assert topological_ordering(g) == (1, 2, 3, 4)


class TestAugmentedGraph:
    def test_augment_adds_one_node_and_edge(self):
        gc = DirectedGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
        ag = augment(gc, 2, 1.0)
        assert ag.node_count == 5
        assert len(ag.edges) == len(gc.edges) + 1
        assert (0, 2) in ag.edges
        assert np.all(ag.weights[0, :] == 0.0)

    def test_single_agent(self):
        gc = DirectedGraph(np.zeros((1, 1)))
        ag = augment(gc, 1, 2.5)
        assert ag.edges == {(0, 1)}
        assert ag.weights[1, 0] == 2.5

    def test_bad_arguments(self):
        gc = DirectedGraph(np.zeros((2, 2)))
        with pytest.raises(IndexError):
            augment(gc, 3, 1.0)
        with pytest.raises(ValueError):
            augment(gc, 1, 0.0)

    def test_with_weights_rejects_pattern_change(self):
        ag = augment(_cycle3(), 1, 1.0)
        bad = np.array(ag.weights)
        bad[1, 2] = 0.7  # edge (2, 1) does not exist in the 3-cycle
        with pytest.raises(ValueError):
            ag.with_weights(bad)


class TestGroundedBlocks:
    def test_single_follower(self):
        ag = augment(DirectedGraph(np.zeros((1, 1))), 1, 1.0)
        blocks = grounded_blocks(ag)
        assert np.array_equal(blocks.s_matrix, [[1.0]])
        assert np.array_equal(blocks.o_vector, [1.0])

    def test_two_path_values(self):
        gc = DirectedGraph.from_edges(2, [(1, 2), (2, 1)])
        blocks = grounded_blocks(augment(gc, 1, 1.0))
        assert np.array_equal(blocks.s_matrix, [[2.0, -1.0], [-1.0, 1.0]])
        eigs = np.sort(np.linalg.eigvalsh(blocks.s_matrix))
        assert np.allclose(eigs, [(3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2])

    def test_row_sum_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            g = random_digraph(rng, m, 0.4)
            j = int(rng.integers(1, m + 1))
            ag = augment(g, j, float(rng.uniform(0.2, 3.0)))
            blocks = grounded_blocks(ag)
            assert np.allclose(blocks.s_matrix @ np.ones(m), blocks.o_vector,
                               atol=1e-12)

    def test_positive_spectrum_iff_strongly_connected(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            g = random_digraph(rng, m, density=rng.uniform(0.1, 0.7))
            expected = is_strongly_connected(g)
            verdict = True
            for j in range(1, m + 1):
                s = grounded_blocks(augment(g, j, 1.0)).s_matrix
                if np.min(np.linalg.eigvals(s).real) <= 1e-10:
                    verdict = False
                    break
            assert verdict == expected


class TestWeightRules:
    def test_binary_empty_and_single(self):
        ag = augment(DirectedGraph(np.zeros((1, 1))), 1, 3.0)
        w = binary_weights(ag)
        assert w.sum() == 1.0 and w[1, 0] == 1.0

    def test_binary_counts_edges(self):
        gc = DirectedGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
        ag = augment(gc, 2, 1.0)
        assert binary_weights(ag).sum() == len(ag.edges)

    def test_normalized_in_rows(self):
        gc = DirectedGraph.from_edges(3, [(1, 3), (2, 3), (3, 1)])
        ag = augment(gc, 1, 1.0)
        w = normalized_in_weights(ag)
        # node 3 has two in-neighbors, node 1 has the leader plus node 3
        assert w[3, 1] == w[3, 2] == 0.5
        assert w[1, 0] == w[1, 3] == 0.5
        sums = w.sum(axis=1)
        assert all(s in (0.0, 1.0) or abs(s - 1.0) < 1e-12 for s in sums)

    def test_normalized_in_row_sums_random(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g = random_digraph(rng, int(rng.integers(1, 8)), 0.4)
            j = int(rng.integers(1, g.node_count + 1))
            w = normalized_in_weights(augment(g, j, 1.0))
            sums = w.sum(axis=1)
            assert np.all((np.abs(sums) < 1e-12) | (np.abs(sums - 1.0) < 1e-12))

    def test_normalized_out_shares(self):
        gc = DirectedGraph.from_edges(3, [(1, 2), (1, 3)])
        ag = augment(gc, 1, 1.0)
        w = normalized_out_weights(ag)
        assert w[2, 1] == w[3, 1] == 0.5
        assert w[1, 0] == 1.0  # the leader has a single out-edge

    def test_normalized_out_column_sums_random(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            g = random_digraph(rng, int(rng.integers(1, 8)), 0.4)
            j = int(rng.integers(1, g.node_count + 1))
            w = normalized_out_weights(augment(g, j, 1.0))
            sums = w.sum(axis=0)
            assert np.all((np.abs(sums) < 1e-12) | (np.abs(sums - 1.0) < 1e-12))


class TestAlgebraicConnectivity:
    def test_complete_graph(self):
        g = DirectedGraph(np.ones((3, 3)) - np.eye(3))
        assert algebraic_connectivity(g) == pytest.approx(3.0)

    def test_two_path(self):
        g = DirectedGraph.from_edges(2, [(1, 2), (2, 1)])
        assert algebraic_connectivity(g) == pytest.approx(2.0)

    def test_disconnected(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        assert algebraic_connectivity(DirectedGraph(w)) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry_enforced(self):
        with pytest.raises(SymmetryError):
            algebraic_connectivity(_cycle3())


class TestSerialization:
    def test_text_roundtrip(self):
        rng = np.random.default_rng(19)
        g = random_strongly_connected(rng, 5, 0.4)
        again = DirectedGraph.from_text(g.to_text())
        assert np.array_equal(g.weights, again.weights)

    def test_header_required(self):
        with pytest.raises(ValueError):
            DirectedGraph.from_text("1 2 1.0\n")
