import numpy as np
import pytest

from masobs import mas as mas_mod
from masobs.errors import AssumptionError, DimensionError
from masobs.graphs import DirectedGraph
from masobs.mas import (MasModel, check_node_observability,
                        check_topological_consistency, is_observable,
                        load_model, model_from_json, model_to_json,
                        plant_derivative, plant_output, save_model, stack)
from masobs.scenarios import coupled_triple_model
from masobs.synth import random_mas_model


def _single_integrator():
    return MasModel.build(
        a_diag=[[[0.0]]], c_diag=[[[1.0]]], b_diag=[[[1.0]]],
        communication=DirectedGraph(np.zeros((1, 1))))


def _cascade_model():
    # four scalar agents, coupling structure 4 -> 3 -> 2 -> 1 (plus 3 -> 1)
    gc = DirectedGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    return MasModel.build(
        a_diag=[[[0.5]], [[0.4]], [[0.3]], [[0.2]]],
        c_diag=[[[1.0]]] * 4,
        communication=gc,
        a_couplings={(1, 2): [[1.0]], (1, 3): [[2.0]], (2, 3): [[3.0]], (3, 4): [[4.0]]},
        c_couplings={(1, 2): [[1.0]], (2, 3): [[1.0]], (3, 4): [[1.0]]},
    )


class TestStack:
    def test_triple_coupling_row(self):
        stacked = stack(coupled_triple_model())
        assert stacked.a.shape == (4, 4)
        assert np.array_equal(stacked.a[2, 0:2], [0.8, 1.0])
        assert stacked.a[2, 2] == 1.03
        assert stacked.a[3, 3] == 0.3
        assert np.array_equal(stacked.c[2, 0:2], [0.8, 1.2])

    def test_single_agent(self):
        model = _single_integrator()
        stacked = stack(model)
        assert np.array_equal(stacked.a, model.a_blocks[(1, 1)])
        assert np.array_equal(stacked.c, model.c_blocks[(1, 1)])

    def test_cascade_is_triangular_under_ordering(self):
        model = _cascade_model()
        order = check_topological_consistency(model)
        assert order == (4, 3, 2, 1)
        perm = [o - 1 for o in order]
        permuted = stack(model).a[np.ix_(perm, perm)]
        assert np.allclose(permuted, np.tril(permuted))

    def test_block_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            model = random_mas_model(rng)
            stacked = stack(model)
            for (i, j), block in model.a_blocks.items():
                assert np.array_equal(
                    stacked.a[model.state_slice(i), model.state_slice(j)], block)
            for (i, j), block in model.c_blocks.items():
                assert np.array_equal(
                    stacked.c[model.output_slice(i), model.state_slice(j)], block)
            for i in model.agents:
                assert np.array_equal(
                    stacked.b[model.state_slice(i), model.input_slice(i)],
                    model.b_blocks[i])

    def test_inconsistent_blocks_rejected(self):
        with pytest.raises(DimensionError):
            MasModel.build(
                a_diag=[[[1.0]], [[1.0, 0.0], [0.0, 1.0]]],
                c_diag=[[[1.0]], [[1.0]]],
                communication=DirectedGraph.from_edges(2, [(1, 2), (2, 1)]),
                a_couplings={(2, 1): [[1.0, 2.0]]},
            )


class TestDerivedGraphs:
    def test_edges_are_the_coupling_keys(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            model = random_mas_model(rng)
            for graph, blocks in ((model.dynamics_graph, model.a_blocks),
                                  (model.sensing_graph, model.c_blocks)):
                assert graph.node_count == model.m
                assert set(graph.edges) == {(j, i) for i, j in blocks if i != j}

    @pytest.mark.parametrize("nodes", [2, 4])
    def test_communication_graph_of_wrong_size(self, nodes):
        with pytest.raises(DimensionError):
            MasModel.build(
                a_diag=[[[0.5]], [[0.4]], [[0.3]]], c_diag=[[[1.0]]] * 3,
                communication=DirectedGraph.from_edges(
                    nodes, [(i, i % nodes + 1) for i in range(1, nodes + 1)]),
                a_couplings={(2, 1): [[1.0]], (3, 2): [[1.0]]})

    def test_zero_coupling_adds_no_edge(self):
        model = MasModel.build(
            a_diag=[[[0.5]], [[0.4]]], c_diag=[[[1.0]]] * 2,
            communication=DirectedGraph.from_edges(2, [(1, 2), (2, 1)]),
            a_couplings={(2, 1): [[0.0]]}, c_couplings={(2, 1): [[1.0]]})
        assert model.dynamics_graph.edges == frozenset()
        assert model.sensing_graph.edges == frozenset({(1, 2)})


class TestNodeObservability:
    def test_triple_agents_observable(self):
        assert check_node_observability(coupled_triple_model()) == [True, True, True]

    def test_zero_output_unobservable(self):
        model = MasModel.build(
            a_diag=[[[1.0]]], c_diag=[[[0.0]]],
            communication=DirectedGraph(np.zeros((1, 1))))
        assert check_node_observability(model) == [False]

    def test_scalar_pair(self):
        assert is_observable([[1.03]], [[1.0]])


class TestTopologicalConsistency:
    def test_cascade(self):
        assert check_topological_consistency(_cascade_model()) == (4, 3, 2, 1)

    def test_conflicting_graphs_raise(self):
        model = MasModel.build(
            a_diag=[[[0.5]], [[0.4]]],
            c_diag=[[[1.0]], [[1.0]]],
            communication=DirectedGraph.from_edges(2, [(1, 2), (2, 1)]),
            a_couplings={(2, 1): [[1.0]]},
            c_couplings={(1, 2): [[1.0]]},
        )
        with pytest.raises(AssumptionError):
            check_topological_consistency(model)

    def test_empty_graphs_identity_ordering(self):
        model = MasModel.build(
            a_diag=[[[0.1]], [[0.2]], [[0.3]]],
            c_diag=[[[1.0]]] * 3,
            communication=DirectedGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)]))
        assert check_topological_consistency(model) == (1, 2, 3)


class TestPlantEvaluation:
    def test_zero_state(self):
        model = coupled_triple_model()
        assert np.array_equal(plant_derivative(model, np.zeros(4)), np.zeros(4))
        assert np.array_equal(plant_output(model, np.zeros(4)), np.zeros(4))

    def test_blockwise_matches_stacked(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            model = random_mas_model(rng)
            stacked = stack(model)
            x = rng.standard_normal(model.n)
            u = rng.standard_normal(model.k)
            assert np.allclose(plant_derivative(model, x, u),
                               stacked.a @ x + stacked.b @ u, atol=1e-12)
            assert np.allclose(plant_output(model, x), stacked.c @ x, atol=1e-12)

    def test_single_integrator_follows_input(self):
        model = _single_integrator()
        assert plant_derivative(model, np.zeros(1), [2.5]) == pytest.approx([2.5])

    def test_dimension_errors(self):
        model = coupled_triple_model()
        with pytest.raises(DimensionError):
            plant_derivative(model, np.zeros(3))
        with pytest.raises(DimensionError):
            plant_output(model, np.zeros(5))


class TestJointObservability:
    def test_structural_assumptions_imply_joint_observability(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            model = random_mas_model(rng, max_agents=5, max_state=3)
            assert all(check_node_observability(model))
            check_topological_consistency(model)
            stacked = stack(model)
            obs = mas_mod.observability_matrix(stacked.a, stacked.c)
            assert mas_mod.numerical_rank(obs) == model.n


class TestModelFiles:
    def test_json_roundtrip_bit_exact(self, tmp_path):
        model = coupled_triple_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert np.array_equal(stack(model).a, stack(again).a)
        assert np.array_equal(stack(model).c, stack(again).c)
        assert model.communication_graph.edges == again.communication_graph.edges
        # decimal literals survive a second roundtrip byte for byte
        twice = tmp_path / "model2.json"
        save_model(again, twice)
        assert path.read_text() == twice.read_text()

    def test_edge_lists_validated(self):
        payload = model_to_json(coupled_triple_model())
        payload["sensing_edges"] = [[3, 1]]
        with pytest.raises(AssumptionError):
            model_from_json(payload)

    def test_communication_graph_by_file_reference(self, tmp_path):
        model = coupled_triple_model()
        graph_path = tmp_path / "gc.txt"
        graph_path.write_text(model.communication_graph.to_text())
        payload = model_to_json(model)
        payload["communication"] = {"graph_file": str(graph_path)}
        again = model_from_json(payload)
        assert again.communication_graph.edges == model.communication_graph.edges

    @pytest.mark.parametrize("by_file", [False, True], ids=["inline", "graph-file"])
    def test_communication_node_count_must_equal_m(self, tmp_path, by_file):
        # refused before a weight matrix of that size is allocated
        payload = model_to_json(coupled_triple_model())
        payload["communication"]["nodes"] = 100_000_000
        if by_file:
            graph_path = tmp_path / "gc.txt"
            graph_path.write_text("nodes 100000000\n1 2 1.0\n")
            payload["communication"] = {"graph_file": str(graph_path)}
        with pytest.raises(DimensionError, match="100000000 nodes for 3 agents"):
            model_from_json(payload)
