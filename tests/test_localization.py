import numpy as np
import pytest

from masobs.errors import AssumptionError, DimensionError, LayerError
from masobs.graphs import DirectedGraph, topological_ordering
from masobs.localization import (AgentKinematics, DagcAssignment,
                                 SensingGraph, assign_layers,
                                 build_localization_mas, build_measurement_matrix,
                                 check_agent_observability,
                                 check_global_observability, dagc,
                                 localization_gains,
                                 rank_observable_agents, rank_observable_globally,
                                 relative_rows_rank_deficient)
from masobs.mas import (check_node_observability, check_topological_consistency,
                        numerical_rank, plant_derivative, plant_output, stack)
from masobs.observer import (assemble_error_dynamics, error_dim,
                             error_derivative, is_hurwitz, observer_derivative,
                             observer_state_from_errors)
from masobs.scenarios import RING_IDS, ring_communication, ring_sensing_graph
from masobs.synth import random_sensing_graph


class TestMeasurementMatrix:
    def test_single_relative_edge(self):
        sg = SensingGraph(2, ((1, 2),), ())
        c = build_measurement_matrix(sg, h=2)
        assert np.array_equal(c, [[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])

    def test_single_anchor(self):
        sg = SensingGraph(1, (), (1,))
        c = build_measurement_matrix(sg, h=2)
        assert np.array_equal(c, [[-1.0, 0.0], [0.0, -1.0]])

    def test_anchored_pair_full_rank(self):
        sg = SensingGraph(2, ((1, 2),), (1,))
        c = build_measurement_matrix(sg, h=2)
        assert c.shape == (4, 4)
        assert numerical_rank(c) == 4

    def test_relative_rows_annihilate_translations(self):
        assert relative_rows_rank_deficient(SensingGraph(2, ((1, 2),), ()))
        full = SensingGraph(4, tuple((a, b) for a in range(1, 5)
                                     for b in range(1, 5) if a != b), ())
        assert relative_rows_rank_deficient(full)
        c_o = build_measurement_matrix(SensingGraph(4, full.relative_edges, ()), h=2)
        assert numerical_rank(c_o) < 8
        assert relative_rows_rank_deficient(SensingGraph(3, (), (1,)))  # no rows


class TestObservabilityConditions:
    def test_ring_is_observable(self):
        sg = ring_sensing_graph()
        assert check_global_observability(sg)
        assert all(check_agent_observability(sg))

    def test_disconnected_component_fails(self):
        sg = SensingGraph(4, ((1, 2), (3, 4)), (1,))
        assert not check_global_observability(sg)
        assert numerical_rank(build_measurement_matrix(sg, 2)) < 8

    def test_single_anchored_agent(self):
        assert check_global_observability(SensingGraph(1, (), (1,)))

    def test_agent_without_measurement(self):
        sg = SensingGraph(2, ((2, 1),), (1,))
        assert check_agent_observability(sg) == [True, False]

    def test_graph_conditions_match_rank_oracles(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            sg = random_sensing_graph(rng, m, connected=bool(rng.random() < 0.5),
                                      ensure_no_sources=False,
                                      anchor_prob=float(rng.uniform(0.0, 0.6)))
            assert check_global_observability(sg) == rank_observable_globally(sg)
            assert check_agent_observability(sg) == rank_observable_agents(sg)


class TestLayers:
    def test_all_anchored(self):
        sg = SensingGraph(3, ((1, 2), (2, 3)), (1, 2, 3))
        assert assign_layers(sg) == {1: 0, 2: 0, 3: 0}

    def test_chain(self):
        sg = SensingGraph(3, ((1, 2), (2, 3)), (1,))
        assert assign_layers(sg) == {1: 0, 2: 1, 3: 2}

    def test_ring_layers(self):
        layers = assign_layers(ring_sensing_graph())
        assert layers == {1: 1, 2: 0, 3: 1, 4: 2, 5: 3, 6: 2}

    def test_unreachable_agent(self):
        with pytest.raises(LayerError) as excinfo:
            assign_layers(SensingGraph(3, ((1, 2),), (1,)))
        assert excinfo.value.unreachable == (3,)


class TestDagc:
    def test_triangle_orientation_by_hand(self):
        sg = SensingGraph(3, ((1, 2), (2, 3), (3, 1)), (1,))
        result = dagc(sg, ids={1: 5, 2: 3, 3: 9})
        assert result.layers == {1: 0, 2: 1, 3: 1}
        # pair {1,2}: layer 1 beats 0; pair {1,3}: same; pair {2,3}: id 9 > 3
        assert set(result.oriented_edges) == {(1, 2), (1, 3), (2, 3)}
        topological_ordering(DirectedGraph.from_edges(3, result.oriented_edges))

    def test_id_collision_increments_second_agent(self):
        sg = SensingGraph(2, ((1, 2),), (1, 2))
        result = dagc(sg, ids={1: 7, 2: 7})
        assert result.ids == {1: 7, 2: 8}
        assert result.id_fix_rounds == 1
        assert result.oriented_edges == ((1, 2),)

    def test_cascading_collisions_settle(self):
        sg = SensingGraph(3, ((1, 2), (2, 3)), (1, 2, 3))
        result = dagc(sg, ids={1: 7, 2: 7, 3: 8})
        assert sorted(result.ids.values()) == [7, 8, 9]

    def test_orientation_idempotent(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            sg = random_sensing_graph(rng, int(rng.integers(2, 7)))
            first = dagc(sg, seed=5)
            again = dagc(first.as_sensing_graph(), ids=first.ids)
            assert again.oriented_edges == first.oriented_edges

    def test_random_soundness(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            sg = random_sensing_graph(rng, m)
            result = dagc(sg, seed=int(rng.integers(0, 1000)))
            pairs_in = {(min(e), max(e)) for e in sg.relative_edges}
            pairs_out = {(min(e), max(e)) for e in result.oriented_edges}
            assert pairs_in == pairs_out
            assert len(result.oriented_edges) == len(sg.relative_edges)
            topological_ordering(DirectedGraph.from_edges(m, result.oriented_edges))
            oriented = result.as_sensing_graph()
            assert check_global_observability(oriented)
            assert all(check_agent_observability(oriented))
            assert {a for a, lay in result.layers.items() if lay == 0} == set(sg.anchors)

    def test_deterministic_under_pinned_ids(self):
        sg = ring_sensing_graph()
        a = dagc(sg, ids=RING_IDS)
        b = dagc(sg, ids=RING_IDS)
        assert a == b


class TestLocalizationModels:
    def test_single_anchored_agent_model(self):
        assignment = dagc(SensingGraph(1, (), (1,)), ids={1: 1})
        model = build_localization_mas(assignment, DirectedGraph(np.zeros((1, 1))))
        assert np.array_equal(model.a_blocks[(1, 1)], np.zeros((2, 2)))
        assert np.array_equal(model.c_blocks[(1, 1)], -np.eye(2))
        assert check_node_observability(model) == [True]

    def test_double_integrator_nilpotent(self):
        assignment = dagc(ring_sensing_graph(), ids=RING_IDS)
        model = build_localization_mas(assignment, ring_communication(),
                                       order="double", h=2)
        a = stack(model).a
        assert np.array_equal(a @ a, np.zeros_like(a))
        # velocity integrates into position, input into velocity
        x = np.zeros(model.n)
        x[model.state_slice(1)] = [1.0, 2.0, 0.5, -0.5]
        dx = plant_derivative(model, x, np.zeros(model.k))
        assert np.array_equal(dx[model.state_slice(1)], [0.5, -0.5, 0.0, 0.0])

    def test_ring_model_passes_structural_checks(self):
        assignment = dagc(ring_sensing_graph(), ids=RING_IDS)
        model = build_localization_mas(assignment, ring_communication())
        assert all(check_node_observability(model))
        check_topological_consistency(model)
        assert len(model.dynamics_graph.edges) == 0

    def test_source_agent_rejected(self):
        assignment = DagcAssignment(
            agent_count=2, anchors=(1,), ids={1: 1, 2: 2}, layers={1: 0, 2: 1},
            oriented_edges=((2, 1),), id_fix_rounds=0)
        with pytest.raises(AssumptionError):
            build_localization_mas(assignment, DirectedGraph.from_edges(
                2, [(1, 2), (2, 1)]))


class TestAgentKinematics:
    def test_single_stacks_positions(self):
        kin = AgentKinematics(order="single", h=2,
                              positions=((1.0, 2.0), (3.0, 4.0)))
        assert np.array_equal(kin.stacked_state(), [1.0, 2.0, 3.0, 4.0])

    def test_double_defaults_to_rest(self):
        kin = AgentKinematics(order="double", h=2, positions=((1.0, 2.0),))
        assert np.array_equal(kin.stacked_state(), [1.0, 2.0, 0.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            AgentKinematics(order="single", h=3, positions=((1.0, 2.0),))
        with pytest.raises(ValueError):
            AgentKinematics(order="single", h=2, positions=((1.0, 2.0),),
                            velocities=((0.0, 0.0),))


class TestLocalizationObserver:
    def _ring_setup(self):
        assignment = dagc(ring_sensing_graph(), ids=RING_IDS)
        model = build_localization_mas(assignment, ring_communication())
        gains = localization_gains(model, gain_block=[[-1.0, 0.0], [0.0, -0.5]])
        return model, gains

    def test_gains_stabilize(self):
        model, gains = self._ring_setup()
        assert gains.mu == 1.0
        dynamics = assemble_error_dynamics(model, gains)
        assert is_hurwitz(dynamics.r)

    def test_agent_owning_two_measurements_gets_wide_gain(self):
        model, gains = self._ring_setup()
        owners = {i: model.output_dims[i - 1] // 2 for i in model.agents}
        assert owners[5] == 2  # deepest agent keeps both of its ring pairs
        assert gains.luenberger[5].shape == (2, 4)

    def test_truth_fixed_point(self):
        model, gains = self._ring_setup()
        rng = np.random.default_rng(83)
        x = rng.standard_normal(model.n)
        u = rng.standard_normal(model.k)
        state = observer_state_from_errors(model, np.zeros(error_dim(model)), x)
        ds = observer_derivative(model, gains, state, u, plant_output(model, x))
        dx = plant_derivative(model, x, u)
        for i in model.agents:
            assert np.allclose(ds.xhat[i], dx, atol=1e-12)

    def test_disconnected_communication_breaks_stability(self):
        # negating the communication condition leaves a zero consensus mode
        assignment = dagc(ring_sensing_graph(), ids=RING_IDS)
        weak = DirectedGraph.from_edges(6, [(i, i % 6 + 1) for i in range(1, 6)])
        model = build_localization_mas(assignment, weak)
        gains = localization_gains(model, gain_block=[[-1.0, 0.0], [0.0, -0.5]])
        assert not is_hurwitz(assemble_error_dynamics(model, gains).r)

    def test_source_agent_admits_no_stabilizing_gain(self):
        # an agent with no measurement has an empty observation block, so its
        # own-loop matrix equals the integrator block for every gain choice
        sg = SensingGraph(2, ((2, 1),), (1,))
        assert check_agent_observability(sg) == [True, False]
        rows = sg.measurements_of(2)
        assert rows == []
        loop = np.zeros((2, 2))  # A - F C with zero-width C, any F
        assert not is_hurwitz(loop)

    def test_acyclic_full_ownership_implies_anchored_connectivity(self):
        # once the oriented graph is acyclic and every agent owns a
        # measurement, every backward chain ends at an anchor, so the
        # skeleton-plus-origin is automatically connected
        rng = np.random.default_rng(97)
        for _ in range(50):
            sg = random_sensing_graph(rng, int(rng.integers(2, 7)))
            oriented = dagc(sg, seed=int(rng.integers(0, 100))).as_sensing_graph()
            if all(check_agent_observability(oriented)):
                assert check_global_observability(oriented)

    def test_jacobian_matches_assembled_matrix(self):
        model, gains = self._ring_setup()
        r = assemble_error_dynamics(model, gains).r
        rng = np.random.default_rng(89)
        x = rng.standard_normal(model.n)
        base = rng.standard_normal(error_dim(model))
        ordering = check_topological_consistency(model)
        h = 1e-6
        worst = 0.0
        for c in range(r.shape[0]):
            up = base.copy()
            up[c] += h
            dn = base.copy()
            dn[c] -= h
            fp = error_derivative(model, gains,
                                  observer_state_from_errors(model, up, x, ordering),
                                  x, ordering=ordering)
            fm = error_derivative(model, gains,
                                  observer_state_from_errors(model, dn, x, ordering),
                                  x, ordering=ordering)
            worst = max(worst, float(np.max(np.abs((fp - fm) / (2 * h) - r[:, c]))))
        assert worst < 1e-6
