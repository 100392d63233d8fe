import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from masobs.errors import ConnectivityError, DomainError, UnobservableError
from masobs.graphs import DirectedGraph, augment, binary_weights, grounded_partition
from masobs.mas import (MasModel, check_topological_consistency,
                        plant_derivative, plant_output)
from masobs.observer import (ObserverGains, assemble_error_dynamics,
                             closed_loop_matrices, consensus_weight_set,
                             coupling_gain_directed, coupling_gain_global,
                             coupling_gain_undirected,
                             design_gains, design_luenberger_gain,
                             error_derivative, error_dim,
                             error_disturbance_matrices, error_vector,
                             fit_decay_envelope, grounded_spectrum_bound_directed,
                             grounded_spectrum_bound_undirected, is_hurwitz,
                             iss_error_bound, observer_derivative,
                             observer_state_from_errors, validate_gains,
                             zero_observer_state)
from masobs.scenarios import (EXPERIMENT_KEYS, build_experiment, coupled_triple_gains,
                              coupled_triple_model)
from masobs.sim import resolve_gains
from masobs.synth import (random_connected_undirected, random_mas_model,
                          random_observable_pair, random_strongly_connected)


def _triple_with_gains():
    model = coupled_triple_model()
    gains, _ = resolve_gains(model, coupled_triple_gains())
    return model, gains


def _single_agent_model(a=0.3):
    return MasModel.build(
        a_diag=[[[a]]], c_diag=[[[1.0]]],
        communication=DirectedGraph(np.zeros((1, 1))))


def _multiset_close(got, expected, tol=1e-8):
    got = np.asarray(got)
    expected = np.asarray(expected)
    if got.shape != expected.shape:
        return False
    cost = np.abs(got[:, None] - expected[None, :])
    rows, cols = linear_sum_assignment(cost)
    return bool(np.all(cost[rows, cols] < tol))


class TestLuenbergerDesign:
    def test_reference_gain_makes_expected_loop(self):
        a = np.array([[1.2, 1.0], [0.0, 0.8]])
        f = np.diag([4.2, 4.8])
        loop = a - f @ np.eye(2)
        assert np.array_equal(loop, [[-3.0, 1.0], [0.0, -4.0]])
        assert is_hurwitz(loop)

    def test_scalar_margin(self):
        f = design_luenberger_gain([[0.0]], [[1.0]], margin=1.0)
        assert np.max(np.linalg.eigvals([[0.0]] - f @ np.array([[1.0]])).real) <= -1.0

    def test_random_pairs_meet_margin(self):
        rng = np.random.default_rng(21)
        pairs = [(np.zeros((3, 3)), np.eye(3), 1.0),
                 (np.diag([0.5, 0.5, -1.0]), np.eye(3), 1.5)]
        for _ in range(50):
            n = int(rng.integers(1, 5))
            p = int(rng.integers(1, n + 1))
            a, c = random_observable_pair(rng, n, p)
            pairs.append((a, c, float(rng.uniform(0.5, 2.0))))
        for a, c, margin in pairs:
            f = design_luenberger_gain(a, c, margin=margin)
            worst = np.max(np.linalg.eigvals(a - f @ c).real)
            assert worst <= -margin + 1e-6

    @pytest.mark.parametrize("margin", [0.0, -1.0, float("nan"), float("inf"), 1e308])
    def test_bad_margin_rejected(self, margin):
        with pytest.raises(DomainError):
            design_luenberger_gain([[0.0]], [[1.0]], margin=margin)

    def test_repeated_eigenvalues(self):
        # nilpotent block with a single output channel
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        c = np.array([[1.0, 0.0]])
        f = design_luenberger_gain(a, c, margin=1.0)
        assert np.max(np.linalg.eigvals(a - f @ c).real) <= -1.0 + 1e-9

    def test_unobservable_rejected(self):
        with pytest.raises(UnobservableError):
            design_luenberger_gain([[1.0]], [[0.0]])

    def test_deterministic(self):
        a = np.array([[1.2, 1.0], [0.0, 0.8]])
        f1 = design_luenberger_gain(a, np.eye(2))
        f2 = design_luenberger_gain(a, np.eye(2))
        assert np.array_equal(f1, f2)


class TestCouplingGainFormulas:
    def test_global_single_agent(self):
        model = _single_agent_model(0.3)
        weights = consensus_weight_set(model.communication_graph, "binary")
        assert coupling_gain_global(model, weights) == 1

    def test_global_on_triple_model_stabilizes(self):
        model = coupled_triple_model()
        weights = consensus_weight_set(model.communication_graph, "binary")
        mu = coupling_gain_global(model, weights)
        gains, _ = design_gains(model, weights="binary", mu=float(mu))
        assert is_hurwitz(assemble_error_dynamics(model, gains).r)

    def test_global_report_matches_formula(self):
        model = coupled_triple_model()
        gains, report = design_gains(model, weights="binary", mu="global")
        weights = consensus_weight_set(model.communication_graph, "binary")
        assert gains.mu == coupling_gain_global(model, weights)
        assert report["mu_bound"] == report["rho_max"] / report["min_grounded_eigenvalue"]
        assert report["min_grounded_eigenvalue"] == min(
            np.min(np.abs(np.linalg.eigvals(grounded_partition(weights[j]).s_matrix)))
            for j in model.agents)

    def test_global_rejects_disconnected(self):
        model = MasModel.build(
            a_diag=[[[0.5]], [[0.5]]], c_diag=[[[1.0]], [[1.0]]],
            communication=DirectedGraph.from_edges(2, [(1, 2)]))
        weights = consensus_weight_set(model.communication_graph, "binary")
        with pytest.raises(ConnectivityError):
            coupling_gain_global(model, weights)

    def test_undirected_formula(self):
        assert coupling_gain_undirected(1.2, 3) == 23
        assert coupling_gain_undirected(0.0, 5) == 1
        # for a cap of two the bound collapses to three times the radius
        assert coupling_gain_undirected(3.0, 2) == 10
        with pytest.raises(DomainError):
            coupling_gain_undirected(1.0, 1)
        with pytest.raises(DomainError):  # the float power overflows
            coupling_gain_undirected(1.2, 400)

    def test_directed_formula(self):
        bound = 1.2 / grounded_spectrum_bound_directed(4)
        assert bound == pytest.approx(574.1969, abs=2e-3)
        assert coupling_gain_directed(1.2, 4) == 575
        assert coupling_gain_directed(0.0, 4) == 1
        with pytest.raises(DomainError):  # 1 / 201! is below the float range
            coupling_gain_directed(1.2, 200)
        with pytest.raises(DomainError):  # the bound itself overflows to inf
            coupling_gain_directed(1.2, 169)

    def test_bound_functions(self):
        assert grounded_spectrum_bound_undirected(2.0, 2) == pytest.approx(1.0 / 3.0)
        assert grounded_spectrum_bound_undirected(1e12, 4) == pytest.approx(0.25, rel=1e-6)
        assert grounded_spectrum_bound_directed(1) == pytest.approx(0.5)
        values = [grounded_spectrum_bound_directed(m) for m in range(1, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_undirected_bound_holds_on_random_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m = int(rng.integers(2, 9))
            g = random_connected_undirected(rng, m)
            lam2 = np.sort(np.linalg.eigvalsh(
                np.diag(g.weights.sum(axis=1)) - g.weights))[1]
            bound = grounded_spectrum_bound_undirected(lam2, m)
            for j in range(1, m + 1):
                s = grounded_partition(binary_weights(augment(g, j, 1.0))).s_matrix
                assert np.min(np.linalg.eigvalsh(s)) >= bound - 1e-12

    def test_directed_bound_holds_on_random_graphs(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            m = int(rng.integers(1, 7))
            g = random_strongly_connected(rng, m)
            weights = consensus_weight_set(g, "normalized-in")
            bound = grounded_spectrum_bound_directed(m)
            for j in range(1, m + 1):
                s = grounded_partition(weights[j]).s_matrix
                assert np.min(np.abs(np.linalg.eigvals(s))) >= bound - 1e-12


class TestErrorDynamicsAssembly:
    def test_triple_dimension(self):
        model, gains = _triple_with_gains()
        dynamics = assemble_error_dynamics(model, gains)
        assert dynamics.r.shape == (16, 16)
        assert dynamics.ordering == (1, 2, 3)

    def test_single_agent_reduction(self):
        model = _single_agent_model(0.3)
        gains = ObserverGains(luenberger={1: [[2.0]]}, mu=5.0,
                              weights=consensus_weight_set(
                                  model.communication_graph, "binary"))
        dynamics = assemble_error_dynamics(model, gains)
        # diagonal: Luenberger loop and the leader-tracking estimator;
        # the auxiliary error feeds the estimator through mu * w10
        expected = np.array([[0.3 - 2.0, 0.0], [5.0 * 1.0, 0.3 - 5.0 * 1.0]])
        assert np.allclose(dynamics.t_blocks[1], expected)
        assert np.allclose(dynamics.r, expected)

    def test_zero_couplings_make_block_diagonal(self):
        model = MasModel.build(
            a_diag=[[[0.5]], [[0.7]]], c_diag=[[[1.0]], [[1.0]]],
            communication=DirectedGraph.from_edges(2, [(1, 2), (2, 1)]))
        gains, _ = design_gains(model, weights="binary", mu=10.0)
        dynamics = assemble_error_dynamics(model, gains)
        off = np.array(dynamics.r)
        off[:3, :3] = 0.0
        off[3:, 3:] = 0.0
        assert np.all(off == 0.0)

    def test_block_lower_triangular(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            model = random_mas_model(rng)
            gains, _ = design_gains(model, weights="binary", mu="global")
            dynamics = assemble_error_dynamics(model, gains)
            sizes = [(model.m + 1) * model.state_dims[j - 1] for j in dynamics.ordering]
            offsets = np.concatenate(([0], np.cumsum(sizes)))
            for a in range(model.m):
                for b in range(a + 1, model.m):
                    block = dynamics.r[offsets[a]:offsets[a + 1],
                                       offsets[b]:offsets[b + 1]]
                    assert np.all(block == 0.0)

    def test_consensus_block_spectrum_structure(self):
        # eigenvalues of kron(I, A) - mu kron(S, I) are all differences
        # lambda_p(A) - mu lambda_q(S)
        rng = np.random.default_rng(37)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            n_j = int(rng.integers(1, 4))
            g = random_strongly_connected(rng, m)
            mu = float(rng.uniform(0.5, 10.0))
            a_jj = rng.standard_normal((n_j, n_j))
            j = int(rng.integers(1, m + 1))
            s = grounded_partition(binary_weights(augment(g, j, 1.0))).s_matrix
            block = np.kron(np.eye(m), a_jj) - mu * np.kron(s, np.eye(n_j))
            got = np.linalg.eigvals(block)
            expected = np.array([lam_a - mu * lam_s
                                 for lam_a in np.linalg.eigvals(a_jj)
                                 for lam_s in np.linalg.eigvals(s)])
            assert _multiset_close(got, expected, tol=1e-8)


def _plant_leak(model, gains):
    """Largest plant-column entry of the error rows of T M T^-1, relative to
    max|M|, where T maps z to [x; z_r - x] for every estimate entry z_r."""
    m_mat = closed_loop_matrices(model, gains)[0]
    n = model.n
    est = np.arange(n, m_mat.shape[0])
    t = np.eye(len(m_mat))
    t[est, est % n] = -1.0
    t_inv = np.eye(len(m_mat))
    t_inv[est, est % n] = 1.0
    leak = (t @ m_mat @ t_inv)[n:, :n]
    return np.max(np.abs(leak)) / np.max(np.abs(m_mat))


class TestErrorRowsIgnorePlant:
    """R can be read off M by index only because the error rows of M, taken
    in error coordinates, have no plant columns: the observer reproduces x
    when every estimate error is zero."""

    @pytest.mark.parametrize("key", EXPERIMENT_KEYS)
    def test_shipped_models(self, key):
        cfg = build_experiment(key).config
        gains, _ = resolve_gains(cfg.model, cfg.policy)
        assert _plant_leak(cfg.model, gains) <= 1e-12

    @pytest.mark.parametrize("rule", ["binary", "normalized-in", "normalized-out"])
    @pytest.mark.parametrize("mode", ["full", "own-only"])
    def test_random_models(self, rule, mode):
        rng = np.random.default_rng(59)
        for _ in range(8):
            model = random_mas_model(rng)
            gains, _ = design_gains(model, weights=rule, mu="global", input_mode=mode)
            assert _plant_leak(model, gains) <= 1e-12


class TestStabilizability:
    def test_forward_random_models(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            model = random_mas_model(rng)
            gains, _ = design_gains(model, weights="binary", mu="global")
            assert is_hurwitz(assemble_error_dynamics(model, gains).r)

    def test_converse_disconnected_models(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            model = random_mas_model(rng, unstable_diagonals=True,
                                     strongly_connected=False)
            weights = consensus_weight_set(model.communication_graph, "binary")
            luenberger = {i: design_luenberger_gain(model.a_blocks[(i, i)],
                                                    model.c_blocks[(i, i)])
                          for i in model.agents}
            for mu in (1.0, 10.0, 100.0, 1000.0):
                gains = ObserverGains(luenberger=luenberger, mu=mu, weights=weights)
                assert not is_hurwitz(assemble_error_dynamics(model, gains).r)


class TestIsHurwitz:
    def test_negative_identity(self):
        assert is_hurwitz(-np.eye(3))

    def test_unstable_block(self):
        assert not is_hurwitz([[1.2, 1.0], [0.0, 0.8]])

    def test_rotation_generator(self):
        assert not is_hurwitz([[0.0, 1.0], [-1.0, 0.0]])


class TestObserverDerivative:
    def test_truth_is_fixed_point(self):
        model, gains = _triple_with_gains()
        rng = np.random.default_rng(47)
        x = rng.standard_normal(model.n)
        state = observer_state_from_errors(model, np.zeros(error_dim(model)), x)
        y = plant_output(model, x)
        ds = observer_derivative(model, gains, state, None, y)
        dx = plant_derivative(model, x, None)
        for i in model.agents:
            assert np.allclose(ds.xhat[i], dx, atol=1e-12)
            assert np.allclose(ds.xbar[i], dx[model.state_slice(i)], atol=1e-12)

    def test_jacobian_matches_assembled_matrix(self):
        model, gains = _triple_with_gains()
        r = assemble_error_dynamics(model, gains).r
        rng = np.random.default_rng(53)
        x = rng.standard_normal(model.n)
        base = rng.standard_normal(error_dim(model))
        ordering = check_topological_consistency(model)
        h = 1e-6
        jac = np.zeros_like(r)
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
            jac[:, c] = (fp - fm) / (2 * h)
        assert np.max(np.abs(jac - r)) < 1e-6

    def test_derivative_affine_in_state_and_inputs(self):
        rng = np.random.default_rng(59)
        model = random_mas_model(rng, max_agents=3)
        gains, _ = design_gains(model, weights="binary", mu="global")
        x = rng.standard_normal(model.n)
        ordering = check_topological_consistency(model)
        e1 = rng.standard_normal(error_dim(model))
        e2 = rng.standard_normal(error_dim(model))
        u = rng.standard_normal(model.k)

        def f(e, u_vec):
            return error_derivative(model, gains,
                                    observer_state_from_errors(model, e, x, ordering),
                                    x, u=u_vec, ordering=ordering)

        left = f(e1, u) + f(e2, u)
        right = f(e1 + e2, u) + f(np.zeros_like(e1), u)
        assert np.allclose(left, right, atol=1e-9)

    def test_error_vector_roundtrip(self):
        model, _ = _triple_with_gains()
        rng = np.random.default_rng(61)
        x = rng.standard_normal(model.n)
        errors = rng.standard_normal(error_dim(model))
        state = observer_state_from_errors(model, errors, x)
        assert np.allclose(error_vector(model, state, x), errors, atol=1e-12)


class TestOwnOnlyInputs:
    def test_unknown_input_map_vanishes_with_full_information(self):
        model = MasModel.build(
            a_diag=[[[0.2]], [[0.4]]], c_diag=[[[1.0]], [[1.0]]],
            b_diag=[[[1.0]], [[1.0]]],
            communication=DirectedGraph.from_edges(2, [(1, 2), (2, 1)]))
        gains, _ = design_gains(model, weights="binary", mu=5.0, input_mode="full")
        maps = error_disturbance_matrices(model, gains)
        assert np.allclose(maps["unknown_input"], 0.0, atol=1e-12)

    def test_unknown_input_map_hits_cross_estimates_only(self):
        model = MasModel.build(
            a_diag=[[[0.2]], [[0.4]]], c_diag=[[[1.0]], [[1.0]]],
            b_diag=[[[1.0]], [[1.0]]],
            communication=DirectedGraph.from_edges(2, [(1, 2), (2, 1)]))
        gains, _ = design_gains(model, weights="binary", mu=5.0,
                                input_mode="own-only")
        g_u = error_disturbance_matrices(model, gains)["unknown_input"]
        assert not np.allclose(g_u, 0.0)
        # ordering (1, 2); per target j the rows are [bar_j, e_j^1, e_j^2];
        # agent j's own rows never see the missing-input disturbance
        assert np.allclose(g_u[0], 0.0)          # bar error of target 1
        assert np.allclose(g_u[1], 0.0)          # e_1^(1): own input known
        assert g_u[2, 0] == pytest.approx(-1.0)  # e_1^(2) misses B u_1
        assert np.allclose(g_u[3], 0.0)
        assert g_u[4, 1] == pytest.approx(-1.0)  # e_2^(1) misses B u_2
        assert np.allclose(g_u[5], 0.0)          # e_2^(2): own input known

    def test_process_noise_hits_every_row_of_its_target(self):
        model = _single_agent_model(0.0)
        gains, _ = design_gains(model, weights="binary", mu=1.0)
        g_w = error_disturbance_matrices(model, gains)["process"]
        assert np.allclose(g_w, [[-1.0], [-1.0]])


class TestIssBound:
    def test_limit_and_initial_values(self):
        assert iss_error_bound(2.0, 0.5, 3.0, 1.0, 0.0, 1e9) == pytest.approx(0.0, abs=1e-12)
        assert iss_error_bound(2.0, 0.5, 3.0, 2.0, 0.25, 0.0) == \
            pytest.approx(2.0 * 3.0 + 2.0 * 2.0 * 0.25 / 0.5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            iss_error_bound(2.0, 0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            iss_error_bound(0.5, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_envelope_fit_is_valid(self):
        model, gains = _triple_with_gains()
        r = assemble_error_dynamics(model, gains).r
        kappa, eta = fit_decay_envelope(r)
        assert kappa >= 1.0 and eta > 0.0
        import scipy.linalg
        for t in np.linspace(0.0, 20.0, 101):
            assert np.linalg.norm(scipy.linalg.expm(r * t), 2) <= \
                kappa * np.exp(-eta * t) * (1.0 + 1e-9)

    def test_envelope_rejects_unstable(self):
        with pytest.raises(DomainError):
            fit_decay_envelope(np.array([[0.1]]))


class TestGainValidation:
    def test_missing_gain_rejected(self):
        model, gains = _triple_with_gains()
        bad = ObserverGains(luenberger={1: gains.luenberger[1]}, mu=1.0,
                            weights=dict(gains.weights))
        with pytest.raises(DomainError):
            validate_gains(model, bad)

    def test_non_hurwitz_loop_rejected(self):
        model = _single_agent_model(1.0)
        weights = consensus_weight_set(model.communication_graph, "binary")
        with pytest.raises(DomainError):
            validate_gains(model, ObserverGains(luenberger={1: [[0.5]]},
                                                mu=1.0, weights=weights))

    def test_zero_state_returns_zero(self):
        model, gains = _triple_with_gains()
        state = zero_observer_state(model)
        ds = observer_derivative(model, gains, state, None, np.zeros(model.p))
        assert all(np.allclose(v, 0.0) for v in ds.xhat.values())
        assert all(np.allclose(v, 0.0) for v in ds.xbar.values())
