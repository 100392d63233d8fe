import os
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from masobs import sim as sim_mod
from masobs.errors import (ConnectivityError, DimensionError, DomainError,
                           NonFiniteError)
from masobs.graphs import DirectedGraph
from masobs.mas import (MasModel, check_topological_consistency, plant_derivative,
                        plant_output)
from masobs.observer import (ObserverState, assemble_error_dynamics,
                             closed_loop_matrices, design_gains, error_derivative,
                             error_dim, error_disturbance_matrices, fit_decay_envelope,
                             observer_derivative, zero_observer_state)
from masobs.scenarios import (coupled_triple_model,
                              coupled_triple_scenario, plugin_base_model,
                              plugin_join_scenario, plugin_leave_scenario,
                              plugin_policy, ring_localization_scenario)
from masobs.sim import (ConstantInput, GainPolicy, JoinEvent, LeaveEvent,
                        NoiseSpec, PiecewiseInput, ScenarioConfig, SimulationTrace,
                        SinusoidInput, apply_event, check_exponential_envelope, error_norms,
                        read_trace_csv, resolve_gains, rk4_step_map,
                        run_scenario, scenario_from_json, scenario_to_json,
                        trace_columns, write_metadata,
                        write_trace_csv)
from masobs.synth import random_mas_model


def _short_triple(t_end=3.0, **kwargs):
    defaults = dict(noise=False, t_end=t_end, dt=1e-3)
    defaults.update(kwargs)
    return coupled_triple_scenario(**defaults)


def _random_model_with_inputs(rng):
    """Seeded random model whose agents have zero to two input channels."""
    base = random_mas_model(rng, max_agents=4)
    return MasModel.build(
        [base.a_blocks[(i, i)] for i in base.agents],
        [base.c_blocks[(i, i)] for i in base.agents],
        communication=base.communication_graph,
        b_diag=[rng.standard_normal((n_i, int(rng.integers(0, 3))))
                for n_i in base.state_dims],
        a_couplings={key: blk for key, blk in base.a_blocks.items() if key[0] != key[1]},
        c_couplings={key: blk for key, blk in base.c_blocks.items() if key[0] != key[1]})


def _repr_trace(rows):
    """Hand-built trace in which every awkward float lands in every column."""
    values = [np.nan, -0.0, 0.1, 1e16, 1e-05, 5e-324]
    cells = np.resize(values, (rows, 7))
    return SimulationTrace(
        labels=(1,), state_dims={1: 1}, table=cells, times=cells[:, 0], x=cells[:, 1:2],
        xbar=cells[:, 2:3], xhat={1: cells[:, 3:4]}, pair_errors={(1, 1): cells[:, 4]},
        bar_errors={1: cells[:, 5]}, total_error=cells[:, 6], events=[], gain_log=[],
        meta={})


def _reference_csv(trace, subsample):
    """The trace file's bytes from a one-value-at-a-time reference writer."""
    cells = trace.table
    rows = list(cells[::subsample])
    if (len(cells) - 1) % subsample:
        rows.append(cells[-1])
    lines = [",".join(trace_columns(trace))]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


class TestStepMap:
    @staticmethod
    def _steps(m_mat, x, dt, count):
        d = rk4_step_map(np.array(m_mat, float), dt, np.zeros((len(x), 0)))[0]
        for _ in range(count):
            x = x + d @ x
        return x

    def test_constant_state(self):
        x = np.array([1.0, -2.0])
        assert np.array_equal(self._steps(np.zeros((2, 2)), x, 0.1, 1), x)

    def test_scalar_decay_matches_closed_form(self):
        x = self._steps([[-1.0]], np.array([1.0]), 0.1, 100)
        assert abs(x[0] - np.exp(-10.0)) < 1e-8

    def test_linear_system_matches_matrix_exponential(self):
        a = np.array([[1.2, 1.0], [0.0, 0.8]])
        x = self._steps(a, np.array([0.5, -0.5]), 1e-3, 1000)
        expected = scipy.linalg.expm(a) @ np.array([0.5, -0.5])
        assert np.max(np.abs(x - expected)) < 1e-10 * np.max(np.abs(expected)) + 1e-12


def _stacked_input(model, inputs, t):
    u = np.zeros(model.k)
    for lab, sig in (inputs or {}).items():
        u[model.input_slice(lab)] = sig.evaluate(t)
    return u


def _reference_states(cfg):
    """Classical RK4 over ``closed_loop_matrices``, four stage evaluations
    per step and noise drawn per step with ``Generator.uniform``; returns
    the segment state z, with its labels and model, at every recorded step.
    ``cfg.inputs`` is read by agent index, which equals the label only until
    the first event, so configs with events here carry no inputs."""
    model, policy, labels = cfg.model, cfg.policy, tuple(cfg.model.agents)
    gains, _ = resolve_gains(model, policy)
    rng = np.random.default_rng(cfg.seed)
    z = np.zeros((model.m + 2) * model.n)
    z[:model.n] = cfg.initial_state
    steps = int(round(cfg.t_end / cfg.dt))
    pending = {int(round(e.time / cfg.dt)): e for e in cfg.events}
    out = {}
    for k in range(steps + 1):
        if k in pending:
            model, policy, gains, z, labels, _ = apply_event(
                model, policy, z, pending[k], labels)
        if k % cfg.record_every == 0 or k in pending or k == steps:
            out[k] = (labels, model, z.copy())
        if k == steps:
            return out
        m_mat, g_u, g_w, g_v = closed_loop_matrices(model, gains)
        noise = np.zeros(len(z))
        if cfg.noise.process > 0:
            noise += g_w @ rng.uniform(-cfg.noise.process, cfg.noise.process, model.n)
        if cfg.noise.measurement > 0:
            noise += g_v @ rng.uniform(-cfg.noise.measurement, cfg.noise.measurement,
                                       model.p)

        def f(t, v):
            return m_mat @ v + g_u @ _stacked_input(model, cfg.inputs, t) + noise

        t, h = k * cfg.dt, cfg.dt
        k1 = f(t, z)
        k2 = f(t + 0.5 * h, z + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, z + 0.5 * h * k2)
        k4 = f(t + h, z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _assert_trace_matches_reference(cfg):
    trace = run_scenario(cfg)
    reference = _reference_states(cfg)
    assert np.array_equal(trace.times, [k * cfg.dt for k in sorted(reference)])
    for s, k in enumerate(sorted(reference)):
        labels, model, z = reference[k]
        rows = z.reshape(model.m + 2, model.n)
        for pos, j in enumerate(labels):
            cols = model.state_slice(pos + 1)
            got = [trace.x[s, trace.label_slice(j)], trace.xbar[s, trace.label_slice(j)]]
            want = [rows[0, cols], rows[1, cols]]
            for i_pos, i in enumerate(labels):
                got.append(trace.xhat[i][s, trace.label_slice(j)])
                want.append(rows[2 + i_pos, cols])
            err = np.max(np.abs(np.concatenate(got) - np.concatenate(want)))
            assert err <= 1e-12 * np.linalg.norm(z), (k, j, err)


class TestStepMapAgainstReferenceRk4:
    def test_inputs_and_noise_on_random_models(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 3:
            model = _random_model_with_inputs(rng)
            widths = [sl.stop - sl.start for sl in map(model.input_slice, model.agents)]
            if sum(w > 0 for w in widths) < 3:
                continue
            labs = [lab for lab, w in zip(model.agents, widths) if w > 0]
            inputs = {
                labs[0]: ConstantInput(tuple(rng.standard_normal(widths[labs[0] - 1]))),
                labs[1]: SinusoidInput(tuple(rng.standard_normal(widths[labs[1] - 1])),
                                       float(rng.uniform(0.5, 3.0)),
                                       tuple(rng.uniform(0, 6, widths[labs[1] - 1]))),
                labs[2]: PiecewiseInput((0.0, 0.0503, 0.1),
                                        tuple(tuple(rng.standard_normal(widths[labs[2] - 1]))
                                              for _ in range(3))),
            }
            cfg = ScenarioConfig(
                model=model, policy=GainPolicy(mu="global"), inputs=inputs,
                noise=NoiseSpec(process=0.05, measurement=0.02), t_end=0.2, dt=1e-3,
                seed=int(rng.integers(1000)), record_every=7,
                initial_state=tuple(rng.standard_normal(model.n)))
            _assert_trace_matches_reference(cfg)
            checked += 1

    def test_join_then_leave_with_noise(self):
        join = plugin_join_scenario(mu=10, t_end=0.3, dt=1e-3, event_time=0.1)
        leave = LeaveEvent(time=0.2, label=2,
                           communication=((1, 3, 1.0), (3, 4, 1.0), (4, 1, 1.0)))
        cfg = replace(join, events=join.events + (leave,), record_every=30,
                      noise=NoiseSpec(process=0.05, measurement=0.05))
        _assert_trace_matches_reference(cfg)


class TestSignals:
    def test_constant(self):
        assert np.array_equal(ConstantInput((1.0, 2.0)).evaluate(5.0), [1.0, 2.0])

    def test_sinusoid_phase(self):
        sig = SinusoidInput(amplitude=(-0.1, 0.1), frequency=0.01,
                            phase=(0.0, np.pi / 2))
        t = 12.3
        got = sig.evaluate(t)
        assert got[0] == pytest.approx(-0.1 * np.sin(0.01 * t))
        assert got[1] == pytest.approx(0.1 * np.cos(0.01 * t))

    def test_piecewise_hold(self):
        sig = PiecewiseInput(times=(0.0, 1.0, 2.0),
                             values=((0.0,), (1.0,), (3.0,)))
        assert sig.evaluate(0.5) == pytest.approx([0.0])
        assert sig.evaluate(1.0) == pytest.approx([1.0])
        assert sig.evaluate(99.0) == pytest.approx([3.0])


class TestRunScenario:
    def test_equilibrium_stays_put(self):
        cfg = _short_triple()
        x0 = np.asarray(cfg.initial_state)
        model = cfg.model
        estimates = {"xbar": {i: x0[model.state_slice(i)] for i in model.agents},
                     "xhat": {i: x0 for i in model.agents}}
        cfg = ScenarioConfig(model=model, policy=cfg.policy, t_end=2.0, dt=1e-3,
                             initial_state=cfg.initial_state,
                             initial_estimates=estimates)
        trace = run_scenario(cfg)
        assert np.all(trace.total_error <= 1e-9)

    @pytest.mark.parametrize("make, kwargs, record_every", [
        pytest.param(_short_triple, dict(t_end=0.05), every, id=f"triple-every-{every}")
        for every in (1, 7, 10, 50, 51)
    ] + [
        pytest.param(plugin_leave_scenario, dict(t_end=0.05, event_time=0.0213), every,
                     id=f"leave-every-{every}") for every in (1, 7, 200, 600)
    ] + [
        pytest.param(plugin_join_scenario, dict(t_end=0.05, event_time=0.03), 13,
                     id="join-every-13"),
    ])
    def test_record_times_are_multiples_events_and_end(self, make, kwargs, record_every):
        cfg = replace(make(**kwargs), record_every=record_every)
        total = int(round(cfg.t_end / cfg.dt))
        events = {int(round(e.time / cfg.dt)) for e in cfg.events}
        steps = sorted({k for k in range(total + 1) if k % record_every == 0}
                       | events | {total})
        trace = run_scenario(cfg)
        assert np.array_equal(trace.times, [k * cfg.dt for k in steps])

    def test_initial_estimate_for_unknown_agent_rejected(self):
        cfg = _short_triple()
        for label in (0, 4):
            with pytest.raises(DimensionError):
                ScenarioConfig(model=cfg.model, policy=cfg.policy, t_end=1.0,
                               initial_estimates={"xhat": {label: np.zeros(cfg.model.n)}})

    def test_linearity_in_initial_error(self):
        base = _short_triple()
        model = base.model
        x0 = np.asarray(base.initial_state)

        def run_with_scaled_error(scale):
            estimates = {"xbar": {i: (1 - scale) * x0[model.state_slice(i)]
                                  for i in model.agents},
                         "xhat": {i: (1 - scale) * x0 for i in model.agents}}
            cfg = ScenarioConfig(model=model, policy=base.policy, t_end=2.0,
                                 dt=1e-3, initial_state=base.initial_state,
                                 initial_estimates=estimates)
            return run_scenario(cfg)

        one = run_with_scaled_error(1.0)
        two = run_with_scaled_error(2.0)
        mask = one.total_error > 1e-8
        ratio = two.total_error[mask] / one.total_error[mask]
        assert np.allclose(ratio, 2.0, rtol=1e-9)

    def test_linearized_dynamics_match_blockwise_equations(self):
        rng = np.random.default_rng(91)
        for rule in ("binary", "normalized-in", "normalized-out"):
            for input_mode in ("full", "own-only"):
                models = [coupled_triple_model()]
                models += [_random_model_with_inputs(rng) for _ in range(3)]
                for model in models:
                    gains, _ = design_gains(model, weights=rule, mu="global",
                                            input_mode=input_mode)
                    m_mat, g_u, g_w, g_v = closed_loop_matrices(model, gains)
                    z = rng.standard_normal(m_mat.shape[0])
                    u = rng.standard_normal(model.k)
                    w = rng.standard_normal(model.n)
                    v = rng.standard_normal(model.p)
                    rows = z.reshape(model.m + 2, model.n)
                    x = rows[0]
                    state = ObserverState(
                        xhat={i: rows[1 + i] for i in model.agents},
                        xbar={i: rows[1, model.state_slice(i)] for i in model.agents})
                    y = plant_output(model, x) + v
                    ds = observer_derivative(model, gains, state, u, y)
                    expected = np.concatenate(
                        [plant_derivative(model, x, u) + w]
                        + [ds.xbar[i] for i in model.agents]
                        + [ds.xhat[i] for i in model.agents])
                    got = m_mat @ z + g_u @ u + g_w @ w + g_v @ v
                    assert np.allclose(got, expected, atol=1e-9), (rule, input_mode)

    def test_disturbance_maps_match_probed_error_derivative(self):
        rng = np.random.default_rng(97)
        for input_mode in ("full", "own-only"):
            for _ in range(4):
                model = _random_model_with_inputs(rng)
                gains, _ = design_gains(model, mu="global", input_mode=input_mode)
                ordering = check_topological_consistency(model)
                x0 = np.zeros(model.n)
                state0 = zero_observer_state(model)

                def probe(**disturbance):
                    return error_derivative(model, gains, state0, x0, ordering=ordering,
                                            **disturbance)

                maps = error_disturbance_matrices(model, gains, ordering)
                for key, name, size in (("unknown_input", "u", model.k),
                                        ("process", "process_noise", model.n),
                                        ("measurement", "measurement_noise", model.p)):
                    probed = np.zeros((error_dim(model), size))
                    for c, unit in enumerate(np.eye(size)):
                        probed[:, c] = probe(**{name: unit}) - probe()
                    assert np.array_equal(maps[key], probed), (input_mode, key)

    def test_envelope_on_short_run(self):
        cfg = _short_triple(t_end=5.0)
        trace = run_scenario(cfg)
        gains, _ = resolve_gains(cfg.model, cfg.policy)
        kappa, eta = fit_decay_envelope(assemble_error_dynamics(cfg.model, gains).r)
        ok, worst = check_exponential_envelope(trace, kappa, eta)
        assert ok, f"envelope violated by {worst}"

    def test_dt_refinement_on_short_horizon(self):
        coarse = run_scenario(_short_triple(t_end=5.0, dt=1e-3))
        fine = run_scenario(_short_triple(t_end=5.0, dt=5e-4))
        assert abs(coarse.total_error[-1] - fine.total_error[-1]) < 1e-6

    def test_dt_refinement_on_localization_ring(self):
        coarse = run_scenario(ring_localization_scenario(t_end=50.0, dt=1e-2))
        fine = run_scenario(ring_localization_scenario(t_end=50.0, dt=5e-3))
        assert abs(coarse.total_error[-1] - fine.total_error[-1]) < 1e-6

    def test_noise_draws_respect_bounds_and_seed(self):
        cfg = coupled_triple_scenario(noise=True, t_end=1.0)
        t1 = run_scenario(cfg)
        t2 = run_scenario(cfg)
        assert np.array_equal(t1.table, t2.table)
        reseeded = ScenarioConfig(model=cfg.model, policy=cfg.policy,
                                  noise=cfg.noise, t_end=1.0, dt=cfg.dt,
                                  seed=cfg.seed + 1, record_every=cfg.record_every,
                                  initial_state=cfg.initial_state)
        t3 = run_scenario(reseeded)
        assert not np.array_equal(t1.table, t3.table)

    def test_overflow_inside_a_record_stride_names_its_step(self):
        cfg = replace(_short_triple(), dt=0.5, t_end=1000.0, record_every=10)
        gains, _ = resolve_gains(cfg.model, cfg.policy)
        m_mat, _, _, _ = closed_loop_matrices(cfg.model, gains)
        d = rk4_step_map(m_mat, cfg.dt, np.zeros((len(m_mat), 0)))[0]
        z = np.zeros(len(d))
        z[:cfg.model.n] = cfg.initial_state
        k = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while np.all(np.isfinite(z)):
                z = z + d @ z
                k += 1
        assert k % cfg.record_every != 0 and k < 2000
        with pytest.raises(NonFiniteError, match=f"at t={(k - 1) * cfg.dt + cfg.dt:.6g}$"):
            run_scenario(cfg)

    def test_disconnected_communication_rejected(self):
        model = MasModel.build(
            a_diag=[[[0.1]], [[0.2]]], c_diag=[[[1.0]], [[1.0]]],
            communication=DirectedGraph.from_edges(2, [(1, 2)]))
        cfg = ScenarioConfig(model=model, policy=GainPolicy(mu=1.0), t_end=1.0)
        with pytest.raises(ConnectivityError):
            run_scenario(cfg)


class TestEvents:
    def test_join_expands_and_reconverges(self):
        cfg = plugin_join_scenario(mu=572, t_end=18.0, event_time=15.0)
        trace = run_scenario(cfg)
        assert trace.labels == (1, 2, 3, 4)
        idx = np.searchsorted(trace.times, 15.0)
        assert np.isnan(trace.x[idx - 1, trace.label_slice(4)]).all()
        assert not np.isnan(trace.x[idx, trace.label_slice(4)]).any()
        assert trace.events[0]["kind"] == "join"
        assert len(trace.gain_log) == 2

    def test_leave_drops_estimates(self):
        cfg = plugin_leave_scenario(mu=572, t_end=18.0, event_time=15.0)
        trace = run_scenario(cfg)
        idx = np.searchsorted(trace.times, 15.0)
        assert not np.isnan(trace.x[idx - 1, trace.label_slice(2)]).any()
        assert np.isnan(trace.x[idx, trace.label_slice(2)]).all()
        assert np.isnan(trace.pair_errors[(2, 1)][idx])

    def test_join_that_disconnects_rejected(self):
        model = plugin_base_model()
        policy = plugin_policy(mu=572)
        gains, _ = resolve_gains(model, policy)
        bad = JoinEvent(time=1.0, label=4,
                        a_block=((1.2, 1.0), (0.0, 0.8)), c_block=np.eye(2),
                        initial_state=(0.0, 0.0),
                        communication=((1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0),
                                       (4, 1, 1.0)),
                        luenberger=((4.2, 0.0), (0.0, 4.8)))
        with pytest.raises(ConnectivityError):
            apply_event(model, policy, np.zeros((model.m + 2) * model.n), bad, (1, 2, 3))

    def test_mu_recomputed_under_global_policy(self):
        model = plugin_base_model()
        policy = GainPolicy(luenberger="auto", weights="binary", mu="global")
        gains, _ = resolve_gains(model, policy)
        leave = LeaveEvent(time=1.0, label=2,
                           communication=((1, 3, 1.0), (3, 1, 1.0)))
        _, _, new_gains, _, labels, _ = apply_event(
            model, policy, np.zeros((model.m + 2) * model.n), leave, (1, 2, 3))
        assert labels == (1, 3)
        assert new_gains.mu != gains.mu  # re-evaluated on the smaller graph

    @pytest.mark.parametrize("change", [
        pytest.param({"communication": ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0),
                                        (4, 1, 1.0))}, id="join-communication"),
        pytest.param({"output_couplings": ((4, 5, np.eye(2)),)}, id="join-coupling"),
        pytest.param({"state_couplings": ((5, 1, np.eye(2)),)}, id="join-state-coupling"),
    ])
    def test_join_naming_an_absent_label_rejected(self, change):
        cfg = plugin_join_scenario(mu=10, t_end=0.3, dt=1e-3, event_time=0.1)
        join = replace(cfg.events[0], **change)
        z = np.zeros((cfg.model.m + 2) * cfg.model.n)
        with pytest.raises(DomainError, match=r"\[5\]"):
            apply_event(cfg.model, cfg.policy, z, join, (1, 2, 3))

    def test_leave_naming_the_departed_label_rejected(self):
        cfg = plugin_leave_scenario(mu=10, t_end=0.3, dt=1e-3, event_time=0.1)
        leave = replace(cfg.events[0], communication=((1, 3, 1.0), (3, 2, 1.0), (3, 1, 1.0)))
        z = np.zeros((cfg.model.m + 2) * cfg.model.n)
        with pytest.raises(DomainError, match=r"\[2\]"):
            apply_event(cfg.model, cfg.policy, z, leave, (1, 2, 3))

    def test_join_without_a_gain_under_explicit_policy_rejected(self):
        cfg = plugin_join_scenario(mu=10, t_end=0.3, dt=1e-3, event_time=0.1)
        join = replace(cfg.events[0], luenberger=None)
        z = np.zeros((cfg.model.m + 2) * cfg.model.n)
        with pytest.raises(DomainError, match=r"lacks Luenberger gains for \[4\]"):
            apply_event(cfg.model, cfg.policy, z, join, (1, 2, 3))

    def _rejoin(self, a_block, c_block, initial_state, coupling):
        """Agent 2 leaves at t = 0.1 and rejoins at t = 0.2 without a gain."""
        cfg = plugin_leave_scenario(mu=10, t_end=0.3, dt=1e-3, event_time=0.1)
        join = JoinEvent(time=0.2, label=2, a_block=a_block, c_block=c_block,
                         initial_state=initial_state,
                         output_couplings=((2, 1, coupling),),
                         communication=((1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)))
        return replace(cfg, events=cfg.events + (join,))

    def test_rejoin_keeps_the_policy_gain(self):
        base = plugin_base_model()
        cfg = self._rejoin(base.a_blocks[(2, 2)], base.c_blocks[(2, 2)], (0.05, 0.0),
                           base.c_blocks[(2, 1)])
        trace = run_scenario(cfg)
        assert [snap["labels"] for snap in trace.gain_log] == [[1, 2, 3], [1, 3], [1, 2, 3]]
        assert trace.gain_log[-1]["luenberger"]["2"] == \
            np.asarray(cfg.policy.luenberger[2], float).tolist()
        assert np.all(np.isfinite(trace.total_error))

    def test_rejoin_with_another_state_dimension_rejected(self, monkeypatch):
        cfg = self._rejoin([[0.5]], [[1.0]], (0.0,), [[1.0, 0.0]])
        monkeypatch.setattr(sim_mod, "_SegmentMap", None)  # no step may be taken
        with pytest.raises(DomainError, match="agent label 2 joins with state dimension 1, "
                                              "but has dimension 2"):
            run_scenario(cfg)

    @pytest.mark.parametrize("make", [plugin_join_scenario, plugin_leave_scenario],
                             ids=["join", "leave"])
    def test_event_carries_survivors_and_zero_fills_the_rest(self, make):
        cfg = make(mu=572, t_end=18.0, event_time=15.0)
        model, event = cfg.model, cfg.events[0]
        labels = tuple(model.agents)
        z = np.random.default_rng(3).standard_normal((model.m + 2) * model.n)
        new_model, _, _, new_z, new_labels, _ = apply_event(
            model, cfg.policy, z, event, labels)
        old = z.reshape(model.m + 2, model.n)
        new = new_z.reshape(new_model.m + 2, new_model.n)
        survivors = [lab for lab in new_labels if lab in labels]
        assert len(survivors) == (3 if isinstance(event, JoinEvent) else 2)
        expected = np.zeros_like(new)
        for j in survivors:
            new_c = new_model.state_slice(new_labels.index(j) + 1)
            old_c = model.state_slice(labels.index(j) + 1)
            expected[:2, new_c] = old[:2, old_c]  # plant state and xbar_j
            for i in survivors:
                expected[2 + new_labels.index(i), new_c] = old[2 + labels.index(i), old_c]
        if isinstance(event, JoinEvent):
            joiner = new_model.state_slice(new_labels.index(event.label) + 1)
            expected[0, joiner] = event.initial_state
        assert np.array_equal(new, expected)


class TestTraceOutput:
    def test_error_norms_recompute_from_stored_states(self):
        trace = run_scenario(_short_triple(t_end=2.0))
        j = 1
        sl = trace.label_slice(j)
        recomputed = np.linalg.norm(trace.xhat[2][:, sl] - trace.x[:, sl], axis=1)
        assert np.allclose(recomputed, trace.pair_errors[(2, j)], atol=1e-12)
        total = np.zeros(len(trace.times))
        for jj in trace.labels:
            total += trace.bar_errors[jj] ** 2
            for ii in trace.labels:
                total += trace.pair_errors[(ii, jj)] ** 2
        assert np.allclose(np.sqrt(total), trace.total_error, atol=1e-12)

    def test_csv_roundtrip_and_metadata(self, tmp_path):
        trace = run_scenario(_short_triple(t_end=1.0))
        csv_path = tmp_path / "trace.csv"
        write_trace_csv(trace, csv_path)
        header, data = read_trace_csv(csv_path)
        assert header == trace_columns(trace)
        assert np.allclose(data, trace.table, equal_nan=True)
        # recomputing the stacked norm from the file matches the stored column
        idx = {name: k for k, name in enumerate(header)}
        err_cols = [idx[c] for c in header if c.startswith(("err[", "errbar["))]
        recomputed = np.sqrt(np.nansum(data[:, err_cols] ** 2, axis=1))
        assert np.allclose(recomputed, data[:, idx["E_norm"]], atol=1e-9)
        write_metadata(tmp_path / "meta.json", trace)
        import json
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["summary"]["total_final"] == pytest.approx(trace.total_error[-1])

    def test_trace_arrays_are_views_of_the_written_table(self, tmp_path):
        cfg = plugin_join_scenario(mu=10, t_end=0.3, dt=1e-3, event_time=0.1)
        trace = run_scenario(replace(cfg, record_every=7))
        arrays = [trace.times, trace.x, trace.xbar, trace.total_error,
                  *trace.xhat.values(), *trace.pair_errors.values(),
                  *trace.bar_errors.values()]
        assert len(arrays) == 4 + 4 + 16 + 4
        assert all(np.shares_memory(arr, trace.table) for arr in arrays)
        write_trace_csv(trace, tmp_path / "trace.csv")
        header, data = read_trace_csv(tmp_path / "trace.csv")
        assert header == trace_columns(trace)
        assert np.array_equal(data, trace.table, equal_nan=True)

    def test_subsample_keeps_final_row(self, tmp_path):
        trace = run_scenario(_short_triple(t_end=1.0))
        path = tmp_path / "sub.csv"
        write_trace_csv(trace, path, subsample=7)
        _, data = read_trace_csv(path)
        assert data[-1, 0] == pytest.approx(trace.times[-1])

    @pytest.mark.parametrize("subsample", [1, 7])
    def test_csv_bytes_are_float_repr(self, tmp_path, subsample):
        trace = _repr_trace(10)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, subsample=subsample)
        assert path.read_bytes() == _reference_csv(trace, subsample)

    @pytest.mark.parametrize("cpus", [1, None, 4], ids=["one-cpu", "all-cpus", "four-cpus"])
    @pytest.mark.parametrize("subsample", [1, 7])
    def test_forked_csv_bytes_are_float_repr(self, tmp_path, monkeypatch, subsample, cpus):
        # 1001 rows of 7 values: above 64 values per writer at either subsample,
        # and at subsample 7 the appended final row lands in the last part;
        # four writers on any machine show that the parts are joined in order
        trace = _repr_trace(1001)
        monkeypatch.setattr(sim_mod, "VALUES_PER_WRITER", 64)
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        expected = _reference_csv(trace, subsample)
        writers = min(len(os.sched_getaffinity(0)), 7 * (expected.count(b"\n") - 1) // 64)
        forks = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, subsample=subsample)
        assert path.read_bytes() == expected
        assert len(forks) == writers - 1
        assert os.listdir(tmp_path) == ["trace.csv"]

    def test_failed_writer_process_raises_in_parent_only(self, tmp_path, monkeypatch):
        trace = _repr_trace(1001)
        monkeypatch.setattr(sim_mod, "VALUES_PER_WRITER", 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent = os.getpid()
        write_rows = sim_mod._write_rows

        def fail_in_child(fh, rows):
            if os.getpid() != parent:
                raise RuntimeError("writer process fails")
            write_rows(fh, rows)

        monkeypatch.setattr(sim_mod, "_write_rows", fail_in_child)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        # a block-buffered stdout: a child that flushed it would repeat the marker
        with open(tmp_path / "stdout.txt", "w") as stdout, redirect_stdout(stdout):
            print("marker", end="")
            with pytest.raises(OSError, match="writer process exited with status 1"):
                write_trace_csv(trace, out_dir / "trace.csv")
        assert (tmp_path / "stdout.txt").read_text() == "marker"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        # the header and the parent's rows were written, but no trace is left
        assert os.listdir(out_dir) == []

    def test_summary_final_below_sup(self):
        trace = run_scenario(_short_triple(t_end=10.0))
        summary = error_norms(trace)
        for key, final in summary.pair_final.items():
            assert final < 1e-2
            assert final <= summary.pair_sup[key]
        assert summary.total_final < summary.total_sup


class TestScenarioSerialization:
    def test_roundtrip_preserves_run(self, tmp_path):
        cfg = coupled_triple_scenario(noise=True, t_end=1.0)
        payload = scenario_to_json(cfg)
        again = scenario_from_json(payload)
        t1 = run_scenario(cfg)
        t2 = run_scenario(again)
        assert np.array_equal(t1.table, t2.table)

    def test_event_roundtrip(self):
        cfg = plugin_join_scenario(mu=572, t_end=18.0)
        again = scenario_from_json(scenario_to_json(cfg))
        assert again.events[0].label == 4
        assert again.events[0].communication == cfg.events[0].communication

    @pytest.mark.parametrize("key, value, error", [
        pytest.param("C", [[1.0, "x"], [0.0, 1.0]], ValueError, id="block-not-numeric"),
        pytest.param("state", [0.05, 0.05, 0.05], DimensionError, id="state-wrong-length"),
    ])
    def test_bad_join_refused_when_read(self, key, value, error):
        payload = scenario_to_json(plugin_join_scenario(mu=10, t_end=0.3, event_time=0.1))
        payload["events"][0]["join"][key] = value
        with pytest.raises(error):
            scenario_from_json(payload)

    def test_join_blocks_are_frozen_arrays(self):
        event = plugin_join_scenario(mu=10, t_end=0.3, event_time=0.1).events[0]
        blocks = [event.a_block, event.c_block, event.luenberger, event.initial_state,
                  *(blk for _, _, blk in event.output_couplings)]
        for block in blocks:
            assert block.dtype == float and not block.flags.writeable

    def test_config_validation(self):
        model = coupled_triple_model()
        with pytest.raises(DomainError):
            ScenarioConfig(model=model, t_end=1.0, dt=2.0)
        with pytest.raises(DomainError):
            ScenarioConfig(model=model, t_end=1.0, dt=0.1,
                           events=(LeaveEvent(time=2.0, label=1),))

    def test_bad_dt(self):
        model = coupled_triple_model()
        for dt in (0.0, -0.1):
            with pytest.raises(DomainError):
                ScenarioConfig(model=model, t_end=1.0, dt=dt)
