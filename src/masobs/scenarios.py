"""Built-in benchmark scenarios and the experiment registry.

Two families ship with the package: a three-agent heterogeneous MAS with a
state/output coupling (run clean, with bounded noise, or with an agent
joining or leaving mid-run under fully distributed gain selection), and a
six-agent planar localization ring with one anchored agent (run with known
or unknown inputs).  Each registry entry bundles a scenario with the checks
the reproduce command evaluates against its trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import observer as obs_mod
from . import sim as sim_mod
from .errors import DomainError, InputError
from .graphs import DirectedGraph
from .localization import (AgentKinematics, SensingGraph, build_localization_mas, dagc,
                           localization_luenberger)
from .mas import MasModel
from .sim import (GainPolicy, JoinEvent, LeaveEvent, NoiseSpec, ScenarioConfig,
                  SinusoidInput, error_norms)


# ----------------------------------------------------------------------
# three-agent coupled MAS
# ----------------------------------------------------------------------

def coupled_triple_model() -> MasModel:
    """Heterogeneous three-agent MAS with one state and one output coupling.

    Agent 1 carries a two-dimensional unstable block measured in full;
    agents 2 and 3 are unstable scalars; agent 2 additionally senses a mix
    of agent 1's state.  The communication ring 1->2->3->1 is strongly
    connected and the interaction graphs share a topological ordering.
    """
    a1 = [[1.2, 1.0], [0.0, 0.8]]
    return MasModel.build(
        a_diag=[a1, [[1.03]], [[0.3]]],
        c_diag=[np.eye(2), [[1.0]], [[1.0]]],
        communication=DirectedGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)]),
        a_couplings={(2, 1): [[0.8, 1.0]]},
        c_couplings={(2, 1): [[0.8, 1.2]]},
    )


def coupled_triple_gains() -> GainPolicy:
    return GainPolicy(
        luenberger={1: np.diag([4.2, 4.8]), 2: [[3.0]], 3: [[2.0]]},
        weights="binary", mu=10.0)


def coupled_triple_scenario(noise: bool = False, t_end: float = None,
                            dt: float = 1e-3, seed: int = 7) -> ScenarioConfig:
    if t_end is None:
        t_end = 30.0 if noise else 20.0
    return ScenarioConfig(
        model=coupled_triple_model(),
        policy=coupled_triple_gains(),
        noise=NoiseSpec(process=0.05, measurement=0.05) if noise else NoiseSpec(),
        t_end=t_end, dt=dt, seed=seed, record_every=10,
        initial_state=(0.5, -0.5, 0.5, 0.5),
    )


# ----------------------------------------------------------------------
# homogeneous plug-in / plug-out MAS
# ----------------------------------------------------------------------

_PLUGIN_A = ((1.2, 1.0), (0.0, 0.8))
_PLUGIN_C_COUPLING = ((1.2, 0.0), (0.0, 0.8))
_PLUGIN_F = ((4.2, 0.0), (0.0, 4.8))
_PLUGIN_M_BAR = 4


def plugin_base_model() -> MasModel:
    """Homogeneous three-agent chain: identical unstable blocks, identity
    output, and an output coupling along 1->2->3."""
    return MasModel.build(
        a_diag=[_PLUGIN_A] * 3,
        c_diag=[np.eye(2)] * 3,
        communication=DirectedGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)]),
        c_couplings={(2, 1): _PLUGIN_C_COUPLING, (3, 2): _PLUGIN_C_COUPLING},
    )


def plugin_policy(mu) -> GainPolicy:
    """Fully distributed policy: shared Luenberger gain, in-degree-normalized
    consensus weights, and a uniform integer coupling gain."""
    return GainPolicy(
        luenberger={1: _PLUGIN_F, 2: _PLUGIN_F, 3: _PLUGIN_F},
        weights="normalized-in", mu=mu, m_bar=_PLUGIN_M_BAR)


def plugin_join_scenario(mu=572, t_end: float = 24.0, dt: float = 1e-4,
                         event_time: float = 15.0) -> ScenarioConfig:
    """A fourth homogeneous agent joins mid-run and starts estimating from
    zero; mu stays fixed at its agent-cap value and the weights rebuild."""
    join = JoinEvent(
        time=event_time, label=4,
        a_block=_PLUGIN_A, c_block=np.eye(2),
        initial_state=(0.05, 0.05),
        output_couplings=((4, 3, _PLUGIN_C_COUPLING),),
        communication=((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 1, 1.0)),
        luenberger=_PLUGIN_F,
    )
    return ScenarioConfig(
        model=plugin_base_model(), policy=plugin_policy(mu),
        events=(join,), t_end=t_end, dt=dt, seed=3, record_every=200,
        initial_state=(0.05, -0.05, 0.05, -0.05, 0.05, -0.05),
    )


def plugin_leave_scenario(mu=572, t_end: float = 24.0, dt: float = 1e-4,
                          event_time: float = 15.0) -> ScenarioConfig:
    """Agent 2 departs mid-run; the survivors re-link over a two-agent loop."""
    leave = LeaveEvent(
        time=event_time, label=2,
        communication=((1, 3, 1.0), (3, 1, 1.0)),
    )
    return ScenarioConfig(
        model=plugin_base_model(), policy=plugin_policy(mu),
        events=(leave,), t_end=t_end, dt=dt, seed=3, record_every=200,
        initial_state=(0.05, -0.05, 0.05, -0.05, 0.05, -0.05),
    )


# ----------------------------------------------------------------------
# six-agent localization ring
# ----------------------------------------------------------------------

RING_IDS = {1: 10, 2: 20, 3: 30, 4: 40, 5: 50, 6: 60}
RING_POSITIONS = ((5.0, 7.0), (3.0, 4.0), (5.0, 2.0), (10.0, 2.0),
                  (12.0, 4.0), (10.0, 7.0))
_RING_GAIN_BLOCK = ((-1.0, 0.0), (0.0, -0.5))


def ring_sensing_graph() -> SensingGraph:
    """Six agents sensing around a ring, agent 2 anchored to the origin."""
    edges = ((2, 1), (3, 2), (4, 3), (5, 4), (6, 5), (1, 6))
    return SensingGraph(6, edges, anchors=(2,))


def ring_communication() -> DirectedGraph:
    edges = []
    for i in range(1, 7):
        j = i % 6 + 1
        edges += [(i, j), (j, i)]
    return DirectedGraph.from_edges(6, edges)


def localization_model(sensing: SensingGraph, communication: DirectedGraph, ids=None,
                       seed: int = 0, order: str = "single", h: int = 2,
                       weight_rule: str = "binary", gain_block=None):
    """DAGC-oriented ``sensing`` turned into an integrator MAS over
    ``communication``, plus its gain policy and the orientation; agent ids
    are drawn from ``seed`` unless ``ids`` pins them.  The coupling gain is
    fixed at 1: integrators have zero spectral radius, so any positive gain
    stabilizes once the graph conditions hold."""
    assignment = dagc(sensing, ids=ids, seed=seed)
    model = build_localization_mas(assignment, communication, order=order, h=h)
    policy = GainPolicy(luenberger=localization_luenberger(model, gain_block),
                        weights=weight_rule, mu=1.0)
    return model, policy, assignment


def localization_scenario(sensing: SensingGraph, communication: DirectedGraph, ids=None,
                          order: str = "single", h: int = 2, weight_rule: str = "binary",
                          gain_block=None, input_mode: str = "full", positions=None,
                          velocities=None, **run) -> ScenarioConfig:
    """A run of :func:`localization_model`, the agents starting at
    ``positions`` (and ``velocities``).  ``run`` holds the other
    ScenarioConfig fields; its seed draws the ids as well as the noise."""
    model, policy, _ = localization_model(sensing, communication, ids, run.get("seed", 0),
                                          order, h, weight_rule, gain_block)
    x0 = None
    if positions is not None:
        x0 = tuple(AgentKinematics(order, h, positions, velocities).stacked_state())
    return ScenarioConfig(model=model, policy=replace(policy, input_mode=input_mode),
                          initial_state=x0, **run)


def ring_localization_model(order: str = "single"):
    """Oriented ring sensing turned into an integrator MAS, plus its gains."""
    model, policy, assignment = localization_model(
        ring_sensing_graph(), ring_communication(), RING_IDS, order=order,
        gain_block=_RING_GAIN_BLOCK)
    gains, _ = sim_mod.resolve_gains(model, policy)
    return model, gains, assignment


def ring_localization_scenario(known_input: bool = True, t_end: float = 200.0,
                               dt: float = 1e-2, seed: int = 11) -> ScenarioConfig:
    signal = SinusoidInput(amplitude=(-0.1, 0.1), frequency=0.01,
                           phase=(0.0, math.pi / 2.0))
    return localization_scenario(
        ring_sensing_graph(), ring_communication(), RING_IDS, gain_block=_RING_GAIN_BLOCK,
        input_mode="full" if known_input else "own-only", positions=RING_POSITIONS,
        inputs={i: signal for i in range(1, 7)}, t_end=t_end, dt=dt, seed=seed,
        record_every=10)


# ----------------------------------------------------------------------
# experiment registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    key: str
    title: str
    config: ScenarioConfig
    checks: tuple  # of (name, fn(trace) -> (ok, detail)), from checks_for(config)
    checks_for: object  # fn(config) -> checks, constants fitted to config's gains


def _envelope_check(name: str, config: ScenarioConfig, check):
    """``(name, fn(trace))`` that runs ``check(trace, gains, kappa, eta)``
    with the decay envelope of the error dynamics under ``config``'s gains,
    or fails, saying so, when those dynamics are not Hurwitz."""
    gains, _ = sim_mod.resolve_gains(config.model, config.policy)
    dynamics = obs_mod.assemble_error_dynamics(config.model, gains)
    try:
        kappa, eta = obs_mod.fit_decay_envelope(dynamics.r)
    except DomainError as exc:
        detail = f"error dynamics: {exc}"
        return name, lambda trace: (False, detail)
    return name, lambda trace: check(trace, gains, kappa, eta)


def _disturbance_checks(config: ScenarioConfig, channels, d_bar: float,
                        sup_name: str, bound_name: str):
    """Checks of a run driven by bounded disturbances: the stacked error has
    a finite supremum and stays within the ISS bound for the error entry
    maps of ``channels``, each channel bounded by ``d_bar`` in norm."""
    def check_sup(trace):
        sup = float(np.nanmax(trace.total_error))
        return math.isfinite(sup), f"sup stacked error {sup:.3e}"

    def check_iss(trace, gains, kappa, eta):
        maps = obs_mod.error_disturbance_matrices(config.model, gains)
        g_norm = float(np.linalg.norm(np.hstack([maps[c] for c in channels]), 2))
        ok, worst = sim_mod.check_iss_bound(trace, kappa, eta, g_norm, d_bar)
        return ok, f"worst bound excess {worst:.3e}"

    return (sup_name, check_sup), _envelope_check(bound_name, config, check_iss)


def _check_final_pairs(threshold):
    def check(trace):
        summary = error_norms(trace)
        worst = max(v for v in summary.pair_final.values() if v is not None)
        return worst < threshold, f"worst final pair error {worst:.3e} (limit {threshold:g})"
    return check


def _check_final_total(threshold):
    def check(trace):
        value = float(trace.total_error[-1])
        return value < threshold, f"final stacked error {value:.3e} (limit {threshold:g})"
    return check


def _triple_basic_checks(config: ScenarioConfig) -> tuple:
    def check_envelope(trace, gains, kappa, eta):
        ok, worst = sim_mod.check_exponential_envelope(trace, kappa, eta)
        return ok, f"worst envelope excess {worst:.3e} (kappa={kappa:.3g}, eta={eta:.3g})"

    return (("final pair errors below 1e-3", _check_final_pairs(1e-3)),
            _envelope_check("exponential envelope", config, check_envelope))


def _triple_noise_checks(config: ScenarioConfig) -> tuple:
    d_bar = 0.05 * math.sqrt(config.model.n + config.model.p)
    return _disturbance_checks(config, ("process", "measurement"), d_bar,
                               "error stays finite", "error within disturbance bound")


def _ring_unknown_checks(config: ScenarioConfig) -> tuple:
    u_bar = 0.1 * math.sqrt(config.model.m)
    return _disturbance_checks(config, ("unknown_input",), u_bar,
                               "error stays bounded", "error within unknown-input bound")


def _post_event_checks(config: ScenarioConfig) -> tuple:
    return (("post-event stacked error below 1e-2", _check_final_total(1e-2)),)


def _ring_known_checks(config: ScenarioConfig) -> tuple:
    return (("final position errors below 1e-3", _check_final_pairs(1e-3)),)


# key -> (title, default config, checks_for)
_BUILDERS = {
    "5A-basic": ("three-agent convergence, known inputs",
                 lambda: coupled_triple_scenario(noise=False), _triple_basic_checks),
    "5A-noise": ("three-agent run under bounded noise",
                 lambda: coupled_triple_scenario(noise=True), _triple_noise_checks),
    "5A-join": ("homogeneous MAS, agent 4 joins mid-run", plugin_join_scenario,
                _post_event_checks),
    "5A-leave": ("homogeneous MAS, agent 2 leaves mid-run", plugin_leave_scenario,
                 _post_event_checks),
    "5B-known": ("localization ring, inputs shared",
                 lambda: ring_localization_scenario(known_input=True), _ring_known_checks),
    "5B-unknown": ("localization ring, inputs private",
                   lambda: ring_localization_scenario(known_input=False),
                   _ring_unknown_checks),
}

ALIASES = {
    "coupled-basic": "5A-basic",
    "coupled-noise": "5A-noise",
    "coupled-join": "5A-join",
    "coupled-leave": "5A-leave",
    "ring-known": "5B-known",
    "ring-unknown": "5B-unknown",
}

EXPERIMENT_KEYS = tuple(_BUILDERS)


def build_experiment(key: str) -> Experiment:
    key = ALIASES.get(key, key)
    try:
        title, make_config, checks_for = _BUILDERS[key]
    except KeyError:
        raise InputError(f"unknown experiment {key!r}; choose from {list(_BUILDERS)}") from None
    config = make_config()
    return Experiment(key=key, title=title, config=config, checks=checks_for(config),
                      checks_for=checks_for)
