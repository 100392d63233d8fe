"""Deterministic co-simulation of the plant and the distributed observer.

A scenario couples one MAS model with a gain policy, input signals, bounded
noise, and an optional list of join/leave events.  Integration is classical
fixed-step RK4 on a shared time grid, applied as its exact linear step map:
one matrix-vector product per step on each segment between events.  Noise
is drawn from a seeded generator for every step and held constant within
the step, so a scenario is a pure function of its configuration.

Agents are tracked by *label*: the model always numbers its agents 1..m
internally, while joins and leaves edit the label set and the simulator
re-maps blocks, gains and estimates around them.  Trace arrays cover every
label that ever exists, padded with NaN while an agent is absent.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import mas as mas_mod
from . import observer as obs_mod
from .errors import (AssumptionError, ConnectivityError, DimensionError,
                     DomainError, InputError, NonFiniteError)
from .graphs import (DirectedGraph, as_floats, as_int, as_list, as_number, is_number,
                     is_strongly_connected, label_map, refuse_unknown_keys)
from .mas import MasModel, check_node_observability, check_topological_consistency
from .observer import ObserverGains

MACHINE_EPS = float(np.finfo(float).eps)
#: multiplier for the double-precision error floor used by the trace checks;
#: measured cancellation error sits near 1-2 times eps * state magnitude
FLOAT_FLOOR_SAFETY = 8.0


# ----------------------------------------------------------------------
# input signals
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantInput:
    value: tuple

    def __post_init__(self):
        object.__setattr__(self, "value", as_floats(self.value, "constant input value"))

    def evaluate(self, t):
        return np.asarray(self.value, dtype=float)


@dataclass(frozen=True)
class SinusoidInput:
    """Per-channel a_c * sin(omega t + phi_c) with shared angular frequency."""

    amplitude: tuple
    frequency: float
    phase: tuple

    def __post_init__(self):
        object.__setattr__(self, "amplitude", as_floats(self.amplitude, "sinusoid amplitude"))
        object.__setattr__(self, "frequency", as_number(self.frequency, "sinusoid frequency"))
        object.__setattr__(self, "phase", as_floats(self.phase, "sinusoid phase"))
        if len(self.amplitude) != len(self.phase) or not math.isfinite(self.frequency):
            raise InputError("sinusoid needs a finite frequency, and amplitude and phase "
                             "with one entry per channel")

    def evaluate(self, t):
        return np.asarray(self.amplitude, float) * np.sin(
            self.frequency * t + np.asarray(self.phase, float))


@dataclass(frozen=True)
class PiecewiseInput:
    """Zero-order hold over breakpoints; constant at the last value."""

    times: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "times", as_floats(self.times, "piecewise times"))
        object.__setattr__(self, "values", tuple(
            as_floats(v, "piecewise value") for v in as_list(self.values, "piecewise values")))
        if not self.values or len(self.values) != len(self.times) or \
                len({len(v) for v in self.values}) != 1:
            raise InputError("piecewise input needs one value per time, all of one length")

    def evaluate(self, t):
        idx = int(np.searchsorted(np.asarray(self.times, float), t, side="right")) - 1
        idx = max(0, min(idx, len(self.values) - 1))
        return np.asarray(self.values[idx], dtype=float)


def signal_to_json(sig):
    if isinstance(sig, ConstantInput):
        return {"type": "constant", "value": list(sig.value)}
    if isinstance(sig, SinusoidInput):
        return {"type": "sinusoid", "amplitude": list(sig.amplitude),
                "frequency": sig.frequency, "phase": list(sig.phase)}
    if isinstance(sig, PiecewiseInput):
        return {"type": "piecewise", "times": list(sig.times),
                "values": [list(v) for v in sig.values]}
    raise InputError(f"unknown signal {sig!r}")


_SIGNAL_KEYS = {"constant": ("type", "value"),
                "sinusoid": ("type", "amplitude", "frequency", "phase"),
                "piecewise": ("type", "times", "values")}


def signal_from_json(obj):
    kind = obj.get("type") if isinstance(obj, dict) else None
    if not (isinstance(kind, str) and kind in _SIGNAL_KEYS):
        raise InputError(f"an input needs a type of {', '.join(map(repr, _SIGNAL_KEYS))}, "
                         f"got {kind!r}")
    refuse_unknown_keys(obj, _SIGNAL_KEYS[kind], f"{kind} input", required=_SIGNAL_KEYS[kind])
    if kind == "constant":
        return ConstantInput(obj["value"])
    if kind == "sinusoid":
        return SinusoidInput(obj["amplitude"], obj["frequency"], obj["phase"])
    return PiecewiseInput(obj["times"], obj["values"])


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSpec:
    """Uniform per-channel noise bounds; zero disables a channel family."""

    process: float = 0.0
    measurement: float = 0.0

    def __post_init__(self):
        for name in ("process", "measurement"):
            bound = as_number(getattr(self, name), f"{name} noise bound")
            if not (math.isfinite(bound) and bound >= 0.0):
                raise DomainError(
                    f"{name} noise bound must be finite and nonnegative, got {bound}")
            object.__setattr__(self, name, bound)


@dataclass(frozen=True)
class GainPolicy:
    """How to obtain observer gains for the current (possibly edited) model.

    ``luenberger`` is "auto" or a map keyed by agent label, ``weights`` names
    a rule of :data:`observer.WEIGHT_RULES`, and ``mu`` is either a number
    (kept fixed across events) or one of "global", "undirected", "directed"
    (re-evaluated after every event).
    """

    luenberger: object = "auto"
    margin: float = 1.0
    weights: object = "binary"
    mu: object = "global"
    m_bar: int = None
    input_mode: str = "full"

    def __post_init__(self):
        if not (isinstance(self.luenberger, str) and self.luenberger == "auto"):
            object.__setattr__(self, "luenberger", {
                lab: mas_mod.as_block(f, f"gains.luenberger of agent {lab}")
                for lab, f in label_map(self.luenberger, "gains.luenberger").items()})
        if not _is_positive(self.margin):
            raise InputError(f"gains.margin must be a finite positive number, got {self.margin!r}")
        if not (isinstance(self.weights, str) and self.weights in obs_mod.WEIGHT_RULES):
            raise InputError("gains.weights must name a weight rule: "
                             + ", ".join(map(repr, obs_mod.WEIGHT_RULES)))
        if not (self.mu in obs_mod.MU_RULES if isinstance(self.mu, str)
                else _is_positive(self.mu)):
            raise InputError("gains.mu must be a finite positive number or one of "
                             f"{', '.join(map(repr, obs_mod.MU_RULES))}, got {self.mu!r}")
        if self.m_bar is not None:
            object.__setattr__(self, "m_bar", as_int(self.m_bar, "gains.m_bar"))
        if self.input_mode not in obs_mod.INPUT_MODES:
            raise InputError(f"gains.input_mode must be one of "
                             f"{', '.join(map(repr, obs_mod.INPUT_MODES))}, "
                             f"got {self.input_mode!r}")


def _is_positive(value) -> bool:
    return is_number(value) and math.isfinite(value) and value > 0


@dataclass(frozen=True, eq=False)
class JoinEvent:
    """A new agent appears: its blocks, couplings (keyed by labels), initial
    plant state, replacement communication edges, and (for explicit gain
    policies) its Luenberger gain.  Blocks and the initial state are
    converted to read-only float arrays when the event is made."""

    time: float
    label: int
    a_block: np.ndarray
    c_block: np.ndarray
    initial_state: np.ndarray
    b_block: np.ndarray = None
    state_couplings: tuple = ()      # ((i_label, j_label, block), ...)
    output_couplings: tuple = ()
    communication: tuple = ()        # ((src_label, dst_label, weight), ...)
    luenberger: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "a_block", mas_mod.as_block(self.a_block, "join A"))
        object.__setattr__(self, "c_block", mas_mod.as_block(self.c_block, "join C"))
        for name, key in (("b_block", "B"), ("luenberger", "luenberger")):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, mas_mod.as_block(getattr(self, name),
                                                                f"join {key}"))
        for name in ("state_couplings", "output_couplings"):
            object.__setattr__(self, name, tuple(
                (i, j, mas_mod.as_block(blk, f"join {name} block ({i}, {j})"))
                for i, j, blk in getattr(self, name)))
        init = mas_mod._freeze(self.initial_state, "join state")
        if init.shape != (self.a_block.shape[0],):
            raise DimensionError(f"initial state for agent {self.label} must have "
                                 f"shape ({self.a_block.shape[0]},)")
        object.__setattr__(self, "initial_state", init)


@dataclass(frozen=True)
class LeaveEvent:
    """An agent departs; optionally replace the communication edges of the
    remaining agents (default: induced subgraph)."""

    time: float
    label: int
    communication: tuple = None


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """One run: the plant, its gain policy, inputs keyed by agent label,
    noise, join/leave events and the time grid.  ``initial_state`` (default
    zero) and the ``xbar``/``xhat`` vectors of ``initial_estimates`` (keyed by
    model agent; default "zero") are converted to read-only float arrays and
    checked against the model when the config is made."""

    model: MasModel
    policy: GainPolicy = GainPolicy()
    inputs: dict = None              # label -> input signal
    noise: NoiseSpec = NoiseSpec()
    events: tuple = ()
    t_end: float = 10.0
    dt: float = 1e-3
    seed: int = 0
    record_every: int = 1
    initial_state: tuple = None
    initial_estimates: object = "zero"

    def __post_init__(self):
        for name, read in (("t_end", as_number), ("dt", as_number), ("seed", as_int),
                           ("record_every", as_int)):
            object.__setattr__(self, name, read(getattr(self, name), name))
        if not (0 < self.dt <= self.t_end < math.inf):
            raise DomainError(f"need 0 < dt <= t_end < inf, got dt={self.dt}, "
                              f"t_end={self.t_end}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        times = [e.time for e in self.events]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise DomainError("event times must be strictly increasing")
        if any(not (0.0 < t < self.t_end) for t in times):
            raise DomainError("event times must lie strictly inside (0, t_end)")
        if self.record_every < 1:
            raise DomainError("record_every must be at least 1")
        model = self.model
        if self.inputs is not None:
            inputs = label_map(self.inputs, "inputs")
            joins = {e.label for e in self.events if isinstance(e, JoinEvent)}
            unknown = sorted(set(inputs) - set(model.agents) - joins)
            if unknown:
                raise DimensionError(f"inputs for agents {unknown}, which are neither "
                                     "model agents nor join labels")
            object.__setattr__(self, "inputs", inputs)
        if self.initial_state is not None:
            x0 = mas_mod._freeze(self.initial_state, "initial_state")
            if x0.shape != (model.n,):
                raise DimensionError(f"initial state must have shape ({model.n},), "
                                     f"got {x0.shape}")
            object.__setattr__(self, "initial_state", x0)
        if not (isinstance(self.initial_estimates, str) and self.initial_estimates == "zero"):
            refuse_unknown_keys(self.initial_estimates, ("xbar", "xhat"), "initial_estimates")
            estimates = {}
            for part, spec in self.initial_estimates.items():
                estimates[part] = label_map(spec, f"initial_estimates.{part}")
                for lab, vec in estimates[part].items():
                    if lab not in model.agents:
                        raise DimensionError(f"initial estimates for unknown agent {lab}")
                    what = f"initial_estimates.{part} of agent {lab}"
                    vec = estimates[part][lab] = mas_mod._freeze(vec, what)
                    shape = (model.state_dims[lab - 1] if part == "xbar" else model.n,)
                    if vec.shape != shape:
                        raise DimensionError(f"{what} must have shape {shape}, got {vec.shape}")
            object.__setattr__(self, "initial_estimates", estimates)


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------

@dataclass
class SimulationTrace:
    """Time-indexed states, estimates and error norms of one scenario run.

    ``table`` holds one row per recorded sample in the column order of
    :func:`trace_columns`, and every other array is a view of it.
    ``x``/``xbar`` columns follow ``labels`` with each agent's block width
    from ``state_dims``; ``xhat`` maps estimator label to that agent's
    stacked-estimate history.  Error norms are recomputed from the stored
    states, never integrated.
    """

    labels: tuple
    state_dims: dict
    table: np.ndarray
    times: np.ndarray
    x: np.ndarray
    xbar: np.ndarray
    xhat: dict
    pair_errors: dict
    bar_errors: dict
    total_error: np.ndarray
    events: list
    gain_log: list
    meta: dict

    def label_slice(self, label: int) -> slice:
        return _label_columns(self.labels, self.state_dims)[label]

    def state_magnitude(self) -> np.ndarray:
        """Euclidean norm over every stored state/estimate column per sample."""
        total = np.nansum(self.x ** 2, axis=1) + np.nansum(self.xbar ** 2, axis=1)
        for arr in self.xhat.values():
            total = total + np.nansum(arr ** 2, axis=1)
        return np.sqrt(total)


def _label_columns(labels, dims) -> dict:
    """Column slice of each label's block, the blocks side by side in order."""
    ends = np.cumsum([dims[lab] for lab in labels])
    return {lab: slice(int(end) - dims[lab], int(end)) for lab, end in zip(labels, ends)}


# ----------------------------------------------------------------------
# fixed-step integrator
# ----------------------------------------------------------------------

def rk4_step_map(m_mat, dt, g):
    """Exact map of one classical RK4 step on dz/dt = M z + g c(t).

    ``m_mat`` is scaled in place to A = dt M and holds A afterwards.
    Returns (D, G0, G_half, G1, Psi).  One step from z at time t is
    z + D z + G0 c(t) + G_half c(t + dt/2) + G1 c(t + dt), and with c held
    constant over the step it is z + D z + Psi c.  D = A + A^2/2 + A^3/6 +
    A^4/24 is formed in Horner form, never as Phi - I, so the small increment
    is not rounded against the identity.  It is built one column at a time
    by matrix-vector products, so no matrix besides A and D is ever held.
    """
    a = m_mat
    a *= dt
    d = np.empty_like(a)
    for j in range(len(a)):
        t = a[:, j] / 24.0
        t[j] += 1.0 / 6.0
        t = a @ t
        t[j] += 0.5
        t = a @ t
        t[j] += 1.0
        d[:, j] = a @ t
    ag = a @ g
    a2g = a @ ag
    a3g = a @ a2g
    g0 = (dt / 6.0) * (g + ag + a2g / 2.0 + a3g / 4.0)
    g_half = (dt / 6.0) * (4.0 * g + 2.0 * ag + a2g / 2.0)
    g1 = (dt / 6.0) * g
    psi = dt * (g + ag / 2.0 + a2g / 6.0 + a3g / 24.0)
    return d, g0, g_half, g1, psi


# ----------------------------------------------------------------------
# gain-policy resolution (label aware)
# ----------------------------------------------------------------------

def resolve_gains(model: MasModel, policy: GainPolicy, labels=None):
    """Turn a label-keyed gain policy into concrete gains for ``model``."""
    labels = tuple(labels) if labels is not None else tuple(model.agents)
    if len(labels) != model.m:
        raise DimensionError("label list does not match the model size")
    luenberger = policy.luenberger
    if isinstance(luenberger, dict):
        missing = [lab for lab in labels if lab not in luenberger]
        if missing:
            raise DomainError(f"explicit policy lacks Luenberger gains for {missing}")
        luenberger = {pos: luenberger[lab] for pos, lab in enumerate(labels, start=1)}
    return obs_mod.design_gains(
        model, luenberger=luenberger, margin=policy.margin, weights=policy.weights,
        mu=policy.mu, m_bar=policy.m_bar, input_mode=policy.input_mode)


def _validate_model_for_run(model: MasModel):
    observable = check_node_observability(model)
    if not all(observable):
        bad = [i for i, ok in zip(model.agents, observable) if not ok]
        raise AssumptionError(f"agents {bad} fail node-level observability")
    ordering = check_topological_consistency(model)
    if not is_strongly_connected(model.communication_graph):
        raise ConnectivityError("communication graph is not strongly connected")
    return ordering


# ----------------------------------------------------------------------
# join / leave editing
# ----------------------------------------------------------------------

def _plant_by_label(model: MasModel, labels):
    """The model's A, B and C blocks and communication edge weights, keyed
    by agent label (agent k of the model is ``labels[k - 1]``)."""
    lab = dict(zip(model.agents, labels))
    gc = model.communication_graph
    return ({(lab[i], lab[j]): blk for (i, j), blk in model.a_blocks.items()},
            {lab[i]: blk for i, blk in model.b_blocks.items()},
            {(lab[i], lab[j]): blk for (i, j), blk in model.c_blocks.items()},
            {(lab[s], lab[d]): gc.weight(s, d) for s, d in gc.edges})


def _model_by_label(labels, a, b, c, comm):
    """The model whose agent k is ``labels[k - 1]``, from label-keyed blocks
    and edges; DomainError if a coupling or edge names another label."""
    unknown = sorted({lab for key in (*a, *c, *comm) for lab in key} - set(labels))
    if unknown:
        raise DomainError(f"couplings or communication edges name agent labels "
                          f"{unknown}, which are not present")
    agent = {lab: pos + 1 for pos, lab in enumerate(labels)}
    return MasModel.build(
        [a[lab, lab] for lab in labels], [c[lab, lab] for lab in labels],
        communication=DirectedGraph.from_edges(
            len(labels), [(agent[s], agent[d], w) for (s, d), w in comm.items()]),
        b_diag=[b[lab] for lab in labels],
        a_couplings={(agent[i], agent[j]): blk for (i, j), blk in a.items() if i != j},
        c_couplings={(agent[i], agent[j]): blk for (i, j), blk in c.items() if i != j})


def _columns(slices):
    """The column indices of consecutive slices, concatenated."""
    return np.concatenate([np.arange(sl.start, sl.stop) for sl in slices])


def apply_event(model: MasModel, policy: GainPolicy, z: np.ndarray, event, labels):
    """Apply one join/leave event to the segment state ``z``.

    Returns (model', policy', gains', z', labels', gain_report).  The event
    edits the plant keyed by label and the model is rebuilt from it.  The rows
    and column blocks of every surviving agent are copied from z into a
    zero (m'+2) x n' array (see :func:`observer.closed_loop_matrices`), so
    survivors keep their estimates; a joining agent's plant block is its
    ``initial_state`` and every estimate of it, or by it, starts at zero.
    Gains are re-derived from the policy on the edited model; a join adds
    its own Luenberger gain to an explicit policy, and a leave keeps the
    departed label's gain there, unused until the label rejoins.
    """
    labels = tuple(labels)
    a, b, c, comm = _plant_by_label(model, labels)
    if isinstance(event, JoinEvent):
        if event.label in labels:
            raise DomainError(f"agent label {event.label} already present")
        if not event.communication:
            raise DomainError("a join event must carry the new communication edges")
        new_labels = tuple(sorted(labels + (event.label,)))
        a[event.label, event.label] = event.a_block
        b[event.label] = event.b_block
        c[event.label, event.label] = event.c_block
        a.update(((i, j), blk) for i, j, blk in event.state_couplings)
        c.update(((i, j), blk) for i, j, blk in event.output_couplings)
        if isinstance(policy.luenberger, dict) and event.luenberger is not None:
            policy = replace(policy, luenberger={**policy.luenberger,
                                                 event.label: event.luenberger})
    elif isinstance(event, LeaveEvent):
        if event.label not in labels:
            raise DomainError(f"agent label {event.label} is not present")
        new_labels = tuple(lab for lab in labels if lab != event.label)
        if not new_labels:
            raise DomainError("cannot remove the last agent")
        a, c, comm = ({k: v for k, v in d.items() if event.label not in k}
                      for d in (a, c, comm))
    else:
        raise TypeError(f"unknown event {event!r}")
    if event.communication is not None:
        comm = {(s, d): w for s, d, w in event.communication}
    new_model = _model_by_label(new_labels, a, b, c, comm)
    _validate_model_for_run(new_model)
    new_gains, report = resolve_gains(new_model, policy, new_labels)
    keep = [lab for lab in new_labels if lab in labels]
    old = np.ix_([0, 1] + [2 + labels.index(lab) for lab in keep],
                 _columns(model.state_slice(labels.index(lab) + 1) for lab in keep))
    new = np.ix_([0, 1] + [2 + new_labels.index(lab) for lab in keep],
                 _columns(new_model.state_slice(new_labels.index(lab) + 1) for lab in keep))
    new_z = np.zeros((new_model.m + 2, new_model.n))
    new_z[new] = z.reshape(model.m + 2, model.n)[old]
    if isinstance(event, JoinEvent):
        new_z[0, new_model.state_slice(new_labels.index(event.label) + 1)] = event.initial_state
    return new_model, policy, new_gains, new_z.ravel(), new_labels, report


class _SegmentMap:
    """One RK4 step of a segment as a single matrix.

    The stepped vector is y = [z; s; e].  s holds [sin(omega t + phi);
    cos(omega t + phi)] of every sinusoid channel, a constant c being the
    sinusoid c sin(0 t + pi/2); its rows of ``step`` rotate it by omega dt,
    which is exact, so these inputs at t, t + dt/2 and t + dt are columns of
    the same matvec.  e holds the per-step values: the noise draws [w; v] of
    the active families, then the piecewise channels at t, at t + dt/2 and
    at t + dt.  One step is y[:len(step)] += step @ y.
    """

    def __init__(self, model, gains, labels, signals, noise: NoiseSpec, z, t0, dt):
        m_mat, g_u, g_w, g_v = obs_mod.closed_loop_matrices(model, gains)
        # amplitude, frequency and phase of every input channel of the current
        # label set, zero where no sinusoid or constant drives it
        amp, freq, phase = np.zeros(model.k), np.zeros(model.k), np.zeros(model.k)
        self.pieces = []
        signals = signals or {}
        for pos, lab in enumerate(labels):
            sl = model.input_slice(pos + 1)
            sig = signals.get(lab)
            if sig is None:
                continue
            width = sl.stop - sl.start
            probe = sig.evaluate(0.0)
            if probe.shape != (width,):
                raise DimensionError(
                    f"input signal for agent {lab} yields shape {probe.shape}, "
                    f"expected ({width},)")
            if isinstance(sig, ConstantInput):
                amp[sl], phase[sl] = probe, math.pi / 2.0
            elif isinstance(sig, SinusoidInput):
                amp[sl] = np.asarray(sig.amplitude, float)
                freq[sl] = sig.frequency
                phase[sl] = np.asarray(sig.phase, float)
            else:
                self.pieces.append((sl, sig))
        dim = len(z)
        families = [(g_fam, bound) for g_fam, bound in ((g_w, noise.process),
                                                        (g_v, noise.measurement))
                    if bound > 0]
        self.bounds = np.repeat([bound for _, bound in families],
                                [g_fam.shape[1] for g_fam, _ in families])
        sin_ch = np.flatnonzero(amp)
        pw_ch = [c for sl, _ in self.pieces for c in range(sl.start, sl.stop)]
        # input columns in order: sinusoid channels, piecewise channels, then
        # the active noise channels
        g = np.hstack([g_u[:, sin_ch], g_u[:, pw_ch]] + [g_fam for g_fam, _ in families])
        d, g0, g_half, g1, psi = rk4_step_map(m_mat, dt, g)
        del m_mat
        n_s, n_pw, n_noise = len(sin_ch), len(pw_ch), len(self.bounds)
        rows = dim + 2 * n_s
        width = rows + n_noise + 3 * n_pw
        if width == dim:
            self.step = d
        else:
            self.step = np.zeros((rows, width))
            self.step[:dim, :dim] = d
        del d
        step, z_rows = self.step, slice(0, dim)
        s_sin, s_cos = slice(dim, rows, 2), slice(dim + 1, rows, 2)
        # u_c(t + tau) = a_c (cos(omega tau) s_sin + sin(omega tau) s_cos)
        amp = amp[sin_ch]
        wt = np.outer(freq[sin_ch], (0.0, dt / 2.0, dt))
        for stage, gam in enumerate((g0, g_half, g1)):
            step[z_rows, s_sin] += gam[:, :n_s] * amp * np.cos(wt[:, stage])
            step[z_rows, s_cos] += gam[:, :n_s] * amp * np.sin(wt[:, stage])
            first = rows + n_noise + stage * n_pw
            step[z_rows, first:first + n_pw] = gam[:, n_s:n_s + n_pw]
        for r_sin, wh in zip(range(dim, rows, 2), wt[:, 2]):
            step[r_sin, r_sin] = step[r_sin + 1, r_sin + 1] = -2.0 * math.sin(wh / 2.0) ** 2
            step[r_sin, r_sin + 1] = math.sin(wh)
            step[r_sin + 1, r_sin] = -math.sin(wh)
        step[z_rows, rows:rows + n_noise] = psi[:, g.shape[1] - n_noise:]
        self.y = np.zeros(width)
        self.y[z_rows] = z
        theta = freq[sin_ch] * t0 + phase[sin_ch]
        self.y[s_sin] = np.sin(theta)
        self.y[s_cos] = np.cos(theta)
        self.dt = dt

    def forcing(self, rng, k0, steps):
        """The e rows of the next ``steps`` steps, the first at step k0; the
        noise is drawn in one call, which consumes rng exactly as one
        ``Generator.uniform`` call per family and step would."""
        lo, hi = -self.bounds, self.bounds
        parts = [lo + (hi - lo) * rng.random((steps, len(self.bounds)))]
        if self.pieces:
            dt = self.dt
            parts += [np.array([np.concatenate([sig.evaluate(k * dt + tau)
                                                for _, sig in self.pieces])
                                for k in range(k0, k0 + steps)])
                      for tau in (0.0, 0.5 * dt, dt)]
        return np.hstack(parts)

    def advance(self, y, ext, k0, check=False):
        """Step y once per row of ``ext``, the first step at step k0; with
        ``check``, raise NonFiniteError at the first non-finite state."""
        step, dot = self.step, np.dot
        head, tail = y[:len(step)], y[len(step):]
        fill = len(tail) > 0
        inc = np.empty(len(head))
        for j in range(len(ext)):
            if fill:
                tail[...] = ext[j]
            dot(step, y, out=inc)
            head += inc
            if check and not np.all(np.isfinite(head)):
                raise NonFiniteError(
                    f"state became non-finite at t={(k0 + j) * self.dt + self.dt:.6g}")


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------

def _all_labels(cfg: ScenarioConfig):
    """Every label of the run, sorted, and each one's state dimension, which
    a label keeps however often it leaves and rejoins."""
    dims = dict(zip(cfg.model.agents, cfg.model.state_dims))
    for event in cfg.events:
        if isinstance(event, JoinEvent):
            dim = dims.setdefault(event.label, event.a_block.shape[0])
            if dim != event.a_block.shape[0]:
                raise DomainError(f"agent label {event.label} joins with state dimension "
                                  f"{event.a_block.shape[0]}, but has dimension {dim}")
    return tuple(sorted(dims)), dims


def _gain_snapshot(t, labels, gains: ObserverGains, report):
    return {
        "time": t,
        "labels": list(labels),
        "mu": gains.mu,
        "input_mode": gains.input_mode,
        "luenberger": {str(lab): gains.luenberger[pos + 1].tolist()
                       for pos, lab in enumerate(labels)},
        "weights": {str(lab): gains.weights[pos + 1].tolist()
                    for pos, lab in enumerate(labels)},
        "report": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                   for k, v in report.items()},
    }


def run_scenario(cfg: ScenarioConfig) -> SimulationTrace:
    """Integrate one scenario and return its trace.

    Event times are snapped to the step grid (the snap is logged); at an
    event the simulator rebuilds the model, gains and estimate vectors and
    continues on the same grid, so the sample recorded at the event time
    already reflects the edited network.
    """
    model = cfg.model
    policy = cfg.policy
    labels = tuple(model.agents)
    ordering = _validate_model_for_run(model)
    gains, report = resolve_gains(model, policy, labels)
    rng = np.random.default_rng(cfg.seed)

    steps = cfg.t_end / cfg.dt
    if steps > 2 ** 53:  # beyond it a step index k is no longer exact as a float
        raise DomainError(f"dt={cfg.dt} is too small for t_end={cfg.t_end}: "
                          f"{steps:.3g} steps exceed 2**53")
    total_steps = int(round(steps))
    if total_steps < 1:
        raise DomainError("t_end shorter than one step")
    event_steps = []
    events_log = []
    for event in cfg.events:
        k = int(round(event.time / cfg.dt))
        k = min(max(k, 1), total_steps - 1)
        snap = k * cfg.dt - event.time
        event_steps.append(k)
        events_log.append({
            "time": k * cfg.dt,
            "requested_time": event.time,
            "snap": snap,
            "kind": "join" if isinstance(event, JoinEvent) else "leave",
            "label": event.label,
        })
    if any(k2 <= k1 for k1, k2 in zip(event_steps, event_steps[1:])):
        raise DomainError("events collapse onto the same grid step; reduce dt")

    all_labels, dims = _all_labels(cfg)
    col_of = _label_columns(all_labels, dims)
    n_total = sum(dims.values())

    record_idx = np.union1d(np.arange(0, total_steps + 1, cfg.record_every),
                            event_steps + [total_steps]).tolist()
    rec_pos = {k: idx for idx, k in enumerate(record_idx)}
    n_rec = len(record_idx)
    width = len(all_labels)
    n_state = (width + 2) * n_total

    # the trace in trace_columns order: t, the state block, then the pair
    # norms (estimator-major), the bar norms and E_norm
    table = np.full((n_rec, 1 + n_state + width * width + width + 1), np.nan)
    times = table[:, 0]
    times[:] = [k * cfg.dt for k in record_idx]
    # rec[s] is the segment state z laid out as (m + 2) x n, widened to every
    # label: row 0 is x, row 1 xbar, row 2 + a the estimate of all_labels[a]
    rec = table[:, 1:1 + n_state]
    rec.shape = (n_rec, width + 2, n_total)  # raises rather than copy
    norms = table[:, 1 + n_state:]

    z = np.zeros((model.m + 2) * model.n)
    z_rows = z.reshape(model.m + 2, model.n)
    if cfg.initial_state is not None:
        z_rows[0] = cfg.initial_state
    if cfg.initial_estimates != "zero":
        for lab, vec in cfg.initial_estimates.get("xbar", {}).items():
            z_rows[1, model.state_slice(lab)] = vec
        for lab, vec in cfg.initial_estimates.get("xhat", {}).items():
            z_rows[1 + lab] = vec
    gain_log = [_gain_snapshot(0.0, labels, gains, report)]

    pending = list(zip(event_steps, cfg.events))
    seg_start = 0
    while True:
        seg_end = pending[0][0] if pending else total_steps
        at = np.ix_([0, 1] + [2 + all_labels.index(lab) for lab in labels],
                    _columns(col_of[lab] for lab in labels))
        stops = [k for k in record_idx if seg_start <= k <= seg_end]
        # a linear map never turns a non-finite entry finite again, so the
        # check at each record point sees every failure; the failing stride
        # is rerun step by step to name its first non-finite step.  Overflow in
        # building or stepping the map is reported as that, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            seg = _SegmentMap(model, gains, labels, cfg.inputs, cfg.noise, z,
                              seg_start * cfg.dt, cfg.dt)
            y, dim = seg.y, len(z)
            for k0, k1 in zip(stops, stops[1:]):
                rec[rec_pos[k0]][at] = y[:dim].reshape(model.m + 2, model.n)
                ext = seg.forcing(rng, k0, k1 - k0)
                start = y.copy()
                seg.advance(y, ext, k0)
                if not np.all(np.isfinite(y)):
                    seg.advance(start, ext, k0, check=True)
        z = y[:dim]
        if not pending:
            rec[-1][at] = z.reshape(model.m + 2, model.n)
            break
        k_event, event = pending.pop(0)
        model, policy, gains, z, labels, report = apply_event(
            model, policy, z, event, labels)
        gain_log.append(_gain_snapshot(k_event * cfg.dt, labels, gains, report))
        seg_start = k_event

    x_rec, xbar_rec = rec[:, 0], rec[:, 1]
    xhat_rec = {lab: rec[:, 2 + a] for a, lab in enumerate(all_labels)}
    pair_errors = {}
    bar_errors = {}
    total_sq = np.zeros(n_rec)
    # overflow is reported below as a NonFiniteError, not as a warning
    with np.errstate(over="ignore"):
        for b, j in enumerate(all_labels):
            xj = x_rec[:, col_of[j]]
            bar = bar_errors[j] = norms[:, width * width + b]
            bar[:] = np.linalg.norm(xbar_rec[:, col_of[j]] - xj, axis=1)
            total_sq += np.where(np.isnan(bar), 0.0, bar ** 2)
            for a, i in enumerate(all_labels):
                err = pair_errors[(i, j)] = norms[:, a * width + b]
                err[:] = np.linalg.norm(xhat_rec[i][:, col_of[j]] - xj, axis=1)
                total_sq += np.where(np.isnan(err), 0.0, err ** 2)
    total_error = np.sqrt(total_sq, out=norms[:, -1])
    if not np.all(np.isfinite(total_error)):
        t_bad = times[~np.isfinite(total_error)][0]
        raise NonFiniteError(f"recomputed error norm is not finite at t={t_bad:.6g}")

    return SimulationTrace(
        labels=all_labels,
        state_dims=dims,
        table=table,
        times=times,
        x=x_rec,
        xbar=xbar_rec,
        xhat=xhat_rec,
        pair_errors=pair_errors,
        bar_errors=bar_errors,
        total_error=total_error,
        events=events_log,
        gain_log=gain_log,
        meta={"dt": cfg.dt, "t_end": cfg.t_end, "seed": cfg.seed,
              "record_every": cfg.record_every, "ordering": list(ordering)},
    )


# ----------------------------------------------------------------------
# trace summaries and checks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSummary:
    pair_final: dict
    pair_sup: dict
    total_final: float
    total_sup: float


def error_norms(trace: SimulationTrace) -> TraceSummary:
    """Per-pair final and supremum error norms, and the same for the total."""
    pair_final = {}
    pair_sup = {}
    for key, series in trace.pair_errors.items():
        finite = series[~np.isnan(series)]
        pair_final[key] = float(series[-1]) if not np.isnan(series[-1]) else None
        pair_sup[key] = float(finite.max()) if finite.size else None
    return TraceSummary(
        pair_final=pair_final,
        pair_sup=pair_sup,
        total_final=float(trace.total_error[-1]),
        total_sup=float(np.nanmax(trace.total_error)),
    )


def roundoff_floor(trace: SimulationTrace) -> np.ndarray:
    """Double-precision floor for the recomputed error norms.

    Errors are differences of stored states, so once the plant magnitude
    dwarfs the true error the recomputed norm saturates near machine epsilon
    times the state magnitude; the multiplier covers the mild step-to-step
    accumulation observed on unstable plants.
    """
    return FLOAT_FLOOR_SAFETY * MACHINE_EPS * trace.state_magnitude()


def _worst_excess(trace: SimulationTrace, bound):
    """(ok, worst) for the error norm against ``bound`` along the trace, the
    excess in units of the local bound."""
    excess = (trace.total_error - bound) / np.maximum(bound, 1e-300)
    worst = float(np.nanmax(excess))
    return worst <= 0.0, worst


def check_exponential_envelope(trace: SimulationTrace, kappa: float, eta: float):
    """Verify ||E(t)|| <= kappa exp(-eta t) ||E(0)|| up to the float floor.

    The floor only matters once the envelope falls below machine precision
    relative to the plant magnitude (unstable plants reach that within a
    simulated minute); before that the exponential term dominates and the
    check is exact up to a relative slack of 1e-6.  Returns (ok, worst_excess).
    """
    e0 = trace.total_error[0]
    bound = kappa * np.exp(-eta * trace.times) * e0 * (1.0 + 1e-6) \
        + roundoff_floor(trace)
    return _worst_excess(trace, bound)


def check_iss_bound(trace: SimulationTrace, kappa: float, eta: float,
                    b_norm: float, u_bar: float):
    """Verify the exponential-plus-offset error bound, with 10 % slack, along
    a trace.  Returns (ok, worst_excess)."""
    e0 = trace.total_error[0]
    bound = obs_mod.iss_error_bound(kappa, eta, e0, b_norm, u_bar, trace.times)
    return _worst_excess(trace, bound * (1.0 + 0.10))


# ----------------------------------------------------------------------
# CSV / metadata output
# ----------------------------------------------------------------------

def trace_columns(trace: SimulationTrace):
    """Column names in file order (states, estimates, then error norms)."""
    cols = ["t"]
    for lab in trace.labels:
        cols += [f"x[{lab}][{c + 1}]" for c in range(trace.state_dims[lab])]
    for lab in trace.labels:
        cols += [f"xbar[{lab}][{c + 1}]" for c in range(trace.state_dims[lab])]
    for i in trace.labels:
        for j in trace.labels:
            cols += [f"xhat[{i}][{j}][{c + 1}]" for c in range(trace.state_dims[j])]
    for i in trace.labels:
        for j in trace.labels:
            cols.append(f"err[{i}][{j}]")
    for j in trace.labels:
        cols.append(f"errbar[{j}]")
    cols.append("E_norm")
    return cols


#: fewest trace values worth a writer process of their own.  A fork, its
#: wait and its part file cost about 3 ms at 70-110 MB RSS on a 2-core VM,
#: the time to format about 2,500 values, so a writer spends about 4 % on them.
VALUES_PER_WRITER = 2 ** 16


def _write_rows(fh, rows) -> None:
    # tolist() yields Python floats, whose repr is the shortest round-trip form
    fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in rows)


def _writer_count(values: int) -> int:
    """One writer per usable CPU, each with at least VALUES_PER_WRITER values."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), values // VALUES_PER_WRITER))


def _fork_writer(part, rows) -> int:
    """Fork a process that writes ``rows`` to ``part``; returns its pid.

    The child calls only ``tolist``, ``repr`` and file writes, so no BLAS
    routine or lock is touched after the fork, and it always leaves through
    ``os._exit``: it never returns into the caller and never flushes the
    stdout or file buffers it inherited.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        _write_rows(part, rows)
        part.flush()
        status = 0
    finally:
        os._exit(status)


def write_trace_csv(trace: SimulationTrace, path, subsample: int = 1) -> None:
    """Write the trace as CSV, formatting row ranges in parallel processes.

    The parent writes the header and the first range to a ``.part`` file
    next to ``path`` while each further range goes from its own forked
    process to an unnamed temporary file in the same directory; the parts
    are appended in order once every process has exited 0, so the bytes do
    not depend on the CPU count.  Only the finished file is renamed to
    ``path``; on any failure the ``.part`` file is removed.
    """
    matrix = trace.table[::subsample]
    # keep the final sample even when subsampling skips it
    if (len(trace.times) - 1) % subsample != 0:
        matrix = np.vstack([matrix, trace.table[-1]])
    writers = _writer_count(matrix.size)
    bounds = [len(matrix) * k // writers for k in range(writers + 1)]
    parts, pids = [], []
    path = Path(path)
    unfinished = path.with_name(path.name + ".part")
    fh = open(unfinished, "w")
    try:
        with fh, ExitStack() as stack:
            fh.write(",".join(trace_columns(trace)) + "\n")
            try:
                for lo, hi in zip(bounds[1:-1], bounds[2:]):
                    parts.append(stack.enter_context(
                        tempfile.TemporaryFile("w+", dir=path.parent)))
                    pids.append(_fork_writer(parts[-1], matrix[lo:hi]))
                _write_rows(fh, matrix[:bounds[1]])
            finally:
                codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
            failed = [code for code in codes if code]
            if failed:
                raise OSError(f"a trace writer process exited with status {failed[0]}")
            for part in parts:
                part.seek(0)
                shutil.copyfileobj(part, fh)
        os.replace(unfinished, path)
    except BaseException:
        unfinished.unlink()
        raise


def read_trace_csv(path):
    """Columns and data of a trace file written by :func:`write_trace_csv`."""
    text = Path(path).read_text().strip().splitlines()
    header = text[0].split(",")
    data = np.array([[float(tok) for tok in line.split(",")] for line in text[1:]])
    return header, data


def policy_to_json(policy: GainPolicy) -> dict:
    luenberger = policy.luenberger
    if isinstance(luenberger, dict):
        luenberger = {str(k): v.tolist() for k, v in luenberger.items()}
    return {"margin": policy.margin, "mu": policy.mu, "m_bar": policy.m_bar,
            "input_mode": policy.input_mode, "luenberger": luenberger,
            "weights": policy.weights}


def policy_from_json(obj: dict) -> GainPolicy:
    """The policy of a ``gains`` section, whose keys are GainPolicy's fields."""
    refuse_unknown_keys(obj, [f.name for f in fields(GainPolicy)], "gains")
    return GainPolicy(**obj)


def event_to_json(event) -> dict:
    if isinstance(event, JoinEvent):
        out = {"time": event.time, "join": {
            "label": event.label,
            "A": event.a_block.tolist(),
            "C": event.c_block.tolist(),
            "state": event.initial_state.tolist(),
            "state_couplings": [[i, j, b.tolist()] for i, j, b in event.state_couplings],
            "output_couplings": [[i, j, b.tolist()] for i, j, b in event.output_couplings],
            "communication": [list(e) for e in event.communication],
        }}
        if event.b_block is not None:
            out["join"]["B"] = event.b_block.tolist()
        if event.luenberger is not None:
            out["join"]["luenberger"] = event.luenberger.tolist()
        return out
    if isinstance(event, LeaveEvent):
        out = {"time": event.time, "leave": {"label": event.label}}
        if event.communication is not None:
            out["leave"]["communication"] = [list(e) for e in event.communication]
        return out
    raise TypeError(f"unknown event {event!r}")


def _labelled(triples, what):
    """The (i, j, x) triples of a file, with i and j integer labels."""
    triples = as_list(triples, f"{what}s")
    if not all(isinstance(t, list) and len(t) == 3 for t in triples):
        raise InputError(f"{what}s must be [i, j, value] triples")
    return tuple((as_int(i, what), as_int(j, what), x) for i, j, x in triples)


def _comm_from_json(edges):
    return tuple((s, d, as_number(w, "communication weight"))
                 for s, d, w in _labelled(edges, "communication endpoint"))


_EVENT_KEYS = {"join": ("label", "A", "B", "C", "state", "state_couplings",
                        "output_couplings", "communication", "luenberger"),
               "leave": ("label", "communication")}
_EVENT_NEEDS = {"join": ("label", "A", "C", "state"), "leave": ("label",)}


def event_from_json(obj: dict):
    if not (isinstance(obj, dict) and ("join" in obj or "leave" in obj)):
        raise InputError("event object needs a 'join' or 'leave' section")
    kind = "join" if "join" in obj else "leave"
    refuse_unknown_keys(obj, ("time", kind), "event", required=("time", kind))
    spec = obj[kind]
    refuse_unknown_keys(spec, _EVENT_KEYS[kind], kind, required=_EVENT_NEEDS[kind])
    time = as_number(obj["time"], "event time")
    if kind == "join":
        return JoinEvent(
            time=time, label=as_int(spec["label"], "join label"),
            a_block=spec["A"], c_block=spec["C"], initial_state=spec["state"],
            b_block=spec.get("B"),
            state_couplings=_labelled(spec.get("state_couplings", []), "coupling label"),
            output_couplings=_labelled(spec.get("output_couplings", []), "coupling label"),
            communication=_comm_from_json(spec.get("communication", [])),
            luenberger=spec.get("luenberger"))
    comm = spec.get("communication")
    return LeaveEvent(time=time, label=as_int(spec["label"], "leave label"),
                      communication=None if comm is None else _comm_from_json(comm))


def scenario_to_json(cfg: ScenarioConfig) -> dict:
    out = {
        "kind": "mas",
        "model": mas_mod.model_to_json(cfg.model),
        "gains": policy_to_json(cfg.policy),
        "noise": {"process": cfg.noise.process, "measurement": cfg.noise.measurement},
        "events": [event_to_json(e) for e in cfg.events],
        "t_end": cfg.t_end, "dt": cfg.dt, "seed": cfg.seed,
        "record_every": cfg.record_every,
    }
    if cfg.inputs:
        out["inputs"] = {str(lab): signal_to_json(sig) for lab, sig in cfg.inputs.items()}
    if cfg.initial_state is not None:
        out["initial_state"] = cfg.initial_state.tolist()
    if cfg.initial_estimates != "zero":
        out["initial_estimates"] = {part: {str(k): v.tolist() for k, v in spec.items()}
                                    for part, spec in cfg.initial_estimates.items()}
    return out


def run_settings_from_json(obj: dict) -> dict:
    """The ScenarioConfig fields that every scenario kind reads alike."""
    inputs = obj.get("inputs")
    if inputs is not None:
        inputs = {lab: signal_from_json(sig) for lab, sig in label_map(inputs, "inputs").items()}
    noise = obj.get("noise", {})
    refuse_unknown_keys(noise, ("process", "measurement"), "noise")
    return dict(inputs=inputs, noise=NoiseSpec(**noise), t_end=obj["t_end"], dt=obj["dt"],
                seed=obj.get("seed", 0), record_every=obj.get("record_every", 1))


def scenario_from_json(obj: dict) -> ScenarioConfig:
    if obj.get("kind", "mas") != "mas":
        raise InputError(f"not a mas scenario: kind={obj.get('kind')!r}")
    return ScenarioConfig(
        model=mas_mod.model_from_json(obj["model"]),
        policy=policy_from_json(obj.get("gains", {})),
        events=tuple(event_from_json(e) for e in as_list(obj.get("events", []), "events")),
        initial_state=obj.get("initial_state"),
        initial_estimates=obj.get("initial_estimates", "zero"),
        **run_settings_from_json(obj),
    )


def save_scenario(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_json(cfg), indent=2) + "\n")


def write_metadata(path, trace: SimulationTrace, config_json=None) -> None:
    summary = error_norms(trace)
    payload = {
        "format": "masobs-trace-1",
        "meta": trace.meta,
        "events": trace.events,
        "gains": trace.gain_log,
        "summary": {
            "total_final": summary.total_final,
            "total_sup": summary.total_sup,
            "pair_final": {f"{i}->{j}": v for (i, j), v in summary.pair_final.items()},
            "pair_sup": {f"{i}->{j}": v for (i, j), v in summary.pair_sup.items()},
        },
    }
    if config_json is not None:
        payload["config"] = config_json
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
