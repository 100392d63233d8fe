"""Distributed observer: per-agent estimators, gain design, error dynamics.

Each agent i integrates an estimate ``xhat^(i)`` of the whole MAS state plus
an auxiliary own-state estimate ``xbar_i`` driven by its local output.  The
estimate of agent j's state held by agent i tracks agent j's auxiliary
signal through leader-follower consensus over the communication graph,
scaled by a coupling gain ``mu``.

Estimation-error coordinates are always ordered as

    E_j = [xbar_j - x_j; xhat_j^(1) - x_j; ...; xhat_j^(m) - x_j]

with the per-target blocks E_j stacked in the shared topological ordering
of the interaction graphs; the stacked error then obeys dE/dt = R E with R
block lower triangular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import graphs, mas as mas_mod
from .errors import (ConnectivityError, DimensionError, DomainError, InputError,
                     UnobservableError)
from .graphs import DirectedGraph, augment, grounded_partition
from .mas import MasModel, check_topological_consistency, is_observable

HURWITZ_TOL = 1e-9

WEIGHT_RULES = {
    "binary": graphs.binary_weights,
    "normalized-in": graphs.normalized_in_weights,
    "normalized-out": graphs.normalized_out_weights,
}
#: the rules that select the coupling gain mu (see :func:`design_gains`)
MU_RULES = ("global", "undirected", "directed")
#: "full": every agent knows the whole input; "own-only": only its own
INPUT_MODES = ("full", "own-only")


# ----------------------------------------------------------------------
# gain containers
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ObserverGains:
    """Everything the observer needs beyond the plant itself.

    ``luenberger[i]`` is agent i's output-injection gain, ``weights[j]`` the
    (m+1) x (m+1) consensus-weight matrix aligned to the augmented graph for
    target j (row/column 0 is the virtual leader), ``mu`` the coupling gain.
    ``input_mode`` is "full" when every agent knows the whole input vector
    and "own-only" when it only knows its own input.
    """

    luenberger: "MappingProxyType"
    mu: float
    weights: "MappingProxyType"
    input_mode: str = "full"

    def __post_init__(self):
        if self.mu <= 0:
            raise DomainError(f"coupling gain must be positive, got {self.mu}")
        if self.input_mode not in INPUT_MODES:
            raise InputError(f"unknown input mode {self.input_mode!r}")
        lg = {i: mas_mod._freeze(f) for i, f in dict(self.luenberger).items()}
        ws = {j: mas_mod._freeze(w) for j, w in dict(self.weights).items()}
        object.__setattr__(self, "luenberger", MappingProxyType(lg))
        object.__setattr__(self, "weights", MappingProxyType(ws))
        object.__setattr__(self, "mu", float(self.mu))


def validate_gains(model: MasModel, gains: ObserverGains) -> None:
    """Check shapes, Hurwitz Luenberger loops, and weight/edge compatibility."""
    m = model.m
    for i in model.agents:
        f = gains.luenberger.get(i)
        if f is None:
            raise DomainError(f"missing Luenberger gain for agent {i}")
        n_i = model.state_dims[i - 1]
        p_i = model.output_dims[i - 1]
        if f.shape != (n_i, p_i):
            raise DomainError(f"gain for agent {i} has shape {f.shape}, expected {(n_i, p_i)}")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            loop = model.a_blocks[(i, i)] - f @ model.c_blocks[(i, i)]
        if not np.all(np.isfinite(loop)):
            raise DomainError(f"A - F C overflows for agent {i}")
        if np.max(np.linalg.eigvals(loop).real) >= 0.0:
            raise DomainError(f"A - F C is not Hurwitz for agent {i}")
    gc = model.communication_graph
    for j in model.agents:
        w = gains.weights.get(j)
        if w is None:
            raise DomainError(f"missing consensus weights for target {j}")
        if w.shape != (m + 1, m + 1):
            raise DomainError(f"weights for target {j} must be {(m + 1, m + 1)}")
        # must be a valid weighting of the augmented graph for target j
        augment(gc, j, 1.0).with_weights(w)


def consensus_weight_set(gc: DirectedGraph, rule="binary"):
    """Per-target consensus weights for every augmented graph of ``gc``.

    ``rule`` is one of "binary", "normalized-in", "normalized-out".
    """
    try:
        build = WEIGHT_RULES[rule]
    except KeyError:
        raise InputError(f"unknown weight rule {rule!r}") from None
    out = {}
    for j in gc.nodes:
        ag = augment(gc, j, 1.0)
        out[j] = build(ag)
    return out


# ----------------------------------------------------------------------
# Luenberger gain design
# ----------------------------------------------------------------------

def design_luenberger_gain(a, c, margin: float = 1.0) -> np.ndarray:
    """Deterministic output-injection gain with a guaranteed stability margin.

    Riccati design on the margin-shifted pair: F = P C^T with P the
    stabilising solution of the filter Riccati equation for
    (A + margin I, C) and unit weights.  A + margin I - F C is then Hurwitz,
    so every eigenvalue of A - F C has real part below ``-margin``.
    """
    # scipy loads on first use, so `import masobs` and explicit gains skip it
    import scipy.linalg

    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if not (math.isfinite(margin) and margin > 0):
        raise DomainError(f"margin must be finite and positive, got {margin}")
    if not is_observable(a, c):
        raise UnobservableError("pair (A, C) is not observable")
    n = a.shape[0]
    shifted = a + margin * np.eye(n)
    try:
        # a huge block overflows inside the solver, which then raises
        with np.errstate(all="ignore"):
            p = scipy.linalg.solve_continuous_are(shifted.T, c.T, np.eye(n), np.eye(c.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"no Riccati gain for margin {margin}: {exc}") from None
    return p @ c.T


# ----------------------------------------------------------------------
# coupling gain selection
# ----------------------------------------------------------------------

def _next_integer_above(bound: float) -> int:
    """Smallest integer strictly greater than ``bound``."""
    if not math.isfinite(bound):
        raise DomainError(f"coupling gain bound {bound} is not a finite float")
    return int(math.floor(bound)) + 1


def spectral_radius(matrix) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.atleast_2d(matrix)))))


def _min_grounded_modulus(model: MasModel, weights) -> float:
    """min_{q,j} |eig_q(S_j)| over the grounded follower blocks of every target.

    A (numerically) singular follower block means the communication graph
    is not strongly connected.
    """
    min_mod = np.inf
    scale = 0.0
    for j in model.agents:
        s = grounded_partition(weights[j]).s_matrix
        eigs = np.linalg.eigvals(s)
        min_mod = min(min_mod, float(np.min(np.abs(eigs))))
        scale = max(scale, float(np.max(np.abs(eigs))) if eigs.size else 0.0)
    if min_mod <= 1e-9 * max(1.0, scale):
        raise ConnectivityError(
            "a grounded follower block is singular; the communication graph "
            "is not strongly connected")
    return min_mod


def coupling_bound_undirected(rho_max: float, m_bar: int) -> float:
    """The bound that :func:`coupling_gain_undirected` exceeds."""
    if rho_max < 0:
        raise DomainError("spectral radius bound must be nonnegative")
    if m_bar < 2:
        raise DomainError("agent cap must be at least 2")
    try:
        return rho_max * ((m_bar * m_bar - m_bar + 4) / 4.0) ** (m_bar - 1) * m_bar
    except OverflowError:
        raise DomainError(f"the undirected coupling gain bound for m_bar={m_bar} "
                          "exceeds the float range") from None


def coupling_bound_directed(rho_max: float, m_bar: int) -> float:
    """The bound that :func:`coupling_gain_directed` exceeds."""
    if rho_max < 0:
        raise DomainError("spectral radius bound must be nonnegative")
    if m_bar < 1:
        raise DomainError("agent cap must be at least 1")
    return rho_max / grounded_spectrum_bound_directed(m_bar)


def coupling_gain_undirected(rho_max: float, m_bar: int) -> int:
    """Uniform integer coupling gain for undirected graphs with binary weights.

    Only needs the largest block spectral radius and the maximum number of
    allowable agents, so every agent can evaluate it locally.
    """
    return _next_integer_above(coupling_bound_undirected(rho_max, m_bar))


def coupling_gain_directed(rho_max: float, m_bar: int) -> int:
    """Uniform integer coupling gain for strongly connected directed graphs
    with normalized weights."""
    return _next_integer_above(coupling_bound_directed(rho_max, m_bar))


def grounded_spectrum_bound_undirected(lambda2: float, m: int) -> float:
    """Lower bound on the smallest grounded-Laplacian eigenvalue over all
    targets, for an undirected connected graph with binary weights."""
    if m < 1:
        raise DomainError("need at least one agent")
    if lambda2 <= 0:
        return 0.0
    return (1.0 / m) * (lambda2 / (lambda2 + 1.0)) ** (m - 1)


def grounded_spectrum_bound_directed(m: int) -> float:
    """Lower bound on the smallest grounded eigenvalue modulus over all
    targets, for a strongly connected digraph with normalized weights."""
    if m < 1:
        raise DomainError("need at least one agent")
    try:
        inverse = 1.0 / math.factorial(m + 1)
    except OverflowError:
        raise DomainError(f"the directed grounded spectrum bound for m={m} "
                          "is below the float range") from None
    # 1 - (1 - 1/(m+1)!)**(1/m), evaluated in a cancellation-safe form
    return -math.expm1(math.log1p(-inverse) / m)


def design_gains(model: MasModel, luenberger="auto", margin: float = 1.0,
                 weights="binary", mu="global", m_bar=None,
                 input_mode: str = "full"):
    """Resolve a gain policy against a concrete model.

    ``weights`` names a rule of :data:`WEIGHT_RULES`; ``mu="global"`` takes
    the smallest integer above max_j rho(A_jj) / min_{q,j} |eig_q(S_j)|.
    Returns ``(gains, report)`` where the report records the bound trail
    (spectral radius, bound value, selected mu, weight rule).
    """
    weight_set = consensus_weight_set(model.communication_graph, weights)
    if luenberger == "auto":
        gain_map = {}
        for i in model.agents:
            try:
                gain_map[i] = design_luenberger_gain(
                    model.a_blocks[(i, i)], model.c_blocks[(i, i)], margin=margin)
            except UnobservableError as exc:
                raise UnobservableError(f"agent {i}: {exc}") from exc
    else:
        gain_map = {i: np.asarray(f, dtype=float) for i, f in dict(luenberger).items()}
    rho_max = max(spectral_radius(model.a_blocks[(j, j)]) for j in model.agents)
    report = {"rho_max": rho_max, "weight_rule": weights, "mu_policy": str(mu)}
    if mu == "global":
        min_mod = _min_grounded_modulus(model, weight_set)
        report["min_grounded_eigenvalue"] = min_mod
        report["mu_bound"] = rho_max / min_mod
        mu_value = _next_integer_above(report["mu_bound"])
    elif mu in MU_RULES:
        if m_bar is None:
            raise DomainError(f"the {mu} policy needs the agent cap m_bar")
        bound_of = coupling_bound_undirected if mu == "undirected" else coupling_bound_directed
        report["m_bar"] = m_bar
        report["mu_bound"] = bound_of(rho_max, m_bar)
        mu_value = _next_integer_above(report["mu_bound"])
    else:
        mu_value = float(mu)
        report["mu_bound"] = None
    report["mu"] = mu_value
    gains = ObserverGains(luenberger=gain_map, mu=mu_value, weights=weight_set,
                          input_mode=input_mode)
    validate_gains(model, gains)
    return gains, report


# ----------------------------------------------------------------------
# observer state and derivative
# ----------------------------------------------------------------------

@dataclass
class ObserverState:
    """Estimates held by all agents: xhat[i] is agent i's stacked estimate of
    the whole MAS state, xbar[i] its auxiliary own-state estimate."""

    xhat: dict
    xbar: dict


def zero_observer_state(model: MasModel) -> ObserverState:
    return ObserverState(
        xhat={i: np.zeros(model.n) for i in model.agents},
        xbar={i: np.zeros(model.state_dims[i - 1]) for i in model.agents})


def observer_derivative(model: MasModel, gains: ObserverGains,
                        state: ObserverState, u, y) -> ObserverState:
    """Time derivative of every agent's estimates.

    This is the blockwise reference form of the equations; the simulator
    integrates the matrices of :func:`closed_loop_matrices` instead.

    In "own-only" input mode the cross-agent estimators drop the unknown
    input feedthrough B_jj u_j for j != i, while each agent keeps its own
    input in both its own-state estimator and its auxiliary signal.
    """
    u = np.zeros(model.k) if u is None else np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.shape != (model.k,):
        raise DimensionError(f"input must have shape ({model.k},), got {u.shape}")
    if y.shape != (model.p,):
        raise DimensionError(f"output must have shape ({model.p},), got {y.shape}")
    mu = gains.mu
    full_input = gains.input_mode == "full"
    d_xbar = {}
    d_xhat = {}
    for i in model.agents:
        xhat_i = state.xhat[i]
        xbar_i = state.xbar[i]
        f_i = gains.luenberger[i]
        # auxiliary own-state estimate driven by the local output
        acc = model.a_blocks[(i, i)] @ xbar_i
        if model.input_dims[i - 1]:
            acc = acc + model.b_blocks[i] @ u[model.input_slice(i)]
        for l in model.dynamics_graph.in_neighbors(i):
            acc = acc + model.a_blocks[(i, l)] @ xhat_i[model.state_slice(l)]
        predicted = model.c_blocks[(i, i)] @ xbar_i
        for l in model.sensing_graph.in_neighbors(i):
            predicted = predicted + model.c_blocks[(i, l)] @ xhat_i[model.state_slice(l)]
        d_xbar[i] = acc + f_i @ (y[model.output_slice(i)] - predicted)
        # consensus estimators for every target j
        d_i = np.zeros(model.n)
        comm = model.communication_graph.in_neighbors(i)
        for j in model.agents:
            sl_j = model.state_slice(j)
            xhat_ij = xhat_i[sl_j]
            accj = model.a_blocks[(j, j)] @ xhat_ij
            for l in model.dynamics_graph.in_neighbors(j):
                accj = accj + model.a_blocks[(j, l)] @ xhat_i[model.state_slice(l)]
            if (full_input or j == i) and model.input_dims[j - 1]:
                accj = accj + model.b_blocks[j] @ u[model.input_slice(j)]
            w_j = gains.weights[j]
            cons = np.zeros(len(xhat_ij))
            for l in comm:
                cons = cons + w_j[i, l] * (state.xhat[l][sl_j] - xhat_ij)
            if j == i:
                cons = cons + w_j[i, 0] * (xbar_i - xhat_ij)
            d_i[sl_j] = accj + mu * cons
        d_xhat[i] = d_i
    return ObserverState(xhat=d_xhat, xbar=d_xbar)


# ----------------------------------------------------------------------
# closed-loop matrices
# ----------------------------------------------------------------------

def closed_loop_matrices(model: MasModel, gains: ObserverGains):
    """Affine form of the coupled plant and observer, built block by block.

    Returns ``(M, G_u, G_w, G_v)`` with dz/dt = M z + G_u u + G_w w + G_v v
    for the segment state z = [x; xbar_1..m; xhat^(1)..xhat^(m)], process
    noise w added to dx/dt and measurement noise v added to y.  Viewed as
    ``z.reshape(m + 2, n)``, row 0 of z is x, row 1 the stacked auxiliary
    estimates xbar_i (agent i's in the columns ``model.state_slice(i)``)
    and row 1 + i agent i's estimate xhat^(i) of the whole state.  The blocks
    are the ones :func:`observer_derivative` applies, formed from the same
    products and sums, so each entry equals what that function yields for
    a unit vector.
    """
    n = model.n
    mu = gains.mu
    full_input = gains.input_mode == "full"
    dim = (model.m + 2) * n
    stacked = mas_mod.stack(model)
    m_mat = np.zeros((dim, dim))
    g_u = np.zeros((dim, model.k))
    g_w = np.zeros((dim, n))
    g_v = np.zeros((dim, model.p))
    m_mat[:n, :n] = stacked.a
    g_u[:n] = stacked.b
    g_w[:n] = np.eye(n)

    def bar(i):
        sl = model.state_slice(i)
        return slice(n + sl.start, n + sl.stop)

    def hat(i, j):
        sl = model.state_slice(j)
        return slice((i + 1) * n + sl.start, (i + 1) * n + sl.stop)

    for i in model.agents:
        f_i = gains.luenberger[i]
        sens_in = model.sensing_graph.in_neighbors(i)
        rows = bar(i)
        m_mat[rows, bar(i)] = model.a_blocks[(i, i)] - f_i @ model.c_blocks[(i, i)]
        for l in (i, *sens_in):
            m_mat[rows, model.state_slice(l)] = f_i @ model.c_blocks[(i, l)]
        for l in model.dynamics_graph.in_neighbors(i):
            m_mat[rows, hat(i, l)] = model.a_blocks[(i, l)]
        for l in sens_in:
            m_mat[rows, hat(i, l)] -= f_i @ model.c_blocks[(i, l)]
        g_u[rows, model.input_slice(i)] = model.b_blocks[i]
        g_v[rows, model.output_slice(i)] = f_i
        comm = model.communication_graph.in_neighbors(i)
        for j in model.agents:
            w_j = gains.weights[j]
            eye = np.eye(model.state_dims[j - 1])
            rows = hat(i, j)
            # summed in observer_derivative's order, so the diagonal is bitwise equal
            deg = 0.0
            for l in comm:
                deg = deg + w_j[i, l] * -1.0
                m_mat[rows, hat(l, j)] = mu * w_j[i, l] * eye
            if j == i:
                deg = deg + w_j[i, 0] * -1.0
                m_mat[rows, bar(i)] = mu * w_j[i, 0] * eye
            m_mat[rows, rows] = model.a_blocks[(j, j)] + mu * deg * eye
            for l in model.dynamics_graph.in_neighbors(j):
                m_mat[rows, hat(i, l)] = model.a_blocks[(j, l)]
            if full_input or j == i:
                g_u[rows, model.input_slice(j)] = model.b_blocks[j]
    return m_mat, g_u, g_w, g_v


# ----------------------------------------------------------------------
# error coordinates
# ----------------------------------------------------------------------

def error_dim(model: MasModel) -> int:
    return (model.m + 1) * model.n


def error_vector(model: MasModel, state: ObserverState, x: np.ndarray,
                 ordering=None) -> np.ndarray:
    """Stack [xbar_j - x_j; xhat_j^(1..m) - x_j] over targets in ordering."""
    if ordering is None:
        ordering = check_topological_consistency(model)
    parts = []
    for j in ordering:
        sl = model.state_slice(j)
        parts.append(state.xbar[j] - x[sl])
        for i in model.agents:
            parts.append(state.xhat[i][sl] - x[sl])
    return np.concatenate(parts)


def observer_state_from_errors(model: MasModel, errors: np.ndarray, x: np.ndarray,
                               ordering=None) -> ObserverState:
    """Inverse of :func:`error_vector` for a given true state."""
    if ordering is None:
        ordering = check_topological_consistency(model)
    state = zero_observer_state(model)
    pos = 0
    for j in ordering:
        sl = model.state_slice(j)
        n_j = model.state_dims[j - 1]
        state.xbar[j] = x[sl] + errors[pos:pos + n_j]
        pos += n_j
        for i in model.agents:
            state.xhat[i][sl] = x[sl] + errors[pos:pos + n_j]
            pos += n_j
    return state


def error_derivative(model: MasModel, gains: ObserverGains, state: ObserverState,
                     x: np.ndarray, u=None, process_noise=None,
                     measurement_noise=None, ordering=None) -> np.ndarray:
    """d/dt of the stacked estimation error, through the observer equations."""
    if ordering is None:
        ordering = check_topological_consistency(model)
    y = mas_mod.plant_output(model, x)
    if measurement_noise is not None:
        y = y + measurement_noise
    ds = observer_derivative(model, gains, state, u, y)
    dx = mas_mod.plant_derivative(model, x, u)
    if process_noise is not None:
        dx = dx + process_noise
    parts = []
    for j in ordering:
        sl = model.state_slice(j)
        parts.append(ds.xbar[j] - dx[sl])
        for i in model.agents:
            parts.append(ds.xhat[i][sl] - dx[sl])
    return np.concatenate(parts)


# ----------------------------------------------------------------------
# error-dynamics assembly
# ----------------------------------------------------------------------

def _error_index(model: MasModel, ordering) -> np.ndarray:
    """z-indices of the stacked error E in the order of this module's docstring.

    Entry r * n + c of z estimates plant entry c for every row r >= 1 of
    ``z.reshape(m + 2, n)``, so E = z[est] - z[est % n].
    """
    grid = np.arange((model.m + 2) * model.n).reshape(model.m + 2, model.n)
    return np.concatenate([grid[1:, model.state_slice(j)].ravel() for j in ordering])


@dataclass(frozen=True, eq=False)
class ErrorDynamics:
    """The stacked error matrix R (block lower triangular in ``ordering``)
    and its diagonal block T_j for every target j."""

    t_blocks: "MappingProxyType"
    r: np.ndarray
    ordering: tuple

    def __post_init__(self):
        object.__setattr__(self, "t_blocks",
                           MappingProxyType({k: mas_mod._freeze(v)
                                             for k, v in dict(self.t_blocks).items()}))
        object.__setattr__(self, "r", mas_mod._freeze(self.r))
        object.__setattr__(self, "ordering", tuple(self.ordering))


def assemble_error_dynamics(model: MasModel, gains: ObserverGains) -> ErrorDynamics:
    """R read off :func:`closed_loop_matrices` at the error indices.

    dE/dt = M[est, est] E: the plant rows of M have no estimate columns, and
    the plant columns cancel in the error rows because the observer
    reproduces x when E = 0.
    """
    ordering = check_topological_consistency(model)
    validate_gains(model, gains)
    est = _error_index(model, ordering)
    r = closed_loop_matrices(model, gains)[0][np.ix_(est, est)]
    sizes = [(model.m + 1) * model.state_dims[j - 1] for j in ordering]
    t_blocks = {j: r[end - size:end, end - size:end]
                for j, end, size in zip(ordering, np.cumsum(sizes), sizes)}
    return ErrorDynamics(t_blocks=t_blocks, r=r, ordering=ordering)


def is_hurwitz(matrix) -> bool:
    """True iff every eigenvalue has real part below ``-HURWITZ_TOL``."""
    return bool(np.max(np.linalg.eigvals(np.atleast_2d(matrix)).real) < -HURWITZ_TOL)


# ----------------------------------------------------------------------
# disturbance entry maps and the ISS bound
# ----------------------------------------------------------------------

def error_disturbance_matrices(model: MasModel, gains: ObserverGains, ordering=None):
    """Linear maps from disturbances into the stacked error derivative.

    Returns a dict with keys "unknown_input" (stacked input -> dE/dt; zero
    in full-input mode), "process" (stacked state noise) and "measurement"
    (stacked output noise).  Each error row is an estimate row of the
    :func:`closed_loop_matrices` input maps minus the plant row it tracks.
    """
    if ordering is None:
        ordering = check_topological_consistency(model)
    _, g_u, g_w, g_v = closed_loop_matrices(model, gains)
    est = _error_index(model, ordering)
    plant = est % model.n
    return {"unknown_input": g_u[est] - g_u[plant],
            "process": g_w[est] - g_w[plant],
            "measurement": g_v[est] - g_v[plant]}


def iss_error_bound(kappa: float, eta: float, e0_norm: float, b_norm: float,
                    u_bar: float, t):
    """Exponential-plus-offset bound on the error norm under bounded inputs."""
    if eta <= 0:
        raise DomainError(f"decay rate must be positive, got {eta}")
    if kappa < 1:
        raise DomainError(f"overshoot constant must be at least 1, got {kappa}")
    t = np.asarray(t, dtype=float)
    value = kappa * np.exp(-eta * t) * e0_norm + kappa * b_norm * u_bar / eta
    return float(value) if value.ndim == 0 else value


def fit_decay_envelope(r: np.ndarray):
    """Fit (kappa, eta) with ||exp(R t)|| <= kappa exp(-eta t) from samples.

    ``eta`` is 0.9 times the spectral decay rate and ``kappa`` 1.05 times the
    envelope peak over 200 uniform samples on [0, 20], so the envelope is
    valid by construction up to sampling density.
    """
    r = np.atleast_2d(np.asarray(r, dtype=float))
    alpha = float(np.max(np.linalg.eigvals(r).real))
    if alpha >= 0:
        raise DomainError("matrix is not Hurwitz; no decay envelope exists")
    eta = 0.9 * (-alpha)
    samples = 200
    dt = 20.0 / (samples - 1)
    import scipy.linalg
    step = scipy.linalg.expm(r * dt)
    power = np.eye(r.shape[0])
    kappa = 1.0
    for k in range(1, samples):
        power = step @ power
        kappa = max(kappa, float(np.linalg.norm(power, 2)) * math.exp(eta * k * dt))
    return max(1.0, kappa * 1.05), eta
