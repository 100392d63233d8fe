"""Cooperative localization from relative and anchored position measurements.

Sensing is modelled as a directed graph over the agents plus an origin node:
an edge (j, i) means agent i measures the relative position of agent j with
respect to itself, and an anchor edge gives agent i an absolute position fix.
Measurement rows follow the owner convention: the owner's own block carries
-I and the measured agent's block +I, so an agent's diagonal observation
block is a stack of -I and the standard integrator observability facts read
off directly.

Because the relative-sensing graph is rarely acyclic, the hierarchy-based
orientation pass (`dagc`) rewrites each sensing pair so that exactly one
endpoint keeps the measurement: the one at the larger hop distance from the
anchored set, with ties broken by a larger numeric ID.  The result is always
acyclic and preserves the observability conditions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DimensionError, LayerError
from .graphs import DirectedGraph, as_int
from .mas import MasModel, numerical_rank


@dataclass(frozen=True)
class AgentKinematics:
    """Integrator kinematics shared by a localization scenario.

    ``positions`` (and, for double integrators, ``velocities``) hold one
    h-vector per agent; ``stacked_state`` produces the plant state in agent
    order with per-agent blocks [p] or [p; v].
    """

    order: str
    h: int
    positions: tuple
    velocities: tuple = None

    def __post_init__(self):
        if self.order not in ("single", "double"):
            raise ValueError(f"unknown integrator order {self.order!r}")
        positions = tuple(tuple(float(v) for v in p) for p in self.positions)
        if any(len(p) != self.h for p in positions):
            raise DimensionError("every position needs exactly h coordinates")
        object.__setattr__(self, "positions", positions)
        if self.order == "double":
            velocities = self.velocities
            if velocities is None:
                velocities = tuple((0.0,) * self.h for _ in positions)
            velocities = tuple(tuple(float(v) for v in w) for w in velocities)
            if len(velocities) != len(positions) or \
                    any(len(w) != self.h for w in velocities):
                raise DimensionError("velocities must mirror the position layout")
            object.__setattr__(self, "velocities", velocities)
        elif self.velocities is not None:
            raise ValueError("single integrators carry no velocity state")

    def stacked_state(self) -> np.ndarray:
        if self.order == "single":
            return np.concatenate([np.asarray(p) for p in self.positions])
        return np.concatenate([np.concatenate([p, v]) for p, v in
                               zip(self.positions, self.velocities)])


@dataclass(frozen=True)
class SensingGraph:
    """Relative sensing edges plus anchor assignments over agents 1..m.

    ``relative_edges`` holds ordered pairs (j, i): agent i owns a relative
    measurement of agent j.  ``anchors`` lists agents with an absolute
    position measurement (an edge from the origin node).
    """

    agent_count: int
    relative_edges: tuple
    anchors: tuple

    def __post_init__(self):
        m = self.agent_count
        if m < 1:
            raise ValueError("need at least one agent")
        edges = tuple((as_int(a, "edge endpoint"), as_int(b, "edge endpoint"))
                      for a, b in self.relative_edges)
        for a, b in edges:
            if not (1 <= a <= m and 1 <= b <= m):
                raise ValueError(f"edge ({a},{b}) out of range 1..{m}")
            if a == b:
                raise ValueError(f"self-measurement ({a},{b}) not allowed")
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate relative edges")
        anchors = tuple(sorted({as_int(k, "anchor") for k in self.anchors}))
        for k in anchors:
            if not 1 <= k <= m:
                raise ValueError(f"anchor {k} out of range 1..{m}")
        object.__setattr__(self, "relative_edges", edges)
        object.__setattr__(self, "anchors", anchors)

    @property
    def q_o(self) -> int:
        return len(self.relative_edges)

    @property
    def q_a(self) -> int:
        return len(self.anchors)

    @property
    def q(self) -> int:
        return self.q_o + self.q_a

    def measurements_of(self, i: int):
        """Measurement list owned by agent i, in canonical row order."""
        rel = [("rel", src, dst) for (src, dst) in _canonical_relative_order(self)
               if dst == i]
        if i in self.anchors:
            rel.append(("abs", i, i))
        return rel


def _canonical_relative_order(sg: SensingGraph):
    return sorted(sg.relative_edges, key=lambda e: (min(e), max(e), e[0]))


def measurement_rows(sg: SensingGraph):
    """Global row order of the measurement matrix: relative rows sorted by
    (min, max, src), then anchor rows sorted by agent."""
    rows = [("rel", src, dst) for (src, dst) in _canonical_relative_order(sg)]
    rows += [("abs", k, k) for k in sg.anchors]
    return rows


def build_measurement_matrix(sg: SensingGraph, h: int = 2) -> np.ndarray:
    """Stacked position observation matrix, shape (h*q, h*m).

    Each relative edge (j, i) contributes h rows with +I at agent j's block
    and -I at agent i's block; each anchor contributes h rows of -I at the
    anchored agent's block.
    """
    if h < 1:
        raise DimensionError("spatial dimension must be positive")
    eye = np.eye(h)
    c = np.zeros((h * sg.q, h * sg.agent_count))
    for r, row in enumerate(measurement_rows(sg)):
        kind, src, dst = row
        sl = slice(h * r, h * (r + 1))
        c[sl, h * (dst - 1):h * dst] -= eye
        if kind == "rel":
            c[sl, h * (src - 1):h * src] += eye
    return c


def relative_rows_rank_deficient(sg: SensingGraph, h: int = 2) -> bool:
    """The relative-only block always annihilates the all-ones direction."""
    rel_only = SensingGraph(sg.agent_count, sg.relative_edges, ())
    c_o = build_measurement_matrix(rel_only, h)
    row_sums = c_o @ np.ones(h * sg.agent_count)
    return bool(np.all(np.abs(row_sums) < 1e-12))


def _undirected_adjacency(sg: SensingGraph):
    adj = {i: set() for i in range(1, sg.agent_count + 1)}
    for a, b in sg.relative_edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def check_global_observability(sg: SensingGraph) -> bool:
    """Whole-MAS position observability: every agent reaches the anchored set
    over the undirected sensing skeleton, i.e. :func:`assign_layers` succeeds."""
    try:
        assign_layers(sg)
    except LayerError:
        return False
    return True


def check_agent_observability(sg: SensingGraph):
    """Per-agent pair observability: the agent owns at least one measurement."""
    owned = {i: 0 for i in range(1, sg.agent_count + 1)}
    for _, i in sg.relative_edges:
        owned[i] += 1
    for k in sg.anchors:
        owned[k] += 1
    return [owned[i] > 0 for i in range(1, sg.agent_count + 1)]


def assign_layers(sg: SensingGraph):
    """Hop distance from the anchored set over the undirected sensing skeleton."""
    if not sg.anchors:
        raise LayerError("no anchored agents to start the hierarchy from",
                         unreachable=tuple(range(1, sg.agent_count + 1)))
    adj = _undirected_adjacency(sg)
    layers = {k: 0 for k in sg.anchors}
    queue = deque(sg.anchors)
    while queue:
        node = queue.popleft()
        for nxt in sorted(adj[node]):
            if nxt not in layers:
                layers[nxt] = layers[node] + 1
                queue.append(nxt)
    missing = [i for i in range(1, sg.agent_count + 1) if i not in layers]
    if missing:
        raise LayerError(f"agents {missing} are unreachable from the anchored set",
                         unreachable=missing)
    return layers


@dataclass(frozen=True)
class DagcAssignment:
    """Result of the hierarchy-based orientation pass.

    ``oriented_edges`` is the acyclic sensing edge set (one edge per original
    sensing pair), ``ids`` the collision-fixed agent IDs, ``layers`` the hop
    layers, and ``id_fix_rounds`` how many repair sweeps the ID collision
    rule needed.
    """

    agent_count: int
    anchors: tuple
    ids: dict
    layers: dict
    oriented_edges: tuple
    id_fix_rounds: int

    def as_sensing_graph(self) -> SensingGraph:
        return SensingGraph(self.agent_count, self.oriented_edges, self.anchors)


def _fix_id_collisions(ids: dict):
    """Increment colliding IDs (smaller agent label keeps its value) until
    all are distinct; returns the number of sweeps."""
    ids = dict(ids)
    rounds = 0
    while True:
        by_value = {}
        for agent in sorted(ids):
            by_value.setdefault(ids[agent], []).append(agent)
        collided = {v: agents for v, agents in by_value.items() if len(agents) > 1}
        if not collided:
            return ids, rounds
        rounds += 1
        if rounds > 1000:
            raise RuntimeError("ID collision repair did not converge")
        for value in sorted(collided):
            for agent in collided[value][1:]:
                ids[agent] += 1


def dagc(sg: SensingGraph, ids=None, seed: int = 0) -> DagcAssignment:
    """Orient every sensing pair toward the larger (layer, ID) endpoint.

    Each agent draws a positive integer ID (passed in or sampled from a
    seeded generator), layers come from the anchored-set hop distance, and
    each unordered sensing pair keeps exactly one directed edge: into the
    endpoint with the larger layer, larger ID on ties.  Orienting along a
    strict total order makes the result acyclic by construction.
    """
    layers = assign_layers(sg)
    if ids is None:
        rng = np.random.default_rng(seed)
        drawn = rng.integers(1, 10 ** 6, size=sg.agent_count, endpoint=True)
        ids = {i: int(drawn[i - 1]) for i in range(1, sg.agent_count + 1)}
    else:
        if set(ids) != set(range(1, sg.agent_count + 1)):
            raise ValueError("ids must cover exactly the agents 1..m")
        if any(v < 1 for v in ids.values()):
            raise ValueError("ids must be positive integers")
    ids, rounds = _fix_id_collisions(ids)
    pairs = sorted({(min(a, b), max(a, b)) for a, b in sg.relative_edges})
    oriented = []
    for a, b in pairs:
        owner = max((a, b), key=lambda v: (layers[v], ids[v]))
        other = a if owner == b else b
        oriented.append((other, owner))
    return DagcAssignment(agent_count=sg.agent_count, anchors=sg.anchors,
                          ids=ids, layers=layers, oriented_edges=tuple(oriented),
                          id_fix_rounds=rounds)


# ----------------------------------------------------------------------
# integrator models driven by the oriented sensing graph
# ----------------------------------------------------------------------

def _integrator_blocks(order: str, h: int):
    if order == "single":
        a = np.zeros((h, h))
        b = np.eye(h)
        meas = h  # each measurement is a relative position
    elif order == "double":
        a = np.block([[np.zeros((h, h)), np.eye(h)],
                      [np.zeros((h, h)), np.zeros((h, h))]])
        b = np.vstack([np.zeros((h, h)), np.eye(h)])
        meas = 2 * h  # relative position and velocity come together
    else:
        raise ValueError(f"unknown integrator order {order!r}")
    return a, b, meas


def build_localization_mas(assignment: DagcAssignment, gc: DirectedGraph,
                           order: str = "single", h: int = 2) -> MasModel:
    """Turn an oriented sensing graph into a coupled-integrator MAS.

    Kinematics are h-dimensional single or double integrators; there is no
    state coupling, and the sensing graph is the oriented measurement graph.
    Raises AssumptionError when some agent owns no measurement at all (its
    observation pair would be unobservable).
    """
    sg = assignment.as_sensing_graph()
    observable = check_agent_observability(sg)
    if not all(observable):
        bad = [i for i, ok in zip(range(1, sg.agent_count + 1), observable) if not ok]
        raise AssumptionError(f"agents {bad} own no measurement; their pairs are unobservable")
    if gc.node_count != sg.agent_count:
        raise DimensionError("communication graph size does not match the agent count")
    a_ii, b_ii, meas = _integrator_blocks(order, h)
    eye = np.eye(meas)
    a_diag = [a_ii] * sg.agent_count
    b_diag = [b_ii] * sg.agent_count
    c_diag = []
    c_couplings = {}
    for i in range(1, sg.agent_count + 1):
        rows = sg.measurements_of(i)
        c_own = np.zeros((meas * len(rows), meas))
        for r, (kind, src, _) in enumerate(rows):
            c_own[meas * r:meas * (r + 1), :] = -eye
            if kind == "rel":
                block = c_couplings.setdefault((i, src), np.zeros((meas * len(rows), meas)))
                block[meas * r:meas * (r + 1), :] = eye
        c_diag.append(c_own)
    return MasModel.build(a_diag, c_diag, communication=gc, b_diag=b_diag,
                          c_couplings=c_couplings)


def localization_luenberger(model: MasModel, gain_block=None) -> dict:
    """Luenberger gain of each agent of an integrator localization model.

    ``gain_block`` is the per-measurement output-injection block (defaults
    to -I, which matches the -I own-measurement rows so that A - F C is
    A - count * I, Hurwitz for single and double integrators); an agent
    owning several measurements just repeats it.
    """
    luenberger = {}
    for i in model.agents:
        n_i = model.state_dims[i - 1]
        p_i = model.output_dims[i - 1]
        block = -np.eye(n_i) if gain_block is None else np.atleast_2d(np.asarray(gain_block, float))
        if block.shape != (n_i, n_i):
            raise DimensionError(f"gain block must be {(n_i, n_i)}, got {block.shape}")
        count = p_i // n_i
        luenberger[i] = np.hstack([block] * count)
    return luenberger


# ----------------------------------------------------------------------
# rank oracles (used by tests and the model checker)
# ----------------------------------------------------------------------

def rank_observable_globally(sg: SensingGraph, h: int = 2) -> bool:
    """Singular-value oracle for whole-MAS observability (integrator plant)."""
    c = build_measurement_matrix(sg, h)
    return numerical_rank(c) == h * sg.agent_count


def rank_observable_agents(sg: SensingGraph, h: int = 2):
    """Singular-value oracle for the per-agent observation pairs."""
    out = []
    for i in range(1, sg.agent_count + 1):
        rows = sg.measurements_of(i)
        c_ii = -np.tile(np.eye(h), (len(rows), 1)) if rows else np.zeros((0, h))
        out.append(numerical_rank(c_ii) == h)
    return out
