"""Weighted directed graphs, Laplacians and grounded-Laplacian blocks.

Nodes are labelled 1..m.  An edge (j, i) means node j can send to node i
(equivalently: j influences i), and its weight is stored at row i, column j
of the weight matrix.  The same container is used for dynamics, sensing and
communication topologies; what an edge *means* is decided by the caller.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import CycleError, SymmetryError


def is_integer(value) -> bool:
    """Whether ``value`` is an integer: a Python or numpy int, but not a bool.
    int() would read 1.5 as 1 and True as 1 without a word."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_int(value, what: str) -> int:
    """``value`` as an int; ValueError naming ``what`` if it is no integer."""
    if not is_integer(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def refuse_unknown_keys(obj, known, section: str, where: str = "") -> None:
    """TypeError unless ``obj`` is a JSON object; ValueError naming
    ``section`` and the first key of ``obj`` that is not in ``known``."""
    if not isinstance(obj, dict):
        raise TypeError(f"{section} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown {section} key {unknown[0]!r}{where}")


def _check_weight_matrix(w: np.ndarray) -> None:
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weight matrix must be square, got shape {w.shape}")
    if w.shape[0] == 0:
        raise ValueError("graph needs at least one node")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight matrix has non-finite entries")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if np.any(np.diag(w) != 0.0):
        raise ValueError("self-loops are not allowed (diagonal must be zero)")


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Weighted directed graph on nodes 1..m.

    ``weights[i-1, j-1]`` is the weight of edge (j, i); it is positive if and
    only if the edge exists.  Instances are immutable and safe to share.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        _check_weight_matrix(w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_edges(cls, node_count, edges, weight=1.0):
        """Build a graph from ``(src, dst)`` or ``(src, dst, weight)`` tuples."""
        w = np.zeros((node_count, node_count))
        for edge in edges:
            if len(edge) == 2:
                src, dst = edge
                value = weight
            else:
                src, dst, value = edge
            if not all(is_integer(v) and 1 <= v <= node_count for v in (src, dst)):
                raise ValueError(f"edge ({src}, {dst}) needs integer endpoints in 1..{node_count}")
            if src == dst:
                raise ValueError(f"self-loop ({src}, {dst}) not allowed")
            w[dst - 1, src - 1] = value
        return cls(w)

    @property
    def node_count(self) -> int:
        return self.weights.shape[0]

    @property
    def nodes(self):
        return range(1, self.node_count + 1)

    @property
    def edges(self):
        """Set of (src, dst) pairs with positive weight."""
        dst_idx, src_idx = np.nonzero(self.weights)
        return frozenset((int(s) + 1, int(d) + 1) for s, d in zip(src_idx, dst_idx))

    def weight(self, src: int, dst: int) -> float:
        return float(self.weights[dst - 1, src - 1])

    def in_neighbors(self, i: int):
        return tuple(int(j) + 1 for j in np.nonzero(self.weights[i - 1])[0])

    def out_neighbors(self, i: int):
        return tuple(int(j) + 1 for j in np.nonzero(self.weights[:, i - 1])[0])

    def is_symmetric(self) -> bool:
        return bool(np.max(np.abs(self.weights - self.weights.T)) <= 1e-12)

    def union(self, other: "DirectedGraph") -> "DirectedGraph":
        """Topology union; weights are the entrywise maximum."""
        if other.node_count != self.node_count:
            raise ValueError("union requires equal node counts")
        return DirectedGraph(np.maximum(self.weights, other.weights))

    def to_text(self) -> str:
        """Serialize as a plain-text adjacency list (one edge per line)."""
        lines = [f"nodes {self.node_count}"]
        for src, dst in sorted(self.edges):
            lines.append(f"{src} {dst} {self.weight(src, dst)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DirectedGraph":
        return cls.from_edges(*parse_text(text))


def parse_text(text: str):
    """``(node_count, edges)`` of a graph text: a ``nodes m`` header, then one
    ``src dst weight`` line per edge."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("nodes"):
        raise ValueError("graph text must start with a 'nodes m' header")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return int(lines[0].split()[1]), edges


@dataclass(frozen=True, eq=False)
class AugmentedGraph:
    """A communication graph plus a virtual leader node 0 feeding one agent.

    The weight matrix is (m+1) x (m+1) with row/column 0 for the leader.
    Node 0 never has in-edges, so its weight row is all zeros.
    """

    base: DirectedGraph
    leader_target: int
    weights: np.ndarray

    def __post_init__(self):
        m = self.base.node_count
        if not 1 <= self.leader_target <= m:
            raise IndexError(f"leader target {self.leader_target} out of range 1..{m}")
        w = np.array(self.weights, dtype=float)
        if w.shape != (m + 1, m + 1):
            raise ValueError(f"augmented weights must be {(m + 1, m + 1)}, got {w.shape}")
        _check_weight_matrix(w)
        if np.any(w[0, :] != 0.0):
            raise ValueError("leader node must have in-degree zero")
        leader_col = w[1:, 0]
        expected = np.zeros(m)
        expected[self.leader_target - 1] = leader_col[self.leader_target - 1]
        if leader_col[self.leader_target - 1] <= 0.0 or np.any(leader_col != expected):
            raise ValueError("leader must feed exactly the target agent with positive weight")
        if np.any((w[1:, 1:] > 0) != (self.base.weights > 0)):
            raise ValueError("agent block of augmented weights must match the base edge set")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def node_count(self) -> int:
        return self.base.node_count + 1

    @property
    def edges(self):
        dst_idx, src_idx = np.nonzero(self.weights)
        return frozenset(zip(src_idx, dst_idx))  # node labels 0..m match indices

    def with_weights(self, weights) -> "AugmentedGraph":
        """Same topology with a different (edge-compatible) weight matrix."""
        return AugmentedGraph(self.base, self.leader_target, weights)


@dataclass(frozen=True, eq=False)
class GroundedBlocks:
    """Follower block S and leader column O of an augmented-graph Laplacian."""

    o_vector: np.ndarray
    s_matrix: np.ndarray

    def __post_init__(self):
        o = np.array(self.o_vector, dtype=float)
        s = np.array(self.s_matrix, dtype=float)
        o.setflags(write=False)
        s.setflags(write=False)
        object.__setattr__(self, "o_vector", o)
        object.__setattr__(self, "s_matrix", s)


def laplacian(g: DirectedGraph) -> np.ndarray:
    """Graph Laplacian D - W with D the diagonal of in-weight row sums."""
    w = g.weights
    return np.diag(w.sum(axis=1)) - w


def grounded_partition(weights: np.ndarray) -> GroundedBlocks:
    """Partition the Laplacian of an (m+1)-node augmented weight matrix.

    Returns the m x m follower block S and the m-vector O with the leader
    column, satisfying S @ 1 = O exactly up to floating arithmetic.
    """
    w = np.asarray(weights, dtype=float)
    lap = np.diag(w.sum(axis=1)) - w
    return GroundedBlocks(o_vector=-lap[1:, 0] + 0.0, s_matrix=lap[1:, 1:])


def has_spanning_tree(g: DirectedGraph) -> bool:
    """True iff some node reaches every other node along directed edges."""
    return any(len(_reachable(g, root, True)) == g.node_count for root in g.nodes)


def _reachable(g: DirectedGraph, start: int, forward: bool) -> set:
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        nbrs = g.out_neighbors(node) if forward else g.in_neighbors(node)
        for nxt in nbrs:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def is_strongly_connected(g: DirectedGraph) -> bool:
    """Directed path between every ordered pair of distinct nodes."""
    m = g.node_count
    return len(_reachable(g, 1, True)) == m and len(_reachable(g, 1, False)) == m


def topological_ordering(g: DirectedGraph):
    """Node ordering placing every edge's source before its destination.

    Ties among ready nodes are broken by smallest label, so the result is
    deterministic.  Raises CycleError (with a witness cycle) on cyclic input.
    """
    indegree = {i: len(g.in_neighbors(i)) for i in g.nodes}
    ready = [i for i in g.nodes if indegree[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for nxt in g.out_neighbors(node):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) < g.node_count:
        # each node left has an in-neighbour among those left, so walking
        # back along in-edges repeats a node; from there the walk is a cycle
        left = set(g.nodes).difference(order)
        node, walk = min(left), {}
        while node not in walk:
            walk[node] = len(walk)
            node = next(j for j in g.in_neighbors(node) if j in left)
        cycle = list(walk)[walk[node]:][::-1]
        raise CycleError(f"graph has a directed cycle: {cycle}", cycle=cycle)
    return tuple(order)


def augment(gc: DirectedGraph, j: int, w_j0: float) -> AugmentedGraph:
    """Append leader node 0 with the single edge (0, j) of weight ``w_j0``."""
    m = gc.node_count
    if not 1 <= j <= m:
        raise IndexError(f"agent index {j} out of range 1..{m}")
    if not w_j0 > 0.0:
        raise ValueError(f"leader weight must be positive, got {w_j0}")
    w = np.zeros((m + 1, m + 1))
    w[1:, 1:] = gc.weights
    w[j, 0] = w_j0
    return AugmentedGraph(base=gc, leader_target=j, weights=w)


def binary_weights(ag: AugmentedGraph) -> np.ndarray:
    """Unit weight on every augmented edge, zero elsewhere."""
    return (ag.weights > 0).astype(float)


def normalized_in_weights(ag: AugmentedGraph) -> np.ndarray:
    """Each receiver splits unit mass evenly over its in-neighbors."""
    pattern = (ag.weights > 0).astype(float)
    counts = pattern.sum(axis=1, keepdims=True)
    counts[counts == 0.0] = 1.0
    return pattern / counts


def normalized_out_weights(ag: AugmentedGraph) -> np.ndarray:
    """Each sender splits unit mass evenly over its out-neighbors."""
    pattern = (ag.weights > 0).astype(float)
    counts = pattern.sum(axis=0, keepdims=True)
    counts[counts == 0.0] = 1.0
    return pattern / counts


def algebraic_connectivity(g: DirectedGraph) -> float:
    """Second-smallest Laplacian eigenvalue of an undirected graph.

    The weight matrix must be symmetric (checked to 1e-12), so the
    eigenvalues are real and sorted ascending.
    """
    if g.node_count < 2:
        raise ValueError("algebraic connectivity needs at least two nodes")
    if not g.is_symmetric():
        raise SymmetryError("weight matrix is not symmetric")
    eigs = np.linalg.eigvalsh(laplacian(g))
    return float(eigs[1])
