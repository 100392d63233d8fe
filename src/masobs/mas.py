"""Coupled linear multi-agent plant: block matrices plus interaction graphs.

The plant is a set of m linear subsystems

    dx_i/dt = A_ii x_i + sum_j A_ij x_j + B_ii u_i
    y_i     = C_ii x_i + sum_j C_ij x_j

where the state-coupling sums run over in-neighbors in the dynamics graph
and the output-coupling sums over in-neighbors in the sensing graph.  Blocks
are stored sparsely, and those two graphs are read off them: an off-diagonal
block (i, j) is the edge (j, i).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import graphs
from .errors import AssumptionError, CycleError, DimensionError
from .graphs import DirectedGraph

RANK_REL_TOL = 1e-9


def _freeze(arr) -> np.ndarray:
    a = np.array(arr, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MasModel:
    """Immutable description of the coupled plant: its blocks and its
    communication graph, which sets the agent count.  The dynamics and
    sensing graphs are derived from the off-diagonal A and C block keys."""

    a_blocks: "MappingProxyType"
    b_blocks: "MappingProxyType"
    c_blocks: "MappingProxyType"
    communication_graph: DirectedGraph
    dynamics_graph: DirectedGraph = field(init=False)
    sensing_graph: DirectedGraph = field(init=False)

    def __post_init__(self):
        a = {k: _freeze(v) for k, v in dict(self.a_blocks).items()}
        b = {k: _freeze(v) for k, v in dict(self.b_blocks).items()}
        c = {k: _freeze(v) for k, v in dict(self.c_blocks).items()}
        object.__setattr__(self, "a_blocks", MappingProxyType(a))
        object.__setattr__(self, "b_blocks", MappingProxyType(b))
        object.__setattr__(self, "c_blocks", MappingProxyType(c))
        self._validate()
        for name, blocks in (("dynamics_graph", a), ("sensing_graph", c)):
            object.__setattr__(self, name, DirectedGraph.from_edges(
                self.m, [(j, i) for i, j in blocks if i != j]))
        # block offsets into the stacked state, input and output vectors
        for name, dims in (("_state_offsets", self.state_dims),
                           ("_input_offsets", self.input_dims),
                           ("_output_offsets", self.output_dims)):
            object.__setattr__(self, name, (0, *itertools.accumulate(dims)))

    # -- construction -------------------------------------------------

    @classmethod
    def build(cls, a_diag, c_diag, communication, b_diag=None,
              a_couplings=None, c_couplings=None):
        """Assemble a model from per-agent blocks and coupling maps.

        ``a_diag``/``c_diag``/``b_diag`` are sequences indexed by agent
        (agent i at position i-1).  Couplings are mappings (i, j) -> block
        meaning "agent j's state enters agent i's equation"; exactly-zero
        blocks are dropped, so they add no edge to the derived graphs.
        """
        m = len(a_diag)
        if len(c_diag) != m:
            raise DimensionError("a_diag and c_diag must have one block per agent")
        a_blocks = {}
        c_blocks = {}
        for i in range(1, m + 1):
            a_blocks[(i, i)] = np.atleast_2d(np.asarray(a_diag[i - 1], dtype=float))
            c_blocks[(i, i)] = np.atleast_2d(np.asarray(c_diag[i - 1], dtype=float))
        for blocks, couplings in ((a_blocks, a_couplings), (c_blocks, c_couplings)):
            for key, block in dict(couplings or {}).items():
                block = np.atleast_2d(np.asarray(block, dtype=float))
                if np.any(block != 0.0):
                    blocks[key] = block
        b_blocks = {}
        for i in range(1, m + 1):
            n_i = a_blocks[(i, i)].shape[0]
            if b_diag is None or b_diag[i - 1] is None:
                b_blocks[i] = np.zeros((n_i, 0))
            else:
                b_blocks[i] = np.atleast_2d(np.asarray(b_diag[i - 1], dtype=float))
        return cls(
            a_blocks=a_blocks,
            b_blocks=b_blocks,
            c_blocks=c_blocks,
            communication_graph=communication,
        )

    # -- validation ----------------------------------------------------

    def _validate(self):
        """One diagonal A, C and B block per agent 1..m, and every block of
        the shape its agents' dimensions give."""
        agents = set(self.agents)
        for name, keys in (("diagonal A", {i for i, j in self.a_blocks if i == j}),
                           ("diagonal C", {i for i, j in self.c_blocks if i == j}),
                           ("B", set(self.b_blocks))):
            if keys != agents:
                raise DimensionError(f"need one {name} block for each agent 1..{self.m}, "
                                     f"got agents {sorted(keys)}")
        dims = self.state_dims
        for name, blocks, rows in (("A", self.a_blocks, dims),
                                   ("C", self.c_blocks, self.output_dims)):
            for (i, j), block in blocks.items():
                if not all(graphs.is_integer(v) and v in agents for v in (i, j)):
                    raise DimensionError(f"{name} block ({i},{j}) needs integer agents "
                                         f"in 1..{self.m}")
                if block.shape != (rows[i - 1], dims[j - 1]):
                    raise DimensionError(
                        f"{name} block ({i},{j}) has shape {block.shape}, "
                        f"expected {(rows[i - 1], dims[j - 1])}")
        for i, block in self.b_blocks.items():
            if block.shape[0] != dims[i - 1]:
                raise DimensionError(f"B block for agent {i} has {block.shape[0]} rows, "
                                     f"expected {dims[i - 1]}")

    # -- dimensions ----------------------------------------------------

    @property
    def m(self) -> int:
        return self.communication_graph.node_count

    @property
    def agents(self):
        return range(1, self.m + 1)

    @property
    def state_dims(self):
        return tuple(self.a_blocks[(i, i)].shape[0] for i in self.agents)

    @property
    def input_dims(self):
        return tuple(self.b_blocks[i].shape[1] for i in self.agents)

    @property
    def output_dims(self):
        return tuple(self.c_blocks[(i, i)].shape[0] for i in self.agents)

    @property
    def n(self) -> int:
        return sum(self.state_dims)

    @property
    def k(self) -> int:
        return sum(self.input_dims)

    @property
    def p(self) -> int:
        return sum(self.output_dims)

    def state_slice(self, i: int) -> slice:
        return slice(self._state_offsets[i - 1], self._state_offsets[i])

    def input_slice(self, i: int) -> slice:
        return slice(self._input_offsets[i - 1], self._input_offsets[i])

    def output_slice(self, i: int) -> slice:
        return slice(self._output_offsets[i - 1], self._output_offsets[i])


@dataclass(frozen=True, eq=False)
class StackedSystem:
    """Stacked matrices of the whole MAS: dx/dt = A x + B u, y = C x."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _freeze(self.a))
        object.__setattr__(self, "b", _freeze(self.b))
        object.__setattr__(self, "c", _freeze(self.c))


def stack(mas: MasModel) -> StackedSystem:
    """Assemble the stacked system with zero fill for absent couplings."""
    a = np.zeros((mas.n, mas.n))
    for (i, j), block in mas.a_blocks.items():
        a[mas.state_slice(i), mas.state_slice(j)] = block
    b = np.zeros((mas.n, mas.k))
    for i in mas.agents:
        b[mas.state_slice(i), mas.input_slice(i)] = mas.b_blocks[i]
    c = np.zeros((mas.p, mas.n))
    for (i, j), block in mas.c_blocks.items():
        c[mas.output_slice(i), mas.state_slice(j)] = block
    return StackedSystem(a=a, b=b, c=c)


def observability_matrix(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """[C; CA; ...; CA^(n-1)] for an (A, C) pair."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if c.shape[1] != a.shape[0]:
        raise DimensionError(f"C has {c.shape[1]} columns for A of size {a.shape[0]}")
    rows = [c]
    for _ in range(a.shape[0] - 1):
        rows.append(rows[-1] @ a)
    return np.vstack(rows)


def numerical_rank(matrix: np.ndarray) -> int:
    """Rank by singular values above ``RANK_REL_TOL`` times the largest one."""
    matrix = np.atleast_2d(matrix)
    if matrix.size == 0:
        return 0
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_REL_TOL * sv[0]))


def is_observable(a: np.ndarray, c: np.ndarray) -> bool:
    a = np.atleast_2d(a)
    return numerical_rank(observability_matrix(a, c)) == a.shape[0]


def check_node_observability(mas: MasModel):
    """Per-agent observability of the pair (A_ii, C_ii)."""
    return [is_observable(mas.a_blocks[(i, i)], mas.c_blocks[(i, i)]) for i in mas.agents]


def check_topological_consistency(mas: MasModel):
    """Ordering that is simultaneously topological for both interaction graphs.

    Computed on the union of the dynamics and sensing edge sets; raises
    AssumptionError when any of the graphs (or their union) has a cycle.
    """
    for name, g in (("dynamics", mas.dynamics_graph), ("sensing", mas.sensing_graph)):
        try:
            graphs.topological_ordering(g)
        except CycleError as exc:
            raise AssumptionError(f"{name} graph is cyclic: {exc.cycle}") from exc
    union = mas.dynamics_graph.union(mas.sensing_graph)
    try:
        return graphs.topological_ordering(union)
    except CycleError as exc:
        raise AssumptionError(
            f"dynamics and sensing graphs admit no common ordering: {exc.cycle}") from exc


def plant_derivative(mas: MasModel, x: np.ndarray, u=None) -> np.ndarray:
    """Blockwise evaluation of the state derivative."""
    x = np.asarray(x, dtype=float)
    if x.shape != (mas.n,):
        raise DimensionError(f"state must have shape ({mas.n},), got {x.shape}")
    if u is None:
        u = np.zeros(mas.k)
    u = np.asarray(u, dtype=float)
    if u.shape != (mas.k,):
        raise DimensionError(f"input must have shape ({mas.k},), got {u.shape}")
    out = np.zeros(mas.n)
    for i in mas.agents:
        acc = mas.a_blocks[(i, i)] @ x[mas.state_slice(i)]
        for j in mas.dynamics_graph.in_neighbors(i):
            acc = acc + mas.a_blocks[(i, j)] @ x[mas.state_slice(j)]
        if mas.input_dims[i - 1]:
            acc = acc + mas.b_blocks[i] @ u[mas.input_slice(i)]
        out[mas.state_slice(i)] = acc
    return out


def plant_output(mas: MasModel, x: np.ndarray) -> np.ndarray:
    """Blockwise evaluation of the measured output."""
    x = np.asarray(x, dtype=float)
    if x.shape != (mas.n,):
        raise DimensionError(f"state must have shape ({mas.n},), got {x.shape}")
    out = np.zeros(mas.p)
    for i in mas.agents:
        acc = mas.c_blocks[(i, i)] @ x[mas.state_slice(i)]
        for j in mas.sensing_graph.in_neighbors(i):
            acc = acc + mas.c_blocks[(i, j)] @ x[mas.state_slice(j)]
        out[mas.output_slice(i)] = acc
    return out


# -- model files -------------------------------------------------------

def _graph_to_json(g: DirectedGraph):
    return {"nodes": g.node_count,
            "edges": [[src, dst, g.weight(src, dst)] for src, dst in sorted(g.edges)]}


def _graph_from_json(obj, agents: int) -> DirectedGraph:
    """The communication graph of a file, refused before it is allocated
    unless it has one node per agent."""
    graphs.refuse_unknown_keys(
        obj, ("graph_file",) if "graph_file" in obj else ("nodes", "edges"), "communication")
    if "graph_file" in obj:
        nodes, edges = graphs.parse_text(Path(obj["graph_file"]).read_text())
    else:
        nodes = graphs.as_int(obj["nodes"], "nodes")
        edges = [tuple(e) for e in obj["edges"]]
    if nodes != agents:
        raise DimensionError(f"communication graph has {nodes} nodes for {agents} agents")
    return DirectedGraph.from_edges(nodes, edges)


def model_to_json(mas: MasModel) -> dict:
    agents = []
    for i in mas.agents:
        b = mas.b_blocks[i]
        agents.append({
            "A": mas.a_blocks[(i, i)].tolist(),
            "B": b.tolist() if b.shape[1] else None,
            "C": mas.c_blocks[(i, i)].tolist(),
        })
    return {
        "m": mas.m,
        "agents": agents,
        "state_couplings": [
            {"i": i, "j": j, "block": blk.tolist()}
            for (i, j), blk in sorted(mas.a_blocks.items()) if i != j],
        "output_couplings": [
            {"i": i, "j": j, "block": blk.tolist()}
            for (i, j), blk in sorted(mas.c_blocks.items()) if i != j],
        "dynamics_edges": sorted(list(e) for e in mas.dynamics_graph.edges),
        "sensing_edges": sorted(list(e) for e in mas.sensing_graph.edges),
        "communication": _graph_to_json(mas.communication_graph),
    }


# the keys of a model file or of a scenario's ``model`` section
MODEL_KEYS = {"m", "agents", "state_couplings", "output_couplings", "dynamics_edges",
              "sensing_edges", "communication"}


def model_from_json(obj: dict) -> MasModel:
    graphs.refuse_unknown_keys(obj, MODEL_KEYS, "model")
    m = graphs.as_int(obj["m"], "m")
    if len(obj["agents"]) != m:
        raise DimensionError("agent list length does not match 'm'")
    for entry in obj["agents"]:
        graphs.refuse_unknown_keys(entry, ("A", "B", "C"), "model agent")
    for key in ("state_couplings", "output_couplings"):
        for entry in obj.get(key, []):
            graphs.refuse_unknown_keys(entry, ("i", "j", "block"), key)
    a_diag = [entry["A"] for entry in obj["agents"]]
    c_diag = [entry["C"] for entry in obj["agents"]]
    b_diag = [entry.get("B") for entry in obj["agents"]]
    a_couplings = {(e["i"], e["j"]): e["block"] for e in obj.get("state_couplings", [])}
    c_couplings = {(e["i"], e["j"]): e["block"] for e in obj.get("output_couplings", [])}
    model = MasModel.build(
        a_diag, c_diag,
        communication=_graph_from_json(obj["communication"], m),
        b_diag=b_diag, a_couplings=a_couplings, c_couplings=c_couplings)
    # edge lists in the file are redundant but must agree with the blocks
    for key, g in (("dynamics_edges", model.dynamics_graph),
                   ("sensing_edges", model.sensing_graph)):
        if key in obj:
            declared = {tuple(e) for e in obj[key]}
            if declared != set(g.edges):
                raise AssumptionError(f"'{key}' disagrees with the coupling blocks")
    return model


def save_model(mas: MasModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_json(mas), indent=2) + "\n")


def load_model(path) -> MasModel:
    return model_from_json(json.loads(Path(path).read_text()))
