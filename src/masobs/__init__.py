"""Distributed state estimation and cooperative localization for coupled
linear multi-agent systems.

The package is organized around six pieces: directed graphs and grounded
Laplacians (:mod:`masobs.graphs`), the coupled plant (:mod:`masobs.mas`),
the distributed observer and its gain theory (:mod:`masobs.observer`),
integrator localization (:mod:`masobs.localization`), the deterministic
scenario simulator (:mod:`masobs.sim`), and built-in benchmark scenarios
(:mod:`masobs.scenarios`).  ``masobs.cli`` exposes everything as a command
line tool.
"""

from . import errors, graphs, localization, mas, observer, scenarios, sim, synth
from .errors import (AssumptionError, ConnectivityError, CycleError,
                     DimensionError, DomainError, InputError, LayerError, MasobsError,
                     NonFiniteError, SymmetryError, UnobservableError)
from .graphs import AugmentedGraph, DirectedGraph, GroundedBlocks
from .localization import AgentKinematics, DagcAssignment, SensingGraph
from .mas import MasModel, StackedSystem
from .observer import ErrorDynamics, ObserverGains, ObserverState
from .sim import (GainPolicy, JoinEvent, LeaveEvent, NoiseSpec, ScenarioConfig,
                  SimulationTrace)

__version__ = "0.1.0"

__all__ = [
    "errors", "graphs", "localization", "mas", "observer", "scenarios", "sim",
    "synth",
    "MasobsError", "CycleError", "SymmetryError", "DimensionError",
    "AssumptionError", "UnobservableError", "ConnectivityError", "LayerError",
    "NonFiniteError", "DomainError", "InputError",
    "DirectedGraph", "AugmentedGraph", "GroundedBlocks",
    "MasModel", "StackedSystem",
    "ObserverGains", "ObserverState", "ErrorDynamics",
    "SensingGraph", "DagcAssignment", "AgentKinematics",
    "ScenarioConfig", "GainPolicy", "NoiseSpec", "JoinEvent", "LeaveEvent",
    "SimulationTrace",
    "__version__",
]
