"""Explicit-state model checking: reachability, safety, progress, simulation."""

from .explorer import explore
from .observe import (
    JsonProfileWriter,
    LevelEvent,
    MultiObserver,
    NullObserver,
    ProgressRenderer,
    RunInfo,
    RunObserver,
)
from .por import PRESERVE_COUNTS, PRESERVE_INVARIANTS, PORSystem
from .properties import ProgressReport, assert_safe, check_progress, tarjan_sccs
from .response import ResponseReport, check_response, grant_edge, remote_in_state
from .simulation import SimulationReport, check_simulation
from .spec import SystemSpec, build_system
from .store import ExactStore, FingerprintStore, StateStore, fingerprint, make_store
from .symmetry import SymmetricSystem, SymmetrySpec, normalize
from .stats import Counterexample, ExplorationResult

__all__ = [
    "Counterexample", "ExplorationResult", "ProgressReport",
    "SimulationReport", "assert_safe", "check_progress", "check_simulation",
    "explore", "tarjan_sccs",
    "SymmetricSystem", "SymmetrySpec", "normalize",
    "ResponseReport", "check_response", "grant_edge", "remote_in_state",
    "SystemSpec", "build_system",
    "PORSystem", "PRESERVE_COUNTS", "PRESERVE_INVARIANTS",
    "StateStore", "ExactStore", "FingerprintStore", "fingerprint",
    "make_store",
    "RunObserver", "RunInfo", "LevelEvent", "NullObserver", "MultiObserver",
    "ProgressRenderer", "JsonProfileWriter",
]
