"""The paper's refinement procedure: engine, plans, fusion, abstraction."""

from .abstraction import AbstractionUndefined, abstract_state
from .engine import refine
from .plan import FusedPair, RefinedProtocol, RefinementConfig, RefinementPlan
from .reqreply import check_pair, detect_fusable_pairs

__all__ = [
    "AbstractionUndefined", "FusedPair", "RefinedProtocol",
    "RefinementConfig", "RefinementPlan", "abstract_state", "check_pair",
    "detect_fusable_pairs", "refine",
]
