"""Discrete-event DSM simulator substrate (timed execution of refined protocols)."""

from .engine import Simulator
from .metrics import SimMetrics, jain_index
from .oracle import CoherenceOracle, StarvationOracle
from .pool import PoolReport, simulate_pool
from .trace import TraceEvent, message_event
from .policy import (
    AccessClass,
    GatedOption,
    INVALIDATE_WORKLOAD,
    MIGRATORY_RW_WORKLOAD,
    MIGRATORY_WORKLOAD,
    MSI_WORKLOAD,
    WorkloadSpec,
    workload_spec_for,
)
from .workload import HotLineWorkload, SyntheticWorkload, TraceWorkload

__all__ = [
    "AccessClass",
    "CoherenceOracle",
    "StarvationOracle",
    "PoolReport",
    "simulate_pool",
    "TraceEvent",
    "message_event",
    "GatedOption",
    "HotLineWorkload",
    "INVALIDATE_WORKLOAD",
    "MIGRATORY_RW_WORKLOAD",
    "MIGRATORY_WORKLOAD",
    "MSI_WORKLOAD",
    "SimMetrics",
    "Simulator",
    "SyntheticWorkload",
    "TraceWorkload",
    "WorkloadSpec",
    "jain_index",
    "workload_spec_for",
]
