"""Shared fixtures: canonical protocols and small refined systems."""

from __future__ import annotations

import importlib.util
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import (
    AsyncSystem,
    RefinementConfig,
    RendezvousSystem,
    explore,
    invalidate_protocol,
    mesi_protocol,
    migratory_protocol,
    msi_protocol,
    refine,
)
from repro.check.store import ExactStore
from repro.gen import random_protocol
from repro.refine.transitions import build_step_table


def reachable_states(system, **explore_kwargs) -> list:
    """The states one ``explore()`` of ``system`` stores, in BFS discovery
    order: every reachable state when the sweep completes, the expanded
    prefix plus its frontier when a budget truncates it."""
    store = ExactStore()
    explore(system, store=store, **explore_kwargs)
    return list(store)


def perf_module(name: str):
    """One module of the standing benchmark, ``perf/<name>.py``, loaded
    by path (``perf/`` is a directory of scripts, not a package)."""
    return _script_module("perf", name)


def _script_module(directory: str, name: str):
    path = Path(__file__).resolve().parents[1] / directory / f"{name}.py"
    spec = importlib.util.spec_from_file_location(
        f"{directory}_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def cold_copy(state):
    """An asynchronous state equal to ``state`` whose own memos and whose
    nodes' and network's are all empty: ``dataclasses.replace`` copies
    fields, never a memo.  (Messages are shared with ``state``.)"""
    return replace(state, home=replace(state.home),
                   remotes=tuple(replace(r) for r in state.remotes),
                   channels=replace(state.channels))


@pytest.fixture(scope="session")
def migratory():
    return migratory_protocol()


@pytest.fixture(scope="session")
def migratory_rw():
    return migratory_protocol(explicit_rw=True)


@pytest.fixture(scope="session")
def invalidate():
    return invalidate_protocol()


@pytest.fixture(scope="session")
def msi():
    return msi_protocol()


@pytest.fixture(scope="session")
def migratory_refined(migratory):
    return refine(migratory)


@pytest.fixture(scope="session")
def migratory_refined_plain(migratory):
    """Refined without the request/reply optimization (pure Tables 1-2)."""
    return refine(migratory, RefinementConfig(use_reqreply=False))


@pytest.fixture(scope="session")
def invalidate_refined(invalidate):
    return refine(invalidate)


@pytest.fixture(scope="session")
def msi_refined(msi):
    return refine(msi)


@pytest.fixture(scope="session")
def mesi():
    return mesi_protocol()


@pytest.fixture(scope="session")
def mesi_refined(mesi):
    return refine(mesi)


@pytest.fixture
def migratory_rv2(migratory):
    return RendezvousSystem(migratory, 2)


@pytest.fixture
def migratory_async2(migratory_refined):
    return AsyncSystem(migratory_refined, 2)


@pytest.fixture
def certificate_sweeps(monkeypatch):
    """An empty certificate memo for this test, and a one-element list
    counting the closure sweeps run — a counter on the adapter every
    sweep goes through, not a clock."""
    from repro.analysis import simulation

    monkeypatch.setattr(simulation, "_VERDICTS", {})
    count = [0]
    initial_state = simulation.StreamedSystem.initial_state

    def counting(self):
        count[0] += self.roots is not None  # check_simulation has none
        return initial_state(self)

    monkeypatch.setattr(simulation.StreamedSystem, "initial_state", counting)
    return count


#: The step-table mutants that pass Equation 1 at n = 2 and fail it at
#: n = 3 (ROADMAP item 3): ``(seed, index)`` into
#: ``benchmarks/closure_vs_sweep.py::draw_mutants`` over the default
#: generator shape, four mutants drawn per seed.
CUTOFF_MUTANTS = ((778, 0), (840, 3))


@pytest.fixture(scope="session")
def cutoff_mutants():
    """``{(seed, index): (refined, mutated table)}`` for
    :data:`CUTOFF_MUTANTS`."""
    draw = _script_module("benchmarks", "closure_vs_sweep").draw_mutants
    out = {}
    for seed, index in CUTOFF_MUTANTS:
        refined = refine(random_protocol(seed))
        mutants = list(draw(refined, build_step_table(refined),
                            random.Random(seed), 4))
        out[seed, index] = refined, mutants[index]
    return out
