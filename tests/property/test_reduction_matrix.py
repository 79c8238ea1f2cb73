"""Engine/store/reduction parity matrix.

:mod:`tests.property.test_explorer_parity` pins byte-identical counts
between the visited stores on unreduced systems.  The reductions and
the delta replay inside
:class:`~repro.semantics.asynchronous.AsyncSystem` must not break that
contract: for every cell of

    {exact, fingerprint} x {symmetry off, on} x {por off, on}

the two store variants of the *same* reduction combination must report
the ``n_states``/``n_transitions``/``deadlock_count``/``stop_reason``
of one reference run — the same reductions over a system whose
``deltas()`` is ``interpret()``, so every state's successors come from a
fresh run of the rules, explored with the exact store —
including runs truncated mid-level by a state budget, where a single
reordered replayed successor would shift the counts.  Across
combinations, reduction only ever shrinks the state count.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.explorer import explore
from repro.check.spec import SystemSpec, build_system
from repro.semantics.asynchronous import AsyncSystem

from .test_compiled_differential import Interpreted

PROTOCOLS = [("migratory", 2), ("invalidate", 2)]
REDUCTIONS = [(False, False), (False, True), (True, False), (True, True)]


def spec_for(protocol, n, symmetry, por):
    return SystemSpec(protocol, "async", n, symmetry=symmetry, por=por)


def counts(result):
    return (result.n_states, result.n_transitions, result.deadlock_count,
            result.completed, result.stop_reason)


# every build_system call pays refine(); the in-process runs of one
# reduction combination share one system object across the module
system_for = lru_cache(maxsize=None)(build_system)


@lru_cache(maxsize=None)
def reference_for(spec):
    """``build_system(spec)`` with :class:`Interpreted` innermost."""
    system = build_system(spec)
    if isinstance(system, AsyncSystem):
        return Interpreted(system.refined, system.n_remotes)
    wrapper = system
    while not isinstance(wrapper.inner, AsyncSystem):
        wrapper = wrapper.inner
    wrapper.inner = Interpreted(wrapper.inner.refined,
                                wrapper.inner.n_remotes)
    return system


def variants(spec, **budgets):
    """The reference run plus the two store runs of one reduction
    combination: ``deltas()`` replay over {exact, fingerprint}."""
    system = system_for(spec)
    return {
        "reference": explore(reference_for(spec), name="matrix",
                             reductions=spec.reductions(), **budgets),
        "seq-exact": explore(system, name="matrix",
                             reductions=spec.reductions(), **budgets),
        "seq-fingerprint": explore(system, name="matrix",
                                   store="fingerprint",
                                   reductions=spec.reductions(), **budgets),
    }


@pytest.mark.parametrize("protocol,n", PROTOCOLS,
                         ids=[f"{p}-{n}" for p, n in PROTOCOLS])
class TestFullRuns:
    def test_all_cells_agree(self, protocol, n):
        baseline_states = None
        for symmetry, por in REDUCTIONS:
            spec = spec_for(protocol, n, symmetry, por)
            runs = variants(spec)
            reference = counts(runs["reference"])
            for name, result in runs.items():
                assert counts(result) == reference, \
                    f"{name} diverges on {spec} ({symmetry=}, {por=})"
                assert result.completed
            if baseline_states is None:
                # (off, off) cell of the reference
                baseline_states = runs["reference"].n_states
            assert runs["reference"].n_states <= baseline_states

    def test_reductions_recorded(self, protocol, n):
        spec = spec_for(protocol, n, symmetry=True, por=True)
        runs = variants(spec)
        for result in runs.values():
            assert result.reductions == ("por", "symmetry")
            assert result.n_enabled >= result.n_transitions

    def test_por_alone_shrinks_states(self, protocol, n):
        full = explore(system_for(spec_for(protocol, n, False, False)))
        por = explore(system_for(spec_for(protocol, n, False, True)))
        assert por.n_states < full.n_states
        assert por.deadlock_count == full.deadlock_count


class TestTruncatedRuns:
    """Budget truncation must hit the same wall in every variant."""

    @pytest.mark.parametrize("symmetry,por", REDUCTIONS,
                             ids=["plain", "por", "sym", "sym+por"])
    @pytest.mark.parametrize("budget", [50, 200])
    def test_fixed_budgets(self, symmetry, por, budget):
        spec = spec_for("migratory", 2, symmetry, por)
        runs = variants(spec, max_states=budget)
        reference = counts(runs["reference"])
        for name, result in runs.items():
            assert counts(result) == reference, f"{name} diverges"
        if reference[0] >= budget:
            assert not runs["reference"].completed
            assert runs["reference"].stop_reason \
                == f"state budget {budget} exceeded"

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(budget=st.integers(0, 400),
           reduction=st.integers(0, len(REDUCTIONS) - 1),
           proto=st.integers(0, len(PROTOCOLS) - 1))
    def test_randomized_budgets(self, budget, reduction, proto):
        symmetry, por = REDUCTIONS[reduction]
        protocol, n = PROTOCOLS[proto]
        spec = spec_for(protocol, n, symmetry, por)
        runs = variants(spec, max_states=budget)
        reference = counts(runs["reference"])
        for name, result in runs.items():
            assert counts(result) == reference, f"{name} diverges"
