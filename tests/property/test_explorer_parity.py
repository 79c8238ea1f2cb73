"""Differential parity: sequential vs multi-process vs fingerprint explorers.

The acceptance bar for the multi-process driver is *byte-identical
counts*: for the same system and the same budgets,
``explore_partitioned`` and the fingerprint-store explorer must report
exactly the ``n_states``, ``n_transitions``, ``deadlock_count`` and
``stop_reason`` of the sequential exact-store run — including runs
truncated mid-level by ``max_states``.  These tests pin that contract at
hand-picked exact boundaries and at hypothesis-randomized budgets.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.explorer import explore
from repro.check.partitioned import explore_partitioned
from repro.check.spec import SystemSpec, build_system

SPECS = [
    SystemSpec("migratory", "rendezvous", 3),
    SystemSpec("migratory", "async", 2),
    SystemSpec("invalidate", "rendezvous", 2),
    SystemSpec("invalidate", "async", 2),
]

_FULL = {spec: explore(build_system(spec)) for spec in SPECS}


def counts(result):
    return (result.n_states, result.n_transitions, result.deadlock_count,
            result.completed, result.stop_reason)


def sequential(spec, **budgets):
    return explore(build_system(spec), name="parity", **budgets)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.protocol}-{s.level}")
class TestUnbudgetedParity:
    def test_fingerprint_matches_exact(self, spec):
        fp = explore(build_system(spec), store="fingerprint")
        assert counts(fp) == counts(_FULL[spec])
        assert fp.fingerprint_collisions == 0

    def test_parallel_matches_sequential(self, spec):
        par = explore_partitioned(spec, partitions=2)
        assert counts(par) == counts(_FULL[spec])

    def test_parallel_fingerprint_matches_too(self, spec):
        par = explore_partitioned(spec, partitions=2, store="fingerprint")
        assert counts(par) == counts(_FULL[spec])


class TestExactBudgetBoundaries:
    """max_states at, one below, and one above the full state count."""

    @pytest.mark.parametrize("spec", SPECS[:2],
                             ids=lambda s: f"{s.protocol}-{s.level}")
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_boundary(self, spec, delta):
        budget = _FULL[spec].n_states + delta
        seq = sequential(spec, max_states=budget)
        par = explore_partitioned(spec, partitions=2, max_states=budget)
        fp = explore(build_system(spec), name="parity",
                     store="fingerprint", max_states=budget)
        assert counts(par) == counts(seq)
        assert counts(fp) == counts(seq)
        if delta < 0:
            assert not seq.completed
            assert seq.stop_reason == f"state budget {budget} exceeded"
        else:
            assert seq.completed

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_tiny_budgets(self, budget):
        spec = SPECS[0]
        seq = sequential(spec, max_states=budget)
        par = explore_partitioned(spec, partitions=2, max_states=budget)
        assert counts(par) == counts(seq)


class TestRandomizedBudgets:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec_idx=st.integers(0, len(SPECS) - 1),
           budget=st.integers(0, 400))
    def test_state_budget_parity(self, spec_idx, budget):
        spec = SPECS[spec_idx]
        seq = sequential(spec, max_states=budget)
        par = explore_partitioned(spec, partitions=2, max_states=budget)
        fp = explore(build_system(spec), name="parity",
                     store="fingerprint", max_states=budget)
        assert counts(par) == counts(seq)
        assert counts(fp) == counts(seq)


class TestTimeBudget:
    def test_zero_time_budget_same_stop_reason(self):
        spec = SPECS[1]
        seq = sequential(spec, max_seconds=0.0)
        par = explore_partitioned(spec, partitions=2, max_seconds=0.0)
        assert not seq.completed and not par.completed
        assert seq.stop_reason == par.stop_reason == \
            "time budget 0.0s exceeded"
        assert par.n_states == seq.n_states


class TestMemoryAccounting:
    def test_parallel_reports_approx_bytes(self):
        par = explore_partitioned(SPECS[0], partitions=2)
        assert par.approx_bytes > 0

    def test_fingerprint_leaner_than_exact(self):
        spec = SPECS[1]
        exact = explore(build_system(spec))
        fp = explore(build_system(spec), store="fingerprint")
        assert 0 < fp.approx_bytes < exact.approx_bytes
