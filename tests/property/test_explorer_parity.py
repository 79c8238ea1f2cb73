"""Differential parity: every visited store against the exact one.

The acceptance bar for a store is *byte-identical counts*: for the same
system and the same budgets, an exploration over the fingerprint store,
over the fingerprint store with a disk tier small enough to merge (built
as ``--partitions 4`` builds it), and over the fingerprint store with
witness columns
(the "delta-exact" slot: the store with traces below the exact store's
footprint, once a class of its own) must report
exactly the ``n_states``, ``n_transitions``, ``deadlock_count``,
``completed`` and ``stop_reason`` of the plain exact-store run —
including runs truncated mid-level by ``max_states``.  These tests pin
that contract at hand-picked exact boundaries and at
hypothesis-randomized budgets.
"""

import tempfile
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.explorer import explore
from repro.check.spec import SystemSpec, build_system
from repro.check.store import make_store

SPECS = [
    SystemSpec("migratory", "rendezvous", 3),
    SystemSpec("migratory", "async", 2),
    SystemSpec("invalidate", "rendezvous", 2),
    SystemSpec("invalidate", "async", 2),
]
STORES = ["fingerprint", "fingerprint-sharded-spilling", "delta-exact"]

# every build_system call pays refine(); one system per spec serves all
system_for = lru_cache(maxsize=None)(build_system)

_FULL = {spec: explore(system_for(spec)) for spec in SPECS}


def counts(result):
    return (result.n_states, result.n_transitions, result.deadlock_count,
            result.completed, result.stop_reason)


def run(spec, store="exact", **budgets):
    """One exploration of ``spec`` over the store named ``store``."""
    if store == "delta-exact":
        store = make_store("fingerprint", witness=True)
    if store != "fingerprint-sharded-spilling":
        return explore(system_for(spec), name="parity", store=store,
                       **budgets)
    with tempfile.TemporaryDirectory() as spill_dir:
        # 4 x 4 states in the hot tier: even the 34-state spec merges
        spilling = make_store("fingerprint", 4, spill_dir=spill_dir,
                              spill_threshold=4)
        try:
            return explore(system_for(spec), name="parity", store=spilling,
                           **budgets)
        finally:
            spilling.close()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.protocol}-{s.level}")
class TestUnbudgetedParity:
    def test_fingerprint_matches_exact(self, spec):
        fp = run(spec, "fingerprint")
        assert counts(fp) == counts(_FULL[spec])
        assert fp.fingerprint_collisions == 0

    def test_sharded_spilling_fingerprint_matches_exact(self, spec):
        fp = run(spec, "fingerprint-sharded-spilling")
        assert counts(fp) == counts(_FULL[spec])
        assert fp.fingerprint_collisions == 0
        assert fp.spill_bytes > 0 and fp.spill_merges > 1

    def test_delta_exact_matches_exact(self, spec):
        delta = run(spec, "delta-exact")
        assert counts(delta) == counts(_FULL[spec])
        assert delta.fingerprint_collisions == 0
        assert delta.approx_bytes < _FULL[spec].approx_bytes


class TestExactBudgetBoundaries:
    """max_states at, one below, and one above the full state count."""

    @pytest.mark.parametrize("spec", SPECS[:2],
                             ids=lambda s: f"{s.protocol}-{s.level}")
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_boundary(self, spec, delta):
        budget = _FULL[spec].n_states + delta
        exact = run(spec, max_states=budget)
        for store in STORES:
            assert counts(run(spec, store, max_states=budget)) \
                == counts(exact), store
        if delta < 0:
            assert not exact.completed
            assert exact.stop_reason == f"state budget {budget} exceeded"
        else:
            assert exact.completed

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_tiny_budgets(self, budget):
        spec = SPECS[0]
        exact = run(spec, max_states=budget)
        for store in STORES:
            assert counts(run(spec, store, max_states=budget)) \
                == counts(exact), store


class TestRandomizedBudgets:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec_idx=st.integers(0, len(SPECS) - 1),
           budget=st.integers(0, 400))
    def test_state_budget_parity(self, spec_idx, budget):
        spec = SPECS[spec_idx]
        exact = run(spec, max_states=budget)
        for store in STORES:
            assert counts(run(spec, store, max_states=budget)) \
                == counts(exact), store


class TestTimeBudget:
    def test_zero_time_budget_same_stop_reason(self):
        spec = SPECS[1]
        exact = run(spec, max_seconds=0.0)
        assert not exact.completed
        assert exact.stop_reason == "time budget 0.0s exceeded"
        for store in STORES:
            assert counts(run(spec, store, max_seconds=0.0)) \
                == counts(exact), store


class TestMemoryAccounting:
    def test_fingerprint_leaner_than_exact(self):
        spec = SPECS[1]
        fp = run(spec, "fingerprint")
        assert 0 < fp.approx_bytes < _FULL[spec].approx_bytes
