"""Unit tests for ``explore()`` over stores built the way ``repro check
--partitions P --spill-dir D`` builds them: ``make_store(kind, P, ...)``.

:mod:`tests.property.test_explorer_parity` holds the stores to the exact
store's counts across budgets; here: spill wiring, the memory budget and
witnesses from the store that keeps no states.  The multi-process driver
and the in-process sharding these tests once drove are deleted; a
partition count only sizes the disk tier now (the file keeps its name
until ROADMAP item 5 folds it into ``test_store.py``).
"""

import pytest

from repro.check.explorer import explore
from repro.check.spec import SystemSpec, build_system
from repro.check.store import make_store

SPEC = SystemSpec("migratory", "async", 2)


def counts(result):
    return (result.n_states, result.n_transitions, result.n_enabled,
            result.deadlock_count, result.completed, result.stop_reason)


@pytest.fixture(scope="module")
def system():
    return build_system(SPEC)


@pytest.fixture(scope="module")
def sequential(system):
    return explore(system, name="oracle")


def sized(store):
    """``store`` built through the factory with every argument it takes:
    three partitions for the fingerprint store, nothing for the exact."""
    return make_store(store, 3 if store == "fingerprint" else None)


class TestParity:
    @pytest.mark.parametrize("store", ["exact", "fingerprint"])
    def test_counts_match_sequential(self, system, sequential, store):
        result = explore(system, name="x", store=sized(store))
        assert counts(result) == counts(sequential)
        assert result.store == store

    @pytest.mark.parametrize("budget", [1, 7, 50, 113])
    def test_truncation_hits_the_same_wall(self, system, budget):
        seq = explore(system, name="oracle", max_states=budget)
        for store in (sized("exact"), sized("fingerprint"),
                      make_store("fingerprint", witness=True)):
            part = explore(system, name="x", store=store,
                           max_states=budget)
            assert counts(part) == counts(seq)
        if not seq.completed:
            assert seq.stop_reason == f"state budget {budget} exceeded"


class TestStatistics:
    def test_spill_wiring(self, system, tmp_path):
        store = make_store("fingerprint", 2, spill_dir=tmp_path,
                           spill_threshold=8)
        result = explore(system, name="x", store=store)
        store.close()
        assert result.spill_bytes > 0
        assert result.spill_merges == result.n_states // 16
        assert "spilled" in result.describe()
        spilled = list(tmp_path.rglob("*.spill"))
        assert spilled, "spill files must land under spill_dir"


class TestMemoryBudget:
    def test_memory_limit_yields_wellformed_unfinished(self, system):
        result = explore(system, name="x", max_bytes=4096,
                         store=make_store("fingerprint", 2))
        assert not result.completed
        assert "memory budget" in result.stop_reason
        assert result.n_states > 0  # truncated, not aborted

    def test_sequential_memory_limit_matches_shape(self, system):
        result = explore(system, name="x", max_bytes=1024)
        assert not result.completed
        assert "memory budget" in result.stop_reason


class TestInProcessPartitionedStore:
    def test_counts_match_plain_fingerprint(self, system, tmp_path):
        plain = explore(system, name="x", store="fingerprint")
        store = make_store("fingerprint", 4, spill_dir=tmp_path,
                           spill_threshold=16)
        sharded = explore(system, name="x", store=store)
        store.close()
        assert counts(sharded) == counts(plain)
        assert sharded.spill_bytes > 0 and sharded.spill_merges > 0

    def test_exact_partitioned_store_supports_traces(self):
        # the store that keeps no state objects replays recorded actions
        # into the same shortest witness the classic parent-pointer walk
        # returns
        assert_same_witnesses(SPEC, in_flight=2)

    def test_traces_survive_symmetry_and_por(self):
        # replay goes through the wrappers the run was recorded under:
        # each recorded action is one they offered at the normalized state
        assert_same_witnesses(
            SystemSpec("invalidate", "async", 3, symmetry=True, por=True),
            in_flight=3)


def assert_same_witnesses(spec, in_flight):
    """A seeded bug ("fewer than ``in_flight`` messages in flight") under
    the exact store and under the fingerprint store by name: same
    counts, same counterexamples."""
    system = build_system(spec)
    busy = [("quiet", lambda s: s.channels.total_in_flight < in_flight)]
    classic = explore(system, name="x", invariants=busy)
    compact = explore(system, name="x", invariants=busy, store="fingerprint")
    assert counts(compact) == counts(classic)
    assert compact.store == "fingerprint" and classic.violations
    assert [(v.property_name, v.states, v.steps, v.note)
            for v in compact.violations] == \
        [(v.property_name, v.states, v.steps, None)
         for v in classic.violations]
    assert len(classic.violations[0].steps) >= 2
