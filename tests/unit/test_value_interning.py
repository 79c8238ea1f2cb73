"""One object per value: the step memo's parts and symmetry's homes.

``AsyncSystem`` keeps a value table beside its step memo, and every
family it learns has its new nodes, channel ops and sends swapped for
the table's equal object; ``SymmetricSystem`` relabels a home once per
(home, permutation) and puts the result through the same table.  Only
identity changes, never a value: counts are pinned here and everywhere
else (``test_delta_digest.py``, the committed benchmark rows).
"""

import gc
import tracemalloc
from collections import defaultdict

import pytest

from repro import AsyncSystem
from repro.check import symmetry as symmetry_module
from repro.check.explorer import explore
from repro.check.spec import SystemSpec, build_system
from repro.check.store import FingerprintStore
from repro.semantics.asynchronous import successor

#: ``sweep_reduced``'s command: async invalidate n = 3, symmetry + POR.
REDUCED = SystemSpec("invalidate", "async", 3, symmetry=True, por=True)
REDUCED_COUNTS = (23180, 62568)

#: What the step memo and its value table keep after the ``REDUCED``
#: sweep, in ``tracemalloc`` bytes: 2,704,339 on CPython 3.11.7 and
#: 2,680,975 on 3.12.1 (5,327,062 before the table), plus 25 %.
KEPT_BYTES_MAX = 3_380_000


def base_of(system):
    while hasattr(system, "inner"):
        system = system.inner
    return system


def assert_one_object_per_value(objects):
    by_value = defaultdict(set)
    for obj in objects:
        by_value[obj].add(id(obj))
    assert by_value
    assert all(len(ids) == 1 for ids in by_value.values())


def memo_parts(system):
    """Every interned part of every delta the memo holds, by kind."""
    parts = defaultdict(list)
    for family in system._memo.values():
        for delta in family:
            if delta.home is not None:
                parts["home"].append(delta.home)
            if delta.moved is not None:
                parts["moved"].append(delta.moved[1])
            if delta.ops:
                parts["ops"].append(delta.ops)
            if delta.sends:
                parts["sends"].append(delta.sends)
    return parts


class TestStepMemo:
    @pytest.fixture(scope="class")
    def system(self, invalidate_refined):
        system = AsyncSystem(invalidate_refined, 2)
        assert explore(system).completed
        return system

    @pytest.mark.parametrize("kind", ["home", "moved", "ops", "sends"])
    def test_equal_parts_are_one_object(self, system, kind):
        parts = memo_parts(system)[kind]
        assert len(parts) > len(set(parts))  # values repeat
        assert_one_object_per_value(parts)

    def test_parts_are_the_tables_objects(self, system):
        for kind, parts in memo_parts(system).items():
            for part in parts:
                assert system.canonical(part) is part, kind

    def test_interpret_shares_nothing(self, system):
        """``interpret()`` runs with a fresh memo and a fresh table: its
        deltas hold the objects the rules built, and the system's table
        is left as it was."""
        values = dict(system._values)
        state = system.initial_state()
        for _ in range(6):
            fresh = system.interpret(state)
            assert fresh == system.deltas(state)
            for delta in fresh:
                if delta.home is not None:
                    assert delta.home is not system.canonical(delta.home)
            state = successor(state, fresh[-1])
        assert system._values == values


class TestSymmetry:
    @pytest.fixture(scope="class")
    def swept(self):
        system = build_system(REDUCED)
        result = explore(system, store=FingerprintStore())
        return system, result

    def test_counts(self, swept):
        _system, result = swept
        assert (result.n_states, result.n_transitions) == REDUCED_COUNTS

    def test_equal_relabelled_homes_are_one_object(self, swept):
        system, _result = swept
        homes = [home for home in system._relabelled.values()]
        assert len(homes) > len(set(homes))
        assert_one_object_per_value(homes)

    def test_relabelled_homes_are_the_memos_objects(self, swept):
        system, _result = swept
        base = base_of(system)
        memo_homes = {home: home for home in memo_parts(base)["home"]}
        shared = 0
        for home in system._relabelled.values():
            assert base.canonical(home) is home
            if home in memo_homes:
                assert memo_homes[home] is home
                shared += 1
        assert shared

    def test_small_table_bound_changes_no_count(self, monkeypatch):
        monkeypatch.setattr(symmetry_module, "_TABLE_LIMIT", 4)
        system = build_system(REDUCED)
        result = explore(system, store=FingerprintStore())
        assert (result.n_states, result.n_transitions) == REDUCED_COUNTS
        assert len(system._relabelled) <= 5


def test_memo_and_table_bytes_after_the_reduced_sweep():
    """The bytes the step memo and its value table keep once the
    ``sweep_reduced`` sweep is done, measured by dropping them."""
    build_system(REDUCED)  # the certificate gate, outside the trace
    tracemalloc.start()
    try:
        system = build_system(REDUCED)
        result = explore(system, store=FingerprintStore())
        assert (result.n_states, result.n_transitions) == REDUCED_COUNTS
        del result
        base = base_of(system)
        # symmetry's tables hold homes the memo holds too
        system._relabelled.clear()
        system._queue_keys.clear()
        system._home_refs.clear()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        base._memo.clear()
        base._values.clear()
        kept = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < kept <= KEPT_BYTES_MAX

