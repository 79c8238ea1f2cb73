"""Delta-replay differential: the memo against a fresh run of the rules.

:meth:`AsyncSystem.deltas` and :meth:`AsyncSystem.successors` replay
per-node deltas memoized from the Tables 1/2 rules;
:meth:`AsyncSystem.interpret` runs the same loop with an empty memo, so
the rules run afresh at every state.
A family memoized at one state must equal the rules' answer at every
other state with the same key, so this suite cross-checks the two on the
library protocols and on *randomly generated* ones (the library alone
exercises only the table rows it happens to contain).  What checks the
rules themselves is listed in docs/ANALYSIS.md, "The trade".  Checked:

* state/transition/deadlock counts, including budget-truncated runs
  (identical counts under truncation require identical successor
  *order*, not just identical sets);
* invariant and progress verdicts;
* every delta field by field, the step-level observables
  (``completes``/``sends``) among them, which carry the
  payload values — also the regression assertion for the hot-path bug
  where ``eval_payload`` ran more than once per guard: the value sent
  with a request and the value observed at its completion must be the
  same;
* a seeded :meth:`StepTable.mutate` fault injection: a corrupted table
  row must surface through replay exactly as through the direct
  enumeration (same exception, same message), never silently absorbed;
* the memo itself: clearing it mid-run changes nothing, a replayed state
  starts with an empty hash memo, and two systems never share one.

(The file keeps its name, and the tests their IDs, from when the second
implementation was a generated module.)
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import AsyncSystem, refine
from repro.check.explorer import explore
from repro.check.properties import check_progress
from repro.check.store import ExactStore, fingerprint
from repro.errors import SemanticsError
from repro.gen import GeneratorParams, random_protocol
from repro.protocols import LIBRARY_PROTOCOLS
from repro.protocols.invariants import async_structural_invariants
from repro.refine.transitions import build_step_table
from repro.semantics import state as semantics_state
from repro.semantics.asynchronous import successor
from tests.conftest import reachable_states

SMALL = GeneratorParams(n_remote_states=3, n_home_states=3,
                        n_remote_msgs=2, n_home_msgs=2)

lenient = settings(max_examples=20, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.data_too_large,
                                          HealthCheck.filter_too_much])


@st.composite
def protocols(draw):
    seed = draw(st.integers(0, 10_000))
    return random_protocol(seed, SMALL)


class Interpreted(AsyncSystem):
    """The reference: every expansion is the direct enumeration."""

    def deltas(self, state):
        return self.interpret(state)


def reference_pair(refined, n=2, **kwargs):
    return (Interpreted(refined, n, **kwargs),
            AsyncSystem(refined, n, **kwargs))


def counts(result):
    return (result.n_states, result.n_transitions, result.deadlock_count,
            result.completed, result.stop_reason)


def assert_deltas_equal(system, state):
    expected = system.interpret(state)
    assert system.deltas(state) == expected
    assert system.successors(state) == [(d.action, successor(state, d))
                                        for d in expected]


class TestRandomProtocolDifferential:
    @lenient
    @given(protocols())
    def test_counts_and_deadlocks_agree(self, protocol):
        interp, replay = reference_pair(refine(protocol))
        # State budgets only: a wall-clock budget would truncate the two
        # runs at different frontiers and void the comparison.
        a = explore(interp, max_states=2500, allow_deadlock=True)
        b = explore(replay, max_states=2500, allow_deadlock=True)
        assert counts(a) == counts(b)

    @lenient
    @given(protocols(), st.integers(0, 500))
    def test_truncated_budgets_agree(self, protocol, budget):
        interp, replay = reference_pair(refine(protocol))
        a = explore(interp, max_states=budget, allow_deadlock=True)
        b = explore(replay, max_states=budget, allow_deadlock=True)
        assert counts(a) == counts(b)

    @lenient
    @given(protocols())
    def test_invariant_verdicts_agree(self, protocol):
        interp, replay = reference_pair(refine(protocol))
        invs = async_structural_invariants(2)
        a = explore(interp, max_states=2500, invariants=invs,
                    allow_deadlock=True)
        b = explore(replay, max_states=2500, invariants=invs,
                    allow_deadlock=True)
        assert counts(a) == counts(b)
        assert [v.property_name for v in a.violations] \
            == [v.property_name for v in b.violations]

    @lenient
    @given(protocols())
    def test_progress_verdicts_agree(self, protocol):
        interp, replay = reference_pair(refine(protocol))
        a = check_progress(interp, max_states=2500)
        b = check_progress(replay, max_states=2500)
        assume(a.completed and b.completed)
        assert (a.ok, a.n_states, a.n_sccs, a.n_terminal_sccs,
                len(a.deadlocks), len(a.livelocks)) \
            == (b.ok, b.n_states, b.n_sccs, b.n_terminal_sccs,
                len(b.deadlocks), len(b.livelocks))


class TestStepObservableParity:
    """Field-by-field agreement of ``deltas()`` with ``interpret()``.

    Beyond (action, successor) pairs this compares the written nodes and
    channel ends and the ``completes`` and ``sends`` observables, whose
    payload fields are the values evaluated
    from the guard payload expressions — the "both sites agree"
    assertion for the eval-once bugfix.
    """

    @lenient
    @given(protocols())
    def test_steps_identical_on_reachable_states(self, protocol):
        system = AsyncSystem(refine(protocol), 2)
        for state in reachable_states(system, max_states=400,
                                      allow_deadlock=True)[:200]:
            assert_deltas_equal(system, state)

    @pytest.mark.parametrize("name", sorted(LIBRARY_PROTOCOLS))
    def test_library_protocols_on_every_reachable_state(self, name,
                                                        request):
        system = AsyncSystem(request.getfixturevalue(f"{name}_refined"), 2)
        for state in reachable_states(system):
            assert_deltas_equal(system, state)


class TestMemo:
    def test_bound_of_eight_clears_mid_run(self, monkeypatch,
                                           migratory_refined):
        """With room for eight of its hundreds of families the memo is
        cleared over and over in one sweep; nothing else changes."""
        refined = migratory_refined
        interp, unbounded = reference_pair(refined, 3)
        reference = explore(interp, max_states=3000)
        explore(unbounded, max_states=3000)
        assert len(unbounded._memo) > 80
        monkeypatch.setattr(semantics_state, "_MEMO_LIMIT", 8)
        bounded = AsyncSystem(refined, 3)
        store = ExactStore()
        result = explore(bounded, max_states=3000, store=store)
        assert counts(result) == counts(reference)
        for state in store:
            assert_deltas_equal(bounded, state)
            assert len(bounded._memo) <= 8

    def test_replayed_state_has_exactly_its_fields(self, migratory_refined):
        """A replayed state is built by its constructor: its fields, and
        a hash memo that starts empty — never the origin's."""
        system = AsyncSystem(migratory_refined, 2)
        frontier = [system.initial_state()]
        for _ in range(6):
            for state in frontier:
                hash(state), fingerprint(state)  # fill the caches
            frontier = [nxt for state in frontier
                        for _action, nxt in system.successors(state)]
            for nxt in frontier:
                assert not hasattr(nxt, "__dict__")
                assert nxt._hash_cache is None
                assert hash(nxt) == hash((nxt.home, nxt.remotes,
                                          nxt.channels))
        assert frontier

    def test_systems_never_share_a_memo(self, migratory_refined):
        """A delta is only right for the table it was learnt under."""
        refined = migratory_refined
        healthy = AsyncSystem(refined, 2)
        mutant = AsyncSystem(refined, 2, table=build_step_table(
            refined).mutate(role="remote", state="I", out_index=0,
                            reply_to="I"))
        assert explore(healthy, allow_deadlock=True).completed
        with pytest.raises(SemanticsError):
            explore(mutant, allow_deadlock=True)
        assert explore(healthy, allow_deadlock=True).completed


class TestSeededMutant:
    """Fault injection through :meth:`StepTable.mutate`.

    Each corrupted row drives the semantics into an inconsistency that
    the direct enumeration reports as a :class:`SemanticsError`.  Replay
    runs the same (mutated) table on every memo miss and must raise the
    identical error — a mutant silently absorbed would mean a memoized
    delta stood in for a check.
    """

    MUTATIONS = [
        ("reply_to_wrong",
         dict(role="remote", state="I", out_index=0),
         dict(reply_to="I")),
        ("fused_reply_dropped",
         dict(role="remote", state="I", out_index=0),
         dict(fused_reply=None, reply_to=None)),
        ("home_reply_to_wrong",
         dict(role="home", state="I1", out_index=0),
         dict(reply_to="I1")),
    ]

    @pytest.mark.parametrize("name,where,changes", MUTATIONS,
                             ids=[m[0] for m in MUTATIONS])
    def test_mutant_flagged_identically(self, name, where, changes,
                                        migratory_refined):
        mutant = build_step_table(migratory_refined).mutate(**where,
                                                            **changes)
        errors = []
        for system in reference_pair(migratory_refined, table=mutant):
            with pytest.raises(SemanticsError) as exc:
                explore(system, max_states=4000, allow_deadlock=True)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]

    def test_healthy_table_not_flagged(self, migratory_refined):
        table = build_step_table(migratory_refined)
        for system in reference_pair(migratory_refined, table=table):
            result = explore(system, max_states=4000, allow_deadlock=True)
            assert result.completed
