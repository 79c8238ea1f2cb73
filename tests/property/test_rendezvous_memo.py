"""Differential test of the rendezvous level's step memo.

:meth:`RendezvousSystem.successors` replays step families memoized on
the local view each reads (repro.semantics.rendezvous); ``actions()`` +
``apply()`` interpret the guards directly and are the reference.  A key
that misses part of what a rule reads would hand a later state a family
learned at another one.  So on every reachable state the fast path must
equal ``[(a, apply(s, a)) for a in actions(s)]`` element for element, in
order: over the library protocols at n = 1..3 (complete) and n = 4
(budgeted), random protocols, and the environment abstraction both
any-N verdicts sweep, whose own memos (Other's sends per home node,
sticky variants per environment pair) are checked against the
interpreted construction below.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import symbolic
from repro.analysis.coherencecheck import check_coherence, observed_lemmas
from repro.analysis.environment import (
    EnvironmentSystem,
    OtherRecv,
    OtherSend,
    StickyStep,
    _nonempty_subsets,
    other_send_table,
)
from repro.analysis.paramcheck import check_parameterized
from repro.gen import GeneratorParams, random_protocol
from repro.semantics import state as semantics_state
from repro.semantics.rendezvous import RendezvousSystem

from tests.conftest import reachable_states

LIBRARY = ["migratory", "invalidate", "msi", "mesi"]
SMALL = GeneratorParams(n_remote_states=3, n_home_states=3,
                        n_remote_msgs=2, n_home_msgs=2)

lenient = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.data_too_large])


def interpreted(system, state):
    """The reference: every action, applied."""
    return [(a, system.apply(state, a)) for a in system.actions(state)]


def assert_replays_reference(system, **explore_kwargs) -> int:
    states = reachable_states(system, allow_deadlock=True, **explore_kwargs)
    for state in states:
        fast = RendezvousSystem.successors(system, state)
        assert fast == interpreted(system, state), state.describe()
    return len(states)


def environment_reference(system, state):
    """:meth:`EnvironmentSystem.successors` without a memo: the
    interpreted steps, then every accepting Other send, each followed by
    its sticky variants; then the initial variants."""
    other = system.other
    result = []

    def offer(action, post):
        result.append((action, post))
        old, new = state.home.env, post.home.env
        lost = [k for k in sorted(old) if isinstance(old[k], frozenset)
                and other in old[k] and isinstance(new[k], frozenset)
                and other not in new[k]]
        for subset in _nonempty_subsets(lost):
            env = new.update({k: new[k] | {other} for k in subset})
            result.append((StickyStep(action.describe(), subset),
                           post.with_home(post.home.moved(
                               post.home.state, env))))

    for action, post in interpreted(system, state):
        offer(action, post)
    home = state.home
    inputs = system.protocol.home.state(home.state).inputs
    for msg, payloads in system.other_sends.items():
        for payload in payloads:
            for i, guard in enumerate(inputs):
                if (guard.msg == msg and not system._gated(home, guard)
                        and guard.accepts(home.env, other, payload)):
                    offer(OtherSend(msg, payload, i), state.with_home(
                        home.moved(guard.to, guard.complete(
                            home.env, other, payload))))
    if state == system.initial_state():
        result.extend(system._other_initials())
    return result


def environment_system(protocol, n_concrete, lemmas=()):
    table, _ = other_send_table(protocol, {protocol.remote.initial_env})
    return EnvironmentSystem(protocol, n_concrete, other_sends=table,
                             lemmas=lemmas)


def assert_environment_agrees(protocol, n_concrete, lemmas=(),
                              max_states=20_000) -> int:
    system = environment_system(protocol, n_concrete, lemmas)
    states = reachable_states(system, allow_deadlock=True,
                              max_states=max_states)
    swept_stuck = list(system.stuck)  # in expansion (= store) order
    stuck = []
    for state in states:
        fast = RendezvousSystem.successors(system, state)
        assert fast == interpreted(system, state), state.describe()
        moved = any(not isinstance(a, OtherRecv) for a, _ in fast)
        if not moved and not system._excused(state):
            stuck.append(state)
        assert system.successors(state) == environment_reference(
            system, state), state.describe()
    assert stuck[:len(swept_stuck)] == swept_stuck
    return len(states)


class TestLibrary:
    @pytest.mark.parametrize("name", LIBRARY)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_complete_sweeps(self, request, name, n):
        protocol = request.getfixturevalue(name)
        assert assert_replays_reference(RendezvousSystem(protocol, n)) > 1

    @pytest.mark.parametrize("name", LIBRARY)
    def test_budgeted_n4(self, request, name):
        protocol = request.getfixturevalue(name)
        assert assert_replays_reference(RendezvousSystem(protocol, 4),
                                        max_states=3_000) > 30

    @pytest.mark.parametrize("name", LIBRARY)
    @pytest.mark.parametrize("n_concrete", [1, 2])
    def test_environment(self, request, name, n_concrete):
        protocol = request.getfixturevalue(name)
        assert assert_environment_agrees(protocol, n_concrete,
                                         max_states=2_000) > 1

    @pytest.mark.parametrize("name", ["invalidate", "msi", "mesi"])
    def test_environment_gated_by_lemmas(self, request, name):
        protocol = request.getfixturevalue(name)
        lemmas = observed_lemmas(protocol)
        assert lemmas
        assert assert_environment_agrees(protocol, 2, lemmas,
                                         max_states=2_000) > 1


class TestRandomProtocols:
    @lenient
    @given(seed=st.integers(0, 10_000), small=st.booleans())
    def test_two_remotes(self, seed, small):
        protocol = random_protocol(seed, SMALL if small else None)
        assert_replays_reference(RendezvousSystem(protocol, 2),
                                 max_states=20_000)

    @lenient
    @given(seed=st.integers(0, 10_000), n_concrete=st.sampled_from([1, 2]),
           gated=st.booleans())
    def test_environment(self, seed, n_concrete, gated):
        protocol = random_protocol(seed, SMALL)
        lemmas = observed_lemmas(protocol) if gated else ()
        assert_environment_agrees(protocol, n_concrete, lemmas)


def test_a_tiny_memo_changes_nothing(monkeypatch, invalidate):
    """Cleared at every other entry, the memo still gives the same
    sweeps: same states in the same order, same any-N verdicts."""
    def sweeps():
        monkeypatch.setattr(symbolic, "_CONTEXTS", {})
        return (reachable_states(RendezvousSystem(invalidate, 3)),
                check_parameterized(invalidate).as_dict(),
                check_coherence(invalidate).as_dict())

    roomy = sweeps()
    monkeypatch.setattr(semantics_state, "_MEMO_LIMIT", 2)
    assert sweeps() == roomy
