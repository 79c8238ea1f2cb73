"""Unit tests for ample-set partial-order reduction (repro.check.por).

The differential soundness evidence (verdict agreement between full and
reduced exploration) lives in ``tests/property/test_por_differential.py``;
this file pins the *mechanics*: every step touches only what its action
class may (the assumption the ample argument in docs/ANALYSIS.md rests
on), the ample rule only ever picks steps satisfying the documented
side conditions, and the satellite optimizations (memoized canonical
keys, tuple-sliced ``with_remote``) behave.
"""

import dataclasses
from collections import Counter

import pytest

from repro import AsyncSystem, RendezvousSystem
from repro.check.por import (
    PRESERVE_COUNTS,
    PRESERVE_INVARIANTS,
    PORSystem,
)
from repro.check.store import _enc
from repro.check.symmetry import SymmetricSystem
from repro.errors import CheckError
from repro.protocols.symmetry import symmetry_spec_for
from repro.semantics.asynchronous import (
    AsyncState,
    DeliverToHome,
    DeliverToRemote,
    HomeStep,
    HomeTau,
    RemoteC3,
    RemoteNode,
    RemoteSend,
    RemoteTau,
    successor,
)
from repro.semantics.network import ACK, REQ, Channels, Msg
from repro.semantics.state import HOME_ID
from tests.conftest import reachable_states


@pytest.fixture(scope="module")
def mig2(migratory_refined):
    return AsyncSystem(migratory_refined, 2)


@pytest.fixture(scope="module")
def reachable(mig2):
    """All reachable async states of refined migratory at n=2."""
    return reachable_states(mig2, allow_deadlock=True)


def _touched(origin, successor):
    """What one step did, diffed node by node and channel by channel: the
    nodes it rewrote (``HOME_ID`` or a remote index), the channels whose
    head it popped, and the messages it pushed on each channel's tail."""
    before = (origin.home,) + origin.remotes
    after = (successor.home,) + successor.remotes
    nodes = {who for who, old, new in zip((HOME_ID,) + tuple(
        range(len(origin.remotes))), before, after) if new != old}
    pops, pushed = set(), {}
    for c, (old, new) in enumerate(zip(origin.channels.queues,
                                       successor.channels.queues)):
        if new[:len(old)] == old:
            kept = len(old)
        else:
            assert old and new[:len(old) - 1] == old[1:], \
                f"channel {c} is not a head pop plus tail pushes"
            pops.add(c)
            kept = len(old) - 1
        if new[kept:]:
            pushed[c] = new[kept:]
    return nodes, pops, pushed


def _changed_fields(old, new):
    """The names of the compared fields ``new`` changes on ``old``."""
    return {name for name, was, now in zip(old.__match_args__,
                                           type(old).fields_of(old),
                                           type(new).fields_of(new))
            if was != now}


N = 2
_to_remote, _to_home = Channels.to_remote, Channels.to_home
_downlinks = set(map(_to_remote, range(N)))

#: per action kind, for acting remote ``i``: the nodes its steps may
#: rewrite, the channel heads they pop, the channel tails they may push
ACTION_CLASSES = {
    DeliverToRemote: lambda i: ({i}, {_to_remote(i)}, {_to_home(i)}),
    RemoteSend: lambda i: ({i}, set(), {_to_home(i)}),
    RemoteC3: lambda i: ({i}, set(), {_to_home(i)}),
    RemoteTau: lambda i: ({i}, set(), {_to_home(i)}),
    DeliverToHome: lambda i: ({HOME_ID}, {_to_home(i)}, _downlinks),
    HomeStep: lambda i: ({HOME_ID}, set(), _downlinks),
    HomeTau: lambda i: ({HOME_ID}, set(), _downlinks),
}


class TestActionClasses:
    """The static independence the ample rule assumes, checked on the
    rules' own writes — the successor of each delta ``interpret()``
    returns from a fresh rule run, diffed against its origin — on every
    step of every reachable state at n = 2: a ``P(i)`` step touches only
    remote ``i`` and its channel ends (a delivery pops the head of
    home→remote(i) and pushes only to remote(i)→home), a home-class step
    never writes a remote, and ``sends`` is exactly what a step pushes.
    The invariants preset's visibility check, read off the memoized
    delta, agrees with the same diff."""

    @pytest.mark.parametrize("name", ["migratory", "invalidate", "msi",
                                      "mesi"])
    def test_steps_touch_only_their_class(self, name, request):
        system = AsyncSystem(request.getfixturevalue(f"{name}_refined"), N)
        por = PORSystem(system)
        kinds, invisible = Counter(), 0
        for state in reachable_states(system, allow_deadlock=True):
            for fresh, delta in zip(system.interpret(state),
                                    system.deltas(state), strict=True):
                action = fresh.action
                i = getattr(action, "remote", None)
                nxt = successor(state, fresh)
                nodes, pops, pushed = _touched(state, nxt)
                may_write, must_pop, may_push = \
                    ACTION_CLASSES[type(action)](i)
                assert nodes <= may_write, action
                assert pops == must_pop, action
                assert pushed.keys() <= may_push, action
                assert Counter(m for q in pushed.values() for m in q) \
                    == Counter(fresh.sends), action
                kinds[type(action)] += 1
                if isinstance(action, DeliverToRemote) and not fresh.sends:
                    head = state.channels.queues[_to_remote(i)][0]
                    only_buf = nodes <= {i} and _changed_fields(
                        state.remotes[i], nxt.remotes[i]) <= {"buf"}
                    assert por._invisible(state, delta, i) \
                        == (head.kind == REQ and only_buf), action
                    invisible += head.kind == REQ and only_buf
        # every kind is seen (migratory's home has no tau)
        assert ACTION_CLASSES.keys() - kinds.keys() <= {HomeTau}
        assert invisible  # the ample-candidate shape exists


_REMOTE_CLASS = (DeliverToRemote, RemoteSend, RemoteC3, RemoteTau)


def all_steps(system, states):
    """Every (state, delta) pair, with ``interpret()`` running the rules
    afresh, the delta's successor, and what the step touched per
    :func:`_touched`."""
    for state in states:
        for delta in system.interpret(state):
            nxt = successor(state, delta)
            yield state, delta, nxt, _touched(state, nxt)


class TestFootprint:
    """What a step touches, one fact per test, on every reachable (state,
    step) pair of migratory at n = 2.  The footprint is the node-by-node
    and channel-by-channel diff of the successor of ``interpret()``'s
    delta."""

    def test_owner_matches_action_class(self, mig2, reachable):
        for _, step, _, (nodes, _, _) in all_steps(mig2, reachable):
            action = step.action
            owner = (action.remote if isinstance(action, _REMOTE_CLASS)
                     else HOME_ID)
            assert nodes <= {owner}, action

    def test_deliveries_pop_their_channel_head(self, mig2, reachable):
        seen_req_buffering = False
        for state, step, nxt, (nodes, pops, _) in all_steps(mig2,
                                                             reachable):
            action = step.action
            if isinstance(action, DeliverToRemote):
                i = action.remote
                assert pops == {Channels.to_remote(i)}
                head = state.channels.head_to_remote(i)
                if head.kind == REQ and not step.sends and nodes <= {i}:
                    # REQ buffering: the only write is the remote's buffer
                    if _changed_fields(state.remotes[i],
                                       nxt.remotes[i]) == {"buf"}:
                        seen_req_buffering = True
            elif isinstance(action, DeliverToHome):
                assert pops == {Channels.to_home(action.remote)}
            else:
                assert not pops
        assert seen_req_buffering  # the ample-candidate shape exists

    def test_pushes_match_sends(self, mig2, reachable):
        for state, step, nxt, (_, pops, pushed) in all_steps(mig2,
                                                             reachable):
            assert Counter(m for q in pushed.values() for m in q) \
                == Counter(step.sends)
            # in-flight change is pushes minus the optional pop
            change = (nxt.channels.total_in_flight
                      - state.channels.total_in_flight)
            assert change == len(step.sends) - len(pops)

    def test_writes_localized_to_owner(self, mig2, reachable):
        """A remote-owned step never writes another node's fields, and
        pushes only on its own channel to home."""
        for _, step, _, (nodes, _, pushed) in all_steps(mig2, reachable):
            action = step.action
            if not isinstance(action, _REMOTE_CLASS):
                continue
            assert nodes <= {action.remote}
            assert pushed.keys() <= {Channels.to_home(action.remote)}

    def test_home_decision_writes_home(self, mig2, reachable):
        seen = False
        for _, step, _, (nodes, pops, _) in all_steps(mig2, reachable):
            if not isinstance(step.action, (HomeStep, HomeTau)):
                continue
            seen = True
            assert nodes <= {HOME_ID}
            assert not pops
        assert seen


class TestAmpleRule:
    """Every reduced state's singleton satisfies the documented side
    conditions, on every reachable state of the wrapped system."""

    @pytest.mark.parametrize("preserve",
                             [PRESERVE_COUNTS, PRESERVE_INVARIANTS])
    def test_ample_side_conditions(self, mig2, reachable, preserve):
        por = PORSystem(mig2, preserve=preserve)
        reduced_states = 0
        for state in reachable:
            full = mig2.deltas(state)
            chosen = por.ample(state, full)
            if chosen is None:
                assert por.deltas(state) == full  # C0: never empties
                continue
            reduced_states += 1
            ample, = (d for d in full if d.action == chosen.action)
            action = ample.action
            # singleton, a delivery to a remote, from the enabled set
            assert por.deltas(state) == [ample]
            assert isinstance(action, DeliverToRemote)
            assert ample in full and len(full) >= 2
            # no sends => strictly decreases in-flight (measure proviso)
            assert not ample.sends
            after = successor(state, ample)
            assert (after.channels.total_in_flight
                    == state.channels.total_in_flight - 1)
            # sole enabled P(i) step: no local step of the same remote
            for other in full:
                if isinstance(other.action,
                              (RemoteSend, RemoteC3, RemoteTau)):
                    assert other.action.remote != action.remote
            if preserve == PRESERVE_INVARIANTS:
                # C2: a REQ pop whose only write is remote i's buf
                i = action.remote
                assert state.channels.head_to_remote(i).kind == REQ
                assert after.home == state.home
                for j, (old, new) in enumerate(zip(state.remotes,
                                                   after.remotes)):
                    assert _changed_fields(old, new) \
                        <= ({"buf"} if j == i else set())
        assert reduced_states > 0  # the rule actually fires

    def test_invisible_checks_each_clause_of_the_delta(self, mig2,
                                                       reachable):
        """The library protocols never separate C2's clauses (a send-free
        REQ pop writes only ``buf``, any other send-free delivery writes
        ``mode``), so each is pinned here on an edited delta of a real
        REQ-buffering delivery."""
        por = PORSystem(mig2)
        state, delta = next(
            (s, d) for s in reachable for d in mig2.deltas(s)
            if isinstance(d.action, DeliverToRemote) and not d.sends
            and d.moved is not None
            and por._invisible(s, d, d.action.remote))
        i = delta.action.remote
        j, node = delta.moved
        assert delta.home is None and j == i

        def invisible(home=None, moved=(i, node), at=state):
            return por._invisible(
                at, delta._replace(home=home, moved=moved), i)

        assert invisible() and invisible(moved=None)
        assert not invisible(home=dataclasses.replace(state.home,
                                                      mode="trans"))
        assert not invisible(moved=(1 - i, node))
        assert not invisible(moved=(i, dataclasses.replace(node,
                                                           mode="trans")))
        queues = list(state.channels.queues)
        queues[_to_remote(i)] = (Msg(ACK),) + queues[_to_remote(i)][1:]
        assert not invisible(at=state.with_channels(Channels(tuple(queues))))

    def test_invariants_preset_is_a_refinement_of_counts(self, mig2,
                                                         reachable):
        """Wherever the invariants preset reduces, counts reduces to the
        same singleton (it only weakens the visibility condition)."""
        counts = PORSystem(mig2, preserve=PRESERVE_COUNTS)
        inv = PORSystem(mig2, preserve=PRESERVE_INVARIANTS)
        for state in reachable:
            deltas = mig2.deltas(state)
            inv_ample = inv.ample(state, deltas)
            if inv_ample is not None:
                counts_ample = counts.ample(state, deltas)
                assert counts_ample is not None
                assert (counts_ample.action.remote
                        <= inv_ample.action.remote)

    def test_deterministic(self, mig2, reachable):
        por = PORSystem(mig2)
        for state in reachable[:200]:
            first = [d.action for d in por.deltas(state)]
            second = [d.action for d in por.deltas(state)]
            assert first == second

    def test_expand_reports_full_enabled_count(self, mig2, reachable):
        por = PORSystem(mig2, preserve=PRESERVE_COUNTS)
        saw_reduction = False
        for state in reachable:
            succs, enabled = por.expand(state)
            assert enabled == len(mig2.deltas(state))
            assert len(succs) <= enabled
            if len(succs) < enabled:
                saw_reduction = True
                assert len(succs) == 1
        assert saw_reduction


def interpreted_ample(system, state, preserve):
    """The ample rule of :mod:`repro.check.por`'s docstring, chosen from
    ``interpret()``'s deltas and C2 read off their successors: the
    reference :meth:`PORSystem.ample` is held to."""
    deltas = system.interpret(state)
    if len(deltas) < 2:
        return None
    local = {d.action.remote for d in deltas
             if isinstance(d.action, (RemoteSend, RemoteC3, RemoteTau))}
    deliveries = sorted((d for d in deltas
                         if isinstance(d.action, DeliverToRemote)),
                        key=lambda d: d.action.remote)
    for delta in deliveries:
        i = delta.action.remote
        if i in local or delta.sends:
            continue
        if preserve == PRESERVE_INVARIANTS:
            nxt = successor(state, delta)
            nodes, _, _ = _touched(state, nxt)
            head = state.channels.queues[_to_remote(i)][0]
            if not (head.kind == REQ and nodes <= {i} and _changed_fields(
                    state.remotes[i], nxt.remotes[i]) <= {"buf"}):
                continue
        return delta
    return None


#: states of each budgeted sweep at n = 3
SWEEP_BUDGET = 3000


class TestDeltaAmpleMatchesInterpretedSteps:
    """The ample set read off the memoized deltas is the one the rule
    picks from ``interpret()``'s deltas, and :meth:`PORSystem.expand`
    builds exactly its successors, on every state of a budgeted
    ``--symmetry --por`` sweep of each library protocol at n = 3 — and
    of the ``--symmetry`` sweep, whose states offer the rule several
    candidate deliveries more often (a reduced sweep takes the first
    one as soon as it appears)."""

    @pytest.mark.parametrize("preserve",
                             [PRESERVE_COUNTS, PRESERVE_INVARIANTS])
    @pytest.mark.parametrize("name", ["migratory", "invalidate", "msi",
                                      "mesi"])
    def test_same_ample_and_successors(self, name, preserve, request):
        system = AsyncSystem(request.getfixturevalue(f"{name}_refined"), 3)
        por = PORSystem(system, preserve=preserve)
        spec = symmetry_spec_for(name)
        states = [state for swept in (SymmetricSystem(por, spec),
                                      SymmetricSystem(system, spec))
                  for state in reachable_states(
                      swept, max_states=SWEEP_BUDGET, allow_deadlock=True)]
        reduced = 0
        for state in states:
            reference = interpreted_ample(system, state, preserve)
            chosen = por.ample(state, system.deltas(state))
            assert (chosen is None) == (reference is None)
            full = system.interpret(state)
            kept = full if reference is None else [reference]
            succs, enabled = por.expand(state)
            assert enabled == len(full)
            assert succs == [(d.action, successor(state, d)) for d in kept]
            if reference is not None:
                assert chosen.action == reference.action
                reduced += 1
        assert reduced  # the rule fires on every protocol


class TestConstruction:
    def test_rejects_rendezvous_system(self, migratory):
        with pytest.raises(CheckError, match="asynchronous"):
            PORSystem(RendezvousSystem(migratory, 2))

    def test_rejects_unknown_preset(self, mig2):
        with pytest.raises(CheckError, match="preservation mode"):
            PORSystem(mig2, preserve="everything")

    def test_surface_passthrough(self, mig2):
        por = PORSystem(mig2)
        assert por.initial_state() == mig2.initial_state()
        assert por.n_remotes == 2


def _keeps(obj, encoding):
    """Whether any memo slot of ``obj`` holds ``encoding``."""
    return any(getattr(obj, f.name) == encoding
               for f in dataclasses.fields(obj) if not f.compare)


class TestCanonicalKeyMemoization:
    """Satellite: a canonical encoding is built on demand from the
    compared fields (``fields_of``, rebuilt per call) and memoized by no
    state, node or network — none declares a memo for it (no sweep asks
    for it per probe) — and stays equal across calls and copies."""

    def test_cached_and_stable(self, mig2):
        state = mig2.initial_state()
        key = _enc(state)
        assert _enc(state) == key
        assert AsyncState.fields_of(state) is not AsyncState.fields_of(state)
        assert _enc(dataclasses.replace(state)) == key
        for obj in (state, state.home, state.channels) + state.remotes:
            assert not hasattr(obj, "_key_cache") and not _keeps(obj, key)

    def test_node_and_channel_keys_cached(self, mig2):
        # a state's encoding is assembled from its nodes' and its
        # network's, each rebuilt per call; a replayed node or network
        # keeps none either
        state = mig2.initial_state()
        assert _enc(state) == b"t(" + b",".join(
            _enc(part) for part in (state.home, state.remotes,
                                    state.channels)) + b")"
        assert Channels.fields_of(state.channels) \
            is not Channels.fields_of(state.channels)
        node = dataclasses.replace(state.remotes[0])
        assert _enc(node) == _enc(state.remotes[0])
        assert RemoteNode.fields_of(node) is not RemoteNode.fields_of(node)
        for _action, nxt in mig2.successors(state):
            for obj in (nxt.channels, nxt.home) + nxt.remotes:
                assert not _keeps(obj, _enc(obj))


class TestWithRemote:
    """Satellite: the tuple-slicing rewrite keeps semantics."""

    def test_replaces_only_target(self, migratory_refined):
        system = AsyncSystem(migratory_refined, 3)
        state = system.initial_state()
        for i in range(3):
            node = state.remotes[(i + 1) % 3]
            out = state.with_remote(i, node)
            assert out.remotes[i] is node
            for j in range(3):
                if j != i:
                    assert out.remotes[j] is state.remotes[j]
            assert out.home is state.home
            assert out.channels is state.channels
