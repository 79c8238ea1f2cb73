"""Unit tests for ample-set partial-order reduction (repro.check.por).

The differential soundness evidence (verdict agreement between full and
reduced exploration) lives in ``tests/property/test_por_differential.py``;
this file pins the *mechanics*: footprints report exactly what a step
touches, the ample rule only ever picks steps satisfying the documented
side conditions, and the satellite optimizations (memoized canonical
keys, tuple-sliced ``with_remote``) behave.
"""

import dataclasses

import pytest

from repro import AsyncSystem, RendezvousSystem
from repro.check.por import (
    PRESERVE_COUNTS,
    PRESERVE_INVARIANTS,
    PORSystem,
)
from repro.check.store import _enc
from repro.errors import CheckError
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
)
from repro.semantics.network import REQ, Channels
from repro.semantics.state import HOME_ID
from tests.conftest import reachable_states


@pytest.fixture(scope="module")
def mig2(migratory_refined):
    return AsyncSystem(migratory_refined, 2)


@pytest.fixture(scope="module")
def reachable(mig2):
    """All reachable async states of refined migratory at n=2."""
    return reachable_states(mig2, allow_deadlock=True)


def all_steps(system, states):
    for state in states:
        for step in system.steps(state):
            yield state, step


class TestFootprint:
    """footprint() is a structural diff — check it against the action
    taxonomy on every reachable (state, step) pair of a real protocol."""

    def test_owner_matches_action_class(self, mig2, reachable):
        for state, step in all_steps(mig2, reachable):
            fp = step.footprint(state)
            action = step.action
            if isinstance(action, (DeliverToRemote, RemoteSend,
                                   RemoteC3, RemoteTau)):
                assert fp.owner == action.remote
            else:
                assert fp.owner == HOME_ID

    def test_deliveries_pop_their_channel_head(self, mig2, reachable):
        seen_req_buffering = False
        for state, step in all_steps(mig2, reachable):
            fp = step.footprint(state)
            action = step.action
            if isinstance(action, DeliverToRemote):
                chan = Channels.to_remote(action.remote)
                assert fp.pop is not None and fp.pop[0] == chan
                assert fp.pop[1] == state.channels.queues[chan][0].kind
                if fp.pop[1] == REQ and not step.sends:
                    # REQ buffering: the only write is the remote's buffer
                    if fp.writes == {("r", action.remote, "buf")}:
                        seen_req_buffering = True
            elif isinstance(action, DeliverToHome):
                assert fp.pop is not None
                assert fp.pop[0] == Channels.to_home(action.remote)
            else:
                assert fp.pop is None
        assert seen_req_buffering  # the ample-candidate shape exists

    def test_pushes_match_sends(self, mig2, reachable):
        for state, step in all_steps(mig2, reachable):
            fp = step.footprint(state)
            assert len(fp.pushes) == len(step.sends)
            # in-flight delta is pushes minus the optional pop
            delta = (step.state.channels.total_in_flight
                     - state.channels.total_in_flight)
            assert delta == len(fp.pushes) - (1 if fp.pop else 0)

    def test_writes_localized_to_owner(self, mig2, reachable):
        """A remote-owned step never writes another node's fields."""
        for state, step in all_steps(mig2, reachable):
            fp = step.footprint(state)
            if fp.owner == HOME_ID:
                continue
            for tag in fp.writes:
                assert tag[0] == "r" and tag[1] == fp.owner

    def test_home_decision_writes_home(self, mig2, reachable):
        seen = False
        for state, step in all_steps(mig2, reachable):
            if not isinstance(step.action, (HomeStep, HomeTau)):
                continue
            seen = True
            fp = step.footprint(state)
            assert all(tag[0] == "h" for tag in fp.writes)
            assert fp.pop is None
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
            full = mig2.steps(state)
            ample = por.ample(state, full)
            if ample is None:
                assert por.steps(state) == full  # C0: never empties
                continue
            reduced_states += 1
            action = ample.action
            # singleton, a delivery to a remote, from the enabled set
            assert por.steps(state) == [ample]
            assert isinstance(action, DeliverToRemote)
            assert ample in full and len(full) >= 2
            # no sends => strictly decreases in-flight (measure proviso)
            assert not ample.sends
            assert (ample.state.channels.total_in_flight
                    == state.channels.total_in_flight - 1)
            # sole enabled P(i) step: no local step of the same remote
            for other in full:
                if isinstance(other.action,
                              (RemoteSend, RemoteC3, RemoteTau)):
                    assert other.action.remote != action.remote
            if preserve == PRESERVE_INVARIANTS:
                fp = ample.footprint(state)
                assert fp.pop is not None and fp.pop[1] == REQ
                assert fp.writes <= {("r", action.remote, "buf")}
        assert reduced_states > 0  # the rule actually fires

    def test_invariants_preset_is_a_refinement_of_counts(self, mig2,
                                                         reachable):
        """Wherever the invariants preset reduces, counts reduces to the
        same singleton (it only weakens the visibility condition)."""
        counts = PORSystem(mig2, preserve=PRESERVE_COUNTS)
        inv = PORSystem(mig2, preserve=PRESERVE_INVARIANTS)
        for state in reachable:
            full = mig2.steps(state)
            inv_ample = inv.ample(state, full)
            if inv_ample is not None:
                counts_ample = counts.ample(state, full)
                assert counts_ample is not None
                assert counts_ample.action.remote \
                    <= inv_ample.action.remote

    def test_deterministic(self, mig2, reachable):
        por = PORSystem(mig2)
        for state in reachable[:200]:
            first = [s.action for s in por.steps(state)]
            second = [s.action for s in por.steps(state)]
            assert first == second

    def test_expand_reports_full_enabled_count(self, mig2, reachable):
        por = PORSystem(mig2, preserve=PRESERVE_COUNTS)
        saw_reduction = False
        for state in reachable:
            succs, enabled = por.expand(state)
            assert enabled == len(mig2.steps(state))
            assert len(succs) <= enabled
            if len(succs) < enabled:
                saw_reduction = True
                assert len(succs) == 1
        assert saw_reduction


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
        assert por.protocol is mig2.protocol
        state = mig2.initial_state()
        step = mig2.steps(state)[0]
        assert por.apply(state, step.action) == step.state


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
        for step in mig2.steps(state):
            for obj in (step.state.channels, step.state.home) \
                    + step.state.remotes:
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
