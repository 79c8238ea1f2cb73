"""Unit tests for the section 4 abstraction function (repro.refine.abstraction)."""

import pytest

from repro.csp.ast import ProcessKind
from repro.protocols.handwritten import handwritten_migratory
from repro.refine.abstraction import AbstractionUndefined, abstract_state
from repro.semantics.asynchronous import (
    AsyncSystem,
    DeliverToHome,
    HomeStep,
    RemoteSend,
    successor,
)
from repro.semantics.rendezvous import RendezvousSystem
from tests.conftest import reachable_states


def advance(system, state, predicate):
    """``state`` after its first enabled step matching ``predicate``."""
    deltas = system.deltas(state)
    matches = [d for d in deltas if predicate(d)]
    assert matches, [d.action.describe() for d in deltas]
    return successor(state, matches[0])


class TestInitialState:
    def test_initial_abs_equals_rendezvous_initial(self, migratory_refined):
        system = AsyncSystem(migratory_refined, 2)
        rv = RendezvousSystem(migratory_refined.protocol, 2)
        assert abstract_state(system, system.initial_state()) == \
            rv.initial_state()


class TestRule1RequestsDiscarded:
    def test_inflight_request_rewinds_sender(self, migratory_refined):
        system = AsyncSystem(migratory_refined, 2)
        init = system.initial_state()
        sent = advance(system, init,
                       lambda s: isinstance(s.action, RemoteSend)
                       and s.action.remote == 0)
        # r0 is transient with its req in flight; abs discards both
        assert abstract_state(system, sent) == abstract_state(system, init)

    def test_buffered_request_rewinds_sender(self, migratory_refined):
        system = AsyncSystem(migratory_refined, 2)
        init = system.initial_state()
        state = advance(system, init,
                        lambda s: isinstance(s.action, RemoteSend)
                        and s.action.remote == 0)
        state = advance(system, state,
                        lambda s: isinstance(s.action, DeliverToHome))
        assert state.home.buffer  # now buffered rather than in flight
        assert abstract_state(system, state) == abstract_state(system, init)


class TestRule2AcksFastForward:
    def test_ack_in_flight_advances_target(self, migratory_refined_plain):
        system = AsyncSystem(migratory_refined_plain, 1)
        state = system.initial_state()
        state = advance(system, state,
                        lambda s: isinstance(s.action, RemoteSend))
        state = advance(system, state,
                        lambda s: isinstance(s.action, DeliverToHome))
        consumed = advance(
            system, state,
            lambda s: isinstance(s.action, HomeStep)
            and s.action.kind == "C1")
        # ACK to r0 in flight: abs must show the req rendezvous complete
        abs_state = abstract_state(system, consumed)
        assert abs_state.remotes[0].state == "I.gr"
        assert abs_state.home.state == "F1"

    def test_half_forward_for_fused_request(self, migratory_refined):
        system = AsyncSystem(migratory_refined, 1)
        state = system.initial_state()
        state = advance(system, state,
                        lambda s: isinstance(s.action, RemoteSend))
        state = advance(system, state,
                        lambda s: isinstance(s.action, DeliverToHome))
        consumed = advance(
            system, state,
            lambda s: isinstance(s.action, HomeStep)
            and s.action.kind == "C1")
        # no ack exists (fused); the requester is half-forwarded to the
        # reply-waiting state
        abs_state = abstract_state(system, consumed)
        assert abs_state.remotes[0].state == "I.gr"
        assert abs_state.home.state == "F1"

    def test_reply_in_flight_fast_forwards_through_both(self, migratory_refined):
        system = AsyncSystem(migratory_refined, 1)
        state = system.initial_state()
        for predicate in (
            lambda s: isinstance(s.action, RemoteSend),
            lambda s: isinstance(s.action, DeliverToHome),
            lambda s: isinstance(s.action, HomeStep) and s.action.kind == "C1",
            lambda s: isinstance(s.action, HomeStep) and s.action.kind == "REPLY",
        ):
            state = advance(system, state, predicate)
        abs_state = abstract_state(system, state)
        assert abs_state.remotes[0].state == "V"
        assert abs_state.home.state == "E"


def drive_to_note_in_flight(system):
    """Drive r0 into V, then evict: the LR is sent fire-and-forget."""
    state = system.initial_state()
    for predicate in (
        lambda s: isinstance(s.action, RemoteSend),
        lambda s: isinstance(s.action, DeliverToHome),
        lambda s: isinstance(s.action, HomeStep) and s.action.kind == "C1",
        lambda s: isinstance(s.action, HomeStep) and s.action.kind == "REPLY",
        lambda s: s.action.describe().endswith("deliver h→r0"),
        lambda s: s.action.describe() == "r0.τ:evict",
        lambda s: isinstance(s.action, RemoteSend),
    ):
        state = advance(system, state, predicate)
    return state


class TestFireAndForgetUndefined:
    def test_note_in_flight_raises(self):
        system = AsyncSystem(handwritten_migratory(), 1)
        state = drive_to_note_in_flight(system)
        assert any(m.kind == "NOTE" for _i, _d, m in state.channels.in_flight())
        with pytest.raises(AbstractionUndefined):
            abstract_state(system, state)

    def test_note_in_flight_reason_is_the_carve_out(self):
        """The certificate checker dispatches on the reason tag: the
        fire-and-forget undefinedness is documented, not a bug."""
        system = AsyncSystem(handwritten_migratory(), 1)
        state = drive_to_note_in_flight(system)
        with pytest.raises(AbstractionUndefined) as excinfo:
            abstract_state(system, state)
        assert excinfo.value.reason == \
            AbstractionUndefined.REASON_NOTE_IN_FLIGHT
        assert excinfo.value.is_note_carveout

    def test_note_buffered_reason_is_the_carve_out(self):
        system = AsyncSystem(handwritten_migratory(), 1)
        state = drive_to_note_in_flight(system)
        state = advance(system, state,
                        lambda s: isinstance(s.action, DeliverToHome))
        assert any(e.note for e in state.home.buffer)
        with pytest.raises(AbstractionUndefined) as excinfo:
            abstract_state(system, state)
        assert excinfo.value.reason == \
            AbstractionUndefined.REASON_NOTE_BUFFERED
        assert excinfo.value.is_note_carveout

    def test_bug_reasons_are_not_the_carve_out(self):
        for reason in (AbstractionUndefined.REASON_NO_WITNESS,
                       AbstractionUndefined.REASON_NO_REPLY_INPUT):
            assert not AbstractionUndefined("x", reason=reason).is_note_carveout

    def test_default_reason_is_no_witness(self):
        assert AbstractionUndefined("x").reason == \
            AbstractionUndefined.REASON_NO_WITNESS


class TestHalfForwardedEnv:
    def test_half_forward_applies_the_request_update(self, migratory_refined):
        """The half-forwarded requester must carry the *post-request* env
        (the request's update committed with the rendezvous), or fused
        states with env updates would abstract to unreachable contexts."""
        from repro.refine.transitions import build_step_table
        system = AsyncSystem(migratory_refined, 1)
        state = system.initial_state()
        for predicate in (
            lambda s: isinstance(s.action, RemoteSend),
            lambda s: isinstance(s.action, DeliverToHome),
            lambda s: isinstance(s.action, HomeStep) and s.action.kind == "C1",
        ):
            state = advance(system, state, predicate)
        # concrete r0 is still transient at I (half-forwarded posture)
        assert state.remotes[0].state == "I"
        spec = build_step_table(migratory_refined).spec(
            ProcessKind.REMOTE, "I", 0)
        abs_state = abstract_state(system, state)
        assert abs_state.remotes[0].state == spec.reply_to

    def test_no_witness_is_a_semantics_bug_not_a_carve_out(
            self, migratory_refined):
        """Erase the fused pair from the plan: the consumed-but-unreplied
        requester then has no abstract preimage, and the reason tag must
        say 'bug', not 'carve-out'."""
        from repro.refine.plan import RefinedProtocol, RefinementPlan
        stripped = RefinedProtocol(
            protocol=migratory_refined.protocol,
            plan=RefinementPlan(config=migratory_refined.plan.config,
                                fused=()))
        system = AsyncSystem(migratory_refined, 1)
        state = system.initial_state()
        for predicate in (
            lambda s: isinstance(s.action, RemoteSend),
            lambda s: isinstance(s.action, DeliverToHome),
            lambda s: isinstance(s.action, HomeStep) and s.action.kind == "C1",
        ):
            state = advance(system, state, predicate)
        with pytest.raises(AbstractionUndefined) as excinfo:
            abstract_state(AsyncSystem(stripped, 1), state)
        assert excinfo.value.reason == \
            AbstractionUndefined.REASON_NO_WITNESS
        assert not excinfo.value.is_note_carveout


class TestAbstractionTotality:
    @pytest.mark.parametrize("n", [1, 2])
    def test_defined_on_every_reachable_state(self, migratory_refined, n):
        system = AsyncSystem(migratory_refined, n)
        for state in reachable_states(system, allow_deadlock=True):
            abstract_state(system, state)  # must not raise
