"""Unit tests for the asynchronous semantics (Tables 1 and 2 row by row)."""

from dataclasses import replace

import pytest

from repro import RefinementConfig, refine
from repro.csp.ast import AnySender, ConstTarget, ProcessKind
from repro.csp.builder import ProcessBuilder, inp, out, protocol, tau
from repro.errors import SemanticsError
from repro.refine.plan import RefinedProtocol, RefinementPlan
from repro.refine.transitions import build_step_table
from repro.semantics.asynchronous import (
    AsyncSystem,
    BufEntry,
    DeliverToHome,
    DeliverToRemote,
    HomeStep,
    RemoteC3,
    RemoteSend,
    RemoteTau,
    TRANS,
    IDLE,
    successor,
)
from repro.semantics.network import ACK, REPL, REQ, Channels, Msg
from repro.semantics.state import HOME_ID


def take(system, state, predicate, description=""):
    """The unique enabled step matching ``predicate``: its delta and the
    successor it leads to."""
    deltas = system.deltas(state)
    matching = [d for d in deltas if predicate(d)]
    assert len(matching) == 1, (
        f"expected exactly one step {description!r}, got "
        f"{[d.action.describe() for d in matching]} out of "
        f"{[d.action.describe() for d in deltas]}")
    return matching[0], successor(state, matching[0])


def walk(system, state, predicate, description=""):
    """``state`` after the unique enabled step matching ``predicate``."""
    return take(system, state, predicate, description)[1]


def is_action(cls, **attrs):
    def predicate(step):
        if not isinstance(step.action, cls):
            return False
        return all(getattr(step.action, k) == v for k, v in attrs.items())
    return predicate


@pytest.fixture
def plain2(migratory_refined_plain):
    """Un-fused migratory with 2 remotes: pure Tables 1-2 behaviour."""
    return AsyncSystem(migratory_refined_plain, 2)


@pytest.fixture
def fused2(migratory_refined):
    return AsyncSystem(migratory_refined, 2)


class TestInitialState:
    def test_layout(self, plain2):
        init = plain2.initial_state()
        assert init.home.mode == IDLE and init.home.buffer == ()
        assert all(r.mode == IDLE and r.buf is None for r in init.remotes)
        assert init.channels.total_in_flight == 0

    def test_requires_positive_remotes(self, migratory_refined):
        with pytest.raises(SemanticsError):
            AsyncSystem(migratory_refined, 0)


class TestRemoteTable1:
    def test_c1_send_enters_transient(self, plain2):
        init = plain2.initial_state()
        step, state = take(plain2, init, is_action(RemoteSend, remote=0),
                           "r0 send")
        assert state.remotes[0].mode == TRANS
        head = state.channels.head_to_home(0)
        assert head.kind == REQ and head.msg == "req"
        assert step.sends and step.sends[0].kind == REQ

    def test_t2_nack_triggers_retransmission(self, plain2):
        # fill the home buffer is hard with k=2; instead inject a NACK
        init = plain2.initial_state()
        state = walk(plain2, init, is_action(RemoteSend, remote=0))
        # drop the request and fake a nack from home
        _req, channels = state.channels.pop(Channels.to_home(0))
        from repro.semantics.network import NACK as NK
        channels = channels.send_to_remote(0, Msg(kind=NK))
        state = state.with_channels(channels)
        step, after = take(plain2, state, is_action(DeliverToRemote, remote=0))
        assert after.remotes[0].mode == TRANS  # re-entered transient
        assert after.channels.head_to_home(0).kind == REQ  # retransmitted
        assert step.sends[0].kind == REQ

    def test_t3_request_from_home_dropped_in_transient(self, plain2):
        init = plain2.initial_state()
        state = walk(plain2, init, is_action(RemoteSend, remote=0))
        channels = state.channels.send_to_remote(0, Msg(kind=REQ, msg="inv"))
        state = state.with_channels(channels)
        step, after = take(plain2, state, is_action(DeliverToRemote, remote=0))
        assert after.remotes[0].buf is None  # dropped, not buffered
        assert after.remotes[0].mode == TRANS  # still waiting

    def test_t1_ack_completes_rendezvous(self, plain2):
        init = plain2.initial_state()
        state = walk(plain2, init, is_action(RemoteSend, remote=0))
        state = walk(plain2, state, is_action(DeliverToHome, remote=0))
        # home buffers the req, C1 consumes it and acks
        state = walk(plain2, state, is_action(HomeStep, kind="C1"))
        assert state.channels.head_to_remote(0).kind == ACK
        step, after = take(plain2, state, is_action(DeliverToRemote, remote=0))
        assert step.completes and step.completes[0].msg == "req"
        assert after.remotes[0].state == "I.gr"
        assert after.remotes[0].mode == IDLE

    def test_c3_satisfying_request_acked(self, plain2):
        state = self._drive_r0_to_V(plain2)
        # r1 requests: home consumes the req in E and moves to I1, from
        # which C2 sends inv to the owner r0
        state = walk(plain2, state,
                     is_action(RemoteSend, remote=1), "r1 req")
        state = walk(plain2, state, is_action(DeliverToHome, remote=1))
        state = walk(plain2, state, is_action(HomeStep, kind="C1"))
        assert state.home.state == "I1"
        state = walk(plain2, state, is_action(HomeStep, kind="C2"),
                     "send inv")
        assert state.home.mode == TRANS and state.home.awaiting == 0
        state = walk(plain2, state, is_action(DeliverToRemote, remote=0))
        assert state.remotes[0].buf is not None  # inv buffered at r0
        step, after = take(plain2, state, is_action(RemoteC3, remote=0))
        assert after.remotes[0].state == "V.id"
        assert after.channels.head_to_home(0).kind == ACK
        assert step.completes and step.completes[0].msg == "inv"

    def _drive_r0_to_V(self, system):
        """r0 requests, home grants, r0 lands in V (plain refinement)."""
        state = system.initial_state()
        state = walk(system, state, is_action(RemoteSend, remote=0))
        state = walk(system, state, is_action(DeliverToHome, remote=0))
        state = walk(system, state, is_action(HomeStep, kind="C1"))
        state = walk(system, state, is_action(DeliverToRemote, remote=0))
        assert state.remotes[0].state == "I.gr"
        return self._deliver_gr_to(system, state, 0)

    @staticmethod
    def _deliver_gr_to(system, state, i):
        """Complete the home-active gr rendezvous with remote i (plain)."""
        state = walk(system, state, is_action(HomeStep, kind="C2"),
                     f"send gr to r{i}")
        assert state.home.awaiting == i
        state = walk(system, state, is_action(DeliverToRemote, remote=i))
        state = walk(system, state, is_action(RemoteC3, remote=i))
        step, state = take(system, state,
                           is_action(DeliverToHome, remote=i))
        assert any(c.msg == "gr" for c in step.completes)
        assert state.remotes[i].state == "V"
        assert state.home.state == "E"
        return state


class TestHomeTable2:
    def test_requests_buffered_until_capacity(self, migratory):
        system = AsyncSystem(refine(
            migratory, RefinementConfig(use_reqreply=False,
                                        home_buffer_capacity=3)), 2)
        state = system.initial_state()
        for i in (0, 1):
            state = walk(system, state, is_action(RemoteSend, remote=i))
        for i in (0, 1):
            state = walk(system, state,
                         is_action(DeliverToHome, remote=i))
        assert len(state.home.buffer) == 2

    def test_c2_evicting_a_request_writes_channels_in_order(
            self, migratory_refined_plain):
        """A C2 with a full buffer nacks the first buffered request and
        sends its own: the delta lists the two pushes in ascending
        channel order, whichever remote the victim is, and ``sends`` has
        the nack first."""
        system = AsyncSystem(migratory_refined_plain, 3)
        state = TestRemoteTable1()._drive_r0_to_V(system)
        state = walk(system, state, is_action(RemoteSend, remote=1))
        state = walk(system, state, is_action(DeliverToHome, remote=1))
        state = walk(system, state, is_action(HomeStep, kind="C1"))
        assert state.home.state == "I1" and system.capacity == 2
        full = replace(state.home, buffer=(
            BufEntry(sender=2, msg="req"), BufEntry(sender=1, msg="req")))
        delta, = (d for d in system.deltas(replace(state, home=full))
                  if isinstance(d.action, HomeStep))
        assert delta.action.kind == "C2" and delta.home.awaiting == 0
        nack, inv = delta.sends
        assert nack.kind == "NACK" and inv.msg == "inv"
        assert delta.ops == ((Channels.to_remote(0), 0, (inv,)),
                             (Channels.to_remote(2), 0, (nack,)))
        assert delta.home.buffer == (BufEntry(sender=1, msg="req"),)

    def test_progress_buffer_refuses_non_satisfying(
            self, migratory_refined_plain):
        """In state E with k=2 and one slot used, a second req (which
        cannot complete a rendezvous... actually req satisfies E).  Use I1:
        only LR/ID from the owner satisfy; a req must be nacked when only
        the progress slot remains."""
        system = AsyncSystem(migratory_refined_plain, 3)
        t = TestRemoteTable1()
        state = t._drive_r0_to_V(system)
        # r1 requests: home E -> I1 (buffered then consumed)
        state = walk(system, state, is_action(RemoteSend, remote=1))
        state = walk(system, state, is_action(DeliverToHome, remote=1))
        state = walk(system, state, is_action(HomeStep, kind="C1"))
        assert state.home.state == "I1"
        # r2's req arrives twice: first fills the free slot... k=2, buffer
        # empty, free=2>1 -> buffered; then home goes transient with inv.
        state = walk(system, state, is_action(RemoteSend, remote=2))
        state = walk(system, state, is_action(DeliverToHome, remote=2))
        assert len(state.home.buffer) == 1
        # transient awaiting r0's inv ack
        state = walk(system, state, is_action(HomeStep, kind="C2"))
        assert state.home.mode == TRANS
        # r2 was nacked?  no - r2's request sits in buffer.  Now r0's
        # evict... instead check: a fresh req from r2 is impossible (it is
        # transient).  The invariant we check: free slots == 1 == reserved
        # ack buffer, so any further request would be nacked (T6).
        assert system._free_slots(state.home) == 1

    def test_t3_implicit_nack(self, plain2):
        t = TestRemoteTable1()
        state = t._drive_r0_to_V(plain2)
        # r1 requests; home goes to I1 and sends inv to r0
        state = walk(plain2, state, is_action(RemoteSend, remote=1))
        state = walk(plain2, state, is_action(DeliverToHome, remote=1))
        state = walk(plain2, state, is_action(HomeStep, kind="C1"))
        state = walk(plain2, state, is_action(HomeStep, kind="C2"))
        assert state.home.awaiting == 0
        # meanwhile r0 evicts and sends LR (a request from the awaited
        # remote): the home treats it as nack + request (row T3)
        state = walk(plain2, state, is_action(RemoteTau, remote=0,
                                              label="evict"))
        state = walk(plain2, state, is_action(RemoteSend, remote=0))
        assert state.remotes[0].mode == TRANS  # waiting for LR ack
        after = walk(plain2, state, is_action(DeliverToHome, remote=0))
        assert after.home.mode == IDLE  # implicit nack: back to comm state
        assert any(e.sender == 0 and e.msg == "LR" for e in after.home.buffer)

    def test_ack_from_unexpected_remote_raises(self, plain2):
        init = plain2.initial_state()
        state = init.with_channels(
            init.channels.send_to_home(0, Msg(kind=ACK)))
        with pytest.raises(SemanticsError, match="not awaiting"):
            plain2.deltas(state)


class TestReqReplyFusion:
    def test_fused_request_gets_no_ack(self, fused2):
        state = fused2.initial_state()
        state = walk(fused2, state, is_action(RemoteSend, remote=0))
        state = walk(fused2, state, is_action(DeliverToHome, remote=0))
        step, _ = take(fused2, state, is_action(HomeStep, kind="C1"))
        assert step.sends == ()  # consumption without ack
        assert step.completes == ()  # reported at the reply instead

    def test_reply_completes_both_rendezvous(self, fused2):
        state = fused2.initial_state()
        state = walk(fused2, state, is_action(RemoteSend, remote=0))
        state = walk(fused2, state, is_action(DeliverToHome, remote=0))
        state = walk(fused2, state, is_action(HomeStep, kind="C1"))
        step, state = take(fused2, state, is_action(HomeStep, kind="REPLY"))
        assert step.sends[0].kind == REPL and step.sends[0].msg == "gr"
        assert state.home.state == "E" and state.home.mode == IDLE
        step, after = take(fused2, state, is_action(DeliverToRemote, remote=0))
        assert {c.msg for c in step.completes} == {"req", "gr"}
        assert after.remotes[0].state == "V"

    def test_transaction_takes_two_messages(self, fused2):
        """Section 3.3's headline: req+gr costs 2 messages, not 4."""
        state = fused2.initial_state()
        messages = 0
        for _ in range(6):
            deltas = [d for d in fused2.deltas(state)
                      if not isinstance(d.action, (RemoteSend, RemoteTau))
                      or d.action.remote == 0]
            # drive only remote 0 and the home
            messages += len(deltas[0].sends)
            state = successor(state, deltas[0])
            if state.remotes[0].state == "V":
                break
        assert state.remotes[0].state == "V"
        assert messages == 2

    def test_fused_inv_id_roundtrip(self, fused2):
        # drive r0 to V (fused: req, consume, reply, deliver)
        state = fused2.initial_state()
        state = walk(fused2, state, is_action(RemoteSend, remote=0))
        state = walk(fused2, state, is_action(DeliverToHome, remote=0))
        state = walk(fused2, state, is_action(HomeStep, kind="C1"))
        state = walk(fused2, state, is_action(HomeStep, kind="REPLY"))
        state = walk(fused2, state, is_action(DeliverToRemote, remote=0))
        # r1 wants the line: home revokes via fused inv/ID
        state = walk(fused2, state, is_action(RemoteSend, remote=1))
        state = walk(fused2, state, is_action(DeliverToHome, remote=1))
        state = walk(fused2, state, is_action(HomeStep, kind="C1"))
        assert state.home.state == "I1"
        state = walk(fused2, state, is_action(HomeStep, kind="C2"))
        assert state.home.mode == TRANS and state.home.awaiting == 0
        state = walk(fused2, state, is_action(DeliverToRemote, remote=0))
        step, state = take(fused2, state, is_action(RemoteC3, remote=0))
        assert step.sends[0].kind == REPL and step.sends[0].msg == "ID"
        assert state.remotes[0].state == "I"
        step, after = take(fused2, state, is_action(DeliverToHome, remote=0))
        assert {c.msg for c in step.completes} == {"inv", "ID"}
        assert after.home.state == "I3"


def _home_awaiting_inv(system):
    """Fused migratory: r0 owns the line, r1 asks for it, and the home
    has sent ``inv`` to r0 and awaits its ``ID`` reply."""
    state = system.initial_state()
    for predicate in (is_action(RemoteSend, remote=0),
                      is_action(DeliverToHome, remote=0),
                      is_action(HomeStep, kind="C1"),
                      is_action(HomeStep, kind="REPLY"),
                      is_action(DeliverToRemote, remote=0),
                      is_action(RemoteSend, remote=1),
                      is_action(DeliverToHome, remote=1),
                      is_action(HomeStep, kind="C1"),
                      is_action(HomeStep, kind="C2")):
        state = walk(system, state, predicate)
    assert state.home.state == "I1" and state.home.awaiting == 0
    return state


def _to_remote(state, i, msg):
    return state.with_channels(state.channels.send_to_remote(i, msg))


def _fused_responder(*work):
    """A one-remote system whose remote answers a buffered ``inv`` through
    the internal states ``work`` (each ``(name, tau)``), the step table
    marking ``inv``/``ID`` as a home-initiated fused pair."""
    h = ProcessBuilder.home("h")
    h.state("ask", out("inv", target=ConstTarget(0), to="wait"))
    h.state("wait", inp("ID", sender=AnySender(), to="ask"))
    r = ProcessBuilder.remote("r")
    r.state("idle", inp("inv", to=work[0][0]))
    for name, guard in work:
        r.state(name, guard)
    r.state("reply", out("ID", to="idle"))
    refined = RefinedProtocol(protocol=protocol("responder", h, r),
                              plan=RefinementPlan())
    table = build_step_table(refined).mutate(
        ProcessKind.HOME, "ask", 0, fused_reply="ID", reply_to="wait")
    system = AsyncSystem(refined, 1, table=table)
    init = system.initial_state()
    remote = replace(init.remotes[0], buf=BufEntry(sender=HOME_ID, msg="inv"))
    return system, init.with_remote(0, remote)


class TestTransientRowErrors:
    """The SemanticsError texts of rows T1 and the fused reply, both
    sides, and of the fused responder's local work."""

    def test_remote_unexpected_reply(self, fused2):
        state = walk(fused2, fused2.initial_state(),
                     is_action(RemoteSend, remote=0))
        state = _to_remote(state, 0, Msg(kind=REPL, msg="ID"))
        with pytest.raises(SemanticsError, match=(
                r"^remote r0 got unexpected reply \S+ while awaiting the "
                r"reply to 'req'$")):
            fused2.deltas(state)

    def test_remote_reply_to_an_unfused_request(self, plain2):
        state = walk(plain2, plain2.initial_state(),
                     is_action(RemoteSend, remote=0))
        state = _to_remote(state, 0, Msg(kind=REPL, msg="gr"))
        with pytest.raises(SemanticsError,
                           match="^remote r0 got unexpected reply"):
            plain2.deltas(state)

    def test_home_unexpected_reply(self, fused2):
        state = _home_awaiting_inv(fused2)
        state = state.with_channels(
            state.channels.send_to_home(0, Msg(kind=REPL, msg="gr")))
        with pytest.raises(SemanticsError, match=(
                r"^home got unexpected reply \S+ while awaiting the reply "
                r"to 'inv'$")):
            fused2.deltas(state)

    def test_remote_reply_no_input_accepts(self, migratory_refined):
        table = build_step_table(migratory_refined).mutate(
            ProcessKind.REMOTE, "I", 0, reply_to="V")
        system = AsyncSystem(migratory_refined, 2, table=table)
        state = system.initial_state()
        for predicate in (is_action(RemoteSend, remote=0),
                          is_action(DeliverToHome, remote=0),
                          is_action(HomeStep, kind="C1"),
                          is_action(HomeStep, kind="REPLY")):
            state = walk(system, state, predicate)
        with pytest.raises(SemanticsError, match=(
                "^remote r0: no input guard in state 'V' accepts the fused "
                "reply 'gr'$")):
            system.deltas(state)

    def test_home_reply_no_input_accepts(self, migratory_refined):
        table = build_step_table(migratory_refined).mutate(
            ProcessKind.HOME, "I1", 0, reply_to="F1")
        system = AsyncSystem(migratory_refined, 2, table=table)
        state = _home_awaiting_inv(system)
        state = walk(system, state, is_action(DeliverToRemote,
                                              remote=0))
        state = walk(system, state, is_action(RemoteC3, remote=0))
        with pytest.raises(SemanticsError, match=(
                "^home: no input guard in state 'F1' accepts the fused "
                "reply 'ID'$")):
            system.deltas(state)

    def test_responder_local_work_runs_in_the_c3_step(self):
        system, state = _fused_responder(
            ("work", tau("a", to="more")), ("more", tau("b", to="reply")))
        step, after = take(system, state, is_action(RemoteC3, remote=0))
        assert after.remotes[0].state == "idle"
        assert [m.msg for m in step.sends] == ["ID"]

    def test_responder_disabled_tau(self):
        system, state = _fused_responder(
            ("work", tau("a", to="more")),
            ("more", tau("b", to="reply", cond=lambda env: False)))
        with pytest.raises(SemanticsError, match=(
                "^fused-response local action τ:b disabled$")):
            system.deltas(state)

    def test_responder_internal_loop(self):
        system, state = _fused_responder(
            ("work", tau("a", to="more")), ("more", tau("b", to="work")))
        with pytest.raises(SemanticsError,
                           match="^fused response stuck in internal loop$"):
            system.deltas(state)


class TestDeterminismAndHashing:
    def test_steps_are_reproducible(self, fused2):
        state = fused2.initial_state()
        a = [d.action for d in fused2.deltas(state)]
        b = [d.action for d in fused2.deltas(state)]
        assert a == b

    def test_apply_matches_steps(self, fused2):
        state = fused2.initial_state()
        for delta in fused2.deltas(state):
            assert fused2.apply(state, delta.action) \
                == successor(state, delta)

    def test_apply_unknown_action_raises(self, fused2):
        with pytest.raises(SemanticsError):
            fused2.apply(fused2.initial_state(), DeliverToHome(remote=0))
