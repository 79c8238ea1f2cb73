"""Unit tests for request/reply fusion detection (repro.refine.reqreply)."""

import pytest

from repro.csp.ast import AnySender, ProcessKind, VarSender, VarTarget
from repro.csp.builder import ProcessBuilder, inp, out, protocol, tau
from repro.refine.plan import FusedPair
from repro.refine.reqreply import check_pair, detect_fusable_pairs


class TestMigratoryDetection:
    def test_detects_both_pairs(self, migratory):
        pairs = set(detect_fusable_pairs(migratory))
        assert FusedPair("req", "gr", ProcessKind.REMOTE) in pairs
        assert FusedPair("inv", "ID", ProcessKind.HOME) in pairs
        assert len(pairs) == 2

    def test_lr_never_fused(self, migratory):
        # LR's sender returns to I, which is an active state, not an input
        for pair in detect_fusable_pairs(migratory):
            assert pair.request_msg != "LR"
            assert pair.reply_msg != "LR"

    def test_inv_lr_pair_rejected(self, migratory):
        # LR is an adjacent input after inv at the home, but the remote
        # responder for inv answers ID, not LR
        reason = check_pair(migratory,
                            FusedPair("inv", "LR", ProcessKind.HOME))
        assert reason is not None and "ID" not in (reason or "")


class TestInvalidateDetection:
    def test_detects_four_pairs(self, invalidate):
        pairs = {(p.request_msg, p.reply_msg) for p in
                 detect_fusable_pairs(invalidate)}
        assert pairs == {("reqR", "grR"), ("reqW", "grW"),
                         ("invS", "IA"), ("inv", "ID")}

    def test_strict_cycles_rejects_reqw(self, invalidate):
        # the reqW reply path goes through the invalidation loop
        reason = check_pair(invalidate,
                            FusedPair("reqW", "grW", ProcessKind.REMOTE),
                            strict_cycles=True)
        assert reason is not None and "cycle" in reason
        pairs = {p.request_msg for p in
                 detect_fusable_pairs(invalidate, strict_cycles=True)}
        assert "reqW" not in pairs
        assert "reqR" in pairs

    def test_evs_not_fused(self, invalidate):
        assert all(p.request_msg != "evS"
                   for p in detect_fusable_pairs(invalidate))


class TestMsiDetection:
    def test_requ_not_fused_two_possible_replies(self, msi):
        """The upgrade request awaits grU *or* upfail: not fusable."""
        pairs = {p.request_msg for p in detect_fusable_pairs(msi)}
        assert "reqU" not in pairs
        reason = check_pair(msi, FusedPair("reqU", "grU", ProcessKind.REMOTE))
        assert reason is not None


class TestChainedFusionSelection:
    """acq/ok and ok/rel can both pass the checks; detection must pick a
    non-overlapping subset (found by the tutorial's lock protocol)."""

    def _lock(self):
        from repro.csp.ast import VarSender
        h = ProcessBuilder.home("lock-home", holder=None)
        h.state("Free", inp("acq", sender=AnySender(),
                            bind_sender="holder", to="Grant"))
        h.state("Grant", out("ok", target=VarTarget("holder"), to="Held"))
        h.state("Held", inp("rel", sender=VarSender("holder"),
                            update=lambda env: env.set("holder", None),
                            to="Free"))
        r = ProcessBuilder.remote("lock-remote")
        r.state("idle", tau("want", to="ask"))
        r.state("ask", out("acq", to="wait"))
        r.state("wait", inp("ok", to="crit"))
        r.state("crit", tau("done", to="release"))
        r.state("release", out("rel", to="idle"))
        return protocol("lock", h, r)

    def test_greedy_picks_remote_initiated_pair(self):
        pairs = detect_fusable_pairs(self._lock())
        assert pairs == (FusedPair("acq", "ok", ProcessKind.REMOTE),)

    def test_explicit_overlap_rejected(self):
        from repro import refine
        from repro.errors import RefinementError
        with pytest.raises(RefinementError, match="both a fused"):
            refine(self._lock(),
                   fused_pairs=(FusedPair("acq", "ok", ProcessKind.REMOTE),
                                FusedPair("ok", "rel", ProcessKind.HOME)))

    def test_lock_refines_and_simulates_correctly(self):
        from repro import AsyncSystem, refine
        from repro.check.simulation import check_simulation
        refined = refine(self._lock())
        report = check_simulation(AsyncSystem(refined, 2))
        assert report.ok


class TestHomeSidePathAnalysis:
    def _home_base(self):
        b = ProcessBuilder.home("h", j=None)
        b.state("wait", inp("ping", sender=AnySender(), bind_sender="j",
                            to="mid"))
        return b

    def _remote(self):
        b = ProcessBuilder.remote("r")
        b.state("send", out("ping", to="recv"))
        b.state("recv", inp("pong", to="send"))
        return b.build()

    def test_direct_reply_accepted(self):
        h = self._home_base()
        h.state("mid", out("pong", target=VarTarget("j"), to="wait"))
        proto = protocol("p", h.build(), self._remote())
        assert check_pair(
            proto, FusedPair("ping", "pong", ProcessKind.REMOTE)) is None

    def test_other_message_to_requester_first_rejected(self):
        h = self._home_base()
        h.state("mid", out("poke", target=VarTarget("j"), to="mid2"))
        h.state("mid2", out("pong", target=VarTarget("j"), to="wait"))
        proto = protocol("p", h.build(), self._remote())
        reason = check_pair(proto, FusedPair("ping", "pong", ProcessKind.REMOTE))
        assert reason is not None and "poke" in reason

    def test_waiting_on_requester_rejected(self):
        h = self._home_base()
        h.state("mid", inp("extra", sender=VarSender("j"), to="mid2"))
        h.state("mid2", out("pong", target=VarTarget("j"), to="wait"))
        r = ProcessBuilder.remote("r")
        r.state("send", out("ping", to="recv"))
        r.state("recv", inp("pong", to="send"))
        proto = protocol("p", h.build(), r.build())
        reason = check_pair(proto, FusedPair("ping", "pong", ProcessKind.REMOTE))
        assert reason is not None and "silently-blocked" in reason

    def test_rebinding_requester_var_rejected(self):
        h = self._home_base()
        h.state("mid", inp("ping2", sender=AnySender(), bind_sender="j",
                           to="mid2"))
        h.state("mid2", out("pong", target=VarTarget("j"), to="wait"))
        r = ProcessBuilder.remote("r")
        r.state("send", out("ping", to="recv"))
        r.state("recv", inp("pong", to="send"))
        proto = protocol("p", h.build(), r.build())
        reason = check_pair(proto, FusedPair("ping", "pong", ProcessKind.REMOTE))
        assert reason is not None and "rebind" in reason

    def test_missing_sender_binding_rejected(self):
        b = ProcessBuilder.home("h", j=0)
        b.state("wait", inp("ping", sender=AnySender(), to="mid"))
        b.state("mid", out("pong", target=VarTarget("j"), to="wait"))
        proto = protocol("p", b.build(), self._remote())
        reason = check_pair(proto, FusedPair("ping", "pong", ProcessKind.REMOTE))
        assert reason is not None and "bind" in reason


class TestRemoteResponderAnalysis:
    def _home(self):
        b = ProcessBuilder.home("h", o=0)
        b.state("go", out("poke", target=VarTarget("o"), to="wait"))
        b.state("wait", inp("yes", sender=VarSender("o"), to="go"))
        return b.build()

    def test_local_actions_between_accepted(self):
        r = ProcessBuilder.remote("r")
        r.state("idle", inp("poke", to="think"))
        r.state("think", tau("compute", to="reply"))
        r.state("reply", out("yes", to="idle"))
        proto = protocol("p", self._home(), r.build())
        assert check_pair(
            proto, FusedPair("poke", "yes", ProcessKind.HOME)) is None

    def test_branching_after_request_rejected(self):
        r = ProcessBuilder.remote("r")
        r.state("idle", inp("poke", to="both"))
        r.state("both", inp("other", to="idle"), tau("t", to="reply"))
        r.state("reply", out("yes", to="idle"))
        proto = protocol("p", self._home(), r.build())
        reason = check_pair(proto, FusedPair("poke", "yes", ProcessKind.HOME))
        assert reason is not None

    def test_internal_loop_after_request_rejected(self):
        r = ProcessBuilder.remote("r")
        r.state("idle", inp("poke", to="spin"))
        r.state("spin", tau("a", to="spin2"))
        r.state("spin2", tau("b", to="spin"))
        r.state("reply", out("yes", to="idle"))
        proto = protocol("p", self._home(), r.build())
        assert check_pair(
                proto, FusedPair("poke", "yes", ProcessKind.HOME)) == (
            "r: internal loop after consuming 'poke'")
