"""Unit tests for the analysis pass suite (repro.analysis)."""

import pytest

from repro.analysis import (
    Severity,
    analyze_protocol,
    analyze_refined,
    home_buffer_bound,
    patterns_may_overlap,
    remote_demand,
    unreachable_states,
)
from repro.csp.ast import (
    AnySender,
    PredSender,
    SetSender,
    VarSender,
    VarTarget,
)
from repro.csp.builder import ProcessBuilder, inp, out, protocol, tau
from repro.errors import ValidationError
from repro.protocols.handwritten import handwritten_migratory
from repro.refine import (
    FusedPair,
    RefinedProtocol,
    RefinementConfig,
    RefinementPlan,
    refine,
)
from repro.refine.plan import HOME_SIDE, REMOTE


def tiny_protocol(home_extra=(), remote_extra=()):
    """One-message ping protocol, optionally with extra states appended."""
    h = ProcessBuilder.home("h", j=None)
    h.state("a", inp("m", sender=AnySender(), to="a"))
    for name, guards in home_extra:
        h.state(name, *guards)
    r = ProcessBuilder.remote("r")
    r.state("a", out("m", to="a"))
    for name, guards in remote_extra:
        r.state(name, *guards)
    return protocol("tiny", h, r)


class TestCleanProtocols:
    def test_builtins_lint_clean_at_error_severity(
            self, migratory, invalidate, msi):
        for proto in (migratory, invalidate, msi):
            report = analyze_protocol(proto)
            assert report.ok, report.render_text()

    def test_refined_builtins_lint_clean(self, migratory_refined,
                                         invalidate_refined, msi_refined):
        for refined in (migratory_refined, invalidate_refined, msi_refined):
            report = analyze_refined(refined)
            assert report.ok, report.render_text()

    def test_passes_recorded(self, migratory):
        report = analyze_protocol(migratory)
        assert report.passes_run == ("restrictions", "reachability",
                                     "overlap", "fusability",
                                     "buffer-demand", "flows", "paramcheck",
                                     "coherence")

    def test_param_passes_can_be_excluded(self, migratory):
        report = analyze_protocol(migratory, include_param=False)
        assert report.passes_run == ("restrictions", "reachability",
                                     "overlap", "fusability", "buffer-demand")
        assert not {c for c in report.codes() if c.startswith("P45")}

    def test_select_narrows(self, migratory):
        report = analyze_protocol(migratory, select=["P3301"])
        assert report.codes() == {"P3301"}


class TestReachabilityPass:
    def test_unreachable_state_warned(self):
        proto = tiny_protocol(
            remote_extra=[("island", [out("m", to="island")])])
        report = analyze_protocol(proto)
        assert unreachable_states(proto.remote) == {"island"}
        found = [d for d in report if d.code == "P2501"]
        assert len(found) == 1
        assert found[0].location == "r.island"
        assert found[0].severity is Severity.WARNING

    def test_dead_guard_warned(self):
        # home sends "ghost" but the remote never inputs it
        proto = tiny_protocol(
            home_extra=[("g", [out("ghost", target=VarTarget("j"), to="a"),
                               inp("m", sender=AnySender(), to="a")])])
        report = analyze_protocol(proto)
        dead = [d for d in report if d.code == "P2502"]
        assert len(dead) == 1
        assert "ghost" in dead[0].message
        # ... even though "g" itself is unreachable, both findings appear
        assert any(d.code == "P2501" for d in report)

    def test_clean_protocol_has_neither(self):
        report = analyze_protocol(tiny_protocol())
        assert not report.codes() & {"P2501", "P2502"}


class TestOverlapPass:
    def test_two_anysenders_same_msg_flagged(self):
        h = ProcessBuilder.home("h")
        h.state("a",
                inp("m", sender=AnySender(), to="a"),
                inp("m", sender=AnySender(), to="a"))
        r = ProcessBuilder.remote("r")
        r.state("a", out("m", to="a"))
        report = analyze_protocol(protocol("p", h, r))
        overlaps = [d for d in report if d.code == "P2410"]
        assert len(overlaps) == 1
        assert overlaps[0].severity is Severity.WARNING

    def test_distinct_messages_not_flagged(self, migratory, invalidate):
        for proto in (migratory, invalidate):
            assert "P2410" not in analyze_protocol(proto).codes()

    def test_pattern_overlap_rules(self):
        assert patterns_may_overlap(AnySender(), VarSender("o"))
        assert patterns_may_overlap(PredSender(lambda e, s: False),
                                    SetSender("S"))
        assert patterns_may_overlap(VarSender("o"), VarSender("o"))
        assert not patterns_may_overlap(VarSender("o"), VarSender("t"))
        assert patterns_may_overlap(SetSender("S"), SetSender("S"))
        assert not patterns_may_overlap(SetSender("S"), SetSender("T"))
        assert not patterns_may_overlap(VarSender("o"), SetSender("S"))
        assert not patterns_may_overlap(None, AnySender())


class TestDuplicateTauLabels:
    @staticmethod
    def relabelled(invalidate):
        """invalidate with remote ``I``'s ``wantW`` tau relabelled
        ``wantR``: at the rendezvous level both taus were one step, and
        only the first one's target was ever explored (12 / 88 / 544
        states at n = 1 / 2 / 3, against 21 / 723 / 8,597)."""
        from dataclasses import replace

        from repro.csp.ast import Tau

        remote = invalidate.remote
        state = remote.states["I"]
        guards = tuple(replace(g, label="wantR")
                       if isinstance(g, Tau) and g.label == "wantW" else g
                       for g in state.guards)
        states = {**remote.states, "I": replace(state, guards=guards)}
        return replace(invalidate,
                       remote=replace(remote, states=states))

    def test_rejected_with_p2411_and_no_any_n_discharge(self, invalidate):
        from repro.errors import SemanticsError
        from repro.semantics.rendezvous import RendezvousSystem

        proto = self.relabelled(invalidate)
        report = analyze_protocol(proto)
        [dup] = [d for d in report if d.code == "P2411"]
        assert dup.location == "invalidate-remote.I"
        assert dup.severity is Severity.ERROR and "'wantR'" in dup.message
        assert not report.codes() & {"P4505", "P4601"}
        assert {"P4507", "P4603"} <= report.codes()
        with pytest.raises(ValidationError, match="P2411"):
            refine(proto)
        with pytest.raises(SemanticsError, match="P2411"):
            RendezvousSystem(proto, 2)
        assert "P2411" not in analyze_protocol(
            invalidate, include_param=False).codes()


class TestFusabilityPass:
    def test_migratory_pairs_reported_fusable(self, migratory):
        report = analyze_protocol(migratory, select=["P3301"])
        locations = {d.location for d in report}
        assert "migratory:req" in locations
        assert "migratory:inv" in locations

    def test_failures_name_the_condition(self, migratory):
        report = analyze_protocol(migratory, select=["P3302"])
        assert len(report) >= 1
        for d in report:
            assert "failed condition(s):" in d.message

    def test_fusability_diagnostics_are_informational(self, msi):
        report = analyze_protocol(msi)
        for d in report:
            if d.code.startswith("P33"):
                assert d.severity is Severity.INFO


class TestBufferDemandPass:
    def test_plain_remote_demands_one(self, migratory):
        assert remote_demand(migratory.remote, frozenset()) == 1
        assert home_buffer_bound(migratory, 4) == 4

    def test_input_only_remote_demands_zero(self):
        r = ProcessBuilder.remote("r")
        r.state("a", inp("m", to="a"))
        assert remote_demand(r.build(), frozenset()) == 0

    def test_fire_and_forget_chain_counts(self):
        hand = handwritten_migratory()
        demand = remote_demand(hand.protocol.remote, frozenset({"LR"}))
        assert demand == 2  # one unacked LR plus the blocking request

    def test_fire_and_forget_cycle_unbounded(self):
        r = ProcessBuilder.remote("r")
        r.state("a", out("n", to="a"))
        assert remote_demand(r.build(), frozenset({"n"})) is None

    def test_long_remote_chain_is_bounded(self):
        # 2,000 states deep: past Python's recursion limit for a
        # recursive Tarjan
        r = ProcessBuilder.remote("r")
        r.state("s0", out("n", to="s1"))
        for i in range(1, 1999):
            r.state(f"s{i}", tau("t", to=f"s{i + 1}"))
        r.state("s1999", out("req", to="s0"))
        assert remote_demand(r.build(), frozenset({"n"})) == 2

    def test_undersized_buffer_warns(self, migratory):
        report = analyze_protocol(migratory, nodes=4)  # bound 4 > k=2
        assert "P3201" in report.codes()
        assert "P3202" not in report.codes()

    def test_covering_buffer_noted(self, migratory):
        config = RefinementConfig(home_buffer_capacity=4)
        report = analyze_protocol(migratory, config=config, nodes=4)
        assert "P3202" in report.codes()
        assert "P3201" not in report.codes()

    def test_unbounded_demand_warned(self):
        h = ProcessBuilder.home("h")
        h.state("a", inp("n", sender=AnySender(), to="a"))
        r = ProcessBuilder.remote("r")
        r.state("a", out("n", to="a"))
        proto = protocol("noisy", h, r)
        config = RefinementConfig(fire_and_forget=frozenset({"n"}))
        report = analyze_protocol(proto, config=config)
        assert "P3203" in report.codes()
        assert {"P3201", "P3202"}.isdisjoint(report.codes())


def requester_reply_protocol():
    """Remote q -> home, home answers x; fusable shape not required."""
    h = ProcessBuilder.home("h", j=None)
    h.state("h0", inp("q", sender=AnySender(), bind_sender="j", to="h1"))
    h.state("h1", out("x", target=VarTarget("j"), to="h0"))
    r = ProcessBuilder.remote("r")
    r.state("s", out("q", to="w"))
    r.state("w", inp("x", to="s"))
    return protocol("qx", h, r)


class TestTransientPass:
    def test_inventory_reported(self, migratory_refined):
        report = analyze_refined(migratory_refined, select=["P3403"])
        assert len(report) == 1
        note = report.diagnostics[0]
        assert note.severity is Severity.INFO
        assert "remote" in note.message and "home" in note.message

    def test_fused_pair_without_reply_exit_is_error(self):
        # hand-assemble a plan fusing q with a reply the requester's
        # successor state never inputs
        proto = requester_reply_protocol()
        plan = RefinementPlan(
            fused=(FusedPair(request_msg="q", reply_msg="nope",
                             requester=REMOTE),))
        report = analyze_refined(RefinedProtocol(proto, plan))
        broken = [d for d in report if d.code == "P3401"]
        assert len(broken) == 1
        assert broken[0].severity is Severity.ERROR
        assert broken[0].location == "r.s"
        assert "'nope'" in broken[0].message

    def test_correct_fused_pair_accepted(self):
        proto = requester_reply_protocol()
        plan = RefinementPlan(
            fused=(FusedPair(request_msg="q", reply_msg="x",
                             requester=REMOTE),))
        report = analyze_refined(RefinedProtocol(proto, plan))
        assert "P3401" not in report.codes()

    def test_home_side_fused_pair_checked_too(self):
        # home sends x and waits for q back; successor h0 does input q
        proto = requester_reply_protocol()
        plan = RefinementPlan(
            fused=(FusedPair(request_msg="x", reply_msg="q",
                             requester=HOME_SIDE),))
        report = analyze_refined(RefinedProtocol(proto, plan))
        assert "P3401" not in report.codes()

    def test_fire_and_forget_to_remote_is_error(self):
        proto = requester_reply_protocol()
        plan = RefinementPlan(
            config=RefinementConfig(fire_and_forget=frozenset({"x"})))
        report = analyze_refined(RefinedProtocol(proto, plan))
        assert any(d.code == "P3402" and d.severity is Severity.ERROR
                   for d in report)

    def test_remote_to_home_fire_and_forget_allowed(self):
        hand = handwritten_migratory()
        assert "P3402" not in analyze_refined(hand).codes()


def buggy_protocol():
    """A protocol seeded with one instance of many distinct defects."""
    h = ProcessBuilder.home("bh", j=None)
    h.state("H0",
            inp("up", sender=AnySender(), to="H0"),
            inp("up", sender=AnySender(), to="H1"),   # P2410 overlap
            tau("oops", to="H0"))                     # P2408 tau in comm state
    h.state("H1", out("ghost", target=VarTarget("j"), to="H0"))  # P2502 dead
    h.state("HX", inp("up", sender=AnySender(), to="HX"))  # P2501 unreachable
    r = ProcessBuilder.remote("br")
    r.state("R0", out("up", to="R1"))
    r.state("R1", tau("spin", to="R2"))
    r.state("R2", tau("back", to="R1"))               # P2409 internal cycle
    r.state("R3")                                     # P2401 terminal
    return protocol("buggy", h, r)


class TestSeededBugProtocol:
    def test_triggers_many_distinct_codes(self):
        report = analyze_protocol(buggy_protocol())
        expected = {"P2401", "P2408", "P2409", "P2410", "P2501", "P2502"}
        assert expected <= report.codes()
        assert len(expected) >= 5  # acceptance criterion from the issue

    def test_every_error_has_a_hint(self):
        report = analyze_protocol(buggy_protocol())
        for d in report.errors:
            assert d.hint


class TestEngineGate:
    def test_refine_refuses_on_error_diagnostics(self):
        with pytest.raises(ValidationError) as excinfo:
            refine(buggy_protocol())
        message = str(excinfo.value)
        assert "P2408" in message and "P2401" in message
        assert excinfo.value.diagnostics
        assert all(d.severity is Severity.ERROR
                   for d in excinfo.value.diagnostics)

    def test_warnings_do_not_block_refinement(self):
        proto = tiny_protocol(
            remote_extra=[("island", [out("m", to="island")])])
        refined = refine(proto)  # P2501 is only a warning
        assert refined.protocol is proto
