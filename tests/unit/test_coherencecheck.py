"""Unit tests for the parameterized coherence verdict (P46xx)."""

import dataclasses
import json

from repro.analysis import analyze_protocol
from repro.analysis.coherencecheck import (
    check_coherence,
    coherencecheck_pass,
    observed_lemmas,
)
from repro.analysis.environment import (
    EnvironmentSystem,
    Lemma,
    other_send_table,
    producible_msgs,
)
from repro.analysis.manager import (
    AnalysisCache,
    AnalysisContext,
    _coherence_pass,
)
from repro.check.explorer import explore
from repro.check.stats import Counterexample
from repro.csp.ast import (
    AnySender,
    ConstTarget,
    PredSender,
    Tau,
    VarSender,
    VarTarget,
)
from repro.csp.builder import ProcessBuilder, inp, out, protocol, tau
from repro.protocols import mesi_protocol
from repro.protocols.invariants import (
    COHERENCE_SPECS,
    CoherenceSpec,
    coherence_invariants,
    coherence_spec_for,
)
from repro.semantics.rendezvous import RendezvousSystem
from repro.viz.msc import render_counterexample_msc


WAIT_LEMMA = "W.wait:t0"

# ---------------------------------------------------------------------------
# fixtures: a protocol the lemma-free abstraction cannot discharge
# ---------------------------------------------------------------------------


def allclear_protocol():
    """Invalidate-style writer flow with an ALLCLEAR shortcut.

    The modified-side remote may answer an invalidation with ``ALLCLEAR``
    (claiming the sharer set is empty) instead of a plain ``IA``.  Other
    is invalidated *before* the concrete sharers (``t0 := max(S)`` and
    Other carries the largest id), so the lemma-free abstraction lets
    Other fake an ``ALLCLEAR`` that wipes concrete sharers out of ``S``
    and grants the writer over a live reader.  The lemma observed on the
    two-node instance (home at ``W.wait`` ⇒ the remote bound to ``t0`` is
    at ``S.ia``, so it sends only ``IA``) blocks exactly that trace, so
    the discharge rests on that lemma holding on the abstraction it
    gates.
    """
    home = ProcessBuilder.home("allclear-home",
                               o=None, j=None, t0=None, S=frozenset())
    home.state(
        "F",
        inp("reqR", sender=AnySender(), bind_sender="j", to="F.gr"),
        inp("reqW", sender=AnySender(), bind_sender="j", to="W.chk"),
    )
    home.state("F.gr", out("grR", target=VarTarget("j"),
                           update=lambda env: env.update(
                               {"S": env["S"] | frozenset({env["j"]}),
                                "j": None}),
                           to="F"))
    home.state(
        "W.chk",
        tau("done", cond=lambda env: not env["S"], to="W.grant"),
        tau("more", cond=lambda env: bool(env["S"]),
            update=lambda env: env.set("t0", max(env["S"])), to="W.send"),
    )
    home.state("W.send", out("inv", target=VarTarget("t0"), to="W.wait"))
    home.state(
        "W.wait",
        inp("IA", sender=VarSender("t0"),
            update=lambda env: env.update(
                {"S": env["S"] - frozenset({env["t0"]}), "t0": None}),
            to="W.chk"),
        inp("ALLCLEAR", sender=VarSender("t0"),
            update=lambda env: env.update({"S": frozenset(), "t0": None}),
            to="W.chk"),
    )
    home.state("W.grant", out("grW", target=VarTarget("j"),
                              update=lambda env: env.update(
                                  {"o": env["j"], "j": None}),
                              to="E"))
    home.state("E", inp("rel", sender=VarSender("o"),
                        update=lambda env: env.set("o", None), to="F"))

    remote = ProcessBuilder.remote("allclear-remote")
    remote.state("I", tau("wantR", to="I.r"), tau("wantW", to="I.w"))
    remote.state("I.r", out("reqR", to="I.grR"))
    remote.state("I.grR", inp("grR", to="S"))
    remote.state("I.w", out("reqW", to="I.grW"))
    remote.state("I.grW", inp("grW", to="M"))
    remote.state("S", inp("inv", to="S.ia"))
    remote.state("S.ia", out("IA", to="I"))
    remote.state("M", tau("release", to="M.rel"), tau("blurt", to="M.bc"))
    remote.state("M.rel", out("rel", to="I"))
    remote.state("M.bc", out("ALLCLEAR", to="I"))
    return protocol("allclear", home, remote)


ALLCLEAR_SPEC = CoherenceSpec(name="allclear",
                              exclusive=frozenset({"M", "M.rel", "M.bc"}),
                              shared=frozenset({"S", "S.ia"}))


def incoherent_invalidate():
    """Invalidate with the writer-grant precondition dropped.

    The home ``done`` tau no longer requires the sharer set to be empty,
    so a writer can be granted over a live reader — a genuine coherence
    bug two concrete nodes already exhibit.
    """
    from repro.protocols import invalidate_protocol

    p = invalidate_protocol()
    wchk = p.home.state("W.chk")
    mutated = dataclasses.replace(wchk, guards=tuple(
        dataclasses.replace(g, cond=None)
        if isinstance(g, Tau) and g.label == "done" else g
        for g in wchk.guards))
    states = dict(p.home.states)
    states["W.chk"] = mutated
    return dataclasses.replace(
        p, home=dataclasses.replace(p.home, states=states))


# ---------------------------------------------------------------------------
# the spec registry (satellite: single source of truth)
# ---------------------------------------------------------------------------


class TestSpecRegistry:
    def test_all_library_protocols_have_specs(self):
        assert set(COHERENCE_SPECS) == {"invalidate", "mesi",
                                        "migratory", "msi"}

    def test_lookup_helper_matches_registry(self):
        for name, spec in COHERENCE_SPECS.items():
            assert coherence_spec_for(name) is spec

    def test_unknown_name_raises_with_catalogue(self):
        try:
            coherence_spec_for("nonesuch")
        except KeyError as exc:
            assert "migratory" in str(exc)
        else:
            raise AssertionError("expected KeyError")


# ---------------------------------------------------------------------------
# discharges
# ---------------------------------------------------------------------------


class TestLibraryDischarge:
    def test_all_four_protocols_discharge(self, migratory, invalidate, msi):
        for proto in (migratory, invalidate, msi, mesi_protocol()):
            verdict = check_coherence(proto)
            assert verdict.discharged, [d.render()
                                        for d in verdict.obligations]
            assert verdict.abstract_states > 0
            assert verdict.validated == verdict.candidates
            assert verdict.witness is None

    def test_verdict_serializes(self, migratory):
        verdict = check_coherence(migratory)
        doc = json.loads(json.dumps(verdict.as_dict()))
        assert doc["status"] == "discharged"
        assert doc["discharged"] is True
        assert doc["witness_steps"] is None
        codes = [d["code"] for d in doc["obligations"]]
        assert "P4601" in codes
        assert not {"P4602", "P4603", "P4605"} & set(codes)

    def test_properties_cover_both_claims(self, msi):
        verdict = check_coherence(msi)
        assert any("single-writer" in p for p in verdict.properties)
        assert any("reader" in p for p in verdict.properties)

    def test_deterministic_across_runs(self, invalidate):
        first = check_coherence(invalidate)
        second = check_coherence(invalidate)
        assert first.status == second.status
        assert first.abstract_states == second.abstract_states
        assert ([d.code for d in first.obligations]
                == [d.code for d in second.obligations])
        assert ([lemma.name for lemma in first.lemmas]
                == [lemma.name for lemma in second.lemmas])


# ---------------------------------------------------------------------------
# the circular lemma check
# ---------------------------------------------------------------------------


class TestLemmaLoop:
    def test_allclear_needs_a_promoted_lemma(self):
        # the lemma holds on the abstraction it gates and the discharge
        # rests on it: TestAbstractSystem.test_lemma_gates_other_sends
        # shows the violation the ungated abstraction has
        verdict = check_coherence(allclear_protocol(), ALLCLEAR_SPEC)
        assert verdict.discharged, verdict.reason
        by_name = {lemma.name: lemma for lemma in verdict.lemmas}
        assert by_name[WAIT_LEMMA].region == frozenset({"S.ia"})
        assert by_name[WAIT_LEMMA].allowed_msgs == frozenset({"IA"})
        assert verdict.validated == len(verdict.lemmas)

    def test_falsified_lemma_is_dropped_and_never_gates(self, monkeypatch):
        # a lemma claiming t0 sits in a region it is never in falls on
        # the first sweep; without it the ALLCLEAR trace is back, so the
        # discharge that needed it becomes inconclusive
        from repro.analysis import coherencecheck as cc

        def wrong(protocol, max_states):
            return tuple(
                dataclasses.replace(lemma, region=frozenset({"I.grR"}))
                if lemma.name == WAIT_LEMMA else lemma
                for lemma in observed_lemmas(protocol, max_states))

        monkeypatch.setattr(cc, "observed_lemmas", wrong)
        verdict = check_coherence(allclear_protocol(), ALLCLEAR_SPEC)
        assert verdict.status == "inconclusive"
        assert WAIT_LEMMA not in {lemma.name for lemma in verdict.lemmas}
        assert verdict.validated == verdict.candidates - 1
        assert verdict.iterations >= 2
        inventory = [d for d in verdict.obligations if d.code == "P4604"]
        assert f"fell: {WAIT_LEMMA}" in inventory[0].message

    def test_allclear_really_is_coherent(self):
        # the oracle backing the test above: no concrete violation exists
        proto = allclear_protocol()
        for n in (2, 3):
            result = explore(
                RendezvousSystem(proto, n),
                name=f"allclear-oracle-{n}",
                invariants=list(coherence_invariants(ALLCLEAR_SPEC)),
                stop_on_violation=False, allow_deadlock=True,
                max_states=200_000)
            assert result.completed
            assert not result.violations

    def test_candidates_are_sorted_and_deduplicated(self, msi):
        names = [c.name for c in observed_lemmas(msi)]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_msi_candidates_are_its_two_node_regions(self, msi):
        # one per (home state, VarSender variable), the region read off
        # RendezvousSystem(msi, 2); every one holds on the abstraction
        owner, invalidated, sharer = (frozenset({"M", "M.lr"}),
                                      frozenset({"M.id"}),
                                      frozenset({"S.ia"}))
        assert {c.name: c.region for c in observed_lemmas(msi)} == {
            "E:o": owner, "RI:o": owner, "WI:o": owner,
            "RI2:o": invalidated, "WI2:o": invalidated,
            "U.wait:t0": sharer, "W.wait:t0": sharer}
        verdict = check_coherence(msi)
        assert verdict.candidates == verdict.validated == 7

    def test_lemma_inventory_diagnostic(self):
        verdict = check_coherence(allclear_protocol(), ALLCLEAR_SPEC)
        inventory = [d for d in verdict.obligations if d.code == "P4604"]
        assert len(inventory) == 1
        assert WAIT_LEMMA in inventory[0].message


# ---------------------------------------------------------------------------
# refutations
# ---------------------------------------------------------------------------


class TestRefutation:
    def test_incoherent_mutant_is_refuted_with_witness(self):
        verdict = check_coherence(incoherent_invalidate(),
                                  COHERENCE_SPECS["invalidate"])
        assert verdict.status == "refuted"
        assert not verdict.discharged
        assert verdict.witness is not None
        assert any(d.code == "P4602" for d in verdict.obligations)

    def test_witness_replays_and_renders_as_msc(self):
        verdict = check_coherence(incoherent_invalidate(),
                                  COHERENCE_SPECS["invalidate"])
        chart = render_counterexample_msc(verdict.witness, 2)
        assert "grW" in chart
        assert "reqW" in chart
        assert chart.splitlines()[0].split() == ["time", "h", "r0", "r1"]

    def test_witness_is_replayed_through_apply(self, monkeypatch):
        """The witness is replayed through the reference ``apply()``, not
        the step memo the swept system shares: a broken ``apply()``
        leaves the verdict inconclusive, never refuted."""
        monkeypatch.setattr(RendezvousSystem, "apply",
                            _raising("apply broke"))
        verdict = check_coherence(incoherent_invalidate(),
                                  COHERENCE_SPECS["invalidate"])
        assert verdict.status == "inconclusive"
        assert verdict.witness is None
        assert verdict.reason == (
            "concrete-looking violation failed replay (apply broke)")
        assert [d.code for d in verdict.obligations][-1] == "P4603"

    def test_replay_names_a_step_that_is_not_enabled(self):
        from repro.analysis.coherencecheck import _replay_concrete
        from repro.semantics.rendezvous import TauStep

        proto = incoherent_invalidate()
        init = RendezvousSystem(proto, 2).initial_state()
        step = TauStep(proc=0, label="no-such-tau")
        cex = Counterexample("swmr", states=[init, init], steps=[step])
        assert _replay_concrete(proto, cex) == "r0.τ:no-such-tau is not enabled"


# ---------------------------------------------------------------------------
# soundness guards: constructs the abstraction must refuse
# ---------------------------------------------------------------------------


def _pred_sender_protocol():
    h = ProcessBuilder.home("h", j=None)
    h.state("h0", inp("a", sender=PredSender(lambda env, sender: True,
                                             name="anyone"),
                      to="h1"))
    h.state("h1", inp("b", sender=AnySender(), bind_sender="j", to="h2"))
    h.state("h2", out("c", target=VarTarget("j"),
                      update=lambda env: env.set("j", None), to="h0"))
    r = ProcessBuilder.remote("r")
    r.state("r0", tau("go", to="r1"))
    r.state("r1", out("a", to="r2"))
    r.state("r2", out("b", to="r3"))
    r.state("r3", inp("c", to="r0"))
    return protocol("predsender", h, r)


def _const_target_protocol():
    h = ProcessBuilder.home("h", j=None)
    h.state("h0", inp("a", sender=AnySender(), bind_sender="j", to="h1"))
    h.state("h1", out("c", target=ConstTarget(0),
                      update=lambda env: env.set("j", None), to="h0"))
    r = ProcessBuilder.remote("r")
    r.state("r0", tau("go", to="r1"))
    r.state("r1", out("a", to="r2"))
    r.state("r2", inp("c", to="r0"))
    return protocol("consttarget", h, r)


GUARD_SPEC = CoherenceSpec(name="guard", exclusive=frozenset({"r2"}),
                           shared=frozenset())


def _starter_protocol():
    """The home initially names remote 0 and waits for *its* ``go``;
    the starter then retires, and every later requester is granted the
    exclusive state.  Two writers need a third node to have started."""
    h = ProcessBuilder.home("h", j=0)
    h.state("h0", inp("go", sender=VarSender("j"), to="h1"))
    h.state("h1", inp("req", sender=AnySender(), bind_sender="j", to="h2"))
    h.state("h2", out("gr", target=VarTarget("j"), to="h1"))
    r = ProcessBuilder.remote("r")
    r.state("r0", tau("start", to="r.go"), tau("want", to="r.req"))
    r.state("r.go", out("go", to="D"))
    r.state("D", inp("never", to="D"))
    r.state("r.req", out("req", to="r.w"))
    r.state("r.w", inp("gr", to="E"))
    r.state("E", inp("never", to="E"))
    return protocol("starter", h, r)


class TestSoundnessGuards:
    def test_pred_sender_is_inconclusive_p4605(self):
        verdict = check_coherence(_pred_sender_protocol(), GUARD_SPEC)
        assert verdict.status == "inconclusive"
        guards = [d for d in verdict.obligations if d.code == "P4605"]
        assert guards and "predicate" in guards[0].message

    def test_const_target_is_inconclusive_p4605(self):
        verdict = check_coherence(_const_target_protocol(), GUARD_SPEC)
        assert verdict.status == "inconclusive"
        guards = [d for d in verdict.obligations if d.code == "P4605"]
        assert guards and "remote-symmetry" in guards[0].message

    def test_initially_named_remote_may_be_an_environment_member(self):
        # with j = 0 bound to the concrete r0 only, r0 starts and retires
        # and the concrete pair never holds two writers; n = 3 does
        proto = _starter_protocol()
        spec = CoherenceSpec(name="starter", exclusive=frozenset({"E"}),
                             shared=frozenset())
        violated = {
            n: bool(explore(RendezvousSystem(proto, n),
                            invariants=list(coherence_invariants(spec)),
                            allow_deadlock=True).violations)
            for n in (2, 3)}
        assert violated == {2: False, 3: True}
        assert not check_coherence(proto, spec).discharged

    def test_guarded_protocols_are_never_discharged(self):
        for proto in (_pred_sender_protocol(), _const_target_protocol()):
            assert not check_coherence(proto, GUARD_SPEC).discharged


# ---------------------------------------------------------------------------
# the abstract system itself
# ---------------------------------------------------------------------------


class TestAbstractSystem:
    def test_other_send_table_is_sorted(self, migratory):
        table, issues = other_send_table(
            migratory, {migratory.remote.initial_env})
        assert not issues
        assert list(table) == sorted(table)

    def test_abstract_reaches_other_engagement(self):
        # home variables must actually take the OTHER value somewhere,
        # or the abstraction would not model interference at all
        proto = allclear_protocol()
        table, _ = other_send_table(proto, {proto.remote.initial_env})
        system = EnvironmentSystem(proto, 2, other_sends=table)
        seen = {system.initial_state()}
        frontier = list(seen)
        while frontier:
            state = frontier.pop()
            for _, post in system.successors(state):
                if post not in seen:
                    seen.add(post)
                    frontier.append(post)
            assert len(seen) < 50_000
        engaged = [s for s in seen
                   if any(v == system.other
                          or (isinstance(v, frozenset) and system.other in v)
                          for v in s.home.env.values())]
        assert engaged, "Other never engaged the home"

    def test_lemma_gates_other_sends(self):
        proto = allclear_protocol()
        table, _ = other_send_table(proto, {proto.remote.initial_env})
        blocking = Lemma(
            name="block-all", var="t0", home_states=frozenset({"W.wait"}),
            region=frozenset(), allowed_msgs=frozenset())
        runs = {}
        for label, lemmas in (("free", ()), ("gated", (blocking,))):
            runs[label] = explore(
                EnvironmentSystem(proto, 2, other_sends=table,
                                  lemmas=lemmas),
                name=label, max_states=50_000,
                invariants=list(coherence_invariants(ALLCLEAR_SPEC)),
                stop_on_violation=False, allow_deadlock=True)
        assert runs["gated"].n_states < runs["free"].n_states
        # ungated, Other fakes the ALLCLEAR and a writer meets a reader
        assert runs["free"].violations and not runs["gated"].violations

    def test_producible_msgs(self):
        r = ProcessBuilder.remote("r")
        r.state("a", tau("t", to="b"))
        r.state("b", out("m", to="a"))
        r.state("c", inp("x", to="a"))
        proc = r.build()
        assert producible_msgs(proc, "a") == frozenset({"m"})
        assert producible_msgs(proc, "c") == frozenset()


# ---------------------------------------------------------------------------
# manager integration
# ---------------------------------------------------------------------------


class TestManagerIntegration:
    def test_lint_reports_discharge_codes(self, migratory):
        report = analyze_protocol(migratory)
        assert "P4601" in report.codes()

    def test_pass_is_silent_without_a_spec(self):
        proto = _const_target_protocol()  # no registered spec
        assert list(coherencecheck_pass(proto)) == []

    def test_pass_uses_shared_graph(self, migratory):
        # the pass takes no flow graph any more: the verdict reads none
        diags = list(coherencecheck_pass(migratory))
        assert any(d.code == "P4601" for d in diags)

    def test_cache_runs_coherence_once(self, msi, monkeypatch):
        from repro.analysis import coherencecheck as cc

        calls = {"n": 0}
        original = cc.check_coherence

        def counting(protocol, spec=None, **kwargs):
            calls["n"] += 1
            return original(protocol, spec, **kwargs)

        monkeypatch.setattr(cc, "check_coherence", counting)
        report = analyze_protocol(msi)
        assert "P4601" in report.codes()
        assert calls["n"] == 1

    def test_failed_flow_derivation_blocks_no_any_n_verdict(
            self, migratory, monkeypatch):
        # the flows pass reports its own failure; neither any-N verdict
        # reads the flow graph, so both still discharge
        from repro.analysis import flows

        monkeypatch.setattr(flows, "derive_flows", _raising("no flows"))
        report = analyze_protocol(migratory)
        failed = [d for d in report.diagnostics if d.code == "P4501"]
        assert len(failed) == 1 and "no flows" in failed[0].message
        assert failed[0].location == "migratory:flows"
        assert {"P4505", "P4601"} <= report.codes()
        assert not {"P4507", "P4603"} & report.codes()

    def test_failed_checker_is_not_blamed_on_the_flow_graph(
            self, migratory, monkeypatch):
        from repro.analysis import coherencecheck as cc

        ctx = AnalysisContext(protocol=migratory, cache=AnalysisCache())
        monkeypatch.setattr(cc, "check_coherence", _raising("checker broke"))
        diags = list(_coherence_pass(ctx))
        assert [d.code for d in diags] == ["P4603"]
        assert "coherence check failed (checker broke)" in diags[0].message
        assert "flow graph" not in diags[0].message


def _raising(message):
    def failing(*args, **kwargs):
        raise RuntimeError(message)
    return failing
