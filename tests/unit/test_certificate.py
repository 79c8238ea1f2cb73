"""The symbolic simulation-obligation checker (analysis.simulation).

Three layers of evidence:

* every shipped protocol's refinement earns a clean certificate (zero
  P44xx errors), which is also what gates ``refine()``;
* seeded step-table mutants — a corrupted ack fast-forward target, a
  fabricated fused reply ("dropping" the ack handshake), a corrupted
  home rewind target — are flagged with the intended P44xx codes **and**
  confirmed independently by explicit-state exploration of the same
  mutant semantics (the differential harness in miniature);
* the report structure itself: obligation accounting, truncation
  behaviour, the fire-and-forget carve-out.
"""

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.simulation import CertificateReport, check_certificate
from repro.analysis.symbolic import enumerate_contexts
from repro.csp.ast import ProcessKind
from repro.errors import CertificateError, RefinementError
from repro.protocols.handwritten import handwritten_migratory
from repro.protocols.invalidate import invalidate_protocol
from repro.protocols.mesi import mesi_protocol
from repro.protocols.migratory import migratory_protocol
from repro.protocols.msi import msi_protocol
from repro.refine.abstraction import AbstractionUndefined
from repro.refine.engine import _gate_on_certificate, refine
from repro.refine.plan import (
    RefinedProtocol,
    RefinementConfig,
    RefinementPlan,
)
from repro.refine.transitions import build_step_table
from repro.semantics.asynchronous import AsyncSystem


def error_codes(report: CertificateReport) -> set[str]:
    return {d.code for d in report.diagnostics
            if d.severity >= Severity.ERROR}


@pytest.fixture(scope="module")
def migratory_table(migratory_refined):
    return build_step_table(migratory_refined)


class TestShippedProtocols:
    @pytest.mark.parametrize("name", ["migratory", "invalidate", "msi",
                                      "mesi"], ids="{}_protocol".format)
    def test_clean_certificate(self, request, name):
        report = check_certificate(
            request.getfixturevalue(f"{name}_refined"))
        assert report.complete
        assert report.ok, report.describe()
        assert not error_codes(report)

    def test_handwritten_uses_the_carve_out(self):
        """The hand-tuned protocol's fire-and-forget notes are carved, not
        errors — the carve-out is load-bearing, not decorative."""
        report = check_certificate(handwritten_migratory())
        assert report.ok, report.describe()
        assert report.n_carved > 0

    def test_fused_pairs_need_multi_step_obligations(self, msi_refined):
        """A home-initiated fused response jumps two rendezvous in one
        asynchronous step; the checker must discharge it as a bounded
        multi-hop mapping, not reject it."""
        report = check_certificate(msi_refined)
        assert report.n_mapped_deep > 0

    def test_accounting_adds_up(self, migratory_refined):
        report = check_certificate(migratory_refined)
        assert report.n_obligations == (report.n_stutters + report.n_mapped
                                        + report.n_mapped_deep
                                        + report.n_carved)
        assert report.n_contexts > 0
        assert report.closure_states > report.n_contexts
        # competition between the two remotes must actually occur, or the
        # T3-T6 buffering/nacking rows were never exercised
        assert report.n_interference > 0

    def test_report_rendering(self, migratory_refined):
        report = check_certificate(migratory_refined)
        assert "obligations" in report.inventory()
        assert report.subject == migratory_refined.name
        assert "CERTIFICATE HOLDS" in report.describe()


class TestSeededMutants:
    """Each mutant must be flagged by the symbolic checker AND confirmed
    by explicit-state exploration of the same mutant table."""

    def test_corrupt_ack_forward_target(self, migratory_refined,
                                        migratory_table):
        mutant = migratory_table.mutate(ProcessKind.REMOTE, "V.lr", 0,
                                        forward_to="V.id")
        report = check_certificate(migratory_refined, table=mutant)
        assert not report.ok
        assert error_codes(report) == {"P4401", "P4404"}

        from repro.check.simulation import check_simulation
        sim = check_simulation(AsyncSystem(migratory_refined, 2,
                                           table=mutant),
                               max_states=20_000)
        assert not sim.ok, "explorer must confirm the symbolic verdict"
        assert sim.failures

    def test_fabricated_fused_reply_drops_the_ack(self, migratory_refined,
                                                  migratory_table):
        """Pretending LR is fused to gr removes its ack handshake; the
        transient requester then has no witness message anywhere."""
        mutant = migratory_table.mutate(ProcessKind.REMOTE, "V.lr", 0,
                                        fused_reply="gr", reply_to="V.id")
        report = check_certificate(migratory_refined, table=mutant)
        assert not report.ok
        assert error_codes(report) == {"P4403", "P4404"}

        from repro.check.simulation import check_simulation
        with pytest.raises(AbstractionUndefined):
            check_simulation(AsyncSystem(migratory_refined, 2, table=mutant),
                             max_states=20_000)

    def test_corrupt_home_rewind_target(self, migratory_refined,
                                        migratory_table):
        """The implicit-nack rewind row only fires when home's request
        races a remote's — a flow involving both remotes, which the
        two-node closure must still reach."""
        mutant = migratory_table.mutate("home", "I1", 0, rewind_to="F1")
        report = check_certificate(migratory_refined, table=mutant)
        assert not report.ok
        assert error_codes(report) == {"P4401", "P4404"}

        from repro.check.simulation import check_simulation
        sim = check_simulation(AsyncSystem(migratory_refined, 2,
                                           table=mutant),
                               max_states=20_000)
        assert not sim.ok, "explorer must confirm the symbolic verdict"

    def test_clean_table_mutated_identically_stays_clean(
            self, migratory_refined, migratory_table):
        """mutate() with the row's own values is the identity — the
        harness's faults come from the changes, not the copying."""
        spec = migratory_table.spec(ProcessKind.REMOTE, "V.lr", 0)
        same = migratory_table.mutate(ProcessKind.REMOTE, "V.lr", 0,
                                      rewind_to=spec.rewind_to)
        report = check_certificate(migratory_refined, table=same)
        assert report.ok, report.describe()


class TestRefineGate:
    def test_refine_output_is_certified(self, invalidate_refined):
        # the fixture's refinement would have raised had the gate failed
        assert check_certificate(invalidate_refined).ok

    def test_gate_rejects_inconsistent_plan(self, migratory_refined):
        """A plan that declares a handshake request fire-and-forget
        produces non-commuting schema rows; the gate must refuse it."""
        bogus = RefinedProtocol(
            protocol=migratory_refined.protocol,
            plan=RefinementPlan(
                config=RefinementConfig(
                    fire_and_forget=frozenset({"req"})),
                fused=migratory_refined.plan.fused))
        with pytest.raises(CertificateError) as excinfo:
            _gate_on_certificate(bogus)
        assert excinfo.value.diagnostics
        assert any(d.code == "P4401" for d in excinfo.value.diagnostics)

    def test_certificate_error_is_a_refinement_error(self):
        assert issubclass(CertificateError, RefinementError)


class TestContexts:
    @pytest.mark.parametrize("factory, n_contexts, n_truncated", [
        (invalidate_protocol, 723, 5), (mesi_protocol, 803, 5),
        (migratory_protocol, 15, 4), (msi_protocol, 1026, 5),
    ])
    def test_context_counts_are_pinned(self, factory, n_contexts,
                                       n_truncated):
        """The n = 2 rendezvous reachable set, in BFS discovery order; a
        budget cuts it where the explorer's state budget does."""
        protocol = factory()
        contexts, sweep = enumerate_contexts(protocol)
        assert (len(contexts), sweep.completed) == (n_contexts, True)
        assert len(set(contexts)) == n_contexts
        truncated, sweep = enumerate_contexts(protocol, max_states=3)
        assert truncated == contexts[:n_truncated]
        assert sweep.stop_reason == "state budget 3 exceeded"

    def test_one_two_node_sweep_per_process(self, monkeypatch, invalidate):
        """The certificate and P46xx's lemmas share one sweep of the
        two-node instance: a second call does not explore again, nor does
        a larger budget the complete sweep fits in; a smaller one does."""
        from repro.analysis import symbolic
        from repro.analysis.coherencecheck import observed_lemmas

        monkeypatch.setattr(symbolic, "_CONTEXTS", {})
        budgets = []
        explore = symbolic.explore

        def counting(*args, **kwargs):
            budgets.append(kwargs["max_states"])
            return explore(*args, **kwargs)

        monkeypatch.setattr(symbolic, "explore", counting)
        contexts, sweep = enumerate_contexts(invalidate)
        again = enumerate_contexts(invalidate)
        assert again[0] is contexts and again[1] is sweep
        assert isinstance(contexts, tuple)
        observed_lemmas(invalidate, max_states=50_000)
        assert budgets == [4096]
        assert enumerate_contexts(invalidate, max_states=3)[0] == \
            contexts[:5]
        assert budgets == [4096, 3]


    def test_the_initial_context_is_always_a_root(self):
        """``random_protocol(24)``: the remote's *initial* state is the
        reply-waiting state of a fused pair, so every context has a remote
        mid-exchange.  Skipping them all left the certificate rootless —
        "0 obligations", vacuously clean — while the sweep from the
        initial state has four edges to check."""
        from repro.check.simulation import check_simulation
        from repro.gen import random_protocol
        refined = refine(random_protocol(24))
        remote = refined.protocol.remote
        assert remote.initial_state in {
            spec.reply_to for spec in build_step_table(refined)}
        report = check_certificate(refined)
        sim = check_simulation(AsyncSystem(refined, 2))
        assert report.ok and sim.ok
        assert (report.closure_states, report.n_obligations) == (4, 4)
        assert (sim.n_async_states, sim.n_edges_checked) == (4, 4)


class TestBudgets:
    def test_truncation_is_reported_not_silent(self, msi_refined):
        report = check_certificate(msi_refined, max_states=500)
        assert not report.complete
        # truncation alone is one warning naming the explorer's stop
        # reason, not an error verdict — and the report is well formed
        [warning] = [d for d in report.diagnostics if d.code == "P4406"]
        assert warning.severity == Severity.WARNING
        assert "asynchronous sweep (state budget 500 exceeded)" \
            in warning.message
        assert report.ok
        assert 500 <= report.closure_states < 9162
        assert report.n_obligations == (report.n_stutters + report.n_mapped
                                        + report.n_mapped_deep
                                        + report.n_carved)
        assert report.diagnostics[-1].code == "P4405"
        # the budget is part of the memo key: the truncated verdict never
        # answers for the untruncated call
        full = check_certificate(msi_refined)
        assert full.complete and full.closure_states == 9162

    def test_truncated_context_sweep_is_reported_too(self, migratory_refined):
        report = check_certificate(migratory_refined, max_contexts=3)
        assert not report.complete
        [warning] = [d for d in report.diagnostics if d.code == "P4406"]
        assert "rendezvous context sweep (state budget 3 exceeded)" \
            in warning.message

    def test_error_flood_is_capped(self, migratory_refined,
                                   migratory_table):
        mutant = migratory_table.mutate(ProcessKind.REMOTE, "V.lr", 0,
                                        forward_to="V.id")
        report = check_certificate(migratory_refined, table=mutant,
                                   max_failures=1)
        errors = [d for d in report.diagnostics
                  if d.severity >= Severity.ERROR and d.code == "P4401"]
        assert len(errors) <= 1
        assert not report.ok
