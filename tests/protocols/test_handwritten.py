"""Protocol tests: the hand-designed Avalanche migratory variant."""

import pytest

from repro import (
    AsyncSystem,
    MIGRATORY_SPEC,
    assert_safe,
    async_structural_invariants,
    check_progress,
    coherence_invariants,
    explore,
)
from repro.protocols.handwritten import HAND_CONFIG, handwritten_migratory
from repro.refine.abstraction import AbstractionUndefined, abstract_state
from repro.refine.transitions import build_step_table
from repro.semantics.network import NOTE
from tests.conftest import reachable_states


class TestConstruction:
    def test_lr_is_fire_and_forget(self):
        refined = handwritten_migratory()
        assert build_step_table(refined).notes == frozenset({"LR"})

    def test_other_pairs_still_fused(self):
        refined = handwritten_migratory()
        assert {p.request_msg for p in refined.plan.fused} == {"req", "inv"}

    def test_hand_config_matches(self):
        assert HAND_CONFIG.fire_and_forget == frozenset({"LR"})
        assert HAND_CONFIG.home_buffer_capacity == 2


class TestCorrectDespiteNoLRAck:
    """The hand protocol is correct — it just cannot be proven by the
    refinement theorem and needs dedicated notification buffering."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_safe_and_coherent(self, n):
        refined = handwritten_migratory()
        invariants = (coherence_invariants(MIGRATORY_SPEC)
                      + async_structural_invariants(2))
        result = explore(AsyncSystem(refined, n), invariants=invariants)
        assert assert_safe(result).ok

    @pytest.mark.parametrize("n", [2, 3])
    def test_progress(self, n):
        refined = handwritten_migratory()
        assert check_progress(AsyncSystem(refined, n)).ok


class TestWhyThePaperKeepsTheAck:
    def test_abstraction_undefined_somewhere(self):
        """At least one reachable state has an un-abstractable in-flight
        LR — the refinement soundness proof does not cover this protocol."""
        refined = handwritten_migratory()
        system = AsyncSystem(refined, 2)
        undefined = 0
        for state in reachable_states(system, allow_deadlock=True):
            try:
                abstract_state(system, state)
            except AbstractionUndefined:
                undefined += 1
        assert undefined > 0

    def test_notes_can_stack_beyond_k(self):
        """With 3+ nodes the home can hold note(s) on top of a full request
        buffer: the hand design implicitly requires extra buffering."""
        refined = handwritten_migratory()
        system = AsyncSystem(refined, 3)
        max_total = max(len(s.home.buffer) for s in
                        reachable_states(system, allow_deadlock=True))
        k = refined.plan.config.home_buffer_capacity
        assert max_total > k

    def test_saves_exactly_the_lr_ack(self):
        """Fewer messages in flight overall: no ACK ever chases an LR."""
        refined = handwritten_migratory()
        system = AsyncSystem(refined, 2)
        # In the refined protocol an LR is acked; here LR travels as NOTE
        # and no ack for it exists anywhere.
        lr_notes = 0
        for state in reachable_states(system, allow_deadlock=True):
            for _i, _d, msg in state.channels.in_flight():
                if msg.kind == NOTE:
                    assert msg.msg == "LR"
                    lr_notes += 1
        assert lr_notes > 0


class TestStateSpaceComparison:
    def test_hand_async_space_comparable_to_refined(self, migratory_refined):
        """Paper section 5: verifying the hand design is comparably hard."""
        hand = explore(AsyncSystem(handwritten_migratory(), 2)).n_states
        refined = explore(AsyncSystem(migratory_refined, 2)).n_states
        assert hand > refined / 3  # same order of magnitude
