"""Unit tests for the refinement engine and plan (repro.refine)."""

import pytest

from repro import RefinementConfig, refine
from repro.csp.builder import ProcessBuilder, inp, out, protocol
from repro.csp.ast import AnySender, ProcessKind
from repro.errors import RefinementError, ValidationError
from repro.refine.plan import FusedPair, RefinedProtocol, RefinementPlan
from repro.refine.transitions import build_step_table


class TestRefinementConfig:
    def test_defaults_match_paper(self):
        config = RefinementConfig()
        assert config.home_buffer_capacity == 2
        assert config.use_reqreply
        assert config.reserve_progress_buffer
        assert config.reserve_ack_buffer
        assert config.fire_and_forget == frozenset()

    def test_k_below_two_rejected(self):
        with pytest.raises(RefinementError, match="k >= 2"):
            RefinementConfig(home_buffer_capacity=1)


class TestRefinementPlan:
    def test_lookups(self, migratory):
        """The step table is where the plan's pairs become lookups."""
        plan = RefinementPlan(fused=(
            FusedPair("req", "gr", ProcessKind.REMOTE),
            FusedPair("inv", "ID", ProcessKind.HOME)))
        table = build_step_table(RefinedProtocol(migratory, plan))
        assert table.reply_of == {"req": "gr", "inv": "ID"}
        assert table.fused_requests(ProcessKind.REMOTE) == frozenset({"req"})
        assert table.fused_requests(ProcessKind.HOME) == frozenset({"inv"})
        assert table.reply_msgs == frozenset({"gr", "ID"})

    def test_describe_mentions_ablation(self):
        plan = RefinementPlan(config=RefinementConfig(
            reserve_progress_buffer=False))
        assert "NO progress buffer" in plan.describe()


class TestRefine:
    def test_validates_protocol_first(self):
        h = ProcessBuilder.home("h")
        h.state("a", inp("m", sender=AnySender(), to="a"))
        r = ProcessBuilder.remote("r")
        r.state("a", out("m1", to="a"), out("m2", to="a"))
        with pytest.raises(ValidationError):
            refine(protocol("bad", h, r))

    def test_auto_detection_default(self, migratory_refined):
        assert len(migratory_refined.plan.fused) == 2
        assert migratory_refined.name == "migratory-async"

    def test_no_reqreply_means_no_fusion(self, migratory_refined_plain):
        assert migratory_refined_plain.plan.fused == ()

    def test_explicit_pairs_verified(self, migratory):
        pair = FusedPair("req", "gr", ProcessKind.REMOTE)
        refined = refine(migratory, fused_pairs=(pair,))
        assert refined.plan.fused == (pair,)

    def test_bad_explicit_pair_rejected(self, migratory):
        with pytest.raises(RefinementError, match="cannot be fused"):
            refine(migratory, fused_pairs=(
                FusedPair("req", "ID", ProcessKind.REMOTE),))

    def test_explicit_pairs_with_reqreply_off_rejected(self, migratory):
        with pytest.raises(RefinementError):
            refine(migratory, RefinementConfig(use_reqreply=False),
                   fused_pairs=(FusedPair("req", "gr", ProcessKind.REMOTE),))


class TestFireAndForget:
    def test_lr_accepted(self, migratory):
        refined = refine(migratory,
                         RefinementConfig(fire_and_forget=frozenset({"LR"})))
        assert "LR" in build_step_table(refined).notes

    def test_unknown_message_rejected(self, migratory):
        with pytest.raises(RefinementError, match="does not occur"):
            refine(migratory,
                   RefinementConfig(fire_and_forget=frozenset({"zzz"})))

    def test_fused_message_rejected(self, migratory):
        with pytest.raises(RefinementError, match="fused"):
            refine(migratory,
                   RefinementConfig(fire_and_forget=frozenset({"req"})))

    def test_remote_received_message_rejected(self, migratory):
        # inv flows home -> remote; the remote's single-slot buffer cannot
        # absorb unacknowledged traffic
        with pytest.raises(RefinementError, match="received by the remote"):
            refine(migratory, RefinementConfig(
                use_reqreply=False, fire_and_forget=frozenset({"inv"})))
