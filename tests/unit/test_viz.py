"""Unit tests for the figure renderers (repro.viz)."""

import pytest

from repro.viz import (
    process_ascii,
    process_dot,
    protocol_summary,
    refined_ascii,
    refined_dot,
)
from repro.viz.dot import reply_destination


class TestProcessDot:
    def test_valid_dot_shape(self, migratory):
        dot = process_dot(migratory.home)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert dot.count('"F"') >= 2  # node decl + initial edge

    def test_figure2_edges_present(self, migratory):
        dot = process_dot(migratory.home)
        assert 'label="r(i)?req"' in dot
        assert 'label="r(o)!inv"' in dot
        assert 'label="r(j)!gr"' in dot

    def test_figure3_tau_dashed(self, migratory):
        dot = process_dot(migratory.remote)
        assert "τ:evict" in dot
        assert "style=dashed" in dot

    def test_title_override(self, migratory):
        assert process_dot(migratory.home, title="Fig 2").startswith(
            'digraph "Fig 2"')


class TestRefinedDot:
    def test_transient_states_dotted(self, migratory_refined):
        dot = refined_dot(migratory_refined, "home")
        assert "I1·inv" in dot
        assert "style=dotted" in dot

    def test_figure4_implicit_nack_edge(self, migratory_refined):
        dot = refined_dot(migratory_refined, "home")
        assert "[nack]" in dot
        assert "r(x)??msg/nack" in dot

    def test_figure5_ignore_self_loop(self, migratory_refined):
        dot = refined_dot(migratory_refined, "remote")
        assert "h??*" in dot
        assert "retransmit" in dot

    def test_fused_reply_lands_past_intermediate(self, migratory_refined):
        """The inv transient's ??ID edge must go to I3, not I2."""
        home = migratory_refined.protocol.home
        inv_guard = home.state("I1").outputs[0]
        assert reply_destination(home, inv_guard, "ID") == "I3"
        dot = refined_dot(migratory_refined, "home")
        assert '"I1·inv" -> "I3"' in dot

    def test_plain_refinement_has_ack_edges(self, migratory_refined_plain):
        dot = refined_dot(migratory_refined_plain, "remote")
        assert "??ack" in dot
        assert "REPL" not in dot

    def test_bad_side_rejected(self, migratory_refined):
        with pytest.raises(ValueError):
            refined_dot(migratory_refined, "sideways")


class TestAscii:
    def test_process_ascii_lists_all_states(self, migratory):
        text = process_ascii(migratory.home)
        for name in migratory.home.states:
            assert f"  {name} " in text or f"  {name}\n" in text

    def test_process_ascii_shows_vars(self, migratory):
        assert "o=None" in process_ascii(migratory.home)

    def test_refined_ascii_marks_replies(self, migratory_refined):
        text = refined_ascii(migratory_refined, "home")
        assert "!!gr (reply)" in text
        assert "(dotted)" in text

    def test_refined_ascii_hand_variant(self):
        from repro.protocols.handwritten import handwritten_migratory
        text = refined_ascii(handwritten_migratory(), "remote")
        assert "!!LR (no ack)" in text

    def test_summary_counts_transients(self, migratory_refined):
        text = protocol_summary(migratory_refined)
        assert "home 6 states (+1 transient)" in text
        assert "remote 5 states (+2 transient)" in text
