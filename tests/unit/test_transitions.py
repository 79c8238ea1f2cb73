"""The per-transition step table (refine.transitions).

The table is the single source of truth the asynchronous semantics and
the certificate checker both consume; these tests pin its derivation from
the refined AST (one row per output guard, correct kinds and control
targets) and the indexing/mutation API the differential harness relies
on.
"""

import pytest

from repro.csp.ast import ProcessKind
from repro.errors import RefinementError, SemanticsError
from repro.protocols.handwritten import handwritten_migratory
from repro.refine.transitions import (
    KIND_NOTE,
    KIND_REPLY,
    KIND_REQUEST,
    StepTable,
    build_step_table,
)


@pytest.fixture(scope="module")
def table(migratory_refined):
    return build_step_table(migratory_refined)


class TestDerivation:
    def test_one_row_per_output_guard(self, table, migratory_refined):
        refined = migratory_refined
        n_outputs = sum(
            len(state.outputs)
            for process in (refined.protocol.home, refined.protocol.remote)
            for state in process.states.values())
        assert len(table) == n_outputs

    def test_remote_fused_request_row(self, table):
        spec = table.spec(ProcessKind.REMOTE, "I", 0)
        assert spec.msg == "req"
        assert spec.kind == KIND_REQUEST
        assert spec.fused_reply == "gr"
        assert spec.reply_to == "I.gr"

    def test_home_fused_request_row(self, table):
        spec = table.spec(ProcessKind.HOME, "I1", 0)
        assert spec.msg == "inv"
        assert spec.kind == KIND_REQUEST
        assert spec.fused_reply == "ID"
        assert spec.reply_to == "I2"

    def test_plain_request_rewind_and_forward(self, table):
        """A nack rewinds to the sending state, an ack fast-forwards to
        the guard's target — the Tables 1/2 rule schema verbatim."""
        spec = table.spec(ProcessKind.REMOTE, "V.lr", 0)
        assert spec.msg == "LR"
        assert spec.kind == KIND_REQUEST
        assert spec.fused_reply is None
        assert spec.rewind_to == "V.lr"
        assert spec.forward_to == "I"

    def test_reply_rows_have_no_handshake(self, table):
        for spec in table:
            if spec.kind == KIND_REPLY:
                assert spec.fused_reply is None
                assert spec.reply_to is None

    def test_derived_lookups(self, table):
        assert table.fused_requests(ProcessKind.REMOTE) == {"req"}
        assert table.fused_requests(ProcessKind.HOME) == {"inv"}
        assert table.reply_of == {"req": "gr", "inv": "ID"}
        assert "gr" in table.reply_msgs and "ID" in table.reply_msgs
        assert table.notes == frozenset()

    def test_notes_for_fire_and_forget(self):
        table = build_step_table(handwritten_migratory())
        assert table.notes
        for spec in table:
            if spec.msg in table.notes:
                assert spec.kind == KIND_NOTE

    def test_describe_names_the_row(self, table):
        text = table.spec(ProcessKind.REMOTE, "I", 0).describe()
        assert "remote.I[0]" in text
        assert "!req" in text
        assert "reply gr@I.gr" in text


class TestIndexing:
    def test_spec_raises_on_unknown_row(self, table):
        with pytest.raises(SemanticsError):
            table.spec(ProcessKind.REMOTE, "I", 7)

    def test_get_returns_none_on_unknown_row(self, table):
        assert table.get(ProcessKind.REMOTE, "no-such-state", 0) is None
        assert table.get(ProcessKind.REMOTE, "I", 0) is table.spec(
            ProcessKind.REMOTE, "I", 0)

    def test_duplicate_keys_rejected(self, table):
        specs = tuple(table) + (table.spec(ProcessKind.REMOTE, "I", 0),)
        with pytest.raises(RefinementError):
            StepTable(specs)


class TestMutate:
    def test_mutate_replaces_one_row(self, table):
        mutant = table.mutate(ProcessKind.REMOTE, "V.lr", 0,
                              forward_to="V.id")
        assert mutant.spec(ProcessKind.REMOTE, "V.lr", 0).forward_to == "V.id"
        # every other row unchanged
        for spec in table:
            if spec.key != (ProcessKind.REMOTE, "V.lr", 0):
                assert mutant.spec(*spec.key) == spec

    def test_mutate_is_a_copy(self, table):
        original = table.spec(ProcessKind.HOME, "I1", 0).rewind_to
        table.mutate(ProcessKind.HOME, "I1", 0, rewind_to="F1")
        assert table.spec(ProcessKind.HOME, "I1", 0).rewind_to == original

    def test_mutate_unknown_row_raises(self, table):
        with pytest.raises(SemanticsError):
            table.mutate(ProcessKind.REMOTE, "I", 7, rewind_to="I")
