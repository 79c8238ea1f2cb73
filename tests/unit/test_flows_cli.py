"""Unit tests for the ``repro flows`` CLI subcommand."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["flows", "migratory"])
        assert args.witness_nodes == 2 and args.buffer == 2
        assert not args.json and not args.dot and not args.strict

    def test_all_accepted(self):
        assert build_parser().parse_args(["flows", "all"]).protocol == "all"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flows", "mosi"])

    def test_epilog_shows_usage_examples(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flows", "--help"])
        out = capsys.readouterr().out
        assert "repro flows" in out and "--dot" in out


class TestTextOutput:
    def test_inventory_and_verdict_printed(self, capsys):
        assert main(["flows", "migratory"]) == 0
        out = capsys.readouterr().out
        assert "flow graph for migratory" in out
        assert "req@F" in out and "req@E" in out
        assert "deadlock-free-any-N" in out

    def test_all_protocols_discharge(self, capsys):
        assert main(["flows", "all", "--strict"]) == 0
        out = capsys.readouterr().out
        assert out.count("deadlock-free-any-N") == 4


class TestJsonOutput:
    def test_single_document(self, capsys):
        assert main(["flows", "msi", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["protocol"] == "msi"
        assert doc["complete"] is True
        assert doc["paramcheck"]["verdict"] == "deadlock-free-any-N"
        assert doc["paramcheck"]["abstraction"] == {
            "concrete": 1, "states": 1275, "completed": True, "stuck": 0}

    def test_all_is_one_json_array(self, capsys):
        assert main(["flows", "all", "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["protocol"] for d in docs] == \
            ["invalidate", "mesi", "migratory", "msi"]

    def test_witness_nodes_parsed_and_ignored(self, capsys):
        # frozen perf/ still passes the flag; there is no witness instance
        assert main(["flows", "migratory", "--json",
                     "--witness-nodes", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["paramcheck"]["abstraction"]["concrete"] == 1


class TestDotOutput:
    def test_dot_is_well_formed(self, capsys):
        assert main(["flows", "invalidate", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "invalidate flows" {')
        assert out.rstrip().endswith("}")
        assert "doublecircle" in out       # stable home states
        assert "cluster_0" in out          # one cluster per flow
        assert "shape=diamond" in out      # wait events stand out


class TestStrictExit:
    def test_strict_fails_when_not_discharged(self, capsys):
        # dropping the buffer reservations raises a P4503 obligation
        assert main(["flows", "migratory", "--strict",
                     "--no-progress-buffer"]) == 1
        out = capsys.readouterr().out
        assert "P4503" in out

    def test_non_strict_still_exits_zero(self, capsys):
        assert main(["flows", "migratory", "--no-progress-buffer"]) == 0
        assert "obligations" in capsys.readouterr().out
