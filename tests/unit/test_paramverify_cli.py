"""Unit tests for the ``repro paramverify`` CLI subcommand."""

import json

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.protocols.invariants import COHERENCE_SPECS

from .test_coherencecheck import incoherent_invalidate


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["paramverify", "mesi"])
        assert args.budget == 50_000
        assert not args.json and not args.strict

    def test_refinement_flags_are_rejected(self, capsys):
        # the verdict reads no refinement config: no flag selects one
        for flag in (["--buffer", "3"], ["--no-reqreply"],
                     ["--no-progress-buffer"]):
            with pytest.raises(SystemExit) as exc:
                main(["paramverify", "msi", *flag])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_all_accepted(self):
        args = build_parser().parse_args(["paramverify", "all"])
        assert args.protocol == "all"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["paramverify", "mosi"])


class TestTextOutput:
    def test_discharge_exits_zero(self, capsys):
        assert main(["paramverify", "migratory"]) == 0
        out = capsys.readouterr().out
        assert "parameterized coherence for migratory: discharged" in out
        assert "P4601" in out

    def test_all_protocols_discharge(self, capsys):
        assert main(["paramverify", "all", "--strict"]) == 0
        out = capsys.readouterr().out
        for name in ("invalidate", "mesi", "migratory", "msi"):
            assert f"parameterized coherence for {name}: discharged" in out

    def test_refutation_prints_msc_witness(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.PROTOCOLS, "broken", incoherent_invalidate)
        monkeypatch.setitem(COHERENCE_SPECS, "broken",
                            COHERENCE_SPECS["invalidate"])
        assert main(["paramverify", "broken"]) == 0  # informational
        out = capsys.readouterr().out
        assert "refuted" in out
        assert "refutation witness" in out
        assert "P4602" in out
        assert "grW" in out  # the MSC shows the offending grant


class TestJsonOutput:
    def test_single_doc_parses(self, capsys):
        assert main(["paramverify", "msi", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["protocol"] == "msi"
        assert doc["status"] == "discharged"
        assert doc["candidates"] == doc["validated"]

    def test_all_is_one_json_array(self, capsys):
        assert main(["paramverify", "all", "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["protocol"] for d in docs] == ["invalidate", "mesi",
                                                "migratory", "msi"]
        assert all(d["discharged"] for d in docs)


class TestExitCodes:
    def test_strict_fails_on_refutation(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.PROTOCOLS, "broken", incoherent_invalidate)
        monkeypatch.setitem(COHERENCE_SPECS, "broken",
                            COHERENCE_SPECS["invalidate"])
        assert main(["paramverify", "broken", "--strict"]) == 1

    def test_strict_all_fails_when_an_early_protocol_is_broken(
            self, capsys, monkeypatch):
        # "broken" sorts first, so every clean protocol runs after it;
        # the verdict accumulator must not be washed out by a later
        # discharge (exit-code consistency with `repro flows --strict`)
        monkeypatch.setitem(cli.PROTOCOLS, "broken", incoherent_invalidate)
        monkeypatch.setitem(COHERENCE_SPECS, "broken",
                            COHERENCE_SPECS["invalidate"])
        assert main(["paramverify", "all", "--strict"]) == 1
        out = capsys.readouterr().out
        assert "parameterized coherence for broken: refuted" in out
        assert "parameterized coherence for msi: discharged" in out


class TestFlowsStrictOrdering:
    def test_flows_strict_all_fails_when_an_early_protocol_is_broken(
            self, capsys, monkeypatch):
        # same accumulator regression, for the P45xx command
        from .test_paramcheck import deadlocker

        monkeypatch.setitem(cli.PROTOCOLS, "broken", deadlocker)
        assert main(["flows", "all", "--strict"]) == 1
        out = capsys.readouterr().out
        assert "P4502" in out
        assert "deadlock-free-any-N" in out  # later protocols still ran
