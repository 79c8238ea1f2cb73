"""Unit tests for the ``repro lint`` CLI subcommand."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["lint", "migratory"])
        assert args.nodes == 4 and args.buffer == 2
        assert not args.json and not args.strict and args.select == []

    def test_all_accepted(self):
        assert build_parser().parse_args(["lint", "all"]).protocol == "all"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "mosi"])


class TestTextOutput:
    def test_clean_protocol_exits_zero(self, capsys):
        assert main(["lint", "migratory"]) == 0
        out = capsys.readouterr().out
        assert "lint report for migratory-async" in out
        assert "0 error(s)" in out

    def test_all_protocols_lint_clean(self, capsys):
        assert main(["lint", "all"]) == 0
        out = capsys.readouterr().out
        for name in ("mesi", "migratory", "invalidate", "msi"):
            assert f"lint report for {name}-async" in out

    def test_transient_pass_included(self, capsys):
        # lint analyzes the refined protocol, so P3403 always appears
        main(["lint", "migratory"])
        assert "P3403" in capsys.readouterr().out


class TestJsonOutput:
    def test_json_parses_and_is_structured(self, capsys):
        assert main(["lint", "migratory", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["subject"] == "migratory-async"
        assert payload["summary"]["errors"] == 0
        assert payload["passes"][0] == "restrictions"
        assert all({"code", "severity", "location", "message"} <=
                   set(d) for d in payload["diagnostics"])

    def test_codes_are_registered(self, capsys):
        from repro.analysis import CODES
        main(["lint", "msi", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert all(d["code"] in CODES for d in payload["diagnostics"])


class TestExitCodes:
    def test_strict_fails_on_buffer_warning(self, capsys):
        # default k=2 is below the n=4 demand bound -> P3201 warning
        assert main(["lint", "migratory", "--strict"]) == 1

    def test_strict_passes_when_buffer_covers_demand(self, capsys):
        assert main(["lint", "migratory", "--strict", "--buffer", "4"]) == 0
        assert "P3202" in capsys.readouterr().out


class TestSelect:
    def test_select_filters_codes(self, capsys):
        assert main(["lint", "migratory", "--select", "P3301"]) == 0
        out = capsys.readouterr().out
        assert "P3301" in out
        assert "P3201" not in out and "P3403" not in out

    def test_select_is_repeatable(self, capsys):
        main(["lint", "migratory", "--json",
              "--select", "P3301", "--select", "P3403"])
        payload = json.loads(capsys.readouterr().out)
        assert {d["code"] for d in payload["diagnostics"]} == \
            {"P3301", "P3403"}


class TestIgnore:
    def test_ignore_drops_codes(self, capsys):
        assert main(["lint", "migratory", "--ignore", "P3403"]) == 0
        out = capsys.readouterr().out
        assert "P3403" not in out
        assert "P3301" in out  # everything else stays

    def test_ignore_is_repeatable(self, capsys):
        main(["lint", "migratory", "--json",
              "--ignore", "P3403", "--ignore", "P3301"])
        payload = json.loads(capsys.readouterr().out)
        assert not {"P3403", "P3301"} & \
            {d["code"] for d in payload["diagnostics"]}

    def test_ignored_warning_no_longer_trips_strict(self):
        # k=2 under the n=4 demand bound raises the P3201 warning
        assert main(["lint", "migratory", "--strict"]) == 1
        assert main(["lint", "migratory", "--strict",
                     "--ignore", "P3201"]) == 0

    def test_unknown_code_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint", "migratory", "--ignore", "P9999"])

    def test_select_ignore_overlap_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint", "migratory",
                  "--select", "P3301", "--ignore", "P3301"])


class TestHelpText:
    def test_epilog_shows_usage_examples(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--help"])
        out = capsys.readouterr().out
        assert "--ignore" in out
        assert "--strict" in out
        assert "repro lint" in out  # worked examples, not just options


class TestCertificateCodes:
    def test_shipped_protocols_report_zero_p44_errors(self, capsys):
        assert main(["lint", "all", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 4
        for payload in reports:
            errors = [d for d in payload["diagnostics"]
                      if d["code"].startswith("P44")
                      and d["severity"] == "error"]
            assert not errors, (payload["subject"], errors)

    def test_certificate_inventory_surfaces_in_lint(self, capsys):
        main(["lint", "migratory"])
        assert "P4405" in capsys.readouterr().out


    #: P4405 text per protocol, byte for byte what the private DFS printed
    #: before the certificate became one explore() sweep
    INVENTORIES = {
        "invalidate-async":
            "11092 obligations over 723 contexts (6484 stutters, 4574 "
            "single-step, 34 multi-step fused, 0 carved fire-and-forget, "
            "5558 interference); closure 5262 states",
        "mesi-async":
            "30262 obligations over 803 contexts (21714 stutters, 8546 "
            "single-step, 2 multi-step fused, 0 carved fire-and-forget, "
            "18036 interference); closure 13356 states",
        "migratory-async":
            "234 obligations over 15 contexts (162 stutters, 70 "
            "single-step, 2 multi-step fused, 0 carved fire-and-forget, "
            "148 interference); closure 127 states",
        "msi-async":
            "20022 obligations over 1026 contexts (12528 stutters, 7448 "
            "single-step, 46 multi-step fused, 0 carved fire-and-forget, "
            "10204 interference); closure 9162 states",
    }

    def test_lint_sweeps_once_per_protocol_and_inventories_are_pinned(
            self, capsys, certificate_sweeps):
        """``lint`` discharges the certificate in refine()'s gate and
        again in the ``simulation`` pass: one sweep, read back once."""
        assert main(["lint", "all", "--json"]) == 0
        assert certificate_sweeps == [4]
        reports = json.loads(capsys.readouterr().out)
        inventories = {
            payload["subject"]: [d["message"] for d in payload["diagnostics"]
                                 if d["code"] == "P4405"]
            for payload in reports}
        assert inventories == {subject: [text] for subject, text
                               in self.INVENTORIES.items()}


class TestPrefixSelection:
    def test_select_family_prefix(self, capsys):
        assert main(["lint", "migratory", "--json", "--select", "P45"]) == 0
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert codes and all(c.startswith("P45") for c in codes)

    def test_prefix_and_exact_code_mix(self, capsys):
        main(["lint", "migratory", "--json",
              "--select", "P33", "--select", "P4505"])
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "P4505" in codes
        assert codes - {"P4505"} <= {"P3301", "P3302", "P3303"}

    def test_ignore_family_prefix(self, capsys):
        assert main(["lint", "migratory", "--ignore", "P45"]) == 0
        out = capsys.readouterr().out
        assert "P45" not in out
        assert "P3301" in out

    def test_prefix_ignore_untrips_strict(self):
        # the only migratory warning at n=4 is the P32xx buffer bound
        assert main(["lint", "migratory", "--strict"]) == 1
        assert main(["lint", "migratory", "--strict", "--ignore", "P32"]) == 0

    def test_unknown_prefix_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "migratory", "--select", "P99"])
        assert "P99" in str(excinfo.value)

    def test_overlapping_prefixes_rejected(self):
        # P45 expands to a superset of P4505: the overlap must be caught
        with pytest.raises(SystemExit):
            main(["lint", "migratory",
                  "--select", "P45", "--ignore", "P4505"])


class TestSarifOutput:
    def test_sarif_is_valid_and_versioned(self, capsys):
        assert main(["lint", "migratory", "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        assert len(doc["runs"]) == 1

    def test_rules_cover_results_and_levels_map(self, capsys):
        main(["lint", "all", "--format", "sarif"])
        run = json.loads(capsys.readouterr().out)["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        rule_ids = [r["id"] for r in rules]
        assert rule_ids == sorted(rule_ids)
        for result in run["results"]:
            assert result["ruleId"] == rules[result["ruleIndex"]]["id"]
            assert result["level"] in {"note", "warning", "error"}
            location = result["locations"][0]["logicalLocations"][0]
            assert location["fullyQualifiedName"]

    def test_coherence_discharge_appears_as_note(self, capsys):
        main(["lint", "msi", "--format", "sarif"])
        run = json.loads(capsys.readouterr().out)["runs"][0]
        discharges = [r for r in run["results"] if r["ruleId"] == "P4601"]
        assert discharges and all(r["level"] == "note" for r in discharges)

    def test_format_json_is_json_alias(self, capsys):
        assert main(["lint", "migratory", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["subject"] == "migratory-async"
