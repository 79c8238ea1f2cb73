"""Unit tests for the command-line interface (repro.cli)."""

import argparse
import json

import pytest

from repro import cli
from repro.check import spec as spec_module
from repro.check.properties import ProgressReport
from repro.check.spill import SpillFile
from repro.cli import build_parser, main


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "mosi"])

    @pytest.mark.parametrize("argv", [
        ["check", "migratory", "-n", "2", "--budget", "-5"],
        ["verify", "migratory", "--budget", "0"],
        ["paramverify", "migratory", "--budget", "0"],
        ["table3", "--budget", "-1"],
        ["pool", "migratory", "--lines", "0"],
        ["check", "migratory", "--spill-threshold", "0"],
        # each of these once ran: "time budget -1.0s exceeded", metrics
        # for a negative latency, an n=0 witness
        ["check", "migratory", "--timeout", "-1"],
        ["verify", "migratory", "--timeout", "0"],
        ["table3", "--timeout", "nan"],
        ["simulate", "migratory", "--latency", "-1"],
        ["simulate", "migratory", "--write-fraction", "2"],
        ["pool", "migratory", "--write-fraction", "-0.1"],
        ["simulate", "migratory", "--msc", "-3"],
        ["flows", "migratory", "--witness-nodes", "0"],
    ], ids=lambda argv: argv[0] + argv[-2])
    def test_non_positive_counts_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be " in err
        assert f"got {argv[-1]}" in err

    @pytest.mark.parametrize("text,expected", [
        ("4096", 4096), ("0", 0), ("10b", 10), ("512K", 512 << 10),
        ("1kb", 1 << 10), ("64MiB", 64 << 20), (" 64 mib ", 64 << 20),
        ("2G", 2 << 30),
    ])
    def test_parse_bytes(self, text, expected):
        assert cli.parse_bytes(text) == expected

    @pytest.mark.parametrize("text", ["1.5M", "-5", "M", "", "12XB", "1e3",
                                      "0x10", "5\u00b2"])
    def test_parse_bytes_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError,
                           match="use e.g. 64MiB, 512K, 2G, 4096"):
            cli.parse_bytes(text)

    @pytest.mark.parametrize("size", ["1.5M", "-5", "M"])
    def test_malformed_memory_limit_is_a_usage_error(self, size, capsys):
        # validated where --budget is, at parse time: no traceback, and no
        # run that reports "memory budget -5B exceeded"
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "migratory", "--level", "async",
                  "--memory-limit", size])
        assert excinfo.value.code == 2
        assert "use e.g. 64MiB, 512K, 2G, 4096" in capsys.readouterr().err

    def test_zero_memory_limit_is_legal(self, capsys):
        # stops at once, as a well-formed Unfinished
        assert main(["check", "migratory", "--memory-limit", "0"]) == 1
        assert "memory budget 0B exceeded" in capsys.readouterr().out

    def test_defaults(self):
        args = build_parser().parse_args(["verify", "migratory"])
        assert args.nodes == 2 and args.buffer == 2
        assert args.level == "rendezvous"


class TestVerifyCommand:
    def test_rendezvous_ok(self, capsys):
        assert main(["verify", "migratory", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "complete" in out

    def test_async_ok(self, capsys):
        assert main(["verify", "migratory", "--level", "async",
                     "-n", "2"]) == 0

    def test_budget_unfinished_nonzero_exit(self, capsys):
        code = main(["verify", "invalidate", "--level", "async",
                     "-n", "3", "--budget", "500"])
        assert code == 1
        assert "UNFINISHED" in capsys.readouterr().out

    def test_progress_flag(self, capsys):
        assert main(["verify", "migratory", "-n", "2", "--progress"]) == 0
        assert "PROGRESS GUARANTEED" in capsys.readouterr().out

    @pytest.mark.parametrize("report", [
        ProgressReport(ok=False, n_states=9, n_sccs=3, n_terminal_sccs=1,
                       livelocks=[(2, None)]),
        ProgressReport(ok=False, n_states=9, n_sccs=0, n_terminal_sccs=0,
                       completed=False, stop_reason="state budget 8 exceeded"),
    ], ids=["fails", "incomplete"])
    def test_progress_verdict_sets_exit_code(self, monkeypatch, capsys,
                                             report):
        # the safety sweep passes; only the progress report is bad
        monkeypatch.setattr(cli, "progress_of", lambda *a, **kw: report)
        assert main(["verify", "migratory", "-n", "2", "--progress"]) == 1
        assert report.describe() in capsys.readouterr().out

    def test_progress_honours_timeout(self, capsys):
        assert main(["verify", "migratory", "-n", "2", "--progress",
                     "--timeout", "1e-9"]) == 1
        assert "progress check incomplete" in capsys.readouterr().out

    def test_progress_needs_the_exact_store(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "migratory", "-n", "2", "--progress",
                  "--store", "fingerprint"])
        assert excinfo.value.code == 2
        assert "use --store exact" in capsys.readouterr().err

    def test_check_flags_apply(self, tmp_path, capsys):
        # one sweep helper: the memory limit, levels and profile of check
        assert main(["verify", "migratory", "--memory-limit", "0"]) == 1
        assert "memory budget 0B exceeded" in capsys.readouterr().out
        path = tmp_path / "profile.json"
        assert main(["verify", "migratory", "--level", "async", "-n", "2",
                     "--store", "fingerprint", "--levels",
                     "--profile", str(path)]) == 0
        captured = capsys.readouterr()
        assert "exploring migratory-async-2 (store=fingerprint)" \
            in captured.err
        assert f"profile written to {path}" in captured.out
        result = json.loads(path.read_text())["result"]
        assert (result["n_states"], result["violations"]) == (127, 0)

    def test_seeded_bug_has_equal_witnesses_in_both_stores(
            self, monkeypatch, capsys):
        # the CI heredoc's invariant, through verify's own code path:
        # the fingerprint store's trace is replayed from witness columns
        # through symmetry + POR and must read like the exact store's
        quiet = ("quiet", lambda s: s.channels.total_in_flight < 3)
        structural = cli.async_structural_invariants
        monkeypatch.setattr(cli, "async_structural_invariants",
                            lambda k: structural(k) + [quiet])
        outputs = {}
        for store in ("exact", "fingerprint"):
            assert main(["verify", "invalidate", "--level", "async", "-n",
                         "3", "--symmetry", "--por", "--store", store]) == 1
            outputs[store] = capsys.readouterr().out.splitlines()
        assert "fingerprint store (0 collision(s))" in outputs["fingerprint"][0]
        witness = outputs["exact"][1:]
        assert witness[0].startswith("counterexample to 'quiet' (")
        assert outputs["fingerprint"][1:] == witness
        assert not any("no trace" in line for line in witness)


class TestRefineCommand:
    def test_plain(self, capsys):
        assert main(["refine", "migratory"]) == 0
        out = capsys.readouterr().out
        assert "refined migratory-home" in out
        assert "fused: req/gr" in out

    def test_figures(self, capsys):
        assert main(["refine", "migratory", "--figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "Figure 5" in out

    def test_dot(self, capsys):
        assert main(["refine", "invalidate", "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_no_reqreply(self, capsys):
        assert main(["refine", "migratory", "--no-reqreply"]) == 0
        assert "fused" not in capsys.readouterr().out.splitlines()[0]


class TestSimulateCommand:
    def test_synthetic(self, capsys):
        assert main(["simulate", "migratory", "-n", "3",
                     "--until", "2000"]) == 0
        out = capsys.readouterr().out
        assert "rendezvous completed" in out

    def test_hand_variant(self, capsys):
        assert main(["simulate", "migratory", "--hand", "-n", "3",
                     "--until", "2000", "--workload", "hot"]) == 0

    def test_hand_requires_migratory(self):
        with pytest.raises(SystemExit):
            main(["simulate", "invalidate", "--hand", "--until", "100"])


class TestSoundnessCommand:
    def test_ok(self, capsys):
        assert main(["soundness", "migratory", "-n", "2"]) == 0
        assert "WEAK SIMULATION HOLDS" in capsys.readouterr().out


class TestPoolCommand:
    def test_pool_runs(self, capsys):
        assert main(["pool", "migratory", "--lines", "4", "-n", "3",
                     "--until", "1000"]) == 0
        out = capsys.readouterr().out
        assert "shared pool" in out


class TestMscOption:
    def test_simulate_with_msc(self, capsys):
        assert main(["simulate", "migratory", "-n", "2", "--until", "300",
                     "--msc", "6"]) == 0
        out = capsys.readouterr().out
        assert "time" in out and "r0" in out


class TestCheckCommand:
    def test_rendezvous_ok(self, capsys):
        assert main(["check", "migratory", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "34 states" in out and "[complete]" in out

    def test_fingerprint_store_reported(self, capsys):
        assert main(["check", "migratory", "-n", "2",
                     "--store", "fingerprint"]) == 0
        assert "fingerprint store" in capsys.readouterr().out

    def test_budget_unfinished_nonzero_exit(self, capsys):
        code = main(["check", "migratory", "--level", "async",
                     "-n", "3", "--budget", "500"])
        assert code == 1
        assert "UNFINISHED (state budget 500 exceeded)" \
            in capsys.readouterr().out

    def test_levels_flag_renders_progress(self, capsys):
        assert main(["check", "migratory", "-n", "2", "--levels"]) == 0
        err = capsys.readouterr().err
        assert "exploring migratory-rendezvous-2 (store=exact)" in err
        assert "level   0" in err and "done:" in err

    def test_profile_written(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        assert main(["check", "migratory", "-n", "2",
                     "--profile", str(path)]) == 0
        assert f"profile written to {path}" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.profile/6"
        assert "workers" not in doc["run"]  # no longer written
        assert doc["result"]["completed"] is True
        assert sum(lvl["new_states"] for lvl in doc["levels"]) + 1 \
            == doc["result"]["n_states"]
        assert sum(lvl["candidates"] for lvl in doc["levels"]) \
            == doc["result"]["n_transitions"]

    def test_parallel_flag_is_gone(self, capsys):
        # the multi-process driver was deleted, not hidden: no alias, no
        # "accepted and ignored"
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "migratory", "--parallel"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --parallel" \
            in capsys.readouterr().err

    def test_same_spill_dir_twice(self, tmp_path, capsys):
        # the first run's spill files are the first run's visited set: a
        # store that adopted them once called 400 of 1614 states "complete"
        argv = ["check", "migratory", "--level", "async", "-n", "3",
                "--store", "fingerprint", "--partitions", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert "1614 states, 4344 transitions" in plain
        # nor the files of a sharded store of an earlier version
        legacy = SpillFile(tmp_path / "partition-0001.spill")
        legacy.merge({7: 7})
        legacy.close()
        for _ in range(2):
            assert main(argv + ["--spill-dir", str(tmp_path),
                                "--spill-threshold", "200"]) == 0
            out = capsys.readouterr().out
            assert "1614 states, 4344 transitions" in out
            # --partitions 2 x --spill-threshold 200: one table that
            # merges every 400 entries, and says nothing of partitions
            assert "[complete]" in out and "spilled (4 merge(s))" in out
            assert "partition" not in out
            assert [p.name for p in tmp_path.iterdir()] == ["visited.spill"]

    def test_unsharded_fingerprint_output_names_no_partitions(
            self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        assert main(["check", "migratory", "-n", "2", "--store",
                     "fingerprint", "--levels", "--profile", str(path)]) == 0
        captured = capsys.readouterr()
        assert "partition" not in captured.out + captured.err
        # nor does the profile: the store has no layout to describe
        doc = json.loads(path.read_text())
        assert "partitions" not in doc and "partitions" not in doc["run"]
        assert doc["result"]["spill_merges"] == 0

    def test_unknown_store_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "migratory",
                                       "--store", "bloom"])

    @pytest.mark.parametrize("flag, value", [("--partitions", "2"),
                                             ("--spill-dir", "unused")])
    def test_sizing_the_exact_store_is_a_usage_error(self, flag, value,
                                                     capsys, tmp_path,
                                                     monkeypatch):
        # `--store exact --partitions P` once selected a third store
        # class; it must not quietly run the plain exact store instead
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "migratory", flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "use them with --store fingerprint" in captured.err
        assert captured.out == "" and not list(tmp_path.iterdir())

    def test_zero_partitions_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "migratory", "--partitions", "0"])
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


class TestPorFlag:
    def test_check_por_runs(self, capsys):
        assert main(["check", "migratory", "--level", "async",
                     "-n", "2", "--por"]) == 0
        out = capsys.readouterr().out
        assert "reductions: por" in out and "pruned" in out

    def test_verify_por_runs(self, capsys):
        assert main(["verify", "migratory", "--level", "async",
                     "-n", "2", "--por"]) == 0
        assert "complete" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_por_rejects_rendezvous_level(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "migratory", "-n", "2", "--por"])
        assert "rendezvous level has none" in str(excinfo.value)

    def test_profile_records_reductions(self, tmp_path):
        path = tmp_path / "profile.json"
        assert main(["check", "migratory", "--level", "async", "-n", "2",
                     "--symmetry", "--por", "--profile", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["run"]["reductions"] == ["por", "symmetry"]
        assert doc["result"]["reductions"] == ["por", "symmetry"]
        assert doc["result"]["n_enabled"] >= doc["result"]["n_transitions"]
        assert any(lvl["reduction_ratio"] > 0 for lvl in doc["levels"])

    def test_por_shrinks_check_counts(self, capsys):
        assert main(["check", "invalidate", "--level", "async",
                     "-n", "2"]) == 0
        full_out = capsys.readouterr().out
        assert main(["check", "invalidate", "--level", "async",
                     "-n", "2", "--por"]) == 0
        por_out = capsys.readouterr().out
        full_states = int(full_out.split(" states")[0].rsplit()[-1])
        por_states = int(por_out.split(" states")[0].rsplit()[-1])
        assert por_states < full_states

    @pytest.mark.parametrize("engine", ["interpreted", "compiled"])
    def test_symmetry_por_counts_pinned(self, engine, capsys):
        """Normalization is not canonical on ties and POR reduces the
        representative: these counts move if the order over remotes does
        (``perf/expected.json`` pins the same cell)."""
        assert main(["check", "invalidate", "--level", "async", "-n", "3",
                     "--symmetry", "--por", "--engine", engine,
                     "--store", "fingerprint"]) == 0
        assert "23180 states, 62568 transitions" in capsys.readouterr().out


class TestEngineFlag:
    """``--engine`` still parses on check/verify (``perf/`` passes it)
    and selects nothing: there is one step engine."""

    def test_check_compiled_matches_interpreted(self, capsys):
        counts = {}
        for engine in ("interpreted", "compiled"):
            assert main(["check", "migratory", "--level", "async",
                         "-n", "2", "--engine", engine]) == 0
            out = capsys.readouterr().out
            counts[engine] = out.split(" states")[0].rsplit()[-1]
        assert counts["interpreted"] == counts["compiled"]

    def test_verify_compiled_runs(self, capsys):
        assert main(["verify", "migratory", "--level", "async",
                     "-n", "2", "--engine", "compiled"]) == 0
        assert "complete" in capsys.readouterr().out

    def test_paramverify_rejects_compiled(self):
        """paramverify has no --engine flag at all (the abstraction runs
        at the rendezvous level): argparse refuses it."""
        with pytest.raises(SystemExit) as excinfo:
            main(["paramverify", "migratory", "--engine", "compiled"])
        assert excinfo.value.code == 2

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["check", "migratory",
                                       "--engine", "jit"])
        assert excinfo.value.code == 2


class TestTable3Command:
    def test_small_budget_renders(self, capsys):
        assert main(["table3", "--budget", "2000", "--timeout", "20"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Migratory" in out and "Invalidate" in out
        assert "Unfinished" in out  # the tiny budget forces some cells


class TestErrorsAreOneLine:
    """A library error ends a command with a message, not a traceback."""

    @pytest.mark.parametrize("command", ["verify", "check", "soundness",
                                         "simulate", "lint", "flows",
                                         "paramverify"])
    def test_bad_buffer_capacity(self, command, capsys):
        argv = [command, "invalidate", "--buffer", "1"]
        if command in ("verify", "check"):
            argv += ["--level", "async"]
        assert main(argv) == 1  # returned, not raised: no traceback
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_spill_dir_under_a_regular_file(self, tmp_path, capsys):
        a_file = tmp_path / "a_file"
        a_file.write_text("not a directory")
        assert main(["check", "migratory", "--level", "async", "-n", "2",
                     "--store", "fingerprint", "--partitions", "2",
                     "--spill-dir", str(a_file / "sub")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: cannot use spill directory")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class Interrupting:
    """A real system whose ``successors`` raises after ``calls`` calls."""

    def __init__(self, inner, calls, exc):
        self.inner, self.calls, self.exc = inner, calls, exc

    def initial_state(self):
        return self.inner.initial_state()

    def successors(self, state):
        self.calls -= 1
        if self.calls < 0:
            raise self.exc
        return self.inner.successors(state)


class TestRunsThatCannotFinish:
    """Ctrl-C or an error mid-sweep: the profile is still closed with a
    stop reason, stderr gets one line, the exit status says which."""

    @staticmethod
    def ctrl_c_after(monkeypatch, calls):
        build = spec_module.build_system
        monkeypatch.setattr(
            cli, "build_system",
            lambda spec: Interrupting(build(spec), calls,
                                      KeyboardInterrupt()))

    def test_ctrl_c_mid_sweep(self, monkeypatch, tmp_path, capsys):
        self.ctrl_c_after(monkeypatch, 40)
        path = tmp_path / "profile.json"
        assert main(["check", "migratory", "--level", "async", "-n", "2",
                     "--profile", str(path)]) == 130
        captured = capsys.readouterr()
        assert captured.err == "repro: interrupted\n"
        assert captured.out == ""  # no result line for a run that has none
        doc = json.loads(path.read_text())
        assert doc["result"]["completed"] is False
        assert doc["result"]["stop_reason"] == "interrupted"
        # the level in flight is there, truncated where the signal landed
        assert sum(lvl["expanded"] for lvl in doc["levels"]) == 40
        assert doc["levels"][-1]["expanded"] < doc["levels"][-1]["frontier"]
        assert sum(lvl["new_states"] for lvl in doc["levels"]) + 1 \
            == doc["result"]["n_states"]

    def test_ctrl_c_still_prints_the_done_line(self, monkeypatch, capsys):
        self.ctrl_c_after(monkeypatch, 3)
        assert main(["check", "migratory", "-n", "2", "--levels"]) == 130
        err = capsys.readouterr().err
        assert "done: migratory-rendezvous-2" in err
        assert "UNFINISHED (interrupted)" in err
        assert err.endswith("repro: interrupted\n")
        assert "Traceback" not in err

    def test_spill_write_failure_mid_sweep(self, monkeypatch, tmp_path,
                                           capsys):
        merge, merged = SpillFile.merge, []

        def failing(self, entries):
            merged.append(self)
            if len(merged) == 4:
                raise OSError(28, "No space left on device")
            return merge(self, entries)

        monkeypatch.setattr(SpillFile, "merge", failing)
        path = tmp_path / "profile.json"
        assert main(["check", "migratory", "--level", "async", "-n", "3",
                     "--store", "fingerprint", "--partitions", "2",
                     "--spill-dir", str(tmp_path / "spill"),
                     "--spill-threshold", "64",
                     "--profile", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: cannot write spill file")
        assert "No space left on device" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        doc = json.loads(path.read_text())
        assert doc["result"]["completed"] is False
        assert doc["result"]["stop_reason"].startswith(
            "error: cannot write spill file")
        assert doc["levels"] and doc["result"]["spill_bytes"] > 0
        # the store was closed on the way out: no mmap, no open handle
        assert len(merged) == 4
        assert all(spill._file is None and spill._mm is None
                   for spill in merged)
