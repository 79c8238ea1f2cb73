"""Unit tests for the CI benchmark diff gate (benchmarks/compare_bench.py).

The script guards the committed ``BENCH_explore.json`` against silent
exploration-engine regressions; these tests pin what counts as a
failure (deterministic count drift beyond tolerance, missing rows,
budget mismatch) and what is informational only (timing, store bytes).
"""

import copy
import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "compare_bench",
    Path(__file__).parent.parent.parent / "benchmarks" / "compare_bench.py")
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)


def make_doc():
    run = {
        "protocol": "migratory", "n": 3, "config": "por",
        "n_states": 794, "n_transitions": 1806, "n_enabled": 2058,
        "depth": 34, "completed": True, "transition_pruning": 0.1224,
        "states_per_sec": 2000, "approx_bytes": 100_000, "seconds": 0.4,
    }
    return {
        "schema": "repro.bench_explore/1",
        "budget": 4000,
        "runs": [run],
        "headline": {
            "runs": [dict(run)],
            "reductions": {"migratory_n3_por_vs_full": 0.508},
        },
    }


class TestCompare:
    def test_identical_passes(self):
        doc = make_doc()
        errors, notes = compare_bench.compare(doc, copy.deepcopy(doc))
        assert errors == [] and notes == []

    def test_count_drift_beyond_tolerance_fails(self):
        base, cand = make_doc(), make_doc()
        cand["runs"][0]["n_states"] = int(794 * 1.5)
        errors, _ = compare_bench.compare(base, cand)
        assert any("n_states" in e for e in errors)

    def test_small_drift_within_tolerance_passes(self):
        base, cand = make_doc(), make_doc()
        cand["runs"][0]["n_states"] = int(794 * 1.1)
        cand["runs"][0]["n_transitions"] = int(1806 * 0.9)
        errors, _ = compare_bench.compare(base, cand)
        assert errors == []

    def test_timing_and_bytes_never_fail(self):
        base, cand = make_doc(), make_doc()
        cand["runs"][0]["states_per_sec"] = 1
        cand["runs"][0]["approx_bytes"] = 10
        cand["runs"][0]["seconds"] = 900.0
        errors, notes = compare_bench.compare(base, cand)
        assert errors == []
        assert notes  # reported, not fatal

    def test_completion_flip_fails(self):
        base, cand = make_doc(), make_doc()
        cand["headline"]["runs"][0]["completed"] = False
        errors, _ = compare_bench.compare(base, cand)
        assert any("completed" in e for e in errors)

    def test_missing_row_fails(self):
        base, cand = make_doc(), make_doc()
        cand["runs"] = []
        errors, _ = compare_bench.compare(base, cand)
        assert any("row sets differ" in e for e in errors)

    def test_budget_mismatch_fails_fast(self):
        base, cand = make_doc(), make_doc()
        cand["budget"] = 60000
        errors, _ = compare_bench.compare(base, cand)
        assert len(errors) == 1 and "budget" in errors[0]

    def test_reduction_ratio_drift_fails(self):
        base, cand = make_doc(), make_doc()
        cand["headline"]["reductions"]["migratory_n3_por_vs_full"] = 0.1
        errors, _ = compare_bench.compare(base, cand)
        assert any("reductions." in e for e in errors)

    def test_reduction_becoming_unavailable_fails(self):
        base, cand = make_doc(), make_doc()
        cand["headline"]["reductions"]["migratory_n3_por_vs_full"] = None
        errors, _ = compare_bench.compare(base, cand)
        assert any("reductions." in e for e in errors)


def make_doc_v2():
    """A /2 document from when there were two step engines: one row per
    engine, identical counts, distinct timing."""
    interp = {
        "protocol": "migratory", "n": 3, "config": "por",
        "engine": "interpreted",
        "n_states": 794, "n_transitions": 1806, "n_enabled": 2058,
        "depth": 34, "completed": True, "transition_pruning": 0.1224,
        "states_per_sec": 2000, "approx_bytes": 100_000, "seconds": 0.4,
    }
    compiled = dict(interp, engine="compiled",
                    states_per_sec=8000, seconds=0.1)
    return {
        "schema": "repro.bench_explore/2",
        "budget": 4000,
        "runs": [interp, compiled],
        "headline": {
            "runs": [dict(interp), dict(compiled)],
            "reductions": {"migratory_n3_por_vs_full": 0.508},
        },
    }


class TestCrossEngine:
    """Older /2 files: engine rows are separate cells."""

    def test_identical_passes(self):
        doc = make_doc_v2()
        errors, notes = compare_bench.compare(doc, copy.deepcopy(doc))
        assert errors == [] and notes == []

    def test_engine_rows_are_distinct_cells(self):
        base, cand = make_doc_v2(), make_doc_v2()
        cand["runs"] = [r for r in cand["runs"]
                        if r["engine"] == "interpreted"]
        errors, _ = compare_bench.compare(base, cand)
        assert any("row sets differ" in e for e in errors)

    def test_v1_rows_default_to_interpreted_engine(self):
        # a /1 baseline (no engine field) still compares row-for-row
        doc = make_doc()
        errors, _ = compare_bench.compare(doc, copy.deepcopy(doc))
        assert errors == []


class TestMain:
    def test_cli_pass_and_fail(self, tmp_path, capsys):
        base, cand = make_doc(), make_doc()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(cand))
        assert compare_bench.main([str(a), str(b)]) == 0
        assert "benchmark diff OK" in capsys.readouterr().out
        cand["runs"][0]["n_enabled"] = 99999
        b.write_text(json.dumps(cand))
        assert compare_bench.main([str(a), str(b)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tolerance_flag(self, tmp_path):
        base, cand = make_doc(), make_doc()
        cand["runs"][0]["n_states"] = int(794 * 1.4)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(cand))
        assert compare_bench.main([str(a), str(b)]) == 1
        assert compare_bench.main([str(a), str(b),
                                   "--tolerance", "0.5"]) == 0


def make_cutoff_doc():
    cell = {"n": 2, "n_states": 2042, "n_transitions": 6614,
            "deadlocks": 0, "completed": True, "verdict": "no-deadlock",
            "seconds": 0.5}
    return {
        "schema": "repro.bench_cutoff/1",
        "budget": 60000,
        "protocols": [{
            "protocol": "invalidate",
            "static_verdict": "deadlock-free-any-N",
            "discharged": True,
            "complete_cover": True,
            "n_flows": 10,
            "n_invariants": 16,
            "witness_states": 723,
            "exploration": [cell],
            "stabilizes_at": 2,
            "agreement": True,
        }],
    }


class TestCompareCutoff:
    def test_identical_passes(self):
        doc = make_cutoff_doc()
        errors, notes = compare_bench.compare(doc, copy.deepcopy(doc))
        assert errors == [] and notes == []

    def test_verdict_flip_fails(self):
        base, cand = make_cutoff_doc(), make_cutoff_doc()
        cand["protocols"][0]["static_verdict"] = "obligations"
        cand["protocols"][0]["discharged"] = False
        errors, _ = compare_bench.compare(base, cand)
        assert any("static_verdict" in e for e in errors)
        assert any("discharged" in e for e in errors)

    def test_stabilization_drift_fails(self):
        base, cand = make_cutoff_doc(), make_cutoff_doc()
        cand["protocols"][0]["stabilizes_at"] = 3
        errors, _ = compare_bench.compare(base, cand)
        assert any("stabilizes_at" in e for e in errors)

    def test_exploration_count_drift_fails(self):
        base, cand = make_cutoff_doc(), make_cutoff_doc()
        cand["protocols"][0]["exploration"][0]["n_states"] = 4000
        errors, _ = compare_bench.compare(base, cand)
        assert any("n_states" in e for e in errors)

    def test_new_deadlock_fails(self):
        base, cand = make_cutoff_doc(), make_cutoff_doc()
        cand["protocols"][0]["exploration"][0].update(
            deadlocks=2, verdict="deadlock")
        errors, _ = compare_bench.compare(base, cand)
        assert any("deadlocks" in e for e in errors)
        assert any("verdict" in e for e in errors)

    def test_timing_is_informational(self):
        base, cand = make_cutoff_doc(), make_cutoff_doc()
        cand["protocols"][0]["exploration"][0]["seconds"] = 300.0
        errors, notes = compare_bench.compare(base, cand)
        assert errors == [] and notes

    def test_missing_protocol_fails(self):
        base, cand = make_cutoff_doc(), make_cutoff_doc()
        cand["protocols"] = []
        errors, _ = compare_bench.compare(base, cand)
        assert any("row sets differ" in e for e in errors)

    def test_schema_mismatch_fails_fast(self):
        errors, _ = compare_bench.compare(make_doc(), make_cutoff_doc())
        assert len(errors) == 1 and "schema" in errors[0]

    def test_cli_accepts_cutoff_artifacts(self, tmp_path):
        doc = make_cutoff_doc()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(doc))
        b.write_text(json.dumps(doc))
        assert compare_bench.main([str(a), str(b)]) == 0


def make_param_doc():
    cell = {"n": 2, "n_states": 2387, "n_transitions": 7978,
            "violations": 0, "completed": True, "verdict": "coherent",
            "seconds": 0.3}
    return {
        "schema": "repro.bench_param/1",
        "budget": 120000,
        "protocols": [{
            "protocol": "invalidate",
            "static_verdict": "discharged",
            "discharged": True,
            "candidates": 11,
            "validated": 11,
            "n_lemmas": 0,
            "iterations": 1,
            "abstract_states": 6174,
            "exploration": [cell],
            "agreement": True,
        }],
    }


class TestCompareParam:
    def test_identical_passes(self):
        doc = make_param_doc()
        errors, notes = compare_bench.compare(doc, copy.deepcopy(doc))
        assert errors == [] and notes == []

    def test_verdict_flip_fails(self):
        base, cand = make_param_doc(), make_param_doc()
        cand["protocols"][0]["static_verdict"] = "inconclusive"
        cand["protocols"][0]["discharged"] = False
        errors, _ = compare_bench.compare(base, cand)
        assert any("static_verdict" in e for e in errors)
        assert any("discharged" in e for e in errors)

    def test_lemma_inventory_drift_fails(self):
        base, cand = make_param_doc(), make_param_doc()
        cand["protocols"][0].update(n_lemmas=2, iterations=3)
        errors, _ = compare_bench.compare(base, cand)
        assert any("n_lemmas" in e for e in errors)
        assert any("iterations" in e for e in errors)

    def test_abstract_state_drift_fails_beyond_tolerance(self):
        base, cand = make_param_doc(), make_param_doc()
        cand["protocols"][0]["abstract_states"] = 60000
        errors, _ = compare_bench.compare(base, cand)
        assert any("abstract_states" in e for e in errors)

    def test_new_violation_fails(self):
        base, cand = make_param_doc(), make_param_doc()
        cand["protocols"][0]["exploration"][0].update(
            violations=1, verdict="violated")
        cand["protocols"][0]["agreement"] = False
        errors, _ = compare_bench.compare(base, cand)
        assert any("violations" in e for e in errors)
        assert any("verdict" in e for e in errors)
        assert any("agreement" in e for e in errors)

    def test_timing_is_informational(self):
        base, cand = make_param_doc(), make_param_doc()
        cand["protocols"][0]["exploration"][0]["seconds"] = 300.0
        errors, notes = compare_bench.compare(base, cand)
        assert errors == [] and notes

    def test_budget_mismatch_fails_fast(self):
        base, cand = make_param_doc(), make_param_doc()
        cand["budget"] = 60000
        errors, _ = compare_bench.compare(base, cand)
        assert len(errors) == 1 and "budget" in errors[0]

    def test_schema_mismatch_fails_fast(self):
        errors, _ = compare_bench.compare(make_param_doc(),
                                          make_cutoff_doc())
        assert len(errors) == 1 and "schema" in errors[0]

    def test_cli_accepts_param_artifacts(self, tmp_path):
        doc = make_param_doc()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(doc))
        b.write_text(json.dumps(doc))
        assert compare_bench.main([str(a), str(b)]) == 0

    def test_committed_artifact_self_compares(self):
        path = Path(__file__).parent.parent.parent / "BENCH_param.json"
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.bench_param/1"
        errors, _ = compare_bench.compare(doc, copy.deepcopy(doc))
        assert errors == []
        # the committed artifact must show zero unsound cells
        for row in doc["protocols"]:
            assert row["agreement"], row["protocol"]
            assert row["discharged"], row["protocol"]


def make_profile_doc():
    level = {"level": 1, "frontier": 1, "expanded": 1, "candidates": 6,
             "new_states": 4, "n_states": 5, "n_transitions": 6,
             "deadlocks": 0, "collisions": 0, "enabled": 6,
             "approx_bytes": 1000, "spill_bytes": 0, "seconds": 0.1,
             "dedup_ratio": 0.33, "states_per_sec": 50.0,
             "reduction_ratio": 0.0}
    return {
        "schema": "repro.profile/4",
        "run": {"name": "m", "store": "fingerprint", "workers": 1,
                "max_states": None, "max_seconds": None, "max_bytes": None,
                "reductions": [], "engine": "interpreted", "partitions": 1},
        "levels": [level],
        "partitions": [],
        "result": {"system": "m", "store": "fingerprint", "n_states": 5,
                   "n_transitions": 6, "n_enabled": 6, "reductions": [],
                   "deadlocks": 0, "fingerprint_collisions": 0,
                   "seconds": 0.2, "completed": True, "stop_reason": None,
                   "approx_bytes": 1000, "spill_bytes": 0,
                   "approx_bytes_detail": None},
    }


class TestCompareProfiles:
    """The cross-store gate: two profiles of one model (sharded against
    unsharded, fingerprint against exact) must carry exactly the same
    counts, level by level."""

    def test_identical_passes(self):
        doc = make_profile_doc()
        errors, notes = compare_bench.compare(doc, copy.deepcopy(doc))
        assert errors == [] and notes == []

    def test_one_state_off_fails(self):
        # no 25% tolerance here: a single extra state is a store bug
        base, cand = make_profile_doc(), make_profile_doc()
        cand["result"]["n_states"] += 1
        errors, _ = compare_bench.compare(base, cand)
        assert any("result.n_states" in e for e in errors)

    def test_per_level_count_mismatch_fails(self):
        base, cand = make_profile_doc(), make_profile_doc()
        cand["levels"][0]["new_states"] += 1
        errors, _ = compare_bench.compare(base, cand)
        assert any("new_states" in e for e in errors)

    def test_depth_mismatch_fails(self):
        base, cand = make_profile_doc(), make_profile_doc()
        cand["levels"].append(dict(cand["levels"][0], level=2))
        errors, _ = compare_bench.compare(base, cand)
        assert any("BFS depth" in e for e in errors)

    def test_stop_reason_mismatch_fails(self):
        base, cand = make_profile_doc(), make_profile_doc()
        cand["result"]["completed"] = False
        cand["result"]["stop_reason"] = "state budget 5 exceeded"
        errors, _ = compare_bench.compare(base, cand)
        assert any("completed" in e for e in errors)
        assert any("stop_reason" in e for e in errors)

    def test_layout_and_timing_are_informational(self):
        base, cand = make_profile_doc(), make_profile_doc()
        cand["run"].update(workers=4, partitions=4)
        cand["levels"][0].update(seconds=9.0, approx_bytes=5,
                                 spill_bytes=4096)
        cand["result"].update(seconds=9.5, approx_bytes=5,
                              spill_bytes=4096)
        cand["partitions"] = [{"partition": 0, "owned": 5}]
        errors, notes = compare_bench.compare(base, cand)
        assert errors == []
        assert notes  # layout drift reported, never fatal
        # run.workers is in files from when there was a multi-process
        # driver: they still compare, the field is not a layout axis
        del base["run"]["workers"]
        errors, notes = compare_bench.compare(base, cand)
        assert errors == [] and not any("workers" in n for n in notes)

    def test_exact_store_profile_gates_a_fingerprint_one(self):
        # CI's cross-store step: the store kind is layout, a detected
        # collision is not (the exact side always reports 0)
        base, cand = make_profile_doc(), make_profile_doc()
        base["run"]["store"] = base["result"]["store"] = "exact"
        errors, notes = compare_bench.compare(base, cand)
        assert errors == [] and any("result.store" in n for n in notes)
        cand["result"]["fingerprint_collisions"] = 1
        errors, _ = compare_bench.compare(base, cand)
        assert any("fingerprint_collisions" in e for e in errors)

    def test_schema_versions_may_differ_between_profiles(self):
        # a /3 sequential baseline still gates a /4 partitioned run
        base, cand = make_profile_doc(), make_profile_doc()
        base["schema"] = "repro.profile/3"
        errors, _ = compare_bench.compare(base, cand)
        assert errors == []

    def test_profile_vs_bench_doc_fails_fast(self):
        errors, _ = compare_bench.compare(make_profile_doc(), make_doc())
        assert len(errors) == 1 and "schema" in errors[0]

    def test_cli_accepts_profiles(self, tmp_path):
        doc = make_profile_doc()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(doc))
        b.write_text(json.dumps(doc))
        assert compare_bench.main([str(a), str(b)]) == 0
