"""Unit tests for the CI benchmark gate (benchmarks/compare_bench.py).

The script holds the committed ``BENCH_*.json`` and pairs of ``--profile``
documents to one rule: every fact of the baseline must reproduce exactly
in the candidate.  These tests pin what is a fact (every count, flag,
verdict and derived ratio of every row), what is not (the ``VOLATILE``
keys; a profile's ``run`` block and a ``/4`` profile's ``partitions``
block), and that the
committed artifacts obey the rule they are judged by.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "compare_bench", ROOT / "benchmarks" / "compare_bench.py")
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)

ARTIFACTS = ("BENCH_explore.json", "BENCH_cutoff.json", "BENCH_param.json")


def make_doc():
    run = {
        "id": "runs/migratory-n3-por",
        "protocol": "migratory", "n": 3, "config": "por",
        "n_states": 794, "n_transitions": 1806, "n_enabled": 2058,
        "depth": 34, "completed": True, "transition_pruning": 0.1224,
    }
    return {
        "schema": "repro.bench/1",
        "budget": 4000,
        "rows": [run, dict(run, id="headline/migratory-n3-por"),
                 {"id": "reductions", "migratory_n3_por_vs_full": 0.508}],
    }


class TestCompare:
    def test_identical_passes(self):
        doc = make_doc()
        assert compare_bench.compare(doc, copy.deepcopy(doc)) == []

    def test_count_drift_fails(self):
        # one state is enough: there is no tolerance to hide inside
        base, cand = make_doc(), make_doc()
        cand["rows"][0]["n_states"] += 1
        assert compare_bench.compare(base, cand) == [
            "runs/migratory-n3-por: n_states 794 -> 795"]

    def test_completion_flip_fails(self):
        base, cand = make_doc(), make_doc()
        cand["rows"][1]["completed"] = False
        errors = compare_bench.compare(base, cand)
        assert errors == [
            "headline/migratory-n3-por: completed True -> False"]

    def test_missing_row_fails(self):
        base, cand = make_doc(), make_doc()
        del cand["rows"][0]
        errors = compare_bench.compare(base, cand)
        assert len(errors) == 1 and "row sets differ" in errors[0]
        assert "runs/migratory-n3-por" in errors[0]

    def test_missing_fact_fails(self):
        base, cand = make_doc(), make_doc()
        del cand["rows"][0]["depth"]
        assert compare_bench.compare(base, cand) == [
            "runs/migratory-n3-por: depth 34 -> '<missing>'"]

    def test_budget_mismatch_fails_fast(self):
        base, cand = make_doc(), make_doc()
        cand["budget"] = 60000
        errors = compare_bench.compare(base, cand)
        assert len(errors) == 1 and "budget" in errors[0]

    def test_reduction_ratio_drift_fails(self):
        base, cand = make_doc(), make_doc()
        cand["rows"][2]["migratory_n3_por_vs_full"] = 0.5081
        errors = compare_bench.compare(base, cand)
        assert errors == [
            "reductions: migratory_n3_por_vs_full 0.508 -> 0.5081"]

    def test_reduction_becoming_unavailable_fails(self):
        base, cand = make_doc(), make_doc()
        cand["rows"][2]["migratory_n3_por_vs_full"] = None
        errors = compare_bench.compare(base, cand)
        assert any(e.startswith("reductions:") for e in errors)


class TestMain:
    def test_cli_pass_and_fail(self, tmp_path, capsys):
        base, cand = make_doc(), make_doc()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(cand))
        assert compare_bench.main([str(a), str(b)]) == 0
        assert "benchmark diff OK" in capsys.readouterr().out
        cand["rows"][0]["n_enabled"] -= 1
        b.write_text(json.dumps(cand))
        assert compare_bench.main([str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "FAIL: runs/migratory-n3-por: n_enabled 2058 -> 2057" in out

    def test_tolerance_flag(self, tmp_path, capsys):
        # the flag is gone with the tolerance: a usage error, not a knob
        a = tmp_path / "a.json"
        a.write_text(json.dumps(make_doc()))
        with pytest.raises(SystemExit) as excinfo:
            compare_bench.main([str(a), str(a), "--tolerance", "0.5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def make_cutoff_doc():
    return {
        "schema": "repro.bench/1",
        "budget": 60000,
        "rows": [
            {"id": "invalidate", "protocol": "invalidate",
             "static_verdict": "deadlock-free-any-N", "discharged": True,
             "complete_cover": True, "n_flows": 10,
             "abstract_states": 657, "stabilizes_at": 2, "agreement": True},
            {"id": "invalidate/n2", "n": 2, "n_states": 2042,
             "n_transitions": 6614, "deadlocks": 0, "completed": True,
             "verdict": "no-deadlock"},
        ],
    }


class TestCompareCutoff:
    def test_identical_passes(self):
        doc = make_cutoff_doc()
        assert compare_bench.compare(doc, copy.deepcopy(doc)) == []

    def test_verdict_flip_fails(self):
        base, cand = make_cutoff_doc(), make_cutoff_doc()
        cand["rows"][0]["static_verdict"] = "obligations"
        cand["rows"][0]["discharged"] = False
        errors = compare_bench.compare(base, cand)
        assert any("static_verdict" in e for e in errors)
        assert any("discharged" in e for e in errors)

    def test_stabilization_drift_fails(self):
        base, cand = make_cutoff_doc(), make_cutoff_doc()
        cand["rows"][0]["stabilizes_at"] = 3
        errors = compare_bench.compare(base, cand)
        assert errors == ["invalidate: stabilizes_at 2 -> 3"]

    def test_exploration_count_drift_fails(self):
        base, cand = make_cutoff_doc(), make_cutoff_doc()
        cand["rows"][1]["n_states"] -= 1
        errors = compare_bench.compare(base, cand)
        assert errors == ["invalidate/n2: n_states 2042 -> 2041"]

    def test_new_deadlock_fails(self):
        base, cand = make_cutoff_doc(), make_cutoff_doc()
        cand["rows"][1].update(deadlocks=2, verdict="deadlock")
        errors = compare_bench.compare(base, cand)
        assert any("deadlocks" in e for e in errors)
        assert any("verdict" in e for e in errors)

    def test_missing_protocol_fails(self):
        base, cand = make_cutoff_doc(), make_cutoff_doc()
        cand["rows"] = []
        errors = compare_bench.compare(base, cand)
        assert any("row sets differ" in e for e in errors)

    def test_schema_mismatch_fails_fast(self):
        # a file of one of the three schemas this one replaced
        legacy = {"schema": "repro.bench_cutoff/1", "budget": 60000,
                  "protocols": []}
        for pair in ((legacy, make_cutoff_doc()), (make_cutoff_doc(), legacy),
                     (legacy, legacy)):
            errors = compare_bench.compare(*pair)
            assert len(errors) == 1 and "schema" in errors[0]

    def test_cli_accepts_cutoff_artifacts(self, tmp_path):
        doc = make_cutoff_doc()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(doc))
        b.write_text(json.dumps(doc))
        assert compare_bench.main([str(a), str(b)]) == 0


def make_param_doc():
    return {
        "schema": "repro.bench/1",
        "budget": 120000,
        "rows": [
            {"id": "invalidate", "protocol": "invalidate",
             "static_verdict": "discharged", "discharged": True,
             "candidates": 11, "validated": 11, "n_lemmas": 0,
             "iterations": 1, "abstract_states": 6174, "agreement": True},
            {"id": "invalidate/n2", "n": 2, "n_states": 2387,
             "n_transitions": 7978, "violations": 0, "completed": True,
             "verdict": "coherent"},
        ],
    }


class TestCompareParam:
    def test_identical_passes(self):
        doc = make_param_doc()
        assert compare_bench.compare(doc, copy.deepcopy(doc)) == []

    def test_verdict_flip_fails(self):
        base, cand = make_param_doc(), make_param_doc()
        cand["rows"][0]["static_verdict"] = "inconclusive"
        cand["rows"][0]["discharged"] = False
        errors = compare_bench.compare(base, cand)
        assert any("static_verdict" in e for e in errors)
        assert any("discharged" in e for e in errors)

    def test_lemma_inventory_drift_fails(self):
        base, cand = make_param_doc(), make_param_doc()
        cand["rows"][0].update(n_lemmas=2, iterations=3)
        errors = compare_bench.compare(base, cand)
        assert any("n_lemmas" in e for e in errors)
        assert any("iterations" in e for e in errors)

    def test_abstract_state_drift_fails(self):
        base, cand = make_param_doc(), make_param_doc()
        cand["rows"][0]["abstract_states"] += 1
        errors = compare_bench.compare(base, cand)
        assert errors == ["invalidate: abstract_states 6174 -> 6175"]

    def test_new_violation_fails(self):
        base, cand = make_param_doc(), make_param_doc()
        cand["rows"][1].update(violations=1, verdict="violated")
        cand["rows"][0]["agreement"] = False
        errors = compare_bench.compare(base, cand)
        assert any("violations" in e for e in errors)
        assert any("verdict" in e for e in errors)
        assert any("agreement" in e for e in errors)

    def test_budget_mismatch_fails_fast(self):
        base, cand = make_param_doc(), make_param_doc()
        cand["budget"] = 60000
        errors = compare_bench.compare(base, cand)
        assert len(errors) == 1 and "budget" in errors[0]

    def test_schema_mismatch_fails_fast(self):
        unlabelled = make_param_doc()
        del unlabelled["schema"]
        errors = compare_bench.compare(make_param_doc(), unlabelled)
        assert len(errors) == 1 and "schema" in errors[0]

    def test_cli_accepts_param_artifacts(self, tmp_path):
        doc = make_param_doc()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(doc))
        b.write_text(json.dumps(doc))
        assert compare_bench.main([str(a), str(b)]) == 0

    def test_committed_artifact_self_compares(self):
        for name in ARTIFACTS:
            doc = json.loads((ROOT / name).read_text())
            assert doc["schema"] == "repro.bench/1", name
            assert compare_bench.compare(doc, copy.deepcopy(doc)) == []
            # time and bytes are perf/'s: no row carries a volatile key
            for row in doc["rows"]:
                assert not set(row) & set(compare_bench.VOLATILE), row["id"]
        # the committed verdict artifacts must show zero unsound cells
        for name in ARTIFACTS[1:]:
            for row in json.loads((ROOT / name).read_text())["rows"]:
                if "static_verdict" in row:
                    assert row["agreement"] and row["discharged"], row["id"]

    @pytest.mark.parametrize("name", ARTIFACTS)
    def test_any_fact_of_a_committed_artifact_off_by_one_fails(self, name):
        doc = json.loads((ROOT / name).read_text())
        perturbed = 0
        for index, row in enumerate(doc["rows"]):
            for field, value in row.items():
                if isinstance(value, bool) or not isinstance(value,
                                                             (int, float)):
                    continue
                for delta in (1, -1):
                    cand = copy.deepcopy(doc)
                    cand["rows"][index][field] = value + delta
                    assert compare_bench.compare(doc, cand) == [
                        f"{row['id']}: {field} {value!r} -> "
                        f"{value + delta!r}"]
                    perturbed += 1
        assert perturbed >= 2 * len(doc["rows"])


def make_profile_doc():
    level = {"level": 1, "frontier": 1, "expanded": 1, "candidates": 6,
             "new_states": 4, "n_states": 5, "n_transitions": 6,
             "deadlocks": 0, "collisions": 0, "enabled": 6,
             "approx_bytes": 1000, "spill_bytes": 0, "seconds": 0.1,
             "dedup_ratio": 0.33, "states_per_sec": 50.0,
             "reduction_ratio": 0.0}
    return {
        "schema": "repro.profile/5",
        "run": {"name": "m", "store": "fingerprint",
                "max_states": None, "max_seconds": None, "max_bytes": None,
                "reductions": []},
        "levels": [level],
        "result": {"system": "m", "store": "fingerprint", "n_states": 5,
                   "n_transitions": 6, "n_enabled": 6, "depth": 0,
                   "deadlocks": 0, "violations": 0,
                   "fingerprint_collisions": 0, "completed": True,
                   "stop_reason": None, "reductions": [], "seconds": 0.2,
                   "approx_bytes": 1000, "spill_bytes": 0, "spill_merges": 0,
                   "approx_bytes_detail": None},
    }


class TestCompareProfiles:
    """The cross-store gate: two profiles of one model (spilling against
    resident, fingerprint against exact) must carry exactly the same
    counts, level by level."""

    def test_identical_passes(self):
        doc = make_profile_doc()
        assert compare_bench.compare(doc, copy.deepcopy(doc)) == []

    def test_one_state_off_fails(self):
        # a single extra state is a store bug
        base, cand = make_profile_doc(), make_profile_doc()
        cand["result"]["n_states"] += 1
        assert compare_bench.compare(base, cand) == [
            "result: n_states 5 -> 6"]

    def test_per_level_count_mismatch_fails(self):
        base, cand = make_profile_doc(), make_profile_doc()
        cand["levels"][0]["new_states"] += 1
        assert compare_bench.compare(base, cand) == [
            "level/0: new_states 4 -> 5"]

    def test_depth_mismatch_fails(self):
        base, cand = make_profile_doc(), make_profile_doc()
        cand["levels"].append(dict(cand["levels"][0], level=2))
        errors = compare_bench.compare(base, cand)
        assert len(errors) == 1 and "extra=['level/1']" in errors[0]

    def test_stop_reason_mismatch_fails(self):
        base, cand = make_profile_doc(), make_profile_doc()
        cand["result"]["completed"] = False
        cand["result"]["stop_reason"] = "state budget 5 exceeded"
        errors = compare_bench.compare(base, cand)
        assert any("completed" in e for e in errors)
        assert any("stop_reason" in e for e in errors)

    def test_layout_and_timing_are_informational(self):
        # not facts: clocks, byte sizes, the disk tier, the run block
        base, cand = make_profile_doc(), make_profile_doc()
        cand["run"].update(max_bytes=1 << 20, name="other")
        cand["levels"][0].update(seconds=9.0, approx_bytes=5,
                                 spill_bytes=4096, states_per_sec=0.5)
        cand["result"].update(seconds=9.5, approx_bytes=5, spill_bytes=4096,
                              spill_merges=3,
                              approx_bytes_detail={"entries": 5},
                              system="other")
        assert compare_bench.compare(base, cand) == []

    def test_committed_profile_4_gates_a_fresh_profile_5(self, tmp_path):
        # benchmarks/results/ is not regenerated when the schema moves:
        # a /4 document (run.partitions, a partitions block, no
        # spill_merges) and today's /5 one must compare, in both orders
        from repro.check.explorer import explore
        from repro.check.observe import PROFILE_SCHEMA, JsonProfileWriter
        from repro.check.spec import SystemSpec, build_system

        committed = json.loads(
            (ROOT / "benchmarks" / "results"
             / "fingerprint_store_profile.json").read_text())
        assert committed["schema"] == "repro.profile/4"
        assert committed["run"]["partitions"] == 1 and committed["partitions"]
        path = tmp_path / "fresh.json"
        explore(build_system(SystemSpec("migratory", "async", 3)),
                name="fresh", store="fingerprint",
                max_states=committed["run"]["max_states"],
                observer=JsonProfileWriter(path))
        fresh = json.loads(path.read_text())
        assert fresh["schema"] == PROFILE_SCHEMA == "repro.profile/5"
        assert "partitions" not in fresh and "partitions" not in fresh["run"]
        assert compare_bench.compare(committed, fresh) == []
        assert compare_bench.compare(fresh, committed) == []
        fresh["levels"][3]["new_states"] += 1
        assert compare_bench.compare(committed, fresh) == [
            f"level/3: new_states {committed['levels'][3]['new_states']} -> "
            f"{fresh['levels'][3]['new_states']}"]

    def test_exact_store_profile_gates_a_fingerprint_one(self):
        # CI's cross-store step: the store kind is layout, a detected
        # collision is not (the exact side always reports 0)
        base, cand = make_profile_doc(), make_profile_doc()
        base["run"]["store"] = base["result"]["store"] = "exact"
        assert compare_bench.compare(base, cand) == []
        cand["result"]["fingerprint_collisions"] = 1
        assert compare_bench.compare(base, cand) == [
            "result: fingerprint_collisions 0 -> 1"]

    def test_schema_versions_may_differ_between_profiles(self):
        # an older baseline still gates today's run: its facts must
        # reproduce, facts it never recorded are not asked of it
        base, cand = make_profile_doc(), make_profile_doc()
        base["schema"] = "repro.profile/3"
        del base["result"]["depth"], base["result"]["violations"]
        assert compare_bench.compare(base, cand) == []

    def test_profile_vs_bench_doc_fails_fast(self):
        errors = compare_bench.compare(make_profile_doc(), make_doc())
        assert len(errors) == 1 and "schema" in errors[0]

    def test_cli_accepts_profiles(self, tmp_path):
        doc = make_profile_doc()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(doc))
        b.write_text(json.dumps(doc))
        assert compare_bench.main([str(a), str(b)]) == 0
