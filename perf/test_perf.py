"""Tests of the benchmark itself.  Run with ``python -m pytest perf -q``.

Not collected by tier-1 (``testpaths = ["tests"]``): they spawn the smoke
benchmark a few times and take two to three minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
sys.path.insert(0, str(ROOT / "src"))  # the in-process traced pass

import layers  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perf" / "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    t0 = time.perf_counter()
    proc = run_benchmark("--smoke", "--out", str(out))
    seconds = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return {"doc": json.loads(out.read_text()), "seconds": seconds,
            "stdout": proc.stdout}


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_is_quick_and_emits_every_metric(smoke: dict) -> None:
    assert smoke["seconds"] < 60
    doc = smoke["doc"]
    assert set(doc["workloads"]) == set(WORKLOADS)
    declared = manifest()
    e2e = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    for name, w in doc["workloads"].items():
        assert set(w["end_to_end"]) == e2e, name
        assert set(w["per_layer"]) == per_layer, name
        assert w["failed_share"] == 0, w["failures"]
        assert not w["notes"], w["notes"]
        for metric in list(e2e) + list(per_layer) + ["failed_share"]:
            assert re.search(rf"^\s+{re.escape(metric)}\s", smoke["stdout"],
                             re.M), f"{metric} not printed"
    for field in ("host_cpus", "python", "load_avg", "load_avg_after",
                  "spin_median_s", "disturbed_runs", "git_commit"):
        assert field in doc, field


def test_manifest_matches_the_code() -> None:
    declared = manifest()
    assert declared["paths"] == ["perf"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert ({m["name"]: (m["unit"], m["better"])
             for m in declared["per_layer"]} == layers.PER_LAYER)
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in declared["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    expected = json.loads((PERF / "expected.json").read_text())
    for workload in WORKLOADS.values():  # every command has a reference
        for command in workload.commands:
            assert command.slug in expected["full"]
            assert command.slug in expected["smoke"]


class _Toy:
    """A three-layer toy: each layer burns a little time, then calls in."""

    def __init__(self, inner: object = None, burn: int = 2000) -> None:
        self.inner = inner
        self.burn = burn
        self.n_remotes = 1

    def initial_state(self) -> int:
        return 0

    def successors(self, state: int) -> list[tuple[str, int]]:
        acc = 0
        for i in range(self.burn):
            acc += i
        if self.inner is None:
            return [("step", state + 1)]
        return self.inner.successors(state)


def test_self_times_subtract_children_and_shares_sum_to_one() -> None:
    recorder = spans.Recorder()
    outer, proxies = spans.instrument(
        type("Top", (_Toy,), {})(type("Mid", (_Toy,), {})(_Toy())), recorder)
    assert set(proxies) == {"Top", "Mid", "_Toy"}
    with recorder.span("root") as root:
        for state in range(200):
            outer.successors(state)
    totals = {layer: recorder.layer_totals(layer) for layer in proxies}
    assert all(calls == 200 for calls, _t, _s in totals.values())
    # a parent's self time is its total minus its child's total
    assert totals["Top"][2] == totals["Top"][1] - totals["Mid"][1]
    assert totals["Mid"][2] == totals["Mid"][1] - totals["_Toy"][1]
    assert totals["_Toy"][2] == totals["_Toy"][1]
    selves = [s for _c, _t, s in totals.values()] + [root["self_ns"]]
    assert sum(selves) == root["total_ns"]
    shares = [s / root["total_ns"] for s in selves]
    assert abs(sum(shares) - 1.0) <= 0.05
    assert all(share > 0.05 for share in shares[:3])


def test_counts_repeat_exactly(smoke: dict, tmp_path: Path) -> None:
    out = tmp_path / "again.json"
    proc = run_benchmark("--smoke", "--only", "sweep_reduced,verify_oracle",
                         "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    again = json.loads(out.read_text())["workloads"]
    for name, w in again.items():
        first = smoke["doc"]["workloads"][name]["per_layer"]
        for metric in layers.COUNT_METRICS:
            assert w["per_layer"][metric] == first[metric], (name, metric)
        assert w["per_layer"]["check.symmetry.calls"] > 0


def test_wrong_verdict_fails_the_run(tmp_path: Path) -> None:
    expected = json.loads((PERF / "expected.json").read_text())
    expected["smoke"]["check-invalidate-n3-sym-por"]["n_states"] += 1
    perturbed = tmp_path / "expected.json"
    perturbed.write_text(json.dumps(expected))
    out = tmp_path / "result.json"
    proc = run_benchmark("--smoke", "--only", "sweep_reduced", "--expected",
                         str(perturbed), "--out", str(out))
    assert proc.returncode != 0
    w = json.loads(out.read_text())["workloads"]["sweep_reduced"]
    assert w["failed_share"] > 0
    assert any("n_states" in f for f in w["failures"])


def test_missing_layer_reports_null_not_abort(
        monkeypatch: pytest.MonkeyPatch) -> None:
    import repro.check.simulation
    import repro.cli  # noqa: F401 - loaded while the layer is still there

    monkeypatch.delattr(repro.check.simulation, "check_simulation")
    workload = WORKLOADS["verify_oracle"]
    argvs = [c.resolve(sim_seed=0, spill_dir="", smoke=True)
             for c in workload.commands]
    result = layers.trace_workload(workload, argvs)
    assert result["metrics"]["check.simulation.eq1_s"] is None
    assert any("soundness" in note for note in result["notes"])
    assert result["facts"]["soundness-invalidate-n2"] is None
    # the other commands of the workload were traced all the same
    assert result["metrics"]["check.explorer.levels"] > 0
    assert result["metrics"]["check.properties.progress_s"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_contract(trace: int) -> None:
    proc = run_benchmark("--workload", "simulate_mix", "--seed", "11",
                         "--seconds", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    declared = manifest()["per_layer" if trace else "end_to_end"]
    assert ({n: m["unit"] for n, m in doc["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    assert all(isinstance(m["value"], (int, float))
               for m in doc["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    proc = run_benchmark("--workload", "sweep_full", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
