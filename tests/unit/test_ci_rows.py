"""Unit tests for CI's committed rows (benchmarks/ci_rows.json) and their
runner (benchmarks/ci_rows.py).

Every row must be runnable as written — its argv parses, its keys mean
something, its ``same_as`` names a row that ran before it — and the
runner must both pass a true row and fail a false one, so a gate cannot
silently stop gating.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.protocols import LIBRARY_PROTOCOLS

ROOT = Path(__file__).parent.parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "ci_rows", ROOT / "benchmarks" / "ci_rows.py")
ci_rows = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ci_rows)

ROWS = ci_rows.load()
CHEAP = ["check", "migratory", "--level", "async", "-n", "2",
         "--store", "fingerprint", "--budget", "3000"]


@pytest.mark.parametrize("row", [row for row in ROWS if "repro" in row],
                         ids=lambda row: row["id"])
def test_every_argv_parses_with_the_profile_the_runner_adds(row):
    build_parser().parse_args(row["repro"] + ["--profile", "p.json"])


def test_row_ids_are_unique():
    ids = [row["id"] for row in ROWS]
    assert len(ids) == len(set(ids))


def test_every_key_is_known_and_same_as_names_an_earlier_row():
    known = set(ci_rows.FACTS + ci_rows.CONTROLS + ci_rows.BOUNDS)
    seen = set()
    for row in ROWS:
        assert set(row) <= known, row["id"]
        # exactly one kind, and a bound only on the kind that measures it
        assert ("repro" in row) != ("gate" in row), row["id"]
        if "gate" in row:
            assert set(row) <= {"id", "why", "gate", "gate_peak_mib_max"}
        else:
            assert "gate_peak_mib_max" not in row, row["id"]
        if "same_as" in row:
            assert row["same_as"] in seen, row["id"]
        seen.add(row["id"])


def test_gate_protocols_are_library_protocols():
    gates = [row["gate"] for row in ROWS if "gate" in row]
    assert gates and set(gates) <= set(LIBRARY_PROTOCOLS)


@pytest.fixture
def cheap_row(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the runner writes ci-rows/ here
    return next(row for row in ROWS if row.get("repro") == CHEAP)


def test_runner_passes_the_cheap_row(cheap_row, capsys):
    assert ci_rows.run([cheap_row]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.split()[:3] == [cheap_row["id"], "ok", "VmHWM"]
    assert (Path("ci-rows") / f"{cheap_row['id']}.json").exists()


def test_runner_fails_a_wrong_count_and_a_tight_bound(cheap_row, capsys):
    rows = [dict(cheap_row, id="wrong-count",
                 n_states=cheap_row["n_states"] + 1),
            dict(cheap_row, id="tight-bound-of-a-longer-id", vmhwm_mib_max=1)]
    assert ci_rows.run(rows) == 1
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if not line.startswith(" ")]
    assert [line.split()[:2] for line in lines[:2]] == [
        ["wrong-count", "FAIL"], ["tight-bound-of-a-longer-id", "FAIL"]]
    # the status column starts one past the longest id, on every row
    assert lines[0].index("FAIL") == lines[1].index("FAIL") \
        == len("tight-bound-of-a-longer-id") + 1
    assert f"n_states {cheap_row['n_states'] + 1} -> " in out
    assert "MiB > 1" in out
