"""Unit tests for Table 3's cells and renderer (repro.bench.table3)."""

import json
from pathlib import Path

from repro.bench.table3 import TABLE3_BUDGET, TABLE3_CELLS, render_table3
from repro.check.explorer import explore
from repro.check.spec import build_system

ROOT = Path(__file__).parent.parent.parent


def fake_row(protocol, n, level, n_states, completed=True, paper="?"):
    return {"n_states": n_states, "completed": completed,
            "protocol": protocol, "n": n, "level": level, "paper": paper}


class TestPaperValues:
    def test_all_six_rows_present(self):
        assert len(TABLE3_CELLS) == 12
        assert len({(s.protocol, s.n_remotes) for s, _ in TABLE3_CELLS}) == 6
        paper = {(s.protocol, s.n_remotes, s.level): p
                 for s, p in TABLE3_CELLS}
        assert paper[("migratory", 2, "async")] == "23163/2.84"
        assert paper[("migratory", 2, "rendezvous")] == "54/0.1"
        assert paper[("invalidate", 6, "async")] == "Unfinished"
        assert paper[("invalidate", 6, "rendezvous")] == "228334/18.4"


class TestRendering:
    def test_render_with_prebuilt_rows(self):
        rows = [fake_row("migratory", 2, "async", 100, paper="23163/2.84"),
                fake_row("migratory", 2, "rendezvous", 10),
                fake_row("invalidate", 6, "async", 124, completed=False),
                fake_row("invalidate", 6, "rendezvous", 50)]
        text = render_table3(rows, budget=123)
        assert "Table 3" in text and "123" in text
        lines = text.splitlines()
        migratory = next(line for line in lines if line.startswith("Migr"))
        assert migratory.split() == ["Migratory", "2", "100", "23163/2.84",
                                     "10", "?"]
        invalidate = next(line for line in lines if line.startswith("Inv"))
        assert invalidate.split()[2] == "Unfinished"
        assert all(line == line.rstrip() for line in lines)

    def test_tiny_budget_run(self):
        results = {(s.protocol, s.n_remotes, s.level):
                   explore(build_system(s), max_states=300)
                   for s, _ in TABLE3_CELLS}
        assert len(results) == 12
        # with a 300-state budget the small cells complete, the big don't
        assert results[("migratory", 2, "rendezvous")].completed
        assert not results[("invalidate", 4, "async")].completed

    def test_every_copy_renders_the_committed_rows(self):
        rows = [row for row in json.loads(
                    (ROOT / "BENCH_explore.json").read_text())["rows"]
                if row["id"].startswith("table3/")]
        assert [row["id"] for row in rows] == [
            f"table3/{s.protocol}-n{s.n_remotes}-{s.level}"
            for s, _ in TABLE3_CELLS]
        assert [row["paper"] for row in rows] == [p for _, p in TABLE3_CELLS]
        text = render_table3(rows, TABLE3_BUDGET)
        assert (ROOT / "benchmarks" / "results" / "table3.txt").read_text() \
            == text + "\n"
        assert text in (ROOT / "EXPERIMENTS.md").read_text()
