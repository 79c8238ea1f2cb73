"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's evaluation artifacts
(tables, figures, or quantified prose claims), writes the rendered output
under ``benchmarks/results/`` and asserts the *shape* of the paper's
result (who wins, by what order of magnitude, where the cliff is).  The
measured numbers are recorded in EXPERIMENTS.md.

Budgets: set ``REPRO_BENCH_BUDGET`` (states) and ``REPRO_BENCH_SECONDS``
to trade fidelity against runtime; the defaults keep the whole suite at a
few minutes.

The three repo-level ``BENCH_*.json`` artifacts share one schema,
``repro.bench/1``: ``{"schema", "budget", "rows": [{"id": ..., <facts>}]}``.
A row holds deterministic facts only — an exploration's
:meth:`~repro.check.stats.ExplorationResult.counts`, static verdicts, and
values derived from those — so ``compare_bench.py`` can hold every one of
them to exact equality; time is measured under ``perf/``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Optional

import pytest

from repro.check.stats import ExplorationResult

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_configure(config):
    RESULTS_DIR.mkdir(exist_ok=True)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def state_budget() -> int:
    return int(os.environ.get("REPRO_BENCH_BUDGET", "60000"))


@pytest.fixture(scope="session")
def time_budget() -> float:
    return float(os.environ.get("REPRO_BENCH_SECONDS", "60"))


BENCH_SCHEMA = "repro.bench/1"


def bench_row(row_id: str, result: Optional[ExplorationResult] = None,
              **facts: Any) -> dict[str, Any]:
    """One ``repro.bench/1`` row: ``result``'s counts plus named facts."""
    counts = result.counts() if result is not None else {}
    return {"id": row_id, **counts, **facts}


def write_bench(path: Path, budget: int, rows: list[dict[str, Any]]) -> None:
    doc = {"schema": BENCH_SCHEMA, "budget": budget, "rows": rows}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def write_report(results_dir: Path, name: str, text: str) -> None:
    path = results_dir / name
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
