"""Experiment (extension): static parameterized verdicts vs exploration.

Writes the repo-level ``BENCH_cutoff.json`` artifact — the committed,
CI-compared record of the parameterized (P45xx) analysis
cross-checked against bounded exploration (``repro.bench/1`` rows from
``conftest.bench_row``: one ``<protocol>`` row of static facts, one
``<protocol>/n<N>`` row per explored size).  For every library protocol:

* the **static verdict** of :func:`repro.analysis.paramcheck
  .check_parameterized` — the size of the one-concrete-remote + Other
  abstraction the stuck-state rule was checked on, and whether deadlock
  freedom was discharged for arbitrary N — beside the flow count and
  cover completeness of :func:`repro.analysis.flows.derive_flows` (the
  inventory ``repro flows`` prints next to it; the verdict reads none
  of it);
* the **exploration verdicts** of the derived asynchronous protocol at
  n = 2..4 under symmetry + partial-order reduction, at a pinned state
  budget (``REPRO_BENCH_CUTOFF_BUDGET``, default 60000 — enough to
  complete every n = 3 instance; n = 4 completes only for migratory and
  is recorded ``unknown`` elsewhere) so every count is bit-reproducible
  and ``compare_bench.py`` holds it to exact equality in CI;
* the **stabilization cutoff** — the smallest n from which every larger
  explored instance with a known verdict agrees.  The static verdict
  assumes no cutoff (it is checked on the abstraction, not at n = 2);
  the exploration column is the empirical check that nothing changes
  from n = 2 on.

The acceptance claims asserted here:

* all four library protocols discharge deadlock freedom for arbitrary N;
* no disagreement: a discharged protocol never shows a bounded deadlock
  (zero unsound verdicts at n <= 4);
* the observed stabilization cutoff is 2.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from conftest import bench_row, write_bench, write_report

from repro.analysis.flows import derive_flows
from repro.analysis.paramcheck import check_parameterized
from repro.check.explorer import explore
from repro.check.spec import SystemSpec, build_system
from repro.protocols import LIBRARY_PROTOCOLS

BENCH_PATH = Path(__file__).parent.parent / "BENCH_cutoff.json"

SIZES = (2, 3, 4)


@pytest.fixture(scope="module")
def cutoff_budget() -> int:
    # pinned independently of REPRO_BENCH_BUDGET: the committed
    # BENCH_cutoff.json must be reproducible on any machine
    return int(os.environ.get("REPRO_BENCH_CUTOFF_BUDGET", "60000"))


def explore_cell(name: str, n: int, budget: int) -> dict:
    spec = SystemSpec(name, "async", n, symmetry=True, por=True)
    result = explore(build_system(spec), name=f"{name}-cutoff-{n}",
                     max_states=budget, reductions=spec.reductions())
    if result.deadlocks:
        verdict = "deadlock"  # definite even on a truncated run
    elif result.completed:
        verdict = "no-deadlock"
    else:
        verdict = "unknown"
    return bench_row(f"{name}/n{n}", result, n=n, verdict=verdict)


def stabilizes_at(cells: list[dict]) -> int | None:
    """Smallest n whose verdict every later *known* verdict repeats."""
    known = [(c["n"], c["verdict"]) for c in cells
             if c["verdict"] != "unknown"]
    if not known:
        return None
    final = known[-1][1]
    cutoff = None
    for n, verdict in reversed(known):
        if verdict != final:
            break
        cutoff = n
    return cutoff


def test_bench_cutoff(benchmark, results_dir, cutoff_budget):
    rows = []
    for name, factory in sorted(LIBRARY_PROTOCOLS.items()):
        protocol = factory()
        verdict = check_parameterized(protocol)
        graph = derive_flows(protocol)
        cells = [explore_cell(name, n, cutoff_budget) for n in SIZES]
        cutoff = stabilizes_at(cells)
        bounded_deadlock = any(c["verdict"] == "deadlock" for c in cells)
        rows.append((bench_row(
            name,
            protocol=name,
            static_verdict=verdict.verdict,
            discharged=verdict.discharged,
            complete_cover=graph.complete,
            n_flows=len(graph.flows),
            abstract_states=verdict.abstract_states,
            stabilizes_at=cutoff,
            agreement=not (verdict.discharged and bounded_deadlock),
        ), cells))

    write_bench(BENCH_PATH, cutoff_budget,
                [row for r, cells in rows for row in (r, *cells)])

    # -- human-readable summary ----------------------------------------------
    lines = ["Parameterized (P45xx) verdict vs bounded exploration "
             "(async, symmetry+por):", "",
             f"{'protocol':<12} {'static verdict':<22} {'flows':>6} "
             f"{'cutoff':>7}  exploration n=2..4"]
    for r, cells in rows:
        explored = ", ".join(
            f"n={c['n']}:{c['verdict']}({c['n_states']})" for c in cells)
        lines.append(f"{r['protocol']:<12} {r['static_verdict']:<22} "
                     f"{r['n_flows']:>6} "
                     f"{str(r['stabilizes_at']):>7}  {explored}")
    lines.append("")
    lines.append("the static verdict is checked on the one-concrete-remote "
                 "+ Other abstraction and assumes no cutoff; 'unknown' "
                 "cells hit the pinned budget without finding a deadlock.")
    write_report(results_dir, "cutoff.txt", "\n".join(lines))

    # -- acceptance assertions -----------------------------------------------
    for r, cells in rows:
        assert r["discharged"], r["protocol"]
        assert r["complete_cover"], r["protocol"]
        assert r["agreement"], f"unsound verdict on {r['protocol']}"
        assert r["stabilizes_at"] == 2, r["protocol"]
        # n=2 and n=3 must land in budget with a definite verdict
        assert all(c["verdict"] == "no-deadlock"
                   for c in cells[:2]), r["protocol"]

    benchmark(lambda: check_parameterized(LIBRARY_PROTOCOLS["migratory"]()))
