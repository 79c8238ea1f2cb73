"""Experiment (extension): parameterized coherence vs exploration.

Writes the repo-level ``BENCH_param.json`` artifact — the committed,
CI-compared record of the environment-abstraction coherence analysis
(``P46xx``) cross-checked against bounded exploration (``repro.bench/1``
rows from ``conftest.bench_row``: one ``<protocol>`` row of static
facts, one ``<protocol>/n<N>`` row per explored size).  For every
library protocol:

* the **static verdict** of :func:`repro.analysis.coherencecheck
  .check_coherence` — discharge status, how many candidate lemmas
  there were, how many held on the abstraction (``validated``) and gate
  its Other (``n_lemmas``), sweeps and abstract state count;
* the **exploration verdicts** for single-writer/SWMR on the derived
  asynchronous protocol at n = 2..4 under symmetry + partial-order
  reduction, at a pinned state budget (``REPRO_BENCH_PARAM_BUDGET``,
  default 120000 — higher than the cutoff bench because preserving the
  coherence invariants weakens the ample-set reduction; enough to
  complete every n = 3 instance, while n = 4 completes only for
  migratory and is recorded ``unknown`` elsewhere) so every count is
  bit-reproducible and ``compare_bench.py`` holds it to exact equality
  in CI.

The acceptance claims asserted here:

* all four library protocols discharge single-writer and SWMR for
  arbitrary N;
* zero unsound cells: a discharged protocol never shows a bounded
  coherence violation at n <= 4;
* n = 2 and n = 3 complete within budget with a definite verdict.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from conftest import bench_row, write_bench, write_report

from repro import AsyncSystem, refine
from repro.analysis.coherencecheck import check_coherence
from repro.check.explorer import explore
from repro.check.por import PRESERVE_INVARIANTS, PORSystem
from repro.check.symmetry import SymmetricSystem
from repro.protocols import LIBRARY_PROTOCOLS
from repro.protocols.invariants import COHERENCE_SPECS, coherence_invariants
from repro.protocols.symmetry import symmetry_spec_for

BENCH_PATH = Path(__file__).parent.parent / "BENCH_param.json"

SIZES = (2, 3, 4)


@pytest.fixture(scope="module")
def param_budget() -> int:
    # pinned independently of REPRO_BENCH_BUDGET: the committed
    # BENCH_param.json must be reproducible on any machine
    return int(os.environ.get("REPRO_BENCH_PARAM_BUDGET", "120000"))


def explore_cell(name: str, n: int, budget: int) -> dict:
    # composed like `repro verify --level async --por --symmetry`: the
    # invariants ride through POR via the preserve hook
    invariants = list(coherence_invariants(COHERENCE_SPECS[name]))
    system = SymmetricSystem(
        PORSystem(AsyncSystem(refine(LIBRARY_PROTOCOLS[name]()), n),
                  preserve=PRESERVE_INVARIANTS),
        symmetry_spec_for(name))
    result = explore(system, name=f"{name}-param-{n}",
                     invariants=invariants, max_states=budget,
                     stop_on_violation=False, allow_deadlock=True,
                     reductions=("por", "symmetry"))
    if result.violations:
        verdict = "violated"  # definite even on a truncated run
    elif result.completed:
        verdict = "coherent"
    else:
        verdict = "unknown"
    return bench_row(f"{name}/n{n}", result, n=n, verdict=verdict)


def test_bench_param(benchmark, results_dir, param_budget):
    rows = []
    for name, factory in sorted(LIBRARY_PROTOCOLS.items()):
        protocol = factory()
        verdict = check_coherence(protocol, COHERENCE_SPECS[name])
        cells = [explore_cell(name, n, param_budget) for n in SIZES]
        bounded_violation = any(c["verdict"] == "violated" for c in cells)
        rows.append((bench_row(
            name,
            protocol=name,
            static_verdict=verdict.status,
            discharged=verdict.discharged,
            candidates=verdict.candidates,
            validated=verdict.validated,
            n_lemmas=len(verdict.lemmas),
            iterations=verdict.iterations,
            abstract_states=verdict.abstract_states,
            agreement=not (verdict.discharged and bounded_violation),
        ), cells))

    write_bench(BENCH_PATH, param_budget,
                [row for r, cells in rows for row in (r, *cells)])

    # -- human-readable summary ----------------------------------------------
    lines = ["Parameterized coherence (P46xx) verdict vs bounded "
             "exploration (async, symmetry+por):", "",
             f"{'protocol':<12} {'static verdict':<14} {'lemmas':>6} "
             f"{'iters':>5} {'abs.states':>10}  exploration n=2..4"]
    for r, cells in rows:
        explored = ", ".join(
            f"n={c['n']}:{c['verdict']}({c['n_states']})" for c in cells)
        lines.append(f"{r['protocol']:<12} {r['static_verdict']:<14} "
                     f"{r['n_lemmas']:>6} {r['iterations']:>5} "
                     f"{r['abstract_states']:>10}  {explored}")
    lines.append("")
    lines.append("a 'discharged' static verdict is an any-N theorem via the "
                 "two-concrete-remotes + Other abstraction; 'unknown' cells "
                 "hit the pinned budget without finding a violation.")
    write_report(results_dir, "param.txt", "\n".join(lines))

    # -- acceptance assertions -----------------------------------------------
    for r, cells in rows:
        assert r["discharged"], r["protocol"]
        assert r["validated"] == r["candidates"], r["protocol"]
        assert r["agreement"], f"unsound verdict on {r['protocol']}"
        # n=2 and n=3 must land in budget with a definite verdict
        assert all(c["verdict"] == "coherent"
                   for c in cells[:2]), r["protocol"]

    benchmark(lambda: check_coherence(LIBRARY_PROTOCOLS["migratory"](),
                                      COHERENCE_SPECS["migratory"]))
