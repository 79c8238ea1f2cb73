"""Experiment (extension): what each state-space reduction buys.

Writes the repo-level ``BENCH_explore.json`` artifact — the committed,
CI-compared record of explored state counts and reduction effectiveness
on the paper's two protocols — plus the human-readable
``benchmarks/results/por_reduction.txt`` summary.

Rows are ``repro.bench/1`` rows (``conftest.bench_row``): deterministic
facts only, no timing — ``perf/`` owns time.  Two groups with two
regeneration policies:

* ``runs/...`` — every (protocol, n, config) cell explored at a *pinned*
  state budget (``REPRO_BENCH_EXPLORE_BUDGET``, default 4000, exact
  store).  BFS order is deterministic, so every fact in these rows is
  bit-reproducible across machines and Python versions; CI regenerates
  them and ``compare_bench.py`` requires each to equal the committed
  one.
* ``headline/...`` — the *complete* explorations behind the prose claims
  (unreduced invalidate n=4 took 37 minutes).  Regenerated only under
  ``REPRO_BENCH_FULL=1``; otherwise carried over verbatim from the
  committed artifact so a default benchmark run never silently replaces
  a complete exploration with a truncated one.  The rows include the
  unreduced invalidate n=4 cell (~10^7 states), walked over a
  spill-backed fingerprint store
  (``make_store("fingerprint", spill_dir=...)``) so the visited set
  stays inside a bounded resident budget.  The ``reductions`` row holds
  the four state-reduction ratios computed from them.

The acceptance claims asserted here, against whichever headline data is
active:

* ``--por`` alone removes >= 30% of the expanded states on every
  completed library row at n >= 3 (invalidate n=3: ~44%, migratory
  n=4: ~67%);
* on invalidate n=4 — where the unreduced space (~10^7 states) is out
  of reach and symmetry is the only usable baseline — adding ``--por``
  to ``--symmetry`` removes >= 30% of the expanded states again
  (measured: ~59%), which is what turns the cell from Unfinished into
  a ~2-minute run.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import pytest
from conftest import bench_row, write_bench, write_report

from repro.check.explorer import explore
from repro.check.spec import SystemSpec, build_system
from repro.check.store import make_store

BENCH_PATH = Path(__file__).parent.parent / "BENCH_explore.json"

PROTOCOLS = ("migratory", "invalidate")
SIZES = (3, 4)
CONFIGS = {
    "full": dict(),
    "por": dict(por=True),
    "symmetry": dict(symmetry=True),
    "symmetry+por": dict(symmetry=True, por=True),
}
#: (protocol, n, config) of the complete explorations
HEADLINE_ROWS = [
    ("migratory", 3, "full"), ("migratory", 3, "por"),
    ("migratory", 4, "full"), ("migratory", 4, "por"),
    ("invalidate", 3, "full"), ("invalidate", 3, "por"),
    ("invalidate", 4, "symmetry"), ("invalidate", 4, "symmetry+por"),
    ("invalidate", 4, "full"),
]


def measure(group, protocol, n, config, *, max_states=None, store="exact"):
    spec = SystemSpec(protocol, "async", n, **CONFIGS[config])
    result = explore(build_system(spec),
                     name=f"{protocol}-{n}-{config}",
                     max_states=max_states, store=store,
                     reductions=spec.reductions())
    pruning = 0.0
    if result.n_enabled > result.n_transitions:
        pruning = 1.0 - result.n_transitions / result.n_enabled
    return bench_row(f"{group}/{protocol}-n{n}-{config}", result,
                     protocol=protocol, n=n, config=config,
                     transition_pruning=round(pruning, 4))


def headline_store(protocol, n, config):
    """Store for a full headline regeneration of one cell.

    The unreduced invalidate n=4 walk visits ~8.3M states; a plain
    fingerprint dict for it costs ~900 MB of CPython boxing.  The
    spill-backed store keeps the resident tier bounded at 4M entries
    (identical counts — the reduction-matrix suite pins that).
    """
    if (protocol, n, config) == ("invalidate", 4, "full"):
        spill = tempfile.mkdtemp(prefix="repro-bench-spill-")
        return make_store("fingerprint", spill_dir=spill,
                          spill_threshold=4_000_000)
    return "fingerprint"


def state_reduction(runs, baseline, reduced):
    """1 - reduced/baseline expanded states; None unless both completed."""
    by_key = {(r["protocol"], r["n"], r["config"]): r for r in runs}
    base, red = by_key.get(baseline), by_key.get(reduced)
    if not base or not red or not (base["completed"] and red["completed"]):
        return None
    return round(1.0 - red["n_states"] / base["n_states"], 4)


@pytest.fixture(scope="module")
def explore_budget() -> int:
    # pinned independently of REPRO_BENCH_BUDGET: the committed
    # BENCH_explore.json must be reproducible on any machine
    return int(os.environ.get("REPRO_BENCH_EXPLORE_BUDGET", "4000"))


def test_bench_explore(benchmark, results_dir, explore_budget):
    runs = [measure("runs", protocol, n, config, max_states=explore_budget)
            for protocol in PROTOCOLS for n in SIZES for config in CONFIGS]

    # -- headline: complete runs, regenerated only on request ----------------
    if os.environ.get("REPRO_BENCH_FULL") == "1":
        headline = [measure("headline", p, n, c,
                            store=headline_store(p, n, c))
                    for p, n, c in HEADLINE_ROWS]
    else:
        headline = [row for row in json.loads(BENCH_PATH.read_text())["rows"]
                    if row["id"].startswith("headline/")]

    reductions = {
        "migratory_n3_por_vs_full":
            state_reduction(headline, ("migratory", 3, "full"),
                            ("migratory", 3, "por")),
        "migratory_n4_por_vs_full":
            state_reduction(headline, ("migratory", 4, "full"),
                            ("migratory", 4, "por")),
        "invalidate_n3_por_vs_full":
            state_reduction(headline, ("invalidate", 3, "full"),
                            ("invalidate", 3, "por")),
        "invalidate_n4_por_vs_symmetry_baseline":
            state_reduction(headline, ("invalidate", 4, "symmetry"),
                            ("invalidate", 4, "symmetry+por")),
    }

    write_bench(BENCH_PATH, explore_budget,
                runs + headline + [bench_row("reductions", **reductions)])

    # -- human-readable summary ----------------------------------------------
    lines = ["Ample-set POR: expanded states, complete explorations:", "",
             f"{'protocol':<12} {'N':>3} {'config':<14} "
             f"{'states':>10} {'transitions':>12} {'pruned':>8}"]
    for r in headline:
        pruned = (f"{r['transition_pruning']:.1%}"
                  if r["transition_pruning"] else "-")
        lines.append(f"{r['protocol']:<12} {r['n']:>3} {r['config']:<14} "
                     f"{r['n_states']:>10} {r['n_transitions']:>12} "
                     f"{pruned:>8}")
    lines.append("")
    lines.append("state reduction from --por (1 - reduced/baseline):")
    for name, value in reductions.items():
        rendered = f"{value:.1%}" if value is not None else "n/a"
        lines.append(f"  {name:<44} {rendered}")
    lines.append("")
    lines.append("unreduced invalidate n=4 (~8.3M states) runs over the "
                 "spill-backed fingerprint store, which "
                 "bounds its resident memory; the n=4 POR comparison "
                 "keeps the symmetry-reduced space as baseline.")
    write_report(results_dir, "por_reduction.txt", "\n".join(lines))

    # -- acceptance assertions -----------------------------------------------
    assert reductions["invalidate_n3_por_vs_full"] >= 0.30
    assert reductions["migratory_n4_por_vs_full"] >= 0.30
    assert reductions["invalidate_n4_por_vs_symmetry_baseline"] >= 0.30
    # por prunes transitions in every async cell it is active in
    for r in runs:
        if "por" in r["config"]:
            assert r["transition_pruning"] > 0
    # reduction never grows the state count at equal budget+depth: compare
    # cumulative states only when the reduced run is complete (otherwise
    # depths differ and raw counts are not comparable)
    by_key = {(r["protocol"], r["n"], r["config"]): r for r in runs}
    for (protocol, n, config), r in by_key.items():
        if config == "por" and r["completed"]:
            full = by_key[(protocol, n, "full")]
            if full["completed"]:
                assert r["n_states"] <= full["n_states"]

    benchmark(lambda: explore(
        build_system(SystemSpec("migratory", "async", 3, por=True))))
