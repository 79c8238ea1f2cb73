"""ROADMAP 2(a): is the certificate's rooted closure ever more than the sweep?

The P44xx certificate sweeps the n = 2 asynchronous space from the
embedding of *every* rendezvous context; ``check_simulation`` (``repro
soundness -n 2``) sweeps it from the initial state.  The initial state is
always one of the roots (``closure_roots``), so the closure contains the
sweep; this script counts,
over random protocols and step-table mutants, how often it contains
*more* — a state or an edge the sweep lacks — and whether the two ever
disagree on the verdict.

    PYTHONPATH=src python benchmarks/closure_vs_sweep.py --seeds 2000

For every seed and both generator shapes (``SMALL`` of the differential
tests, and the default) it refines the protocol and compares the two
checkers on the derived table, then on ``--mutants`` single-target
``StepTable.mutate`` mutants drawn the way the certificate and coherence
differentials draw them.  Exit status 1 if a verdict differs or the
closure is ever *smaller* than the sweep (CI runs ``--seeds 200``).

Verdicts compared: on a derived table, ``CertificateReport.ok`` against
``SimulationReport.ok``.  On a mutant the certificate always reports the
static P4404, so the comparison is on the dynamic half: the sweep
convicting (a failed edge, or ``abs``/the semantics raising) while the
closure raises no P4401-P4403 is a difference; the closure convicting
where the sweep does not is the superset at work, and is counted.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter

from repro import AsyncSystem, refine
from repro.analysis.simulation import check_certificate
from repro.check.simulation import check_simulation
from repro.errors import ReproError
from repro.gen import GeneratorParams, random_protocol
from repro.refine.transitions import build_step_table

SMALL = GeneratorParams(n_remote_states=3, n_home_states=3,
                        n_remote_msgs=2, n_home_msgs=2)
SHAPES = (("SMALL", SMALL), ("default", None))
DYNAMIC = {"P4401", "P4402", "P4403"}
BUDGET = 20_000


def draw_mutants(refined, table, rng, count):
    rows = list(table)
    for _ in range(count if rows else 0):
        row = rng.choice(rows)
        process = (refined.protocol.home if row.role == "home"
                   else refined.protocol.remote)
        field = rng.choice(["rewind_to", "forward_to"])
        targets = sorted(set(process.states) - {getattr(row, field)})
        if targets:
            yield table.mutate(row.role, row.state, row.out_index,
                               **{field: rng.choice(targets)})


def compare(refined, table, mutant, tally):
    """One closure-vs-sweep comparison; returns a problem line or None."""
    report = check_certificate(refined, table=table, max_states=BUDGET)
    convicted = bool(DYNAMIC & {d.code for d in report.diagnostics})
    try:
        sim = check_simulation(AsyncSystem(refined, 2, table=table),
                               max_states=BUDGET)
    except ReproError:
        sim = None  # abs or the semantics raised: a conviction
    if not report.complete or (sim and not sim.exploration.completed):
        tally["truncated"] += 1
        return None
    tally["compared"] += 1
    if sim is None or sim.failures:
        tally["sweep convicts"] += 1
        if not convicted:
            return "sweep convicts, closure does not"
        return None  # counts stop at the first failure: not comparable
    if not mutant and not report.ok:
        return "closure convicts a derived table the sweep accepts"
    if convicted:
        tally["closure convicts alone"] += 1
    more_states = report.closure_states - sim.n_async_states
    more_edges = report.n_obligations - sim.n_edges_checked
    if more_states < 0 or more_edges < 0:
        return f"closure smaller than sweep ({more_states:+d} states, " \
               f"{more_edges:+d} edges)"
    if more_states or more_edges:
        tally["closure strictly larger"] += 1
        tally["largest surplus (states)"] = max(
            tally["largest surplus (states)"], more_states)
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=2000,
                        help="random-protocol seeds 0..N-1 (default 2000)")
    parser.add_argument("--mutants", type=int, default=4,
                        help="step-table mutants drawn per protocol")
    args = parser.parse_args(argv)

    tallies = {(shape, kind): Counter() for shape, _ in SHAPES
               for kind in ("derived", "mutant")}
    problems = []
    for seed in range(args.seeds):
        for shape, params in SHAPES:
            refined = refine(random_protocol(seed, params))
            table = build_step_table(refined)
            rng = random.Random(seed)
            cases = [("derived", table)] + [
                ("mutant", m)
                for m in draw_mutants(refined, table, rng, args.mutants)]
            for kind, case in cases:
                problem = compare(refined, case, kind == "mutant",
                                  tallies[shape, kind])
                if problem:
                    problems.append(f"seed {seed} {shape} {kind}: {problem}")

    columns = ("compared", "truncated", "closure strictly larger",
               "largest surplus (states)", "sweep convicts",
               "closure convicts alone")
    print(f"seeds 0..{args.seeds - 1}, {args.mutants} mutant(s) each")
    print("| shape | table | " + " | ".join(columns) + " |")
    print("|" + "---|" * (len(columns) + 2))
    for (shape, kind), tally in tallies.items():
        print(f"| {shape} | {kind} | "
              + " | ".join(str(tally[c]) for c in columns) + " |")
    print(f"verdict differences or smaller closures: {len(problems)}")
    for line in problems:
        print("  " + line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
