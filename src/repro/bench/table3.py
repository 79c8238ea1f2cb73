"""The paper's Table 3: its twelve cells and the one renderer of their rows.

The paper reports, for the migratory (N = 2, 4, 8) and invalidate
(N = 2, 4, 6) protocols, the number of states visited and the time taken
by SPIN's reachability analysis of the rendezvous and asynchronous
versions, under a 64 MB memory limit that renders the larger asynchronous
runs "Unfinished"::

    Protocol    N   Asynchronous protocol   Rendezvous protocol
    Migratory   2   23163/2.84              54/0.1
                4   Unfinished              235/0.4
                8   Unfinished              965/0.5
    Invalidate  2   193389/19.23            546/0.6
                4   Unfinished              18686/2.3
                6   Unfinished              228334/18.4

Each cell here is a :class:`~repro.check.spec.SystemSpec`, swept by
``explore(build_system(spec), max_states=TABLE3_BUDGET)``: a state budget
stands in for the memory cap.  Absolute counts differ from SPIN's (the
Promela encodings are unpublished and SPIN counts statement-level
interleavings), but the paper's claims are about *shape*:

* the rendezvous protocol is verified in orders of magnitude fewer states
  than the asynchronous one at equal node count;
* asynchronous verification becomes infeasible ("Unfinished") at node
  counts where rendezvous verification remains trivial;
* the invalidate protocol is far costlier than migratory at both levels.

A swept cell is one ``repro.bench/1`` row,
``table3/<protocol>-n<N>-<level>``: the run's
:meth:`~repro.check.stats.ExplorationResult.counts` plus ``protocol``,
``n``, ``level`` and the ``paper`` cell.  ``BENCH_explore.json`` commits
them, and :func:`render_table3` formats such rows for ``repro table3``,
``benchmarks/results/table3.txt`` and EXPERIMENTS.md alike.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..check.spec import SystemSpec

__all__ = ["TABLE3_BUDGET", "TABLE3_CELLS", "render_table3"]

#: states a cell may visit before it reads "Unfinished"
TABLE3_BUDGET = 100_000

#: the paper's twelve cells, each with its published ``states/seconds``
TABLE3_CELLS: tuple[tuple[SystemSpec, str], ...] = tuple(
    (SystemSpec(protocol, level, n), paper)
    for protocol, n, papers in (
        ("migratory", 2, ("23163/2.84", "54/0.1")),
        ("migratory", 4, ("Unfinished", "235/0.4")),
        ("migratory", 8, ("Unfinished", "965/0.5")),
        ("invalidate", 2, ("193389/19.23", "546/0.6")),
        ("invalidate", 4, ("Unfinished", "18686/2.3")),
        ("invalidate", 6, ("Unfinished", "228334/18.4")),
    )
    for level, paper in zip(("async", "rendezvous"), papers))


def render_table3(rows: Sequence[dict[str, Any]],
                  budget: int = TABLE3_BUDGET) -> str:
    """Format Table 3 rows, measured states beside the paper's cells."""
    cells = {(r["protocol"], r["n"], r["level"]): r for r in rows}

    def measured(protocol: str, n: int, level: str) -> str:
        row = cells[(protocol, n, level)]
        return str(row["n_states"]) if row["completed"] else "Unfinished"

    header = (
        f"{'Protocol':<11} {'N':>2}   "
        f"{'Async (measured)':<18} {'Async (paper)':<14} "
        f"{'Rendezvous (measured)':<22} {'Rendezvous (paper)':<18}")
    lines = [
        "Table 3: states visited by reachability analysis",
        f"(state budget {budget} standing in for the paper's 64 MB cap;",
        " the paper's cells are states/seconds)",
        "",
        header,
        "-" * len(header),
    ]
    for protocol, n in dict.fromkeys((r["protocol"], r["n"]) for r in rows):
        lines.append(
            f"{protocol.capitalize():<11} {n:>2}   "
            f"{measured(protocol, n, 'async'):<18} "
            f"{cells[(protocol, n, 'async')]['paper']:<14} "
            f"{measured(protocol, n, 'rendezvous'):<22} "
            f"{cells[(protocol, n, 'rendezvous')]['paper']}")
    return "\n".join(lines)
