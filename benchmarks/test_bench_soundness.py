"""Experiment: the section 4 soundness theorem, machine-checked.

The paper argues Equation 1 (every asynchronous step is a stutter or maps
to a rendezvous step under the abstraction function) by case analysis; we
verify it exhaustively for every library protocol and report the cost of
doing so — which doubles as a measurement of how much cheaper the paper's
way (verify the rendezvous protocol, trust the theorem) is than the
traditional way (verify the asynchronous protocol directly).
"""

from __future__ import annotations

from conftest import write_report

from repro.check.simulation import check_simulation
from repro.protocols.invalidate import invalidate_protocol
from repro.protocols.mesi import mesi_protocol
from repro.protocols.migratory import migratory_protocol
from repro.protocols.msi import msi_protocol
from repro.refine.engine import refine
from repro.refine.plan import RefinementConfig
from repro.semantics.asynchronous import AsyncSystem


def test_simulation_holds_for_all_protocols(benchmark, results_dir):
    lines = ["Equation 1 (weak simulation) checked exhaustively:", ""]
    for name, build, n in (("migratory", migratory_protocol, 2),
                           ("invalidate", invalidate_protocol, 2),
                           ("msi", msi_protocol, 2),
                           ("mesi", mesi_protocol, 2)):
        refined = refine(build())
        report = check_simulation(AsyncSystem(refined, n))
        lines.append(f"  {name} (n={n}): {report.describe().splitlines()[0]}")
        assert report.ok
    write_report(results_dir, "soundness_simulation.txt", "\n".join(lines))

    refined = refine(migratory_protocol())
    benchmark.pedantic(lambda: check_simulation(AsyncSystem(refined, 2)),
                       iterations=1, rounds=3)


def test_plain_refinement_satisfies_exact_equation(benchmark, results_dir):
    """Without fusion the literal one-step Equation 1 holds; with fusion
    the home-initiated pairs need the two-step form (a finding of this
    reproduction, recorded in EXPERIMENTS.md)."""
    plain = refine(migratory_protocol(), RefinementConfig(use_reqreply=False))
    fused = refine(migratory_protocol())

    exact = check_simulation(AsyncSystem(plain, 2), max_depth=1)
    shallow_fused = check_simulation(AsyncSystem(fused, 2), max_depth=1)
    deep_fused = check_simulation(AsyncSystem(fused, 2), max_depth=2)

    lines = [
        "Equation 1 step-depth analysis:",
        "",
        f"  plain refinement, depth 1: "
        f"{'HOLDS' if exact.ok else 'FAILS'}",
        f"  fused refinement, depth 1: "
        f"{'HOLDS' if shallow_fused.ok else 'FAILS'} "
        f"(expected to fail: responder C3 completes two rendezvous)",
        f"  fused refinement, depth 2: "
        f"{'HOLDS' if deep_fused.ok else 'FAILS'} "
        f"({deep_fused.n_mapped_deep} two-step edges)",
    ]
    write_report(results_dir, "soundness_depth.txt", "\n".join(lines))

    assert exact.ok
    assert not shallow_fused.ok
    assert deep_fused.ok and deep_fused.n_mapped_deep > 0

    benchmark(lambda: check_simulation(AsyncSystem(plain, 2), max_depth=1))
