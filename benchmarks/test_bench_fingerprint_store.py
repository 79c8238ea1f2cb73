"""Experiment (infrastructure): hash compaction, measured against the exact
store.

The Table 3 "Unfinished" cells are memory deaths, so the remedy lives in
the visited store.  What is asserted: bit-identical state/transition
counts — including budget-truncated runs — between the exact and the
fingerprint store, no detected collision, and a smaller metered
footprint.  The fingerprint run is also profiled through
:class:`repro.check.observe.JsonProfileWriter`, so
``benchmarks/results/`` carries a machine-readable per-level trace
(frontier sizes, states/sec, dedup ratio, memory) alongside the prose
report.
"""

from __future__ import annotations

from conftest import write_report

from repro.check.explorer import explore
from repro.check.observe import JsonProfileWriter
from repro.check.spec import SystemSpec, build_system


def test_fingerprint_store_memory(results_dir, state_budget, time_budget):
    """Hash compaction: same counts as the exact store, a fraction of the
    memory — the Table 3 'Unfinished' rows are a memory cliff, and this
    is the standard SPIN-style remedy."""
    spec = SystemSpec(protocol="migratory", level="async", n_remotes=3)
    system = build_system(spec)
    budgets = dict(max_states=state_budget, max_seconds=time_budget)

    exact = explore(system, name="bench-exact", **budgets)
    fp_profile = results_dir / "fingerprint_store_profile.json"
    compact = explore(build_system(spec), name="bench-fingerprint",
                      store="fingerprint",
                      observer=JsonProfileWriter(fp_profile), **budgets)

    assert compact.n_states == exact.n_states
    assert compact.n_transitions == exact.n_transitions
    assert compact.deadlock_count == exact.deadlock_count
    assert compact.stop_reason == exact.stop_reason
    assert compact.fingerprint_collisions == 0
    assert 0 < compact.approx_bytes < exact.approx_bytes

    ratio = exact.approx_bytes / compact.approx_bytes
    report = "\n".join([
        "Fingerprint (hash-compaction) store vs exact store "
        "(async migratory, n=3):",
        "",
        f"  states: {exact.n_states} (identical counts, "
        f"{compact.fingerprint_collisions} detected collisions)",
        f"  exact store:       ~{exact.approx_bytes:,} bytes",
        f"  fingerprint store: ~{compact.approx_bytes:,} bytes",
        f"  compaction: {ratio:.1f}x smaller",
        "  per-level profile: fingerprint_store_profile.json",
    ])
    write_report(results_dir, "fingerprint_store.txt", report)
