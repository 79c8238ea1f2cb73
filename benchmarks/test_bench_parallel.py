"""Experiment (infrastructure): multi-process exploration, measured honestly.

The owner-computes driver shards the visited set across worker
processes and exchanges cross-partition successors once per BFS level.
In CPython the per-state successor computation is microseconds while
inter-process pickling is not, so the split only pays on hosts with real
cores and on spaces with large frontiers.  Following the
optimisation-guide adage ("no optimisation without measuring"), this
benchmark records the actual speedup on the current host rather than
asserting one, and the report says "wins" or "loses" from the measured
ratio.

What *is* asserted: bit-identical state/transition counts between the
sequential and owner-computes drivers — including budget-truncated runs
— and between the exact and fingerprint stores; those are the
correctness contracts that make the drivers usable at all.  Each run is
also profiled through :class:`repro.check.observe.JsonProfileWriter`,
so ``benchmarks/results/`` carries machine-readable per-level traces
(frontier sizes, states/sec, dedup ratio, memory) alongside the prose
report.
"""

from __future__ import annotations

import json
import os
import time

from conftest import write_report

from repro.check.explorer import explore
from repro.check.observe import JsonProfileWriter
from repro.check.partitioned import explore_partitioned
from repro.check.spec import SystemSpec, build_system


def test_parallel_matches_and_measures(benchmark, results_dir, state_budget,
                                       time_budget):
    spec = SystemSpec(protocol="migratory", level="async", n_remotes=4)
    budgets = dict(max_states=state_budget, max_seconds=time_budget)

    seq_profile = results_dir / "parallel_explorer_seq_profile.json"
    t0 = time.perf_counter()
    sequential = explore(build_system(spec), name="bench-sequential",
                         observer=JsonProfileWriter(seq_profile), **budgets)
    t_seq = time.perf_counter() - t0

    partitions = max(2, (os.cpu_count() or 1))
    par_profile = results_dir / "parallel_explorer_par_profile.json"
    t0 = time.perf_counter()
    parallel = explore_partitioned(spec, partitions=partitions,
                                   observer=JsonProfileWriter(par_profile),
                                   **budgets)
    t_par = time.perf_counter() - t0

    assert parallel.n_states == sequential.n_states
    assert parallel.n_transitions == sequential.n_transitions
    assert parallel.deadlock_count == sequential.deadlock_count
    assert parallel.stop_reason == sequential.stop_reason
    assert parallel.approx_bytes > 0

    levels = json.loads(par_profile.read_text())["levels"]
    peak_frontier = max((lvl["frontier"] for lvl in levels), default=0)

    speedup = t_seq / t_par if t_par else float("inf")
    verdict = ("owner-computes wins" if speedup > 1.1 else
               "owner-computes loses (per-level batch pickling outweighs "
               "microsecond state expansions on this host)")
    report = "\n".join([
        "Owner-computes partitioned exploration (async migratory, n=4):",
        "",
        f"  host cpus: {os.cpu_count()}",
        f"  budget: {state_budget} states / {time_budget}s",
        f"  sequential: {sequential.n_states} states in {t_seq:.2f}s",
        f"  owner-computes ({partitions} partitions): "
        f"{parallel.n_states} states in {t_par:.2f}s",
        f"  peak frontier: {peak_frontier} states across "
        f"{len(levels)} levels",
        f"  speedup: {speedup:.2f}x -> {verdict}",
        "  per-level profiles: parallel_explorer_seq_profile.json, "
        "parallel_explorer_par_profile.json",
    ])
    write_report(results_dir, "parallel_explorer.txt", report)

    benchmark.pedantic(lambda: explore(build_system(spec), **budgets),
                       iterations=1, rounds=1)


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
