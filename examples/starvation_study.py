#!/usr/bin/env python3
"""Fairness study: weak fairness, starvation windows, and buying them off.

Paper sections 2.5 and 6: the refinement guarantees that *some* remote
always makes progress with only a 2-slot home buffer; guaranteeing that
*every* remote progresses (strong fairness) would need a buffer of n — and
the practical middle ground is a shared pool sized by the CPU's maximum
outstanding transactions.

This study makes those trade-offs concrete on an 8-node hot line:

1. k=2: the system hums along (weak fairness) but individual nodes see
   long waits between successes and plenty of nacks;
2. k=n with reservations off: the home never nacks, and per-node service
   evens out — the section 6 configuration;
3. the model checker backs the simulator: progress (no livelock) holds for
   k=2, and the async state space grows only mildly with k.

Run:  python examples/starvation_study.py
"""

from repro import (
    AsyncSystem,
    RefinementConfig,
    check_progress,
    migratory_protocol,
    refine,
)
from repro.sim import HotLineWorkload, Simulator

NODES = 8
HORIZON = 80_000.0


def run(k: int, reserve: bool, seed: int = 21):
    refined = refine(migratory_protocol(), RefinementConfig(
        home_buffer_capacity=k,
        reserve_progress_buffer=reserve,
        reserve_ack_buffer=reserve))
    sim = Simulator(refined, NODES, HotLineWorkload(seed=seed), seed=seed)
    return sim.run(until=HORIZON)


def main() -> None:
    print(f"hot line, {NODES} nodes, horizon {HORIZON:.0f}\n")
    print(f"{'config':<24} {'total':>7} {'min/node':>9} {'max/node':>9} "
          f"{'Jain':>6} {'worst wait':>11} {'nacks':>7}")
    for label, k, reserve in (("k=2 (paper minimum)", 2, True),
                              ("k=4", 4, True),
                              ("k=n, no reservations", NODES, False)):
        metrics = run(k, reserve)
        per_node = [metrics.completions_by_remote.get(i, 0)
                    for i in range(NODES)]
        worst = max(metrics.longest_wait.values(), default=0.0)
        print(f"{label:<24} {metrics.total_completions:>7} "
              f"{min(per_node):>9} {max(per_node):>9} "
              f"{metrics.fairness:>6.3f} {worst:>11.0f} "
              f"{metrics.messages_by_kind.get('NACK', 0):>7}")

    print("\nmodel-checked guarantees behind those numbers:")
    for k, reserve in ((2, True), (4, True)):
        refined = refine(migratory_protocol(), RefinementConfig(
            home_buffer_capacity=k,
            reserve_progress_buffer=reserve,
            reserve_ack_buffer=reserve))
        # the progress sweep is the reachability sweep: its state count
        # is the async state space
        progress = check_progress(AsyncSystem(refined, 3))
        print(f"  k={k}: {progress.describe()} "
              f"(async state space at n=3: {progress.n_states})")

    print("\npaper section 6 sizing: strong fairness per line via a shared "
          "pool of\n  64 nodes x 8 outstanding + 1 = 513 slots "
          "(vs 65536 for naive per-line buffers)")


if __name__ == "__main__":
    main()
