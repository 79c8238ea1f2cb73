"""Is an any-N discharge (P45xx or P46xx) ever refuted by exploration?

``check_parameterized`` stamps ``deadlock-free-any-N`` on a protocol and
``check_coherence`` stamps single-writer/SWMR ``discharged``; a deadlock
or a coherence violation at any node count refutes that.  This script
asks the explicit-state explorer, over random protocols of the
differential tests' ``SMALL`` shape:

    PYTHONPATH=src python benchmarks/anyn_vs_exploration.py --seeds 10000

Three legs, each timed:

1. **P45xx discharges** (gated).  Every discharge is explored with
   ``explore(RendezvousSystem(p, n))`` at n = 2..5 (n = 5 because the
   deadlocks of seed 870 depend on the parity of N: 3 and 5, not 4).
   It prints the refuted seeds with the node counts that deadlock, and
   how the discharged set differs from
   ``benchmarks/results/anyn_parent_discharges.txt`` (the 882 seeds below
   10,000 that discharged while generated flow invariants, flow cover
   and interior mutual exclusion still blocked a discharge).
2. **P45xx refusals** (reported, not gated).  Every refusal is explored
   at n = 2..5 too; the ones with no deadlock and no truncated oracle at
   any of them are counted per obligation code they carry ("refused but
   deadlock-free") — how far the verdict is from complete.
3. **P46xx discharges** (gated).  Per seed and ``k`` in {0, 1}, a coherence
   spec is synthesized over the sorted remote states with
   ``random.Random(2 * seed + k)``: each state is exclusive with p = 1/2
   (one ``rng.choice`` if none is), each remaining one shared with
   p = 1/2.  ``check_coherence`` runs on every case and every discharge
   is explored at n = 2..4 under ``coherence_invariants``.  It prints the
   tallies and how the discharged set differs from
   ``benchmarks/results/coherence_parent_discharges.txt`` (``seed k``
   lines: the cases that discharged while the candidate lemmas came
   from the flow graph).

Exit status 1 on any refuted discharge — a deadlock, a coherence
violation, or an oracle truncated at its 50,000-state budget (CI runs
``--seeds 10000``); completeness is reported, not gated.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

from repro.analysis.coherencecheck import check_coherence
from repro.analysis.paramcheck import check_parameterized
from repro.check.explorer import explore
from repro.gen import GeneratorParams, random_protocol
from repro.protocols.invariants import CoherenceSpec, coherence_invariants
from repro.semantics.rendezvous import RendezvousSystem

SMALL = GeneratorParams(n_remote_states=3, n_home_states=3,
                        n_remote_msgs=2, n_home_msgs=2)
SIZES = (2, 3, 4, 5)
COHERENCE_SIZES = (2, 3, 4)
BUDGET = 50_000
RESULTS = Path(__file__).parent / "results"
PARENT = RESULTS / "anyn_parent_discharges.txt"
COHERENCE_PARENT = RESULTS / "coherence_parent_discharges.txt"
#: the differential test's exhaustive range (test_flows_differential.py)
TEST_SEEDS = 1500


def deadlocks(protocol, n: int) -> bool:
    """A deadlock at ``n`` nodes, or an oracle that could not rule one
    out (a truncated run proves nothing: it counts)."""
    result = explore(RendezvousSystem(protocol, n),
                     name=f"{protocol.name}-oracle-{n}", max_states=BUDGET)
    return bool(result.deadlock_count) or not result.completed


def synthesized_spec(protocol, seed: int, k: int) -> CoherenceSpec:
    rng = random.Random(2 * seed + k)
    states = sorted(protocol.remote.states)
    exclusive = ({s for s in states if rng.random() < 0.5}
                 or {rng.choice(states)})
    shared = {s for s in states
              if s not in exclusive and rng.random() < 0.5}
    return CoherenceSpec(name=protocol.name, exclusive=frozenset(exclusive),
                         shared=frozenset(shared))


def coherence_oracle(protocol, spec, n: int) -> str | None:
    """``"violated"``, ``"truncated"`` or ``None`` at ``n`` nodes."""
    result = explore(RendezvousSystem(protocol, n),
                     name=f"{protocol.name}-coherence-oracle-{n}",
                     invariants=list(coherence_invariants(spec)),
                     allow_deadlock=True, max_states=BUDGET)
    if result.violations:
        return "violated"
    return None if result.completed else "truncated"


def parent_diff(parent: set, discharged: list, show=str) -> str:
    new = sorted(set(discharged) - parent)
    first = (f" (first ten: {', '.join(map(show, new[:10]))})"
             if new else "")
    return (f"parent commit: {len(parent)} discharged; "
            f"{len(parent.difference(discharged))} of them no longer, "
            f"{len(new)} new{first}")


def deadlock_legs(seeds: int) -> bool:
    """Legs 1 and 2; True when a discharge was refuted."""
    t0 = time.perf_counter()
    discharged, refuted = [], {}
    refused = 0
    free: list[tuple[int, set[str]]] = []  # refused, no deadlock found
    for seed in range(seeds):
        protocol = random_protocol(seed, SMALL)
        verdict = check_parameterized(protocol)
        if not verdict.discharged:
            refused += 1
            if not any(deadlocks(protocol, n) for n in SIZES):
                free.append((seed, {d.code for d in verdict.obligations}))
            continue
        discharged.append(seed)
        sizes = [n for n in SIZES if deadlocks(protocol, n)]
        if sizes:
            refuted[seed] = sizes
    elapsed = time.perf_counter() - t0

    print(f"P45xx, seeds 0..{seeds - 1}: {len(discharged)} discharged, "
          f"{len(refuted)} refuted at n = {SIZES[0]}..{SIZES[-1]}")
    for seed, sizes in refuted.items():
        print(f"  seed {seed}: deadlock at n = "
              f"{', '.join(map(str, sizes))}")
    parent = {int(s) for s in PARENT.read_text().split() if int(s) < seeds}
    print(parent_diff(parent, discharged))
    print(f"P45xx refusals: {refused}, of them refused but "
          f"deadlock-free at n = {SIZES[0]}..{SIZES[-1]}: {len(free)} "
          f"({sum(1 for seed, _ in free if seed < TEST_SEEDS)} below "
          f"seed {TEST_SEEDS})")
    per_code = Counter(code for _, codes in free for code in codes)
    for code, count in sorted(per_code.items()):
        print(f"  {code}: {count}")
    print(f"P45xx legs: {elapsed:.1f} s")
    return bool(refuted)


def coherence_leg(seeds: int) -> bool:
    """Leg 3; True when a discharge was refuted or its oracle truncated."""
    t0 = time.perf_counter()
    status: Counter[str] = Counter()
    discharged: list[tuple[int, int]] = []
    failed: dict[tuple[int, int], str] = {}
    for seed in range(seeds):
        protocol = random_protocol(seed, SMALL)
        for k in (0, 1):
            spec = synthesized_spec(protocol, seed, k)
            verdict = check_coherence(protocol, spec)
            status[verdict.status] += 1
            if not verdict.discharged:
                continue
            discharged.append((seed, k))
            for n in COHERENCE_SIZES:
                outcome = coherence_oracle(protocol, spec, n)
                if outcome is not None:
                    failed[(seed, k)] = f"{outcome} at n = {n}"
                    break
    elapsed = time.perf_counter() - t0

    print(f"P46xx, seeds 0..{seeds - 1} x 2 specs: "
          f"{status['discharged']} discharged, {status['refuted']} refuted, "
          f"{status['inconclusive']} inconclusive; {len(failed)} "
          f"discharge(s) violated or truncated at n = "
          f"{COHERENCE_SIZES[0]}..{COHERENCE_SIZES[-1]}")
    for (seed, k), what in failed.items():
        print(f"  seed {seed} spec {k}: {what}")
    parent = set()
    for line in COHERENCE_PARENT.read_text().splitlines():
        seed, k = map(int, line.split())
        if seed < seeds:
            parent.add((seed, k))
    print(parent_diff(parent, discharged,
                      show=lambda case: f"seed {case[0]} spec {case[1]}"))
    print(f"P46xx leg: {elapsed:.1f} s")
    return bool(failed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10_000,
                        help="random-protocol seeds 0..N-1 (default 10000)")
    args = parser.parse_args(argv)
    refuted = deadlock_legs(args.seeds)
    refuted = coherence_leg(args.seeds) or refuted
    return 1 if refuted else 0


if __name__ == "__main__":
    sys.exit(main())
