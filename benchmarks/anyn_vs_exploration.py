"""ROADMAP 1: is a P45xx any-N discharge ever refuted by exploration?

``check_parameterized`` stamps ``deadlock-free-any-N`` on a protocol; a
deadlock at any node count refutes that.  This script asks the
explicit-state explorer, over random protocols of the differential
tests' ``SMALL`` shape:

    PYTHONPATH=src python benchmarks/anyn_vs_exploration.py --seeds 10000

For every seed it takes the static verdict and, for discharges only,
runs ``explore(RendezvousSystem(p, n))`` at n = 2..5 (n = 5 because the
deadlocks of seed 870 depend on the parity of N: 3 and 5, not 4).  It
prints the number of discharges, the refuted ones with the node counts
that deadlock, and how the discharged set differs from the parent
commit's (``benchmarks/results/anyn_parent_discharges.txt``: the 882
seeds below 10,000 that discharged while generated flow invariants,
flow cover and interior mutual exclusion still blocked a discharge).
Exit status 1 on any refutation (CI runs ``--seeds 10000``);
completeness is reported, not gated.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.paramcheck import check_parameterized
from repro.check.explorer import explore
from repro.gen import GeneratorParams, random_protocol
from repro.semantics.rendezvous import RendezvousSystem

SMALL = GeneratorParams(n_remote_states=3, n_home_states=3,
                        n_remote_msgs=2, n_home_msgs=2)
SIZES = (2, 3, 4, 5)
BUDGET = 50_000
PARENT = Path(__file__).parent / "results" / "anyn_parent_discharges.txt"


def deadlocking_sizes(protocol) -> list[int]:
    sizes = []
    for n in SIZES:
        result = explore(RendezvousSystem(protocol, n),
                         name=f"{protocol.name}-oracle-{n}",
                         max_states=BUDGET)
        if result.deadlock_count or not result.completed:
            sizes.append(n)  # a truncated oracle proves nothing: count it
    return sizes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10_000,
                        help="random-protocol seeds 0..N-1 (default 10000)")
    args = parser.parse_args(argv)

    discharged, refuted = [], {}
    for seed in range(args.seeds):
        protocol = random_protocol(seed, SMALL)
        if not check_parameterized(protocol).discharged:
            continue
        discharged.append(seed)
        sizes = deadlocking_sizes(protocol)
        if sizes:
            refuted[seed] = sizes

    print(f"seeds 0..{args.seeds - 1}: {len(discharged)} discharged, "
          f"{len(refuted)} refuted at n = {SIZES[0]}..{SIZES[-1]}")
    for seed, sizes in refuted.items():
        print(f"  seed {seed}: deadlock at n = "
              f"{', '.join(map(str, sizes))}")
    parent = {int(s) for s in PARENT.read_text().split()
              if int(s) < args.seeds}
    new = sorted(set(discharged) - parent)
    first = f" (first ten: {', '.join(map(str, new[:10]))})" if new else ""
    print(f"parent commit: {len(parent)} discharged; "
          f"{len(parent.difference(discharged))} of them no longer, "
          f"{len(new)} new{first}")
    return 1 if refuted else 0


if __name__ == "__main__":
    sys.exit(main())
