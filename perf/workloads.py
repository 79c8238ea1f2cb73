"""The benchmark's workloads: fixed ``repro`` command lines, nothing else.

Every workload is a batch of CLI commands that one child interpreter runs
back to back through ``repro.cli.main(argv)`` (closed loop, one command at
a time, no threads — the host has two cores).  The table is data: the
runner, the priming pass, the traced pass and ``--regen-expected`` all read
the same ``argv`` lists, through the program's own argument parser, so no
second description of a command exists anywhere.

Only flags ROADMAP does not schedule for removal appear here (``--level -n
--engine --store --symmetry --por --partitions --spill-dir
--spill-threshold --budget --until --write-fraction --seed --json --strict
--progress``).

Sizes.  The builder's driver makes 4 + 22 x 6 runs and all of them must end
within 3420 s, i.e. ~25 s per run including set-up, and a run has to hold
several children to report a median.  So each child is sized at 2-4 s on
the seed host: the two unreduced sweeps run the paper's invalidate n=3 cell
up to a fixed state budget (a Table 3 "Unfinished" cell: exit code 1 is the
*expected* verdict there, and the truncation point is exact and identical
in every engine, store and driver), everything else completes.

``{seed}`` in an argv is replaced by the simulator seed (benchmark seed
modulo :data:`SIM_SEEDS`, so every seed has a committed reference) and
``{spill}`` by a fresh directory inside the run's scratch space.
"""

from __future__ import annotations

from dataclasses import dataclass

#: simulator seeds with committed reference completions in expected.json
SIM_SEEDS = 8


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``slug`` names its ``cmd_s.<slug>`` metric."""

    slug: str
    argv: tuple[str, ...]
    #: seconds the command takes on the seed host; 10x is its time limit
    ref_s: float
    #: the same command cut down for ``--smoke`` (None: run it as it is)
    smoke_argv: tuple[str, ...] | None = None

    def resolve(self, *, sim_seed: int, spill_dir: str,
                smoke: bool = False) -> list[str]:
        argv = self.smoke_argv if smoke and self.smoke_argv else self.argv
        return [a.format(seed=sim_seed, spill=spill_dir) for a in argv]


@dataclass(frozen=True)
class Workload:
    name: str
    #: one line: why this workload is in the benchmark (BENCHMARK.json)
    why: str
    commands: tuple[Command, ...]


def _cmd(slug: str, line: str, ref_s: float, smoke: str | None = None,
         ) -> Command:
    return Command(slug, tuple(line.split()), ref_s,
                   tuple(smoke.split()) if smoke else None)


_FULL = ("check invalidate --level async -n 3 --engine compiled "
         "--store fingerprint --budget {budget}")
_SPILL = (_FULL + " --partitions 4 --spill-dir {{spill}} "
          "--spill-threshold {threshold}")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "sweep_full",
        "unreduced async sweep (compiled engine, fingerprint store): step "
        "engine and store dominate, symmetry and POR are bypassed",
        (_cmd("check-invalidate-n3-full",
              _FULL.format(budget=70000), 2.9,
              _FULL.format(budget=3000)),)),
    Workload(
        "sweep_reduced",
        "the same sweep under symmetry + POR, to completion: orbit "
        "normalization dominates, step engine and store matter little",
        (_cmd("check-invalidate-n3-sym-por",
              "check invalidate --level async -n 3 --symmetry --por "
              "--engine compiled --store fingerprint", 3.9,
              "check invalidate --level async -n 3 --symmetry --por "
              "--engine compiled --store fingerprint --budget 1500"),)),
    Workload(
        "sweep_spill",
        "sweep_full through the 4-partition store with its disk tier: "
        "sorted-file merges beside bit-filter and mmap probes",
        (_cmd("check-invalidate-n3-spill",
              _SPILL.format(budget=70000, threshold=4096), 3.6,
              _SPILL.format(budget=3000, threshold=256)),)),
    Workload(
        "verify_oracle",
        "default user path and ground truth: interpreted engine, exact "
        "store with traces, invariants, progress and Equation-1 analyses",
        (_cmd("verify-msi-n2-sym-por",
              "verify msi --level async -n 2 --symmetry --por", 2.0,
              "verify msi --level async -n 2 --symmetry --por "
              "--budget 800"),
         _cmd("verify-invalidate-n2-progress",
              "verify invalidate --level async -n 2 --progress", 1.4,
              "verify invalidate --level async -n 2 --progress "
              "--budget 800"),
         _cmd("soundness-invalidate-n2",
              "soundness invalidate -n 2", 1.4,
              "soundness migratory -n 2"))),
    Workload(
        "static_all",
        "the any-N static verdicts CI runs on every push (lint, flows, "
        "paramverify): only analysis.* works, the explorer is idle",
        (_cmd("lint-invalidate", "lint invalidate --json", 2.2,
              "lint migratory --json"),
         _cmd("flows-all", "flows all --json --strict", 0.4),
         _cmd("paramverify-msi", "paramverify msi --json --strict", 1.1,
              "paramverify migratory --json --strict"))),
    Workload(
        "simulate_mix",
        "discrete-event simulator walking interpreted steps() along one "
        "path, write-hot line beside a read-mostly mix; stores bypassed",
        (_cmd("simulate-migratory-hot",
              "simulate migratory -n 8 --workload hot --until 3000 "
              "--seed {seed}", 1.5,
              "simulate migratory -n 8 --workload hot --until 300 "
              "--seed {seed}"),
         _cmd("simulate-invalidate-mix",
              "simulate invalidate -n 8 --until 3000 --write-fraction 0.2 "
              "--seed {seed}", 1.9,
              "simulate invalidate -n 8 --until 300 --write-fraction 0.2 "
              "--seed {seed}"))),
)}
