#!/usr/bin/env python3
"""The repo's standing performance benchmark.  See perf/README.md.

Two ways in:

``python perf/run.py [--seed 0] [--runs 5]``
    runs every workload in seeded-shuffled rounds, checks every verdict
    against ``perf/expected.json``, then makes one traced pass per workload,
    prints every metric by name with its unit and writes the result file
    to ``perf/out/``.  ``--aa`` does it twice and compares; ``--compare a b``
    compares two saved files; ``--smoke`` is the cut-down variant the tests
    use; ``--regen-expected`` rebuilds the reference verdicts.

``python perf/run.py --workload W --seed N --seconds S --trace 0|1``
    the builder's driver contract: one workload, measured for S seconds,
    one JSON object on the last line of standard output (``--trace 0``: the
    end-to-end metrics, ``--trace 1``: the per-layer metrics).

The program is measured only from outside: end-to-end numbers come from
fresh child interpreters (``perf/child.py``), per-layer numbers from a
separate traced pass (``perf/layers.py``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT = PERF / "out"
MANIFEST = ROOT / "BENCHMARK.json"

import host  # noqa: E402 - siblings of this script
import layers  # noqa: E402
import verdict  # noqa: E402
from workloads import SIM_SEEDS, WORKLOADS, Workload  # noqa: E402

#: a command may take this many times its reference seconds before it
#: counts as failed (and its child is killed)
TIME_LIMIT_FACTOR = 10
#: cold priming passes per block (their median is the block's ``setup_s``)
SETUP_PASSES = 3
#: a child is *disturbed* when a neighbouring spin is this much slower than
#: the session's fastest
DISTURBED = 1.15
#: states in the micro-probe sample
PROBE_STATES = 5000


@dataclass
class Sample:
    """One timed child: what the parent saw from outside, plus the
    per-command seconds and verdict failures the child reported."""

    wall_s: float
    cpu_s: float
    #: the child's own VmHWM (0 when it died before reporting)
    rss_mib: float = 0.0
    import_s: float = 0.0
    cmd_s: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    #: slower of the calibration spins before and after the child
    spin_s: float = 0.0


@dataclass
class Block:
    """Consecutive measurements of one workload and the spins between them.

    The spins give the block its *scale*: reference spin seconds over the
    block's median spin, i.e. how much faster the undisturbed seed host is
    than the host was during this block.  Times are reported as block
    median x scale ("scaled seconds"); the raw medians stay alongside.
    """

    #: what one spin takes on the undisturbed seed host
    spin_reference_s: float
    primes: list[dict[str, Any]] = field(default_factory=list)
    samples: list[Sample] = field(default_factory=list)
    spins: list[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        return self.spin_reference_s / statistics.median(self.spins)

    def values(self) -> dict[str, float]:
        """This block's end-to-end numbers, plus the raw seconds."""
        wall = statistics.median(s.wall_s for s in self.samples)
        setup = statistics.median(p["wall_s"] for p in self.primes)
        return {"wall_s": wall * self.scale, "wall_s.raw": wall,
                "peak_rss_mib": statistics.median(s.rss_mib
                                                  for s in self.samples),
                "setup_s": setup * self.scale, "setup_s.raw": setup}


class Session:
    """Scratch space, child launcher and spin record of one benchmark
    process.  Everything it writes stays under ``perf/out/``."""

    def __init__(self, seed: int, *, smoke: bool = False,
                 expected: Optional[Path] = None) -> None:
        self.seed = seed
        self.sim_seed = seed % SIM_SEEDS
        self.smoke = smoke
        self._expected_path = expected or verdict.EXPECTED_PATH
        self._expected: Optional[dict[str, Any]] = None
        self.scratch = OUT / f"tmp-{os.getpid()}"
        self._serial = itertools.count()
        #: --smoke checks plumbing, not speed: spins a fifth as long, one
        #: priming pass per block, one reference child per traced pass
        self._spin_share = 0.2 if smoke else 1.0
        self.setup_passes = 1 if smoke else SETUP_PASSES
        self.reference_children = 1 if smoke else 2
        self.spins: list[float] = []
        self._probes: Optional[tuple[dict[str, Optional[float]],
                                     list[str]]] = None

    def __enter__(self) -> "Session":
        self.scratch.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc: Any) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def fresh_dir(self, stem: str) -> Path:
        path = self.scratch / f"{stem}-{next(self._serial)}"
        path.mkdir()
        return path

    def spin(self) -> float:
        seconds = host.spin(int(host.SPIN_ITERATIONS * self._spin_share))
        self.spins.append(seconds)
        return seconds

    def argvs(self, workload: Workload) -> list[list[str]]:
        spill = str(self.fresh_dir("spill"))
        return [c.resolve(sim_seed=self.sim_seed, spill_dir=spill,
                          smoke=self.smoke) for c in workload.commands]

    def limit(self, workload: Workload) -> float:
        return TIME_LIMIT_FACTOR * sum(c.ref_s for c in workload.commands)

    # -- children ----------------------------------------------------------

    def child(self, mode: str, argvs: list[list[str]], cache: Path,
              limit_s: float) -> tuple[float, float, Optional[dict]]:
        """Run ``perf/child.py`` in a fresh interpreter; returns (wall
        seconds, CPU seconds, its JSON document or None)."""
        out = self.scratch / f"child-{next(self._serial)}.json"
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONHASHSEED="0",
                   REPRO_COMPILED_CACHE=str(cache),
                   PYTHONPATH=(f"{SRC}{os.pathsep}{inherited}" if inherited
                               else str(SRC)))
        with open(out.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(PERF / "child.py"), mode, str(out),
                 json.dumps(argvs)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(limit_s, proc.kill)
            killer.start()
            try:
                # wait4 gives this child's own CPU seconds
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # Ctrl-C: leave no child behind
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        doc = None
        if proc.returncode == 0 and out.exists():
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
        return wall, usage.ru_utime + usage.ru_stime, doc

    def prime(self, workload: Workload, cache: Optional[Path] = None,
              ) -> dict[str, Any]:
        """One priming pass; cold (fresh empty cache) unless ``cache`` is
        given.  Raises when the pass fails: nothing can be timed then."""
        cache = cache or self.fresh_dir("cache")
        wall, _cpu, doc = self.child(
            "prime", self.argvs(workload), cache,
            max(60.0, self.limit(workload)))
        if doc is None:
            raise RuntimeError(f"{workload.name}: priming pass failed")
        doc.update(wall_s=wall, cache=cache, source_bytes=sum(
            p.stat().st_size for p in cache.glob("*.py")))
        return doc

    def timed(self, workload: Workload, cache: Path) -> Sample:
        """One timed child, its verdicts checked."""
        argvs = self.argvs(workload)
        wall, cpu, doc = self.child("run", argvs, cache,
                                    self.limit(workload))
        sample = Sample(wall, cpu)
        if doc is None:
            sample.failures = [f"{c.slug}: child died or hit its time limit"
                               for c in workload.commands]
            return sample
        sample.import_s = doc["import_s"]
        sample.rss_mib = doc["peak_rss_kib"] / 1024
        for command, argv, got in zip(workload.commands, argvs,
                                      doc["commands"]):
            sample.cmd_s[command.slug] = got["seconds"]
            problem = self._judge(command, argv, got)
            if problem:
                sample.failures.append(f"{command.slug}: {problem}")
        return sample

    def reference(self, slug: str) -> Optional[dict[str, Any]]:
        if self._expected is None:
            self._expected = verdict.load_expected(self._expected_path)
        return verdict.expected_for(self._expected, slug, smoke=self.smoke,
                                    sim_seed=self.sim_seed)

    def _judge(self, command: Any, argv: list[str],
               got: dict[str, Any]) -> Optional[str]:
        if got["error"]:
            return got["error"]
        if got["seconds"] > TIME_LIMIT_FACTOR * command.ref_s:
            return f"took {got['seconds']:.1f}s, over its time limit"
        try:
            facts = verdict.extract(argv, got["rc"], got["stdout"])
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable output ({exc})"
        return verdict.check(facts, self.reference(command.slug))

    def block(self, workload: Workload, *, primes: int,
              children: Optional[int] = None,
              seconds: Optional[float] = None) -> Block:
        """``primes`` cold priming passes, then timed children — a fixed
        number, or a closed loop for ``seconds`` (three at the least; the
        next child starts only if it is likely to end inside the window)
        — with a calibration spin before and after each."""
        block = Block(host.SPIN_REFERENCE_S * self._spin_share,
                      spins=[self.spin()])
        for _ in range(primes):
            block.primes.append(self.prime(workload))
            block.spins.append(self.spin())
        cache = block.primes[-1]["cache"]
        t0 = time.perf_counter()

        def more() -> bool:
            if children is not None:
                return len(block.samples) < children
            if len(block.samples) < 3:
                return True
            typical = (statistics.median(s.wall_s for s in block.samples)
                       + block.spins[-1])
            return time.perf_counter() - t0 + typical <= seconds

        while more():
            sample = self.timed(workload, cache)
            block.spins.append(self.spin())
            sample.spin_s = max(block.spins[-2:])
            block.samples.append(sample)
        return block

    def probes(self) -> tuple[dict[str, Optional[float]], list[str]]:
        """The micro-probes, once per session: no workload moves them."""
        if self._probes is None:
            self._probes = layers.micro_probes(
                self.seed, PROBE_STATES // (12 if self.smoke else 1),
                self.scratch)
        return self._probes

    def disturbed(self, block: Block) -> bool:
        return any(s.spin_s > DISTURBED * min(self.spins)
                   for s in block.samples)


# -- statistics ---------------------------------------------------------------

UNITS = {"wall_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def end_to_end(blocks: list[Block]) -> dict[str, dict[str, Any]]:
    """Median, quartiles, min and count of each end-to-end metric over the
    blocks' values, with the raw (unscaled) median alongside."""
    rows = [b.values() for b in blocks]
    out = {}
    for metric, unit in UNITS.items():
        values = [r[metric] for r in rows]
        q1, _q2, q3 = (statistics.quantiles(values, n=4)
                       if len(values) > 1 else (values[0],) * 3)
        out[metric] = {"value": statistics.median(values), "unit": unit,
                       "q1": q1, "q3": q3, "min": min(values),
                       "n": len(values)}
        if f"{metric}.raw" in rows[0]:
            out[metric]["raw"] = statistics.median(r[f"{metric}.raw"]
                                                   for r in rows)
    return out


# -- the traced pass ------------------------------------------------------------


def traced(session: Session, workload: Workload, samples: list[Sample],
           cold: dict[str, Any], *, until: Optional[float] = None,
           ) -> dict[str, Any]:
    """Per-layer metrics of ``workload``: a warm priming pass, the
    untraced reference children, a traced pass (up to three while ``until``
    allows), the micro-probes, and the child-side timings of ``samples``
    and the reference children.  Time metrics are medians over the passes;
    counts must repeat exactly from pass to pass.

    The reference children run right before the traced pass because the
    host's speed drifts by the minute: ``trace.overhead_ratio`` compares
    neighbours in time, not the traced pass with children of rounds ago.
    """
    warm = session.prime(workload, cold["cache"])
    reference = [session.timed(workload, cold["cache"])
                 for _ in range(session.reference_children)]
    samples = samples + reference
    # the in-process pass must use the run's private cache too, not ~/.cache
    os.environ["REPRO_COMPILED_CACHE"] = str(cold["cache"])
    passes: list[dict[str, Any]] = []
    while True:
        passes.append(layers.trace_workload(workload,
                                            session.argvs(workload)))
        took = sum(passes[-1]["seconds"].values())
        if (until is None or len(passes) == 3
                or time.perf_counter() + took > until):
            break
    last = passes[-1]
    notes = list(last["notes"])
    metrics: dict[str, Optional[float]] = {}
    for name, value in last["metrics"].items():
        values = [p["metrics"][name] for p in passes]
        if value is None or name in layers.COUNT_METRICS:
            metrics[name] = value
            if any(v != value for v in values):
                notes.append(f"{name}: count differs between traced "
                             f"passes: {values}")
        else:
            metrics[name] = statistics.median(values)
    failures = [f for s in reference for f in s.failures]
    for command in workload.commands:
        facts = last["facts"][command.slug]
        if facts is not None:
            problem = verdict.check(facts, session.reference(command.slug))
            if problem:
                failures.append(f"{command.slug} (traced): {problem}")
    probes, probe_notes = session.probes()
    metrics.update(probes)
    notes += probe_notes
    metrics["cli.import_s"] = statistics.median(
        [s.import_s for s in samples if s.import_s] or [cold["import_s"]])
    metrics["refine.compiled.codegen_s"] = cold["engine_s"]
    metrics["refine.compiled.cache_load_s"] = warm["engine_s"]
    metrics["refine.compiled.source_bytes"] = cold["source_bytes"]
    untraced = traced_s = 0.0
    for command in workload.commands:
        times = [s.cmd_s[command.slug] for s in samples
                 if command.slug in s.cmd_s]
        if times:
            metrics[f"cmd_s.{command.slug}"] = statistics.median(times)
        nearby = [s.cmd_s[command.slug] for s in reference
                  if command.slug in s.cmd_s]
        if nearby:
            untraced += statistics.median(nearby)
            traced_s += statistics.median(p["seconds"][command.slug]
                                          for p in passes)
    metrics["trace.overhead_ratio"] = (traced_s / untraced if untraced
                                       else 0.0)
    unknown = set(metrics) - set(layers.PER_LAYER)
    assert not unknown, f"metrics missing from PER_LAYER: {unknown}"
    return {
        # the other workloads' commands did not run here: 0 seconds
        "metrics": {name: metrics.get(name, 0.0)
                    for name in layers.PER_LAYER},
        "notes": notes, "failures": failures,
        "attempted": (len(reference) + 1) * len(workload.commands),
        "passes": len(passes),
        "trace": last["trace"]}


def write_trace(workload: Workload, layer_doc: dict[str, Any]) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{workload.name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "notes": layer_doc["notes"],
                   **layer_doc["trace"]}, fh)
    return path


PER_LAYER_UNITS = {name: unit
                   for name, (unit, _better) in layers.PER_LAYER.items()}


# -- driver mode ------------------------------------------------------------------


def drive(name: str, seed: int, seconds: float, trace: bool) -> int:
    """The builder's contract: one workload, one JSON line."""
    workload = WORKLOADS[name]
    with Session(seed) as session:
        t0 = time.perf_counter()
        if trace:
            layer_doc = traced(session, workload, [],
                               session.prime(workload), until=t0 + seconds)
            write_trace(workload, layer_doc)
            for note in layer_doc["notes"]:
                print(f"note: {note}", file=sys.stderr)
            # the contract wants a number for every metric: a layer that
            # is gone did no work
            metrics = {n: {"value": 0 if v is None else v,
                           "unit": PER_LAYER_UNITS[n]}
                       for n, v in layer_doc["metrics"].items()}
            failures = layer_doc["failures"]
            attempted = layer_doc["attempted"]
        else:
            block = session.block(workload, primes=session.setup_passes,
                                  seconds=seconds)
            metrics = {n: {"value": m["value"], "unit": m["unit"]}
                       for n, m in end_to_end([block]).items()}
            failures = [f for s in block.samples for f in s.failures]
            attempted = len(block.samples) * len(workload.commands)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


# -- full mode ----------------------------------------------------------------------


def full(seed: int, runs: int, *, smoke: bool, only: list[str],
         expected: Optional[Path]) -> dict[str, Any]:
    """Every workload, ``runs`` rounds, then the traced passes.

    A round measures each workload once (cold priming passes, one timed
    child, a spin before and after each) in a seeded-shuffled order, so
    slow host drift hits all workloads alike.
    """
    names = only or list(WORKLOADS)
    rng = random.Random(seed)
    started = host.provenance(ROOT)
    with Session(seed, smoke=smoke, expected=expected) as session:
        blocks: dict[str, list[Block]] = {n: [] for n in names}
        for round_no in range(runs):
            for name in rng.sample(names, len(names)):
                print(f"[round {round_no + 1}/{runs}] {name}",
                      file=sys.stderr, flush=True)
                blocks[name].append(session.block(
                    WORKLOADS[name], primes=session.setup_passes,
                    children=1))
        # re-run what a noisy neighbour disturbed, within a fixed allowance
        n_disturbed = redone = 0
        for name in names:
            for index, block in enumerate(blocks[name]):
                if not session.disturbed(block):
                    continue
                n_disturbed += 1
                if redone < runs:
                    redone += 1
                    print(f"[re-run] {name}", file=sys.stderr, flush=True)
                    again = session.block(
                        WORKLOADS[name], primes=session.setup_passes,
                        children=1)
                    if not session.disturbed(again):
                        blocks[name][index] = again
        workloads = {}
        for name in names:
            print(f"[traced] {name}", file=sys.stderr, flush=True)
            workload = WORKLOADS[name]
            samples = [s for b in blocks[name] for s in b.samples]
            layer_doc = traced(session, workload, samples,
                               blocks[name][-1].primes[-1])
            trace_path = write_trace(workload, layer_doc)
            failures = ([f for s in samples for f in s.failures]
                        + layer_doc["failures"])
            attempted = (len(samples) * len(workload.commands)
                         + layer_doc["attempted"])
            workloads[name] = {
                "why": workload.why,
                "end_to_end": end_to_end(blocks[name]),
                "attempted": attempted, "failed": len(failures),
                "failed_share": len(failures) / attempted,
                "failures": failures,
                "per_layer": layer_doc["metrics"],
                "notes": layer_doc["notes"],
                "trace_file": str(trace_path.relative_to(ROOT)),
                "blocks": [{**b.values(), "scale": b.scale,
                            "spins": b.spins,
                            "samples": [asdict(s) for s in b.samples]}
                           for b in blocks[name]],
            }
        return {
            "schema": "repro.perf/1", "seed": seed, "runs": runs,
            "smoke": smoke, **started,
            "load_avg_after": list(os.getloadavg()),
            "spin_reference_s": host.SPIN_REFERENCE_S,
            "spin_median_s": statistics.median(session.spins),
            "spin_min_s": min(session.spins),
            "disturbed_runs": n_disturbed, "rerun": redone,
            "workloads": workloads,
        }


def report(doc: dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    print(f"host: {doc['host_cpus']} cpu(s), python {doc['python']}, load "
          f"{doc['load_avg'][0]:.2f} -> {doc['load_avg_after'][0]:.2f}, "
          f"spin median {doc['spin_median_s']:.3f} s (reference "
          f"{doc['spin_reference_s']:.3f} s), {doc['disturbed_runs']} "
          f"disturbed run(s), {doc['rerun']} re-run, commit "
          f"{doc['git_commit']}")
    for name, w in doc["workloads"].items():
        print(f"\n== {name} ==")
        for metric, m in w["end_to_end"].items():
            raw = f", raw {m['raw']:.4f}" if "raw" in m else ""
            print(f"  {metric:<44} {m['value']:>12.4f} {m['unit']:<5} "
                  f"[q1 {m['q1']:.4f}, q3 {m['q3']:.4f}, min "
                  f"{m['min']:.4f}, n={m['n']}{raw}]")
        print(f"  {'failed_share':<44} {w['failed_share']:>12.4f} ratio "
              f"[{w['failed']} of {w['attempted']} commands]")
        for failure in w["failures"]:
            print(f"  FAILED {failure}")
        for metric, value in w["per_layer"].items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {metric:<44} {shown:>12} "
                  f"{PER_LAYER_UNITS[metric]}")
        for note in w["notes"]:
            print(f"  note: {note}")


def compare(a: dict[str, Any], b: dict[str, Any], *, symmetric: bool,
            ) -> bool:
    """Print, per workload and end-to-end metric, both medians, the
    relative difference and the bound; True when nothing is breached.

    ``b`` may be worse than ``a`` by the metric's bound in BENCHMARK.json
    (for ``setup_s`` by 0.10 s if that is more); with ``symmetric`` —
    two runs of the same code — neither may differ from the other by
    more.  ``failed_share`` must be 0 and every count identical.
    """
    with open(MANIFEST, encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(fh)["end_to_end"]}
    ok = True
    print(f"{'workload':<15}{'metric':<14}{'a':>11}{'b':>11}{'diff':>9}"
          f"{'bound':>8}")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric, bound in bounds.items():
            va = wa["end_to_end"][metric]["value"]
            vb = wb["end_to_end"][metric]["value"]
            allowed = bound * va
            if metric == "setup_s":
                allowed = max(allowed, 0.10)
            breach = vb - va > allowed or (symmetric and va - vb > allowed)
            ok = ok and not breach
            print(f"{name:<15}{metric:<14}{va:>11.4f}{vb:>11.4f}"
                  f"{(vb - va) / va:>+9.1%}{bound:>8.0%}"
                  f"{'  BREACH' if breach else ''}")
        for side, w in (("a", wa), ("b", wb)):
            if w["failed"]:
                ok = False
                print(f"{name:<15}failed_share {w['failed_share']:.4f} in "
                      f"{side}: must stay 0  BREACH")
        moved = [c for c in layers.COUNT_METRICS
                 if wa["per_layer"].get(c) != wb["per_layer"].get(c)]
        if moved:
            ok = False
            print(f"{name:<15}counts differ: {', '.join(moved)}  BREACH")
    print("every count identical, failed_share 0, all within bounds"
          if ok else "BREACHED")
    return ok


# -- reference verdicts -----------------------------------------------------------------


def regen_expected(path: Path) -> int:
    """Rebuild ``expected.json``.  Slow.

    Exit codes, static verdicts and simulator completions are read off the
    commands themselves; the exploration counts of every ``check``/
    ``verify`` come from the *oracle* configuration only — sequential
    ``explore``, interpreted engine, exact store, same reductions and
    budget — and a command that disagrees with its oracle is an error, not
    a new reference.
    """
    doc: dict[str, Any] = {"full": {}, "smoke": {}}
    disagreements = []
    for section, smoke in (("full", False), ("smoke", True)):
        for workload in WORKLOADS.values():
            for command in workload.commands:
                by_seed = {}
                seeded = any("{seed}" in a for a in command.argv)
                for sim_seed in range(SIM_SEEDS if seeded else 1):
                    print(f"[{section}] {command.slug} seed {sim_seed}",
                          file=sys.stderr, flush=True)
                    one = Workload(workload.name, "", (command,))
                    with Session(sim_seed, smoke=smoke) as session:
                        argv = session.argvs(one)[0]
                        _wall, _cpu, out = session.child(
                            "run", [argv], session.fresh_dir("cache"),
                            session.limit(one))
                    if out is None:
                        raise RuntimeError(f"{command.slug}: child failed")
                    got = out["commands"][0]
                    facts = verdict.extract(argv, got["rc"], got["stdout"])
                    if argv[0] in ("check", "verify"):
                        for key, want in layers.oracle_facts(argv).items():
                            if facts.get(key) != want:
                                disagreements.append(
                                    f"{command.slug}: {key} "
                                    f"{facts.get(key)!r}, oracle {want!r}")
                            facts[key] = want
                    by_seed[str(sim_seed)] = facts
                doc[section][command.slug] = ({"by_seed": by_seed} if seeded
                                              else by_seed["0"])
    for line in disagreements:
        print(f"DISAGREES WITH ORACLE {line}", file=sys.stderr)
    if disagreements:
        return 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


# -- command line ---------------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=5,
                        help="rounds, i.e. timed children per workload")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="driver mode: measure this workload only")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="cut-down commands, one round (the tests)")
    parser.add_argument("--only", default="",
                        help="comma-separated workload names (full mode)")
    parser.add_argument("--out", type=Path, help="result file to write")
    parser.add_argument("--expected", type=Path,
                        help="reference verdicts (default perf/expected.json)")
    parser.add_argument("--aa", action="store_true",
                        help="run twice back to back and compare")
    parser.add_argument("--compare", nargs=2, type=Path, metavar="FILE")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(a, b, symmetric=False) else 1
    if not (SRC / "repro" / "cli.py").exists():
        print(f"perf/run.py: {SRC}/repro is not there; the benchmark "
              "measures the program in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the traced pass runs repro in-process
    if args.regen_expected:
        return regen_expected(args.expected or verdict.EXPECTED_PATH)
    if args.workload:
        return drive(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    only = [n for n in args.only.split(",") if n]
    unknown = set(only) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    runs = 1 if args.smoke else args.runs
    docs = []
    for _ in range(2 if args.aa else 1):
        docs.append(full(args.seed, runs, smoke=args.smoke, only=only,
                         expected=args.expected))
        report(docs[-1])
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    for index, doc in enumerate(docs):
        suffix = f"-{'ab'[index]}" if args.aa else ""
        path = (args.out if args.out and not args.aa
                else OUT / f"result-{stamp}{suffix}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        print(f"wrote {path}")
    ok = all(w["failed"] == 0 for d in docs for w in d["workloads"].values())
    if args.aa:
        print()
        ok = compare(docs[0], docs[1], symmetric=True) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
