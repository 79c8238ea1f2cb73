"""Diff a regenerated benchmark artifact against the committed baseline.

CI regenerates the artifact at the same pinned budget and calls::

    python benchmarks/compare_bench.py baseline.json candidate.json

The comparison dispatches on the document's ``schema`` field:

* ``repro.bench_explore/2`` (``BENCH_explore.json``) — exploration
  throughput and reduction effectiveness, one row per (protocol, n,
  config); files written while there were two step engines carry an
  ``engine`` field and one row per engine, and still compare row for
  row;
* ``repro.bench_cutoff/1`` (``BENCH_cutoff.json``) — the parameterized
  (P45xx) static verdict per protocol plus the bounded-exploration
  cross-check at n = 2..4 and the stabilization cutoff;
* ``repro.bench_param/1`` (``BENCH_param.json``) — the parameterized
  coherence (P46xx) verdict per protocol plus the single-writer/SWMR
  exploration cross-check at n = 2..4;
* ``repro.profile/*`` (``--profile`` output of ``repro check``) — two
  profiles of the *same model*, typically produced over different
  stores (exact, the oracle, vs fingerprint; unsharded vs sharded and
  spilling) or under different hash seeds.  Every deterministic count —
  final result fields, detected collisions and every per-level count —
  must agree **exactly** (no tolerance): a store's whole contract is
  byte-identical counts.  Timing, byte sizes, store kind, partition
  layout and the per-partition statistics rows are informational.

Exit status 1 when any *deterministic* field drifts more than the
tolerance (default 25%): state/transition/enabled counts, BFS depth,
deadlock counts, completion flags, verdicts, stabilization cutoffs and
the headline reduction ratios.  BFS order is deterministic at a fixed
budget, so on an unchanged explorer these fields match exactly; the
tolerance is headroom for legitimate changes, which must ship with a
regenerated baseline once they exceed it.  Timing fields (``seconds``,
``states_per_sec``) and store byte sizes (``approx_bytes`` —
Python-version dependent) are reported but never fail the diff.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

STRICT_FIELDS = ("n_states", "n_transitions", "n_enabled", "depth")
INFO_FIELDS = ("states_per_sec", "approx_bytes", "seconds")


def _key(run: dict[str, Any]) -> tuple:
    # older files have one row per step engine
    return (run["protocol"], run["n"], run["config"], run.get("engine", ""))


def _rel_drift(old: float, new: float) -> float:
    if old == new:
        return 0.0
    denom = max(abs(old), abs(new), 1e-9)
    return abs(new - old) / denom


def _compare_runs(section: str, old_runs: list, new_runs: list,
                  tolerance: float, errors: list, notes: list) -> None:
    old_by, new_by = ({_key(r): r for r in runs}
                      for runs in (old_runs, new_runs))
    if set(old_by) != set(new_by):
        errors.append(f"{section}: row sets differ: "
                      f"missing={sorted(set(old_by) - set(new_by))} "
                      f"extra={sorted(set(new_by) - set(old_by))}")
        return
    for key in sorted(old_by):
        old, new = old_by[key], new_by[key]
        label = (f"{section} {key[0]}-n{key[1]}-{key[2]}"
                 + (f"-{key[3]}" if key[3] else ""))
        if old["completed"] != new["completed"]:
            errors.append(f"{label}: completed "
                          f"{old['completed']} -> {new['completed']}")
        for field in STRICT_FIELDS:
            drift = _rel_drift(old[field], new[field])
            if drift > tolerance:
                errors.append(f"{label}: {field} {old[field]} -> "
                              f"{new[field]} ({drift:.1%} > "
                              f"{tolerance:.0%})")
        if abs(old["transition_pruning"]
               - new["transition_pruning"]) > tolerance:
            errors.append(f"{label}: transition_pruning "
                          f"{old['transition_pruning']} -> "
                          f"{new['transition_pruning']}")
        for field in INFO_FIELDS:
            drift = _rel_drift(old.get(field, 0), new.get(field, 0))
            if drift > tolerance:
                notes.append(f"{label}: {field} {old.get(field)} -> "
                             f"{new.get(field)} (informational)")


#: The two verdict artifacts share one shape — per-protocol verdict
#: fields over an ``exploration`` list of per-n cross-check runs — and
#: differ only in which fields they carry: schema -> (per-protocol fields
#: that must match exactly, per-protocol counts held to the drift
#: tolerance, per-(protocol, n) exploration fields held to it).
VERDICT_FIELDS = {
    "repro.bench_cutoff/1": (
        ("static_verdict", "discharged", "complete_cover", "n_flows",
         "n_invariants", "stabilizes_at", "agreement"),
        (),
        ("n_states", "n_transitions", "deadlocks")),
    "repro.bench_param/1": (
        ("static_verdict", "discharged", "candidates", "validated",
         "n_lemmas", "iterations", "agreement"),
        ("abstract_states",),
        ("n_states", "n_transitions", "violations")),
}


def _compare_verdicts(baseline: dict, candidate: dict, tolerance: float,
                      errors: list, notes: list) -> None:
    exact, drifting, strict = VERDICT_FIELDS[baseline["schema"]]
    old_by, new_by = ({p["protocol"]: p for p in doc["protocols"]}
                      for doc in (baseline, candidate))
    if set(old_by) != set(new_by):
        errors.append(f"protocols: row sets differ: "
                      f"missing={sorted(set(old_by) - set(new_by))} "
                      f"extra={sorted(set(new_by) - set(old_by))}")
        return
    for name in sorted(old_by):
        old, new = old_by[name], new_by[name]
        for field in exact:
            if old.get(field) != new.get(field):
                errors.append(f"{name}: {field} {old.get(field)} -> "
                              f"{new.get(field)}")
        for field in drifting:
            drift = _rel_drift(old.get(field, 0), new.get(field, 0))
            if drift > tolerance:
                errors.append(f"{name}: {field} {old.get(field)} -> "
                              f"{new.get(field)} "
                              f"({drift:.1%} > {tolerance:.0%})")
        old_runs = {r["n"]: r for r in old["exploration"]}
        new_runs = {r["n"]: r for r in new["exploration"]}
        if set(old_runs) != set(new_runs):
            errors.append(f"{name}: exploration sizes differ: "
                          f"{sorted(old_runs)} -> {sorted(new_runs)}")
            continue
        for n in sorted(old_runs):
            o, c = old_runs[n], new_runs[n]
            label = f"{name}-n{n}"
            if o["completed"] != c["completed"]:
                errors.append(f"{label}: completed "
                              f"{o['completed']} -> {c['completed']}")
            if o.get("verdict") != c.get("verdict"):
                errors.append(f"{label}: verdict {o.get('verdict')} -> "
                              f"{c.get('verdict')}")
            for field in strict:
                drift = _rel_drift(o[field], c[field])
                if drift > tolerance:
                    errors.append(f"{label}: {field} {o[field]} -> "
                                  f"{c[field]} ({drift:.1%} > "
                                  f"{tolerance:.0%})")
            drift = _rel_drift(o.get("seconds", 0), c.get("seconds", 0))
            if drift > tolerance:
                notes.append(f"{label}: seconds {o.get('seconds')} -> "
                             f"{c.get('seconds')} (informational)")


#: result fields of a profile document that must agree exactly across
#: stores of the same model (the byte-identical-counts contract): an
#: exact-store profile is the oracle of a fingerprint-store one, whose
#: detected collisions must equal its 0
PROFILE_RESULT_EXACT = ("n_states", "n_transitions", "n_enabled",
                        "deadlocks", "completed", "stop_reason",
                        "reductions", "fingerprint_collisions")
#: per-level fields held to exact equality; seconds/bytes are not
PROFILE_LEVEL_EXACT = ("level", "frontier", "expanded", "candidates",
                       "new_states", "n_states", "n_transitions",
                       "deadlocks", "collisions", "enabled")
PROFILE_LEVEL_INFO = ("seconds", "approx_bytes", "spill_bytes")


def _compare_profiles(baseline: dict, candidate: dict,
                      errors: list, notes: list) -> None:
    old_res, new_res = baseline["result"], candidate["result"]
    for field in PROFILE_RESULT_EXACT:
        if old_res.get(field) != new_res.get(field):
            errors.append(f"result.{field}: {old_res.get(field)} -> "
                          f"{new_res.get(field)} (must match exactly)")
    old_levels, new_levels = baseline["levels"], candidate["levels"]
    if len(old_levels) != len(new_levels):
        errors.append(f"levels: {len(old_levels)} -> {len(new_levels)} "
                      "(BFS depth must match exactly)")
        return
    drifted = {field: 0 for field in PROFILE_LEVEL_INFO}
    for old, new in zip(old_levels, new_levels):
        for field in PROFILE_LEVEL_EXACT:
            if old.get(field) != new.get(field):
                errors.append(f"level {old.get('level')}: {field} "
                              f"{old.get(field)} -> {new.get(field)} "
                              "(must match exactly)")
        for field in PROFILE_LEVEL_INFO:
            if _rel_drift(old.get(field, 0) or 0,
                          new.get(field, 0) or 0) > 0.25:
                drifted[field] += 1
    for field, count in drifted.items():
        if count:
            notes.append(f"levels: {field} drifted on {count}/"
                         f"{len(old_levels)} level(s) (informational)")
    old_run, new_run = baseline.get("run") or {}, candidate.get("run") or {}
    for field in ("partitions", "store"):
        if old_run.get(field) != new_run.get(field):
            notes.append(f"run.{field}: {old_run.get(field)} -> "
                         f"{new_run.get(field)} (layout, informational)")
    if old_res.get("store") != new_res.get("store"):
        notes.append(f"result.store: {old_res.get('store')} -> "
                     f"{new_res.get('store')} (layout, informational)")


def compare(baseline: dict, candidate: dict,
            tolerance: float = 0.25) -> tuple[list[str], list[str]]:
    """Return (errors, notes); empty errors means the diff passes."""
    errors: list[str] = []
    notes: list[str] = []
    schema = str(baseline.get("schema") or "")
    if schema.startswith("repro.profile/"):
        # two profiles of the same model (e.g. unsharded vs sharded
        # store): schema versions may differ, counts not
        if not str(candidate.get("schema") or "").startswith(
                "repro.profile/"):
            errors.append(f"schema {baseline.get('schema')} -> "
                          f"{candidate.get('schema')}")
            return errors, notes
        _compare_profiles(baseline, candidate, errors, notes)
        return errors, notes
    if candidate.get("schema") != baseline.get("schema"):
        errors.append(f"schema {baseline.get('schema')} -> "
                      f"{candidate.get('schema')}")
        return errors, notes
    if candidate.get("budget") != baseline.get("budget"):
        errors.append(f"budget {baseline.get('budget')} -> "
                      f"{candidate.get('budget')}: budgeted sections are "
                      "only comparable at equal budgets")
        return errors, notes
    if baseline.get("schema") in VERDICT_FIELDS:
        _compare_verdicts(baseline, candidate, tolerance, errors, notes)
        return errors, notes
    _compare_runs("runs", baseline["runs"], candidate["runs"],
                  tolerance, errors, notes)
    _compare_runs("headline", baseline["headline"]["runs"],
                  candidate["headline"]["runs"], tolerance, errors, notes)
    old_red = baseline["headline"]["reductions"]
    new_red = candidate["headline"]["reductions"]
    for name in sorted(set(old_red) | set(new_red)):
        old_v: Optional[float] = old_red.get(name)
        new_v = new_red.get(name)
        if (old_v is None) != (new_v is None):
            errors.append(f"reductions.{name}: {old_v} -> {new_v}")
        elif old_v is not None and abs(old_v - new_v) > tolerance:
            errors.append(f"reductions.{name}: {old_v} -> {new_v}")
    return errors, notes


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed benchmark artifact "
                                         "(BENCH_explore.json / "
                                         "BENCH_cutoff.json / "
                                         "BENCH_param.json)")
    parser.add_argument("candidate", help="regenerated artifact of the "
                                          "same schema")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="max relative drift on deterministic fields")
    args = parser.parse_args(argv)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.candidate) as fh:
        candidate = json.load(fh)
    errors, notes = compare(baseline, candidate, args.tolerance)
    for note in notes:
        print(f"note: {note}")
    for error in errors:
        print(f"FAIL: {error}")
    if errors:
        print(f"{len(errors)} deterministic field(s) drifted beyond "
              f"{args.tolerance:.0%}")
        return 1
    print(f"benchmark diff OK ({args.tolerance:.0%} tolerance, "
          f"{len(notes)} informational note(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
