"""Compare two documents of deterministic exploration facts, exactly.

CI regenerates each committed artifact at its pinned budget and calls::

    python benchmarks/compare_bench.py baseline.json candidate.json

The rule: **every fact of the baseline must reproduce exactly in the
candidate** — same budget, same set of row ids, ``==`` on every value.
BFS order is deterministic at a fixed budget, so state, transition and
enabled counts, depths, deadlock and violation counts, completion flags,
stop reasons, static verdicts and the ratios derived from them are equal
on every host, store and hash seed; a difference of one state is a store,
reduction or analysis bug (or a legitimate change, which ships with a
regenerated baseline).  Time lives in ``perf/``, not here.

Two kinds of document flatten to the same ``{row id: facts}`` shape:

* ``repro.bench/1`` (``BENCH_explore.json``, ``BENCH_cutoff.json``,
  ``BENCH_param.json``; written by ``benchmarks/conftest.py``) —
  ``{"schema", "budget", "rows": [{"id": ..., <facts>}]}``;
* ``repro.profile/*`` (``repro check --profile``) — two profiles of the
  *same model*, typically over different stores (exact, the oracle, vs
  fingerprint; resident vs spilling) or hash seeds: one ``result`` row
  and one ``level/<i>`` row per BFS level.  The ``run`` block — and the
  ``partitions`` block of a ``repro.profile/4`` document — describe the
  run's configuration and are not facts; schema versions may differ.

Keys in ``VOLATILE`` — timing, byte sizes, the store kind and the run
label — are not facts in either kind; the committed ``BENCH_*.json`` carry
none of them.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

#: what differs between two correct runs of one model: clocks, Python
#: object sizes, which store ran, what the caller named the run
VOLATILE = ("seconds", "states_per_sec", "approx_bytes",
            "approx_bytes_detail", "spill_bytes", "spill_merges", "store",
            "system")

_MISSING = "<missing>"


def _kind(doc: dict[str, Any]) -> str:
    return str(doc.get("schema")).split("/")[0]


def flatten(doc: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """``{row id: facts}`` of a bench or profile document."""
    if _kind(doc) == "repro.profile":
        rows = {"result": doc["result"]}
        rows.update((f"level/{i}", level)
                    for i, level in enumerate(doc["levels"]))
    else:
        rows = {row["id"]: row for row in doc["rows"]}
    return {row_id: {key: value for key, value in facts.items()
                     if key not in VOLATILE}
            for row_id, facts in rows.items()}


def compare(baseline: dict[str, Any], candidate: dict[str, Any]) -> list[str]:
    """One line per fact of ``baseline`` that ``candidate`` does not
    reproduce; empty means the comparison passes."""
    kind = _kind(baseline)
    if kind != _kind(candidate) or kind not in ("repro.bench",
                                                "repro.profile"):
        return [f"schema {baseline.get('schema')} -> "
                f"{candidate.get('schema')}"]
    if baseline.get("budget") != candidate.get("budget"):
        return [f"budget {baseline.get('budget')} -> "
                f"{candidate.get('budget')}: budgeted rows are only "
                "comparable at equal budgets"]
    old, new = flatten(baseline), flatten(candidate)
    if set(old) != set(new):
        return [f"row sets differ: missing={sorted(set(old) - set(new))} "
                f"extra={sorted(set(new) - set(old))}"]
    return [f"{row_id}: {field} {value!r} -> "
            f"{new[row_id].get(field, _MISSING)!r}"
            for row_id, facts in old.items()
            for field, value in facts.items()
            if new[row_id].get(field, _MISSING) != value]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_*.json, or the "
                                         "oracle's --profile document")
    parser.add_argument("candidate", help="regenerated document of the "
                                          "same kind")
    args = parser.parse_args(argv)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.candidate) as fh:
        candidate = json.load(fh)
    errors = compare(baseline, candidate)
    for error in errors:
        print(f"FAIL: {error}")
    if errors:
        print(f"{len(errors)} fact(s) did not reproduce")
        return 1
    print(f"benchmark diff OK ({len(flatten(baseline))} row(s) reproduce "
          "exactly)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
