"""Run the committed CI rows (``benchmarks/ci_rows.json``) and gate them.

    python benchmarks/ci_rows.py

Each row is one fact CI holds the product to, run in file order, each in
a fresh interpreter.  A row is one of two kinds:

* **argv rows** (``repro``: an argv of the ``repro`` CLI): the child calls
  ``repro.cli.main(argv + ["--profile", "ci-rows/<id>.json"])``, then
  reads its own ``VmHWM`` from ``/proc/self/status``.  The row may set
  ``env`` for the child, the expected ``exit`` (default 0), exact result
  facts (``FACTS``, judged against the profile's ``result`` block),
  ``stdout_has`` (a line the command must print), ``same_as`` (an
  earlier row whose profile this one must reproduce: result and
  per-level counts), ``sigint_after_s`` (Ctrl-C the child after that
  many seconds) and ``vmhwm_mib_max``.
* **gate rows** (``gate``: a library protocol name): the Equation-1
  gate inside a protocol's first ``refine()``, measured cold — a warm-up
  ``refine(migratory)`` keeps imports out of the measurement, the
  certificate and context memos are cleared, and ``tracemalloc`` peaks
  around ``refine(protocol)``; bound ``gate_peak_mib_max``.

Facts and profile pairs are judged only by ``compare_bench.compare``,
the one rule for every committed count.  ``why`` says what a row guards
and is not checked.  Every row fails on a traceback on its stderr.

One line per row: id, ``ok``/``FAIL``, the measured memory and the
wall-clock seconds (printed, never gated); exit 1 if any row fails.
Profiles and spill files go under ``ci-rows/`` in the working directory.
"""

from __future__ import annotations

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROWS = HERE / "ci_rows.json"
OUT = Path("ci-rows")

#: every key a row may carry (tests/unit/test_ci_rows.py holds the rows
#: file to these)
FACTS = ("n_states", "n_transitions", "completed", "fingerprint_collisions",
         "stop_reason")
CONTROLS = ("id", "why", "repro", "gate", "env", "exit", "stdout_has",
            "same_as", "sigint_after_s")
BOUNDS = ("vmhwm_mib_max", "gate_peak_mib_max")

_SPEC = importlib.util.spec_from_file_location(
    "compare_bench", HERE / "compare_bench.py")
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)

#: an argv row's child: the command, then its high-water mark as the last
#: line of stdout
_COMMAND = """\
import json, sys
from repro.cli import main
status = main(json.loads(sys.argv[1]))
with open("/proc/self/status") as fh:
    kib = next(int(line.split()[1]) for line in fh
               if line.startswith("VmHWM:"))
print(json.dumps({"vmhwm_mib": kib / 1024}))
sys.exit(status)
"""

#: a gate row's child: refine() timed once, then measured with its memos
#: cleared
_GATE = """\
import json, sys, time, tracemalloc
from repro import refine
from repro.analysis import simulation, symbolic
from repro.protocols import LIBRARY_PROTOCOLS

refine(LIBRARY_PROTOCOLS["migratory"]())  # imports outside the measurement
protocol = LIBRARY_PROTOCOLS[sys.argv[1]]()
simulation._VERDICTS.clear()
symbolic._CONTEXTS.clear()
start = time.perf_counter()
refine(protocol)
seconds = time.perf_counter() - start
simulation._VERDICTS.clear()
symbolic._CONTEXTS.clear()
tracemalloc.start()
refine(protocol)
peak = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
print(json.dumps({"gate_peak_mib": peak, "refine_s": seconds}))
"""


def load() -> list[dict[str, Any]]:
    with open(ROWS) as fh:
        return json.load(fh)["rows"]


def _spawn(args: list[str], row: dict[str, Any]) -> tuple[str, str, int]:
    """Run ``python *args`` for ``row``: its ``env``, the in-tree sources
    first on the path, Ctrl-C after ``sigint_after_s``."""
    env = dict(os.environ, **row.get("env", {}))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(HERE.parent / "src"), env.get("PYTHONPATH")]))
    child = subprocess.Popen([sys.executable, *args], env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = child.communicate(timeout=row.get("sigint_after_s"))
    except subprocess.TimeoutExpired:
        child.send_signal(signal.SIGINT)
        out, err = child.communicate()
    return out, err, child.returncode


def _facts_doc(row_id: str, facts: dict[str, Any]) -> dict[str, Any]:
    return {"schema": "repro.bench/1", "rows": [dict(facts, id=row_id)]}


def _run_row(row: dict[str, Any],
             profiles: dict[str, Any]) -> tuple[list[str], str]:
    """The failures of one row and what it measured."""
    if "gate" in row:
        args = ["-c", _GATE, row["gate"]]
    else:
        profile = OUT / f"{row['id']}.json"
        profile.parent.mkdir(parents=True, exist_ok=True)
        profile.unlink(missing_ok=True)  # a stale one must not pass
        argv = [*row["repro"], "--profile", str(profile)]
        args = ["-c", _COMMAND, json.dumps(argv)]
    out, err, status = _spawn(args, row)
    *lines, last = out.rstrip("\n").split("\n")
    try:
        measured = json.loads(last)
    except ValueError:
        stderr = err.strip().splitlines() or ["(empty stderr)"]
        return [f"exit {status}: {stderr[-1]}"], "no measurement"
    errors = []
    if "Traceback" in err:
        errors.append(f"traceback on stderr: {err.strip().splitlines()[-1]}")
    if status != row.get("exit", 0):
        errors.append(f"exit {status}, expected {row.get('exit', 0)}")
    if "stdout_has" in row and not any(row["stdout_has"] in line
                                       for line in lines):
        errors.append(f"stdout lacks {row['stdout_has']!r}")
    if "gate" in row:
        peak, bound = measured["gate_peak_mib"], row.get("gate_peak_mib_max")
        shown = (f"tracemalloc peak {peak:.2f} MiB (max {bound}), "
                 f"refine() {measured['refine_s']:.2f} s")
        if bound is not None and peak > bound:
            errors.append(f"tracemalloc peak {peak:.2f} MiB > {bound}")
        return errors, shown
    hwm, bound = measured["vmhwm_mib"], row.get("vmhwm_mib_max")
    shown = f"VmHWM {hwm:.1f} MiB" + (f" (max {bound})"
                                      if bound is not None else "")
    if bound is not None and hwm > bound:
        errors.append(f"VmHWM {hwm:.1f} MiB > {bound}")
    if not profile.exists():
        return errors + [f"no profile at {profile}"], shown
    with open(profile) as fh:
        doc = profiles[row["id"]] = json.load(fh)
    facts = {key: row[key] for key in FACTS if key in row}
    errors += compare_bench.compare(_facts_doc(row["id"], facts),
                                    _facts_doc(row["id"], doc["result"]))
    if "same_as" in row and row["same_as"] not in profiles:
        errors.append(f"no profile of {row['same_as']} to compare with")
    elif "same_as" in row:
        errors += [f"vs {row['same_as']}: {error}" for error in
                   compare_bench.compare(profiles[row["same_as"]], doc)]
    return errors, shown


def run(rows: list[dict[str, Any]]) -> int:
    """Run ``rows`` in order, one line each; 1 if any fails."""
    OUT.mkdir(exist_ok=True)
    profiles: dict[str, Any] = {}
    failed = 0
    begin = time.perf_counter()
    width = max(len(row["id"]) for row in rows)
    for row in rows:
        start = time.perf_counter()
        errors, shown = _run_row(row, profiles)
        seconds = time.perf_counter() - start
        print(f"{row['id']:<{width}} {'FAIL' if errors else 'ok':<4}  {shown}, "
              f"{seconds:.1f} s", flush=True)
        for error in errors:
            print(f"    {error}", flush=True)
        failed += bool(errors)
    print(f"{len(rows) - failed} of {len(rows)} rows ok in "
          f"{time.perf_counter() - begin:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run(load()))
