"""Read a command's verdict off its output and hold it against the reference.

A wrong verdict is worse than a slow one, so every command the benchmark
runs is checked: :func:`extract` turns (argv, exit code, standard output)
into a small dict of *facts* — state and transition counts, the
complete/unfinished status, static verdict strings, diagnostic-code sets,
simulator completions — and :func:`check` compares it, field by field and
exactly, with the entry ``perf/expected.json`` holds for the command.
Timing never appears among the facts, so they repeat exactly from run to
run of one commit.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Optional

EXPECTED_PATH = Path(__file__).with_name("expected.json")

_SWEEP = re.compile(r"(\d+) states, (\d+) transitions in [\d.]+s "
                    r"\[(complete|UNFINISHED)")
_COLLISIONS = re.compile(r"\((\d+) collision")
_PROGRESS = re.compile(r"(PROGRESS \w+): (\d+) states, (\d+) SCCs")
_SOUNDNESS = re.compile(r"(WEAK SIMULATION HOLDS|SIMULATION FAILS): "
                        r"(\d+) async edges over (\d+) states")
_SIMULATE = re.compile(r"(\d+) rendezvous completed\n\s*messages: (\d+)")


def _documents(stdout: str) -> list[dict[str, Any]]:
    doc = json.loads(stdout)
    return doc if isinstance(doc, list) else [doc]


def extract(argv: list[str], rc: int, stdout: str) -> dict[str, Any]:
    """The facts of one finished command; raises ``ValueError`` when the
    output cannot be read (which :func:`check` reports as a failure)."""
    kind = argv[0]
    facts: dict[str, Any] = {"rc": rc}
    if kind in ("check", "verify"):
        m = _SWEEP.search(stdout)
        if m is None:
            raise ValueError("no sweep summary line")
        facts.update(n_states=int(m[1]), n_transitions=int(m[2]),
                     status=m[3].lower())
        c = _COLLISIONS.search(stdout)
        if c is not None:
            facts["collisions"] = int(c[1])
        if "--progress" in argv:
            p = _PROGRESS.search(stdout)
            if p is not None:
                facts["progress"] = [p[1], int(p[2]), int(p[3])]
            elif "progress check incomplete" in stdout:  # budget hit
                facts["progress"] = ["incomplete"]
            else:
                raise ValueError("no progress verdict line")
    elif kind == "soundness":
        m = _SOUNDNESS.search(stdout)
        if m is None:
            raise ValueError("no simulation verdict line")
        facts.update(verdict=m[1], edges=int(m[2]), n_states=int(m[3]))
    elif kind == "lint":
        facts["codes"] = {
            d["subject"]: sorted({x["code"] for x in d["diagnostics"]})
            for d in _documents(stdout)}
    elif kind == "flows":
        facts["verdicts"] = {
            d["protocol"]: [d["paramcheck"]["verdict"], len(d["flows"])]
            for d in _documents(stdout)}
    elif kind == "paramverify":
        facts["verdicts"] = {
            d["protocol"]: [d["status"], d["abstract_states"],
                            d["iterations"]]
            for d in _documents(stdout)}
    elif kind == "simulate":
        m = _SIMULATE.search(stdout)
        if m is None:
            raise ValueError("no simulator summary")
        facts.update(completions=int(m[1]), messages=int(m[2]))
    else:
        raise ValueError(f"no verdict reader for command {kind!r}")
    return facts


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expected_for(expected: dict[str, Any], slug: str, *, smoke: bool,
                 sim_seed: int) -> Optional[dict[str, Any]]:
    """The reference facts of ``slug``; simulator entries are per seed."""
    entry = expected["smoke" if smoke else "full"].get(slug)
    if entry is not None and "by_seed" in entry:
        return entry["by_seed"].get(str(sim_seed))
    return entry


def check(facts: Optional[dict[str, Any]],
          reference: Optional[dict[str, Any]]) -> Optional[str]:
    """None when ``facts`` match ``reference``, else what differs.

    Only the fields the reference names are compared, so the traced pass —
    which has counts but no exit code — checks against the same entry.
    """
    if reference is None:
        return "no reference entry in expected.json"
    if facts is None:
        return "no verdict"
    diffs = []
    for key, want in reference.items():
        if key not in facts:
            if key != "rc":
                diffs.append(f"{key}: missing")
        elif facts[key] != want:
            diffs.append(f"{key}: got {facts[key]!r}, expected {want!r}")
    return "; ".join(diffs) or None
