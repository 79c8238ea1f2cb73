"""Child side of the benchmark: one fresh interpreter per run.

``python perf/child.py run OUT ARGV_JSON`` imports ``repro.cli`` and runs
each command in ``ARGV_JSON`` (a JSON list of argv lists) through
``repro.cli.main``, capturing its standard output; ``prime`` instead builds
every distinct system those commands need — ``refine()`` per protocol and,
for ``check``/``verify`` at the async level, the ``AsyncSystem`` with its
step engine (compiled-module generation and the on-disk cache write) — and
expands no state.  Either way it writes one JSON document to ``OUT``; the
parent times the process from outside and reads the verdicts, and the
process's peak resident size, from there.

The parent puts ``src`` on ``PYTHONPATH``; this file imports nothing from
the benchmark, so what it costs beside the program is the interpreter, the
``json`` module and the output file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def _run(cli, argvs: list[list[str]]) -> dict:
    commands = []
    for argv in argvs:
        out = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse errors and rejected flags
            rc = exc.code if isinstance(exc.code, int) else 2
            error = None if isinstance(exc.code, int) else str(exc.code)
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            rc, error = -1, repr(exc)
        commands.append({"rc": rc, "seconds": time.perf_counter() - t0,
                         "stdout": out.getvalue(), "error": error})
    return {"commands": commands}


def _prime(cli, argvs: list[list[str]]) -> dict:
    from repro.refine.engine import refine
    from repro.refine.plan import RefinementConfig
    from repro.semantics.asynchronous import AsyncSystem

    parser = cli.build_parser()
    refined: dict[str, object] = {}
    built: set[tuple[str, int, str]] = set()
    refine_s = engine_s = 0.0
    for argv in argvs:
        args = parser.parse_args(argv)
        if args.command in ("flows", "paramverify"):
            continue  # rendezvous-AST analyses: nothing to refine or build
        names = (sorted(cli.PROTOCOLS) if args.protocol == "all"
                 else [args.protocol])
        for name in names:
            if name not in refined:
                t0 = time.perf_counter()
                refined[name] = refine(cli.PROTOCOLS[name](),
                                       RefinementConfig())
                refine_s += time.perf_counter() - t0
            if (args.command not in ("check", "verify")
                    or args.level != "async"):
                continue
            key = (name, args.nodes, args.engine)
            if key in built:
                continue
            built.add(key)
            t0 = time.perf_counter()
            AsyncSystem(refined[name], args.nodes, engine=args.engine)
            engine_s += time.perf_counter() - t0
    return {"refine_s": refine_s, "engine_s": engine_s}


def _peak_rss_kib() -> int:
    """This process's own high-water mark.  ``ru_maxrss`` would not do: the
    kernel seeds it at exec with the *parent's* resident size, which puts a
    floor of the benchmark runner's ~100 MiB under every child."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    mode, out_path, argv_json = argv
    t0 = time.perf_counter()
    import repro.cli as cli
    import_s = time.perf_counter() - t0
    argvs = json.loads(argv_json)
    doc = _prime(cli, argvs) if mode == "prime" else _run(cli, argvs)
    doc["import_s"] = import_s
    doc["peak_rss_kib"] = _peak_rss_kib()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
