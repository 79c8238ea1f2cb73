"""Command-line interface: ``python -m repro <command>`` or ``repro <command>``.

Commands:

* ``check``    — the raw reachability sweep with the performance knobs:
  ``--store fingerprint`` (SPIN-style hash compaction, ~16 bytes/state),
  ``--spill-dir DIR`` (its disk tier), ``--levels``, ``--profile out.json``.
* ``verify``   — ``check`` plus properties, on the same sweep and flags:
  the coherence invariants with traces, and ``--progress`` (weak fairness).
* ``lint``     — run the static-analysis suite (section 2.4 restrictions,
  reachability, guard overlap, fusability, buffer demand, transients,
  the P44xx simulation certificate, the P45xx/P46xx any-N verdicts)
  and print structured diagnostics (``--json`` for machines,
  ``--format sarif`` for code-scanning upload, ``--strict`` to fail on
  warnings, ``--select CODE`` / ``--ignore CODE`` to filter — both
  accept family prefixes such as ``P45``).
* ``flows``    — derive the message-flow graph and print the
  parameterized deadlock-freedom verdict (``--json`` for machines,
  ``--dot`` for Graphviz, ``--strict`` to fail unless discharged).
* ``paramverify`` — the parameterized coherence verdict (P46xx):
  discharge single-writer/SWMR for every node count through the
  lemma-gated environment abstraction, or show the concrete
  two-node refutation witness as an MSC.
* ``refine``   — print the refinement plan and the refined state machines.
* ``simulate`` — run the discrete-event simulator and print metrics
  (``--msc N`` renders a message-sequence chart of the first N events).
* ``soundness``— check Equation 1 (weak simulation) exhaustively.
* ``table3``   — regenerate the paper's Table 3 (states, both levels).
* ``pool``     — the section 6 multi-line shared-buffer-pool study.

Examples::

    repro verify migratory --level rendezvous -n 8 --progress
    repro verify invalidate -n 6 --symmetry
    repro check migratory --level async -n 3 --store fingerprint --levels
    repro check invalidate --level async -n 3 --symmetry --por --levels
    repro check migratory --level async -n 4 --profile out.json
    repro lint migratory --json
    repro lint all -n 8 --strict
    repro lint msi --select P45
    repro lint all --format sarif > lint.sarif
    repro flows invalidate
    repro flows all --json
    repro paramverify mesi
    repro paramverify all --json --strict
    repro refine invalidate --figures
    repro simulate migratory -n 8 --workload hot --until 50000
    repro simulate migratory -n 3 --until 500 --msc 12
    repro soundness msi -n 2
    repro table3 --budget 200000
    repro pool migratory --lines 64
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import Optional

from . import __version__
from .bench.table3 import TABLE3_BUDGET, TABLE3_CELLS, render_table3
from .check.explorer import explore
from .check.observe import JsonProfileWriter, MultiObserver, ProgressRenderer
from .check.por import PRESERVE_COUNTS, PRESERVE_INVARIANTS
from .check.properties import (
    WithCompletes,
    check_progress,
    completes,
    progress_of,
)
from .check.simulation import check_simulation
from .check.spec import SystemSpec, build_system
from .check.store import STORE_NAMES, make_store
from .errors import ReproError
from .protocols import LIBRARY_PROTOCOLS as PROTOCOLS
from .protocols.handwritten import handwritten_migratory
from .protocols.invariants import (
    COHERENCE_SPECS,
    async_structural_invariants,
    coherence_invariants,
)
from .refine.engine import refine
from .refine.plan import RefinementConfig
from .semantics.asynchronous import AsyncSystem
from .sim.engine import Simulator
from .sim.workload import HotLineWorkload, SyntheticWorkload
from .viz.ascii import process_ascii, protocol_summary, refined_ascii
from .viz.dot import refined_dot


def _build(name: str):
    try:
        return PROTOCOLS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown protocol {name!r}; choose from "
            f"{', '.join(sorted(PROTOCOLS))}") from None


def _config(args) -> RefinementConfig:
    return RefinementConfig(
        home_buffer_capacity=args.buffer,
        use_reqreply=not args.no_reqreply,
        reserve_progress_buffer=not args.no_progress_buffer,
    )


def cmd_verify(args) -> int:
    if args.progress and args.store != "exact":
        args.usage_error("--progress reports states, which only the exact "
                         "store keeps: use --store exact (the default)")
    spec = _spec(args, preserve=PRESERVE_INVARIANTS)
    invariants = list(coherence_invariants(COHERENCE_SPECS[args.protocol]))
    if args.level == "async":
        invariants += async_structural_invariants(args.buffer)
    # unreduced, the safety sweep records the graph progress reads; a
    # reduction relabels that graph, so then progress sweeps unreduced
    one_sweep = args.progress and not spec.reductions()
    result, store = _sweep(args, spec, invariants, one_sweep)
    for violation in result.violations:
        print(violation.describe())
    for deadlock in result.deadlocks[:1]:
        print(deadlock.describe())
    ok = result.ok
    if args.progress:
        progress = (progress_of(result, store) if one_sweep else
                    check_progress(build_system(replace(spec, symmetry=False,
                                                        por=False)),
                                   max_states=args.budget,
                                   max_seconds=args.timeout))
        print(progress.describe())
        ok = ok and progress.ok
    return 0 if ok else 1


def _spec(args, preserve: str = PRESERVE_COUNTS) -> SystemSpec:
    if args.por and args.level == "rendezvous":
        raise SystemExit(
            "--por prunes asynchronous message interleavings; the "
            "rendezvous level has none (use --level async, or drop --por)")
    return SystemSpec(protocol=args.protocol, level=args.level,
                      n_remotes=args.nodes,
                      config=_config(args) if args.level == "async" else None,
                      symmetry=args.symmetry, por=args.por,
                      preserve=preserve)


def _sweep(args, spec, invariants=(), progress: bool = False):
    """The one sweep behind ``check`` and ``verify``: ``spec`` explored
    into the store, budgets and observers the flags describe (with
    ``progress``, recording what ``progress_of`` reads); prints the
    summary line and returns the result and the store."""
    partitions = getattr(args, "partitions", None)  # check only
    if args.store != "fingerprint" and (partitions is not None
                                        or args.spill_dir is not None):
        args.usage_error(
            "--partitions and --spill-dir size the fingerprint store's disk "
            "tier: use them with --store fingerprint (the exact store keeps "
            "every state resident)")
    observers = ([ProgressRenderer()] if args.levels else []) + (
        [JsonProfileWriter(args.profile)] if args.profile else [])
    system = build_system(spec)
    # one table; --partitions only multiplies the merge threshold; witness
    # columns whenever there is a counterexample to trace (not on disk)
    store = make_store(args.store, partitions, spill_dir=args.spill_dir,
                       spill_threshold=args.spill_threshold,
                       witness=bool(invariants) and args.spill_dir is None)
    try:
        result = explore(WithCompletes(system) if progress else system,
                         name=f"{args.protocol}-{args.level}-{args.nodes}",
                         invariants=invariants, max_states=args.budget,
                         max_seconds=args.timeout,
                         max_bytes=args.memory_limit, store=store,
                         observer=MultiObserver(*observers),
                         reductions=spec.reductions(),
                         edge_label=completes if progress else None)
    finally:
        close = getattr(store, "close", None)  # mmaps + file handles
        if callable(close):
            close()
    print(result.describe())
    if args.profile:
        print(f"[profile written to {args.profile}]")
    return result, store


_SIZE_UNITS = {"": 1, "B": 1,
               "K": 1 << 10, "KB": 1 << 10, "KIB": 1 << 10,
               "M": 1 << 20, "MB": 1 << 20, "MIB": 1 << 20,
               "G": 1 << 30, "GB": 1 << 30, "GIB": 1 << 30}


def parse_bytes(text: str) -> int:
    """Parse a human byte size: ``64MiB``, ``512K``, ``2G``, ``4096``.

    Units are binary (K = KiB = 1024) — this knob emulates the paper's
    64 MB memory allotment, where nobody means decimal megabytes.
    """
    cleaned = text.strip().upper()
    split = len(cleaned)
    while split and not cleaned[split - 1].isdigit():
        split -= 1
    digits, unit = cleaned[:split], cleaned[split:].strip()
    # whole, unsigned counts only: "1.5M", "-5" and a bare "M" are refused
    if not digits.isdecimal() or unit not in _SIZE_UNITS:
        raise argparse.ArgumentTypeError(
            f"unparseable size {text!r}; use e.g. 64MiB, 512K, 2G, 4096")
    return int(digits) * _SIZE_UNITS[unit]


def _ranged(cast, wanted: str, accepts):
    """An argparse ``type``: ``cast`` the text, then refuse (usage error,
    exit 2) a value ``accepts`` rejects; NaN fails every comparison."""
    def parse(text: str):
        value = cast(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {value}")
        return value
    parse.__name__ = cast.__name__  # argparse: "invalid int value: 'x'"
    return parse


_positive_int = _ranged(int, "at least 1", lambda v: v >= 1)
_positive_float = _ranged(float, "greater than 0", lambda v: v > 0)
_finite_positive_float = _ranged(float, "finite and greater than 0",
                                 lambda v: 0 < v < math.inf)
_non_negative_float = _ranged(float, "at least 0", lambda v: v >= 0)
_fraction = _ranged(float, "between 0 and 1", lambda v: 0 <= v <= 1)


def cmd_check(args) -> int:
    result, _store = _sweep(args, _spec(args))
    return 0 if result.completed else 1


def cmd_lint(args) -> int:
    from .analysis import Severity, analyze_protocol, analyze_refined
    from .analysis.diagnostics import expand_codes
    from .errors import ValidationError

    try:
        selected = expand_codes(args.select)
        ignored = expand_codes(args.ignore)
    except KeyError as exc:
        raise SystemExit(
            f"{exc.args[0]}; see docs/ANALYSIS.md for the catalogue"
        ) from None
    overlap = sorted(selected & ignored)
    if overlap:
        raise SystemExit(
            f"code(s) both selected and ignored: {', '.join(overlap)}")
    names = sorted(PROTOCOLS) if args.protocol == "all" else [args.protocol]
    config = _config(args)
    fmt = args.format if args.format != "text" or not args.json else "json"
    worst: Optional[Severity] = None
    reports = []
    for name in names:
        protocol = _build(name)
        try:
            # analyze the *refined* protocol so the transient-state pass
            # runs too.  refine() is not cheap — its gate sweeps the n = 2
            # asynchronous space for the P44xx certificate — but the
            # verdict is memoized, so the simulation pass below reads it
            # back instead of sweeping again.
            report = analyze_refined(refine(protocol, config),
                                     nodes=args.nodes)
        except ValidationError:
            # unrefinable: report the protocol-level diagnostics instead
            report = analyze_protocol(protocol, config=config,
                                      nodes=args.nodes)
        if selected:
            report = report.select(selected)
        if ignored:
            report = report.ignore(ignored)
        severity = report.max_severity
        if severity is not None and (worst is None or severity > worst):
            worst = severity
        reports.append(report)
    if fmt == "sarif":
        from .analysis.sarif import render_sarif
        print(render_sarif(reports))
    else:
        _emit([report.render_json() if fmt == "json" else report.render_text()
               for report in reports], fmt == "json")
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    return 1 if worst is not None and worst >= threshold else 0


def cmd_flows(args) -> int:
    import json

    from .analysis.flows import derive_flows
    from .analysis.paramcheck import check_parameterized

    names = sorted(PROTOCOLS) if args.protocol == "all" else [args.protocol]
    config = _config(args)
    all_discharged = True
    outputs = []
    for name in names:
        protocol = _build(name)
        graph = derive_flows(protocol, config=config)
        if args.dot:
            from .viz.dot import flow_dot
            outputs.append(flow_dot(graph))
            all_discharged = all_discharged and graph.complete
            continue
        verdict = check_parameterized(protocol, config=config)
        all_discharged = all_discharged and verdict.discharged
        if args.json:
            doc = graph.as_dict()
            doc["paramcheck"] = verdict.as_dict()
            outputs.append(json.dumps(doc, indent=2))
        else:
            lines = [graph.describe(),
                     f"parameterized verdict: {verdict.verdict} "
                     f"({verdict.concrete}-concrete-remote + Other "
                     f"abstraction, {verdict.abstract_states} state(s), "
                     f"{verdict.stuck} stuck)"]
            lines.extend(f"  {d.render()}" for d in verdict.obligations)
            outputs.append("\n".join(lines))
    _emit(outputs, args.json)
    return 0 if all_discharged or not args.strict else 1


def cmd_paramverify(args) -> int:
    import json

    from .analysis.coherencecheck import check_coherence
    from .viz.msc import render_counterexample_msc

    names = sorted(PROTOCOLS) if args.protocol == "all" else [args.protocol]
    all_discharged = True
    outputs = []
    for name in names:
        verdict = check_coherence(_build(name), COHERENCE_SPECS[name],
                                  max_states=args.budget)
        all_discharged = all_discharged and verdict.discharged
        if args.json:
            outputs.append(json.dumps(verdict.as_dict(), indent=2))
            continue
        lines = [
            f"parameterized coherence for {name}: {verdict.status}",
            f"  properties: {'; '.join(verdict.properties)}",
            f"  abstraction: 2 concrete remotes + Other, "
            f"{verdict.abstract_states} abstract state(s), "
            f"{verdict.iterations} iteration(s)",
            f"  lemmas: {verdict.candidates} candidate(s), "
            f"{verdict.validated} hold on the abstraction and gate Other",
        ]
        lines.extend(f"  {d.render()}" for d in verdict.obligations)
        if verdict.witness is not None:
            lines.append("")
            lines.append(f"refutation witness "
                         f"({len(verdict.witness.steps)} steps):")
            lines.append(render_counterexample_msc(verdict.witness, 2))
        outputs.append("\n".join(lines))
    _emit(outputs, args.json)
    return 0 if all_discharged or not args.strict else 1


def _emit(outputs: list[str], as_json: bool) -> None:
    if as_json and len(outputs) > 1:
        # one parseable document, not concatenated ones (CI consumes this)
        print("[" + ",\n".join(outputs) + "]")
    else:
        print("\n\n".join(outputs))


def cmd_refine(args) -> int:
    protocol = _build(args.protocol)
    refined = refine(protocol, _config(args))
    print(protocol_summary(refined))
    print()
    if args.dot:
        print(refined_dot(refined, "home"))
        print(refined_dot(refined, "remote"))
        return 0
    if args.figures:
        print("--- rendezvous home (cf. paper Figure 2) ---")
        print(process_ascii(protocol.home))
        print("\n--- rendezvous remote (cf. paper Figure 3) ---")
        print(process_ascii(protocol.remote))
        print()
    print("--- refined home (cf. paper Figure 4) ---")
    print(refined_ascii(refined, "home"))
    print("\n--- refined remote (cf. paper Figure 5) ---")
    print(refined_ascii(refined, "remote"))
    return 0


def cmd_simulate(args) -> int:
    protocol = _build(args.protocol)
    if args.hand and args.protocol != "migratory":
        raise SystemExit("--hand applies to the migratory protocol only")
    refined = (handwritten_migratory(home_buffer_capacity=args.buffer)
               if args.hand else refine(protocol, _config(args)))
    if args.workload == "hot":
        workload = HotLineWorkload(seed=args.seed)
    else:
        workload = SyntheticWorkload(seed=args.seed,
                                     write_fraction=args.write_fraction)
    simulator = Simulator(refined, args.nodes, workload, seed=args.seed,
                          latency=args.latency,
                          record_trace=args.msc is not None)
    metrics = simulator.run(until=args.until)
    print(metrics.describe())
    if args.msc is not None:
        from .viz.msc import render_msc
        print()
        print(render_msc(simulator.trace, args.nodes, max_events=args.msc))
    return 0


def cmd_soundness(args) -> int:
    protocol = _build(args.protocol)
    refined = refine(protocol, _config(args))
    report = check_simulation(AsyncSystem(refined, args.nodes),
                              max_states=args.budget,
                              max_seconds=args.timeout)
    print(report.describe())
    return 0 if report.ok else 1


def cmd_table3(args) -> int:
    rows = [dict(explore(build_system(spec), max_states=args.budget,
                         max_seconds=args.timeout).counts(),
                 protocol=spec.protocol, n=spec.n_remotes,
                 level=spec.level, paper=paper)
            for spec, paper in TABLE3_CELLS]
    print(render_table3(rows, args.budget))
    return 0


def cmd_pool(args) -> int:
    from .sim.pool import simulate_pool
    protocol = _build(args.protocol)
    refined = refine(protocol, _config(args))

    def workload(line: int):
        return SyntheticWorkload(seed=args.seed + line,
                                 think_time=args.think_time,
                                 write_fraction=args.write_fraction)

    report = simulate_pool(refined, args.nodes, args.lines, workload,
                           until=args.until, seed=args.seed)
    print(report.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def refinement_flags(p):
        p.add_argument("--buffer", type=int, default=2,
                       help="home buffer capacity k (default 2)")
        p.add_argument("--no-reqreply", action="store_true",
                       help="disable the section 3.3 optimization")
        p.add_argument("--no-progress-buffer", action="store_true",
                       help="ablation: drop the progress-buffer reservation")

    def common(p, default_nodes=2, budgets=True):
        """A protocol, its node count and refinement flags, and with
        ``budgets`` the state and time budgets of a sweep."""
        p.add_argument("protocol", choices=sorted(PROTOCOLS))
        p.add_argument("-n", "--nodes", type=_positive_int,
                       default=default_nodes)
        refinement_flags(p)
        if budgets:
            p.add_argument("--budget", type=_positive_int, default=None,
                           help="state budget (emulates a memory cap)")
            p.add_argument("--timeout", type=_positive_float, default=None,
                           help="wall-clock budget in seconds")

    def sweep_flags(p):
        """The flags of the one sweep behind ``check`` and ``verify``."""
        common(p)
        p.add_argument("--level", choices=["rendezvous", "async"],
                       default="rendezvous")
        # kept for perf/workloads.py:67 (passes it) and perf/child.py:70
        p.add_argument("--engine", choices=["interpreted", "compiled"],
                       default="interpreted",
                       help="accepted for old command lines and selects "
                            "nothing: there is one step engine")
        p.add_argument("--store", choices=list(STORE_NAMES), default="exact",
                       help="visited-state store: exact (traces, default) or "
                            "fingerprint (SPIN-style hash compaction)")
        p.add_argument("--profile", metavar="PATH", default=None,
                       help="write a per-level JSON run profile "
                            "(schema repro.profile/6; records active "
                            "reductions, reduction ratios and the disk "
                            "tier's size)")
        p.add_argument("--levels", action="store_true",
                       help="print one progress line per BFS level")
        p.add_argument("--spill-dir", metavar="DIR", default=None,
                       help="give the fingerprint store a disk tier: an "
                            "mmap-backed sorted fingerprint file under DIR, "
                            "started empty (fingerprint store only)")
        p.add_argument("--spill-threshold", type=_positive_int,
                       default=1 << 20,
                       metavar="N",
                       help="resident entries before the hot tier is merged "
                            "into the spill file (default: %(default)s)")
        p.add_argument("--memory-limit", metavar="SIZE", type=parse_bytes,
                       default=None,
                       help="end the run as a well-formed Unfinished result "
                            "when the footprint estimate of the store (and "
                            "graph) crosses SIZE (e.g. 64MiB, 512K, 2G) — "
                            "the paper's memory allotment without the OOM "
                            "kill")
        p.add_argument("--symmetry", action="store_true",
                       help="explore one representative per remote-"
                            "permutation orbit")
        p.add_argument("--por", action="store_true",
                       help="ample-set partial-order reduction (async level "
                            "only; verify's preserves invariants)")
        p.set_defaults(usage_error=p.error)

    def every_protocol(p, what, refinement=True):
        p.add_argument("protocol", choices=sorted(PROTOCOLS) + ["all"],
                       help=f"library protocol to {what}, or 'all'")
        if refinement:
            refinement_flags(p)

    p = sub.add_parser("verify", help="model-check a protocol: check plus "
                                      "invariants, traces and progress")
    sweep_flags(p)
    p.add_argument("--progress", action="store_true",
                   help="also run the weak-fairness progress check (the "
                        "same sweep unless reduced; exact store only)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "check", help="raw reachability sweep with performance knobs",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  repro check migratory --level async -n 3 --levels\n"
               "      per-level progress lines on stderr\n"
               "  repro check migratory --level async -n 4 "
               "--store fingerprint\n"
               "      hash-compacted visited set (collision-counted)\n"
               "  repro check invalidate --level async -n 3 "
               "--profile out.json\n"
               "      JSON run profile (also written when the run is "
               "interrupted)")
    sweep_flags(p)
    p.add_argument("--partitions", type=_positive_int, default=None,
                   metavar="P",
                   help="multiply --spill-threshold by P (the fingerprint "
                        "store was sharded P ways once and kept P x N "
                        "entries resident; it is one table now, sized "
                        "the same; fingerprint store only)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "lint", help="run the static-analysis suite",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  repro lint migratory --select P3301 --select P3302\n"
               "      show only the fusability report\n"
               "  repro lint all --ignore P3403 --ignore P4405\n"
               "      hide the inventory notes\n"
               "  repro lint msi --select P45\n"
               "      the whole parameterized-flow family by prefix\n"
               "  repro lint all --strict\n"
               "      exit 1 on warnings too (CI gate)\n"
               "  repro lint msi --json > msi-lint.json\n"
               "      machine-readable report")
    every_protocol(p, "lint")
    p.add_argument("-n", "--nodes", type=_positive_int, default=4,
                   help="remote node count assumed by the buffer-demand "
                        "bound (default 4)")
    p.add_argument("--json", action="store_true",
                   help="emit one JSON report per protocol "
                        "(alias for --format json)")
    p.add_argument("--format", choices=["text", "json", "sarif"],
                   default="text",
                   help="output format; sarif emits one SARIF 2.1.0 "
                        "document for code-scanning upload")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on warnings, not just errors")
    p.add_argument("--select", action="append", metavar="CODE", default=[],
                   help="only report these diagnostic codes (repeatable; "
                        "exact code or family prefix, e.g. --select P4401 "
                        "or --select P45)")
    p.add_argument("--ignore", action="append", metavar="CODE", default=[],
                   help="drop these diagnostic codes from the report "
                        "(repeatable; the complement of --select, same "
                        "prefix syntax)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "flows", help="derive message flows; parameterized verdict",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  repro flows invalidate\n"
               "      flow inventory + arbitrary-N deadlock verdict\n"
               "  repro flows all --json > flows.json\n"
               "      machine-readable flow graphs (CI artifact)\n"
               "  repro flows msi --dot | dot -Tpng > msi-flows.png\n"
               "      Graphviz rendering of the flow clusters")
    every_protocol(p, "analyze")
    p.add_argument("--witness-nodes", type=_positive_int, default=2,
                   help=argparse.SUPPRESS)  # ignored; frozen perf/ reads it
    p.add_argument("--json", action="store_true",
                   help="emit one JSON flow-graph document per protocol")
    p.add_argument("--dot", action="store_true",
                   help="emit Graphviz DOT of the flow graph (skips the "
                        "parameterized check)")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero unless deadlock freedom is "
                        "discharged for arbitrary N")
    p.set_defaults(func=cmd_flows)

    p = sub.add_parser(
        "paramverify",
        help="parameterized coherence verdict (single-writer/SWMR, any N)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  repro paramverify mesi\n"
               "      discharge single-writer/SWMR for every node count\n"
               "  repro paramverify all --json > paramverify-report.json\n"
               "      machine-readable verdicts (CI artifact)\n"
               "  repro paramverify all --strict\n"
               "      exit 1 unless every protocol discharges (CI gate)")
    # the verdict reads no refinement config, so takes no flag for one;
    # the defaults stay on the namespace because frozen perf/ reads them
    every_protocol(p, "verify", refinement=False)
    p.set_defaults(buffer=2, no_reqreply=False, no_progress_buffer=False)
    p.add_argument("--budget", type=_positive_int, default=50_000,
                   help="state budget per abstract exploration "
                        "(default 50000)")
    p.add_argument("--json", action="store_true",
                   help="emit one JSON verdict per protocol")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero unless coherence is discharged "
                        "for arbitrary N")
    p.set_defaults(func=cmd_paramverify)

    p = sub.add_parser("refine", help="show the refinement result")
    p.add_argument("protocol", choices=sorted(PROTOCOLS))
    refinement_flags(p)
    p.add_argument("--figures", action="store_true",
                   help="also print the rendezvous machines (Figures 2-3)")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("simulate", help="run the discrete-event simulator")
    common(p, default_nodes=8, budgets=False)
    p.add_argument("--workload", choices=["synthetic", "hot"],
                   default="synthetic")
    p.add_argument("--until", type=_finite_positive_float,
                   default=50_000.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--latency", type=_non_negative_float, default=5.0)
    p.add_argument("--write-fraction", type=_fraction, default=0.5)
    p.add_argument("--hand", action="store_true",
                   help="use the hand-designed (unacked LR) variant")
    p.add_argument("--msc", type=_positive_int, metavar="N", default=None,
                   help="print a message-sequence chart of the first N "
                        "delivery/completion events")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("soundness", help="check Equation 1 exhaustively")
    common(p)
    p.set_defaults(func=cmd_soundness)

    p = sub.add_parser("table3", help="regenerate the paper's Table 3")
    p.add_argument("--budget", type=_positive_int, default=TABLE3_BUDGET,
                   help="state budget standing in for the 64 MB cap")
    p.add_argument("--timeout", type=_positive_float, default=120.0)
    p.set_defaults(func=cmd_table3)

    p = sub.add_parser("pool", help="multi-line shared-buffer-pool study "
                                    "(paper section 6)")
    common(p, default_nodes=8, budgets=False)
    p.add_argument("--lines", type=_positive_int, default=32,
                   help="number of concurrently simulated lines")
    p.add_argument("--until", type=_finite_positive_float,
                   default=10_000.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--think-time", type=_finite_positive_float,
                   default=120.0)
    p.add_argument("--write-fraction", type=_fraction, default=1.0)
    p.set_defaults(func=cmd_pool)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
