"""The traced pass: where each second of a workload goes, layer by layer.

One extra in-process run per workload, never part of a timed run.  Each
command of the workload is re-enacted here the way ``repro.cli`` runs it —
the argv goes through the program's own parser, the systems are built with
the same constructors — but with the benchmark's proxies
(``perf/spans.py``) around every layer boundary and direct timed calls to
the analysis entry points.  The verdict of every re-enacted command is
checked against ``expected.json`` like any other, so a traced pass that
perturbed the exploration cannot report numbers.

Metric names are ``<module>.<metric>``; :data:`PER_LAYER` lists every one
with its unit and which direction is better.  A layer a workload bypasses
reports zero calls and zero seconds; a layer whose entry point is *missing*
(a later change removed or renamed it) reports ``None`` and a note, and the
other layers and workloads carry on.
"""

from __future__ import annotations

import random
import time
from pathlib import Path
from typing import Any, Callable, Optional

from spans import (LevelClock, Recorder, TracedStore, TracedSystem,
                   instrument, layer_name)
from workloads import WORKLOADS, Workload

#: every per-layer metric: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "cli.import_s": ("s", "lower"),
    "refine.engine.refine_s": ("s", "lower"),
    "refine.compiled.codegen_s": ("s", "lower"),
    "refine.compiled.cache_load_s": ("s", "lower"),
    "refine.compiled.source_bytes": ("B", "lower"),
    **{f"{engine}.{name}": spec for engine in
       ("refine.compiled", "semantics.asynchronous")
       for name, spec in (("step_s", ("s", "lower")),
                          ("step_calls", ("count", "lower")),
                          ("successors", ("count", "lower")),
                          ("ns_per_successor", ("ns", "lower")),
                          ("share", ("ratio", "lower")))},
    "check.por.self_s": ("s", "lower"),
    "check.por.calls": ("count", "lower"),
    "check.por.ample_ratio": ("ratio", "higher"),
    "check.por.pruned_ratio": ("ratio", "higher"),
    "check.por.share": ("ratio", "lower"),
    "check.symmetry.self_s": ("s", "lower"),
    "check.symmetry.calls": ("count", "lower"),
    "check.symmetry.moved_ratio": ("ratio", "lower"),
    "check.symmetry.share": ("ratio", "lower"),
    "check.store.add_s": ("s", "lower"),
    "check.store.adds": ("count", "lower"),
    "check.store.dup_ratio": ("ratio", "lower"),
    "check.store.bytes_per_state": ("B", "lower"),
    "check.store.collisions": ("count", "lower"),
    "check.store.share": ("ratio", "lower"),
    "check.store.encode_ns": ("ns", "lower"),
    "check.store.exact_add_ns": ("ns", "lower"),
    "check.store.fingerprint_add_ns": ("ns", "lower"),
    "check.store.probe_hit_ns": ("ns", "lower"),
    "check.spill.spill_bytes": ("B", "lower"),
    "check.spill.merge_ns_per_entry": ("ns", "lower"),
    "check.spill.lookup_ns": ("ns", "lower"),
    "check.explorer.self_s": ("s", "lower"),
    "check.explorer.levels": ("count", "lower"),
    "check.explorer.states_per_s": ("1/s", "higher"),
    "check.explorer.share": ("ratio", "lower"),
    "check.properties.progress_s": ("s", "lower"),
    "check.simulation.eq1_s": ("s", "lower"),
    **{f"cmd_s.{command.slug}": ("s", "lower")
       for workload in WORKLOADS.values() for command in workload.commands},
    "analysis.manager.lint_s": ("s", "lower"),
    "analysis.manager.diagnostics": ("count", "lower"),
    "analysis.simulation.certificate_s": ("s", "lower"),
    "analysis.flows.derive_s": ("s", "lower"),
    "analysis.paramcheck.check_s": ("s", "lower"),
    "analysis.coherencecheck.check_s": ("s", "lower"),
    "analysis.coherencecheck.abstract_states": ("count", "lower"),
    "analysis.coherencecheck.iterations": ("count", "lower"),
    "sim.engine.run_s": ("s", "lower"),
    "sim.engine.step_s": ("s", "lower"),
    "sim.engine.completions": ("count", "higher"),
    "sim.engine.messages": ("count", "lower"),
    "sim.engine.ns_per_completion": ("ns", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: metrics that are counts of work done: they must repeat exactly between
#: runs of one commit (ratios of counts included).  ``bytes_per_state`` is
#: left out: the exact store's estimate samples ``sys.getsizeof`` of one
#: state's memoized hash, an int whose size follows the process's hash seed.
COUNT_METRICS = tuple(
    name for name, (unit, _better) in PER_LAYER.items()
    if (unit in ("count", "B") or name.endswith("_ratio"))
    and name not in ("trace.overhead_ratio", "check.store.bytes_per_state"))

#: the spans under which a layer's share is taken
_ROOTS = ("check.explorer", "sim.engine.run_s")

#: command kind -> prefixes of the trace metrics it feeds (what turns to
#: ``None`` when the command cannot be re-enacted)
_FEEDS = {
    "check": ("refine.compiled.", "semantics.asynchronous.", "check.por.",
              "check.symmetry.", "check.store.", "check.spill.",
              "check.explorer."),
    "soundness": ("check.simulation.",),
    "lint": ("analysis.manager.", "analysis.simulation."),
    "flows": ("analysis.flows.", "analysis.paramcheck."),
    "paramverify": ("analysis.flows.", "analysis.coherencecheck."),
    "simulate": ("sim.engine.", "semantics.asynchronous."),
}
_FEEDS["verify"] = _FEEDS["check"] + ("check.properties.",)


class _Pass:
    """What the re-enacted commands of one workload leave behind."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self.counts: dict[str, int] = {}
        self.systems: list[dict[str, TracedSystem]] = []
        self.stores: list[TracedStore] = []
        self.results: list[Any] = []
        self.levels = 0
        #: seconds of direct timed calls the command itself does not make
        self.extra_s = 0.0

    def timed(self, metric: str, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> Any:
        """A direct timed call: one coarse span named after its metric."""
        with self.recorder.span(metric):
            return fn(*args, **kwargs)

    def count(self, metric: str, n: int) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + n

    def seconds(self, metric: str) -> float:
        return self.recorder.span_totals(metric)[1] / 1e9


# -- one re-enactment per command kind --------------------------------------


def _config(args: Any) -> Any:
    from repro.refine.plan import RefinementConfig

    return RefinementConfig(
        home_buffer_capacity=args.buffer, use_reqreply=not args.no_reqreply,
        reserve_progress_buffer=not args.no_progress_buffer)


def _refine(run: _Pass, cli: Any, args: Any, name: str) -> Any:
    from repro.refine.engine import refine

    return run.timed("refine.engine.refine_s", refine,
                     cli.PROTOCOLS[name](), _config(args))


def _names(cli: Any, args: Any) -> list[str]:
    return sorted(cli.PROTOCOLS) if args.protocol == "all" else [args.protocol]


def _sweep(run: _Pass, cli: Any, args: Any) -> dict[str, Any]:
    """``check`` and ``verify``: the explorer over the wrapped system."""
    from repro.check.explorer import explore
    from repro.check.por import (PRESERVE_COUNTS, PRESERVE_INVARIANTS,
                                 PORSystem)
    from repro.check.store import make_partitioned_store, make_store
    from repro.check.symmetry import SymmetricSystem
    from repro.protocols.invariants import (COHERENCE_SPECS,
                                            async_structural_invariants,
                                            coherence_invariants)
    from repro.protocols.symmetry import symmetry_spec_for
    from repro.semantics.asynchronous import AsyncSystem

    if args.level != "async":
        raise ValueError("the traced pass re-enacts async-level sweeps only")
    verify = args.command == "verify"
    refined = _refine(run, cli, args, args.protocol)
    base = system = AsyncSystem(refined, args.nodes, engine=args.engine)
    reductions = []
    if args.por:
        system = PORSystem(system, preserve=(PRESERVE_INVARIANTS if verify
                                             else PRESERVE_COUNTS))
        reductions.append("por")
    if args.symmetry:
        system = SymmetricSystem(system, symmetry_spec_for(args.protocol))
        reductions.append("symmetry")
    invariants: list[Any] = []
    store_kind = "exact"
    partitions = None
    if verify:
        invariants = list(coherence_invariants(
            COHERENCE_SPECS[args.protocol]))
        invariants += async_structural_invariants(args.buffer)
    else:
        store_kind, partitions = args.store, args.partitions
    inner_store = (make_partitioned_store(
        store_kind, partitions, spill_dir=args.spill_dir,
        spill_threshold=args.spill_threshold) if partitions is not None
        else make_store(store_kind))
    store = TracedStore(inner_store, run.recorder)
    outer, proxies = instrument(system, run.recorder)
    clock = LevelClock(run.recorder)
    try:
        with run.recorder.span("check.explorer"):
            result = explore(
                outer, name=f"{args.protocol}-{args.level}-{args.nodes}",
                invariants=invariants, max_states=args.budget, store=store,
                observer=clock, reductions=tuple(reductions))
        spill_bytes = getattr(inner_store, "spill_bytes", None)
        run.count("check.spill.spill_bytes",
                  spill_bytes() if callable(spill_bytes) else 0)
    finally:
        close = getattr(inner_store, "close", None)
        if callable(close):
            close()
    run.systems.append(proxies)
    run.stores.append(store)
    run.results.append(result)
    run.levels += clock.levels
    facts: dict[str, Any] = {
        "n_states": result.n_states, "n_transitions": result.n_transitions,
        "status": "complete" if result.completed else "unfinished"}
    if result.store != "exact":
        facts["collisions"] = result.fingerprint_collisions
    if verify and args.progress:
        from repro.check.properties import check_progress

        report = run.timed("check.properties.progress_s", check_progress,
                           base, max_states=args.budget)
        facts["progress"] = (
            ["PROGRESS GUARANTEED" if report.ok else "PROGRESS FAILS",
             report.n_states, report.n_sccs] if report.completed
            else ["incomplete"])
    return facts


def _soundness(run: _Pass, cli: Any, args: Any) -> dict[str, Any]:
    from repro.check.simulation import check_simulation
    from repro.semantics.asynchronous import AsyncSystem

    refined = _refine(run, cli, args, args.protocol)
    report = run.timed("check.simulation.eq1_s", check_simulation,
                       AsyncSystem(refined, args.nodes),
                       max_states=args.budget, max_seconds=args.timeout)
    return {"verdict": ("WEAK SIMULATION HOLDS" if report.ok
                        else "SIMULATION FAILS"),
            "edges": report.n_edges_checked,
            "n_states": report.n_async_states}


def _lint(run: _Pass, cli: Any, args: Any) -> dict[str, Any]:
    from repro.analysis import analyze_refined, check_certificate

    codes = {}
    for name in _names(cli, args):
        refined = _refine(run, cli, args, name)
        report = run.timed("analysis.manager.lint_s", analyze_refined,
                           refined, nodes=args.nodes)
        run.count("analysis.manager.diagnostics", len(report.diagnostics))
        # the certificate on its own, beside what lint already ran: not
        # the command's time, so kept out of the overhead ratio
        t0 = time.perf_counter()
        run.timed("analysis.simulation.certificate_s", check_certificate,
                  refined)
        run.extra_s += time.perf_counter() - t0
        codes[report.subject] = sorted({d.code for d in report.diagnostics})
    return {"codes": codes}


def _flows(run: _Pass, cli: Any, args: Any) -> dict[str, Any]:
    from repro.analysis import check_parameterized, derive_flows

    config = _config(args)
    verdicts = {}
    for name in _names(cli, args):
        protocol = cli.PROTOCOLS[name]()
        graph = run.timed("analysis.flows.derive_s", derive_flows, protocol,
                          config=config)
        verdict = run.timed(
            "analysis.paramcheck.check_s", check_parameterized, protocol,
            graph=graph, config=config, witness_nodes=args.witness_nodes)
        verdicts[name] = [verdict.verdict, len(graph.flows)]
    return {"verdicts": verdicts}


def _paramverify(run: _Pass, cli: Any, args: Any) -> dict[str, Any]:
    from repro.analysis import check_coherence, derive_flows
    from repro.protocols.invariants import COHERENCE_SPECS

    config = _config(args)
    verdicts = {}
    for name in _names(cli, args):
        protocol = cli.PROTOCOLS[name]()
        graph = run.timed("analysis.flows.derive_s", derive_flows, protocol,
                          config=config)
        verdict = run.timed(
            "analysis.coherencecheck.check_s", check_coherence, protocol,
            COHERENCE_SPECS[name], graph=graph, config=config,
            max_states=args.budget)
        run.count("analysis.coherencecheck.abstract_states",
                  verdict.abstract_states)
        run.count("analysis.coherencecheck.iterations", verdict.iterations)
        verdicts[name] = [verdict.status, verdict.abstract_states,
                          verdict.iterations]
    return {"verdicts": verdicts}


def _simulate(run: _Pass, cli: Any, args: Any) -> dict[str, Any]:
    from repro.sim.engine import Simulator
    from repro.sim.workload import HotLineWorkload, SyntheticWorkload

    refined = _refine(run, cli, args, args.protocol)
    workload = (HotLineWorkload(seed=args.seed) if args.workload == "hot"
                else SyntheticWorkload(seed=args.seed,
                                       write_fraction=args.write_fraction))
    simulator = Simulator(refined, args.nodes, workload, seed=args.seed,
                          latency=args.latency)
    # named after its engine, so wiring the compiled engine into the
    # simulator (ROADMAP item 4) moves these spans to refine.compiled.*
    proxy = TracedSystem(simulator.system, layer_name(simulator.system),
                         run.recorder)
    simulator.system = proxy
    metrics = run.timed("sim.engine.run_s", simulator.run, until=args.until)
    run.systems.append({proxy.layer: proxy})
    run.count("sim.engine.completions", metrics.total_completions)
    run.count("sim.engine.messages", metrics.total_messages)
    return {"completions": metrics.total_completions,
            "messages": metrics.total_messages}


_REENACT: dict[str, Callable[[_Pass, Any, Any], dict[str, Any]]] = {
    "check": _sweep, "verify": _sweep, "soundness": _soundness,
    "lint": _lint, "flows": _flows, "paramverify": _paramverify,
    "simulate": _simulate,
}


def oracle_facts(argv: list[str]) -> dict[str, Any]:
    """The counts of a ``check``/``verify`` command from the oracle
    configuration: sequential ``explore``, interpreted engine, exact store,
    same reductions and budget (``--regen-expected``)."""
    import repro.cli as cli

    args = cli.build_parser().parse_args(argv)
    args.engine = "interpreted"
    args.store, args.partitions = "exact", None
    return _sweep(_Pass(), cli, args)


# -- assembling the metrics ---------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _assemble(run: _Pass) -> dict[str, Optional[float]]:
    rec = run.recorder
    root_ns = sum(rec.span_totals(root)[1] for root in _ROOTS)
    m: dict[str, Optional[float]] = {}

    def proxies(layer: str) -> list[TracedSystem]:
        return [p[layer] for p in run.systems if layer in p]

    for layer in ("refine.compiled", "semantics.asynchronous"):
        calls, total, self_ns = rec.layer_totals(layer)
        produced = sum(p.produced for p in proxies(layer))
        m[f"{layer}.step_s"] = total / 1e9
        m[f"{layer}.step_calls"] = calls
        m[f"{layer}.successors"] = produced
        m[f"{layer}.ns_per_successor"] = _ratio(total, produced)
        m[f"{layer}.share"] = _ratio(self_ns, root_ns)

    calls, _total, self_ns = rec.layer_totals("check.por")
    por = proxies("check.por")
    m["check.por.self_s"] = self_ns / 1e9
    m["check.por.calls"] = calls
    m["check.por.ample_ratio"] = _ratio(sum(p.singletons for p in por),
                                        calls)
    m["check.por.pruned_ratio"] = (
        1.0 - _ratio(sum(p.produced for p in por),
                     sum(p.enabled for p in por)) if calls else 0.0)
    m["check.por.share"] = _ratio(self_ns, root_ns)

    calls, _total, self_ns = rec.layer_totals("check.symmetry")
    sym = proxies("check.symmetry")
    m["check.symmetry.self_s"] = self_ns / 1e9
    m["check.symmetry.calls"] = calls
    m["check.symmetry.moved_ratio"] = _ratio(
        sum(p.moved for p in sym), sum(p.produced for p in sym))
    m["check.symmetry.share"] = _ratio(self_ns, root_ns)

    _calls, total, self_ns = rec.layer_totals("check.store")
    adds = sum(s.adds for s in run.stores)
    m["check.store.add_s"] = total / 1e9
    m["check.store.adds"] = adds
    m["check.store.dup_ratio"] = (
        1.0 - _ratio(sum(s.fresh for s in run.stores), adds) if adds
        else 0.0)
    m["check.store.bytes_per_state"] = _ratio(
        sum(s.approx_bytes() for s in run.stores),
        sum(len(s) for s in run.stores))
    m["check.store.collisions"] = sum(s.collisions for s in run.stores)
    m["check.store.share"] = _ratio(self_ns, root_ns)
    m["check.spill.spill_bytes"] = run.counts.get("check.spill.spill_bytes",
                                                  0)

    _n, total, self_ns = rec.span_totals("check.explorer")
    m["check.explorer.self_s"] = self_ns / 1e9
    m["check.explorer.levels"] = run.levels
    m["check.explorer.states_per_s"] = _ratio(
        sum(r.n_states for r in run.results), total / 1e9)
    m["check.explorer.share"] = _ratio(self_ns, root_ns)

    for metric in ("refine.engine.refine_s", "check.properties.progress_s",
                   "check.simulation.eq1_s", "analysis.manager.lint_s",
                   "analysis.simulation.certificate_s",
                   "analysis.flows.derive_s", "analysis.paramcheck.check_s",
                   "analysis.coherencecheck.check_s", "sim.engine.run_s"):
        m[metric] = run.seconds(metric)
    for metric in ("analysis.manager.diagnostics",
                   "analysis.coherencecheck.abstract_states",
                   "analysis.coherencecheck.iterations",
                   "sim.engine.completions", "sim.engine.messages"):
        m[metric] = run.counts.get(metric, 0)
    # the simulator's only traced callee is the step engine
    _n, total, self_ns = rec.span_totals("sim.engine.run_s")
    m["sim.engine.step_s"] = (total - self_ns) / 1e9
    m["sim.engine.ns_per_completion"] = _ratio(
        total, m["sim.engine.completions"] or 0)
    return m


def trace_workload(workload: Workload, argvs: list[list[str]],
                   ) -> dict[str, Any]:
    """Re-enact ``workload`` under tracing.

    Returns ``metrics`` (trace metrics only: the runner adds the child
    timings, the probes and the overhead ratio), ``facts`` and ``seconds``
    per command slug, ``notes`` for what could not be traced, and the
    recorder's ``trace`` document.
    """
    import repro.cli as cli

    parser = cli.build_parser()
    run = _Pass()
    facts: dict[str, Optional[dict[str, Any]]] = {}
    seconds: dict[str, float] = {}
    notes: list[str] = []
    missing: set[str] = set()
    for index, (command, argv) in enumerate(zip(workload.commands, argvs)):
        run.recorder.run = index
        args = parser.parse_args(argv)
        t0, extra0 = time.perf_counter(), run.extra_s
        try:
            facts[command.slug] = _REENACT[args.command](run, cli, args)
        except (ImportError, AttributeError) as exc:
            # a layer entry point is gone: say so, keep the other layers
            facts[command.slug] = None
            missing.add(args.command)
            notes.append(f"{command.slug}: layer entry point missing "
                         f"({exc!r}); its metrics are null")
        seconds[command.slug] = (time.perf_counter() - t0
                                 - (run.extra_s - extra0))
    metrics = _assemble(run)
    for kind in missing:
        for name in metrics:
            if name.startswith(_FEEDS[kind]):
                metrics[name] = None
    return {"metrics": metrics, "facts": facts, "seconds": seconds,
            "notes": notes, "trace": run.recorder.as_dict()}


# -- micro-probes -------------------------------------------------------------


def _ns_per(fn: Callable[[Any], Any], items: list[Any]) -> float:
    t0 = time.perf_counter_ns()
    for item in items:
        fn(item)
    return (time.perf_counter_ns() - t0) / len(items)


def micro_probes(seed: int, n_states: int, scratch: Path,
                 ) -> tuple[dict[str, Optional[float]], list[str]]:
    """Store and spill-file costs in isolation, on a seeded state sample.

    The sample is a seeded draw from a BFS prefix of invalidate n=3, each
    state re-derived fresh from ``successors()`` so that no encoding memo
    is warm: ``fingerprint()`` (encode), first ``add`` (insert) and second
    ``add`` (duplicate probe).  The insert-versus-probe split guards a
    change that speeds one up and slows the other down.
    """
    names = ("check.store.encode_ns", "check.store.fingerprint_add_ns",
             "check.store.probe_hit_ns", "check.store.exact_add_ns",
             "check.spill.merge_ns_per_entry", "check.spill.lookup_ns")
    try:
        from repro.check.spill import SpillFile
        from repro.check.store import (ExactStore, FingerprintStore,
                                       fingerprint)
        from repro.protocols.invalidate import invalidate_protocol
        from repro.refine.engine import refine
        from repro.semantics.asynchronous import AsyncSystem

        system = AsyncSystem(refine(invalidate_protocol()), 3)
        origin: dict[Any, Optional[tuple[Any, int]]] = {
            system.initial_state(): None}
        order = list(origin)
        for state in order:
            if len(order) > 2 * n_states:
                break
            for index, (_action, nxt) in enumerate(system.successors(state)):
                if nxt not in origin:
                    origin[nxt] = (state, index)
                    order.append(nxt)
        rng = random.Random(seed)
        fresh = []
        for state in rng.sample(order[1:], n_states):
            parent, index = origin[state]  # type: ignore[misc]
            fresh.append(system.successors(parent)[index][1])
        fp_store, exact = FingerprintStore(), ExactStore()
        probes: dict[str, Optional[float]] = {
            names[0]: _ns_per(fingerprint, fresh),
            names[1]: _ns_per(fp_store.add, fresh),
            names[2]: _ns_per(fp_store.add, fresh),
            names[3]: _ns_per(exact.add, fresh),
        }
        first = {rng.getrandbits(64): rng.getrandbits(64)
                 for _ in range(n_states)}
        second = {rng.getrandbits(64): rng.getrandbits(64)
                  for _ in range(n_states)}
        spill = SpillFile(scratch / "probe.spill")
        try:
            spill.merge(first)
            t0 = time.perf_counter_ns()
            spill.merge(second)
            probes[names[4]] = (time.perf_counter_ns() - t0) / len(spill)
            keys = list(first)[::2] + [rng.getrandbits(64)
                                       for _ in range(n_states // 2)]
            probes[names[5]] = _ns_per(spill.lookup, keys)
        finally:
            spill.close()
        return probes, []
    except (ImportError, AttributeError) as exc:
        return (dict.fromkeys(names),
                [f"micro-probes: layer entry point missing ({exc!r})"])
