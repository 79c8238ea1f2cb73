"""The analysis pass manager.

:func:`analyze_protocol` runs the full static-analysis suite over a
rendezvous :class:`~repro.csp.ast.Protocol` and returns an
:class:`~repro.analysis.diagnostics.AnalysisReport`;
:func:`analyze_refined` does the same for a refined protocol, adding the
transient-state checks and taking buffer capacity and fire-and-forget
sets from the plan.

Passes are registered in :data:`PROTOCOL_PASSES`; each is a pure
function from the analysis context to an iterable of diagnostics, so the
suite is trivially extensible and individually testable.  The protocol
and refined passes are AST-level — milliseconds, no state-space
exploration.  The parameterized passes (:data:`PARAM_PASSES`, the P45xx
and P46xx families) additionally sweep the environment abstraction of
:mod:`repro.analysis.environment` — one or two concrete remotes plus a
stateless Other, a thousand to ten thousand states for the library
protocols; callers that must stay exploration-free — the refinement
engine's pre-plan gate — pass ``include_param=False``.

The one derivation several passes share, the section 3.3 pair
reports, is computed once per run and kept in the context's
:class:`AnalysisCache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from ..csp.ast import Protocol
from .bufferdemand import buffer_demand_pass
from .diagnostics import AnalysisReport, Diagnostic, make
from .fusability import fusability_pass
from .overlap import overlap_pass
from .reachability import reachability_pass
from .restrictions import restriction_pass
from .transients import transient_pass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..refine.plan import RefinedProtocol, RefinementConfig
    from ..refine.reqreply import PairReport

__all__ = ["PARAM_PASSES", "PROTOCOL_PASSES", "AnalysisCache",
           "AnalysisContext", "analyze_protocol", "analyze_refined"]

#: Default node count assumed by node-count-sensitive passes (the buffer
#: demand bound scales with ``n``); override via ``nodes=``.
DEFAULT_NODES = 4


class AnalysisCache:
    """Per-run memo for the derivation shared across passes.

    The fusability pass and the flows pass both need the section 3.3
    pair reports (one :func:`~repro.refine.reqreply.explain_pair` per
    candidate pair); they are computed at most once per analysis run.
    """

    def __init__(self) -> None:
        self._reports: "Optional[tuple[PairReport, ...]]" = None

    def pair_reports(self, protocol: Protocol,
                     strict_cycles: bool) -> "tuple[PairReport, ...]":
        if self._reports is None:
            from ..refine.reqreply import fusability_report

            self._reports = fusability_report(
                protocol, strict_cycles=strict_cycles)
        return self._reports


def _default_config() -> "RefinementConfig":
    from ..refine.plan import RefinementConfig

    return RefinementConfig()


@dataclass(frozen=True)
class AnalysisContext:
    """Everything a pass may need; protocol-level passes ignore most.

    ``config`` is the refinement configuration the passes assume (buffer
    capacity, fire-and-forget messages, strict request/reply cycles);
    it defaults to the paper's standard ``k = 2`` configuration.
    """

    protocol: Protocol
    nodes: int = DEFAULT_NODES
    refined: "Optional[RefinedProtocol]" = None
    config: "RefinementConfig" = field(default_factory=_default_config)
    cache: AnalysisCache = field(default_factory=AnalysisCache,
                                 compare=False)


PassFn = Callable[[AnalysisContext], Iterable[Diagnostic]]

PROTOCOL_PASSES: tuple[tuple[str, PassFn], ...] = (
    ("restrictions", lambda ctx: restriction_pass(ctx.protocol)),
    ("reachability", lambda ctx: reachability_pass(ctx.protocol)),
    ("overlap", lambda ctx: overlap_pass(ctx.protocol)),
    ("fusability", lambda ctx: fusability_pass(
        ctx.protocol, strict_cycles=ctx.config.strict_reqreply_cycles,
        reports=ctx.cache.pair_reports(
            ctx.protocol, ctx.config.strict_reqreply_cycles))),
    ("buffer-demand", lambda ctx: buffer_demand_pass(
        ctx.protocol, capacity=ctx.config.home_buffer_capacity,
        nodes=ctx.nodes, fire_and_forget=ctx.config.fire_and_forget)),
)

#: The parameterized (arbitrary-N) passes — P45xx, P46xx.  These sweep
#: the environment abstraction, so they are *not* pure AST passes; the
#: refinement engine's diagnostics gate excludes them.
PARAM_PASSES: tuple[tuple[str, PassFn], ...] = (
    ("flows", lambda ctx: _flows_pass(ctx)),
    ("paramcheck", lambda ctx: _paramcheck_pass(ctx)),
    ("coherence", lambda ctx: _coherence_pass(ctx)),
)

REFINED_PASSES: tuple[tuple[str, PassFn], ...] = (
    ("transients", lambda ctx: transient_pass(_require_refined(ctx))),
    ("simulation", lambda ctx: _simulation_pass(ctx)),
)


def _flows_pass(ctx: AnalysisContext) -> Iterable[Diagnostic]:
    from .flows import derive_flows, flows_pass

    strict_cycles = ctx.config.strict_reqreply_cycles
    try:
        graph = derive_flows(
            ctx.protocol,
            reports=ctx.cache.pair_reports(ctx.protocol, strict_cycles),
            config=ctx.config, strict_cycles=strict_cycles)
    except Exception as exc:
        return [make("P4501", f"{ctx.protocol.name}:flows",
                     f"flow graph could not be derived ({exc}); no flow "
                     "inventory")]
    return flows_pass(ctx.protocol, graph=graph)


def _paramcheck_pass(ctx: AnalysisContext) -> Iterable[Diagnostic]:
    from .paramcheck import paramcheck_pass

    return paramcheck_pass(ctx.protocol, config=ctx.config)


def _coherence_pass(ctx: AnalysisContext) -> Iterable[Diagnostic]:
    from ..protocols.invariants import COHERENCE_SPECS
    from .coherencecheck import check_coherence

    spec = COHERENCE_SPECS.get(ctx.protocol.name)
    if spec is None:  # no registered coherence spec — nothing to check
        return []
    try:
        verdict = check_coherence(ctx.protocol, spec)
    except Exception as exc:
        return [make(
            "P4603", f"{ctx.protocol.name}:coherence",
            f"coherence check failed ({exc}); the parameterized coherence "
            "check is inconclusive")]
    return list(verdict.obligations)


def _simulation_pass(ctx: AnalysisContext) -> Iterable[Diagnostic]:
    # deferred: .simulation pulls in the executable semantics, which reads
    # the step table from repro.refine — a top-level import would be cyclic
    from .simulation import simulation_pass

    return simulation_pass(_require_refined(ctx))


def _require_refined(ctx: AnalysisContext) -> "RefinedProtocol":
    if ctx.refined is None:  # pragma: no cover - internal misuse
        raise ValueError("transient pass needs a refined protocol")
    return ctx.refined


def analyze_protocol(protocol: Protocol, *,
                     config: "Optional[RefinementConfig]" = None,
                     nodes: int = DEFAULT_NODES,
                     select: Optional[Iterable[str]] = None,
                     include_param: bool = True,
                     ) -> AnalysisReport:
    """Run the static-analysis suite over a rendezvous protocol.

    :param config: the refinement configuration the buffer-demand and
        fusability passes should assume; defaults to the paper's standard
        ``k = 2`` configuration.
    :param nodes: remote node count ``n`` assumed by the buffer-demand
        bound (the bound scales with ``n``).
    :param select: restrict the report to these diagnostic codes.
    :param include_param: also run the parameterized (P45xx, P46xx)
        passes; these sweep the environment abstraction, so callers
        needing a pure AST-level report turn them off.
    """
    ctx = AnalysisContext(protocol=protocol, nodes=nodes,
                          config=config or _default_config())
    passes = (PROTOCOL_PASSES + PARAM_PASSES if include_param
              else PROTOCOL_PASSES)
    return _run(protocol.name, ctx, passes, select)


def analyze_refined(refined: "RefinedProtocol", *,
                    nodes: int = DEFAULT_NODES,
                    select: Optional[Iterable[str]] = None,
                    include_protocol_passes: bool = True,
                    ) -> AnalysisReport:
    """Run the full suite plus refined-only checks over a refined protocol.

    ``include_protocol_passes=False`` runs only the refined-machine passes
    (transients, simulation certificate) — the refinement engine uses this
    as its post-plan gate, having already vetted the rendezvous AST.
    """
    ctx = AnalysisContext(protocol=refined.protocol, nodes=nodes,
                          refined=refined, config=refined.plan.config)
    passes = (PROTOCOL_PASSES + PARAM_PASSES + REFINED_PASSES
              if include_protocol_passes else REFINED_PASSES)
    return _run(refined.name, ctx, passes, select)


def _run(subject: str, ctx: AnalysisContext,
         passes: tuple[tuple[str, PassFn], ...],
         select: Optional[Iterable[str]]) -> AnalysisReport:
    diagnostics: list[Diagnostic] = []
    names: list[str] = []
    for name, fn in passes:
        names.append(name)
        diagnostics.extend(fn(ctx))
    report = AnalysisReport(subject=subject,
                            diagnostics=tuple(diagnostics),
                            passes_run=tuple(names))
    if select is not None:
        report = report.select(select)
    return report
