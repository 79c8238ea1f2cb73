"""The simulation-obligation certificate checker (P44xx).

Discharges the paper's Equation 1 — every asynchronous step is a stutter
under ``abs`` or maps to rendezvous steps of the source protocol — on
every edge of the *complete* two-node asynchronous state space, rooted at
the embedding of every rendezvous context rather than at the initial
state alone.  It is one :func:`~repro.check.explorer.explore` sweep with
the edge test of :class:`repro.check.simulation.Equation1` streamed
inside it (no graph is kept); :mod:`repro.analysis.symbolic` says what the
roots are and why two nodes suffice.  Failures become diagnostics:

* **P4401** — a transition does not commute with ``abs`` (the executed
  step's image is neither a stutter nor reachable within the allowed
  number of rendezvous steps), or a schema row could not execute at all.
* **P4402** — ``abs`` is undefined on a reachable configuration outside
  the documented fire-and-forget carve-out.
* **P4403** — a transient state with no abstract preimage: ``abs`` finds
  no witness message, no input guard accepts a fused reply, or the step
  table promises a reply the AST cannot consume.
* **P4404** — the step table's control targets (ack/nack rewind and
  fast-forward states, fused replies) disagree with the ones the AST
  derives — the certificate's static half.
* **P4405** (info) — the certificate inventory: how many contexts and
  obligations were discharged, and how.
* **P4406** (warning) — a budget truncated one of the two sweeps (the
  explorer's ``stop_reason`` says which); the verdict covers only what
  was swept.

The checker runs as the ``simulation`` pass of
:func:`repro.analysis.manager.analyze_refined`, surfaces in ``repro
lint`` and gates :func:`repro.refine.engine.refine`.  Its verdict is a
fact about the protocol, so it is **memoized in process**: a plain dict
from :func:`~repro.analysis.memokey.structural_key` of everything the
verdict depends on (AST with its callables seen through, plan, every
step-table row, the budgets) to the frozen report — never a state or a
graph.  A subject the key cannot see through is simply checked again.
The verdict is cross-checked against the sweep from the initial state
(:func:`repro.check.simulation.check_simulation`) by the differential
test harness, including on seeded mutants injected through
:meth:`repro.refine.transitions.StepTable.mutate`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

from ..csp.ast import ProcessDef, ProcessKind
from ..errors import SemanticsError
# repro.refine before repro.check: the semantics modules both pull in must
# first be loaded through the refine package (import cycle otherwise)
from ..refine.abstraction import AbstractionUndefined
from ..refine.plan import RefinedProtocol
from ..refine.transitions import KIND_REQUEST, StepTable, build_step_table
from ..check.explorer import explore
from ..check.simulation import Equation1, StreamedSystem
from ..semantics.asynchronous import AsyncState, AsyncSystem, Step
from ..semantics.network import REPL
from .diagnostics import CODES, Diagnostic, Severity, make
from .memokey import structural_key
from .symbolic import (
    closure_roots,
    enumerate_contexts,
    n_engaged,
    responder_chains,
    step_location,
    step_rule,
)

__all__ = ["CertificateReport", "check_certificate", "simulation_pass"]

_EmitFn = Callable[..., None]

#: structural key -> verdict, for the life of the process; at the limit
#: the oldest entry makes room for the new one (a fuzzing campaign meets
#: thousands of protocols).
_VERDICTS: dict[bytes, "CertificateReport"] = {}
_VERDICT_LIMIT = 4096


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate run (all obligations of one protocol)."""

    subject: str
    n_contexts: int
    n_obligations: int
    n_stutters: int
    n_mapped: int
    n_mapped_deep: int
    n_carved: int  # fire-and-forget carve-out obligations (skipped)
    n_interference: int
    closure_states: int
    complete: bool
    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def ok(self) -> bool:
        return not any(d.severity >= Severity.ERROR for d in self.diagnostics)

    def describe(self) -> str:
        verdict = "CERTIFICATE HOLDS" if self.ok else "CERTIFICATE FAILS"
        return f"{verdict}: {self.inventory()}"

    def inventory(self) -> str:
        return (f"{self.n_obligations} obligations over "
                f"{self.n_contexts} contexts ({self.n_stutters} stutters, "
                f"{self.n_mapped} single-step, {self.n_mapped_deep} "
                f"multi-step fused, {self.n_carved} carved fire-and-forget, "
                f"{self.n_interference} interference); closure "
                f"{self.closure_states} states")


def check_certificate(refined: RefinedProtocol, *,
                      table: Optional[StepTable] = None,
                      max_contexts: int = 4096,
                      max_states: int = 20_000,
                      max_failures: int = 25,
                      ) -> CertificateReport:
    """Discharge every simulation obligation of ``refined``, once.

    ``table`` defaults to the table derived from the AST; passing a
    mutated table checks the *mutant* semantics against the unchanged
    abstraction — the fault-injection mode of the differential harness.
    ``max_contexts`` and ``max_states`` are the state budgets of the
    rendezvous context sweep and of the asynchronous sweep.  The verdict
    is memoized (module docstring); the key includes table and budgets.
    """
    derived = build_step_table(refined)
    if table is None:
        table = derived
    key = structural_key(refined, table.specs, max_contexts, max_states,
                         max_failures)
    report = _VERDICTS.get(key) if key is not None else None
    if report is None:
        report = _discharge(refined, table, derived, max_contexts,
                            max_states, max_failures)
        if key is not None:
            if len(_VERDICTS) >= _VERDICT_LIMIT:
                del _VERDICTS[next(iter(_VERDICTS))]  # insertion order
            _VERDICTS[key] = report
    return report


def simulation_pass(refined: RefinedProtocol) -> Iterator[Diagnostic]:
    """The pass-manager entry point: certificate diagnostics only."""
    return iter(check_certificate(refined).diagnostics)


def _discharge(refined: RefinedProtocol, table: StepTable,
               derived: StepTable, max_contexts: int, max_states: int,
               max_failures: int) -> CertificateReport:
    """The un-memoized check: static half, then the two sweeps."""
    diagnostics: list[Diagnostic] = []
    seen_keys: set[tuple[str, str, str]] = set()
    n_errors = n_suppressed = 0

    def emit(code: str, location: str, message: str,
             hint: Optional[str] = None, dedup: str = "") -> None:
        nonlocal n_errors, n_suppressed
        key = (code, location, dedup or message)
        if key in seen_keys:
            return
        seen_keys.add(key)
        if CODES[code].default_severity >= Severity.ERROR:
            if n_errors >= max_failures:
                n_suppressed += 1
                return
            n_errors += 1
        diagnostics.append(make(code, location, message, hint=hint))

    # -- static half: the table must agree with the AST ----------------------
    _check_table(table, derived, emit)
    _check_reply_exits(refined, table, emit)

    # -- dynamic half: Equation 1 on every edge of the rooted sweep ----------
    system = AsyncSystem(refined, 2, table=table)
    contexts, context_sweep = enumerate_contexts(refined.protocol,
                                                 max_states=max_contexts)
    eq1 = Equation1(system)
    fused_depth = _fused_response_depths(derived, refined.protocol.remote)
    n_obligations = n_carved = n_interference = 0

    def visit(state: AsyncState, steps: list[Step]) -> None:
        nonlocal n_obligations, n_carved, n_interference
        n_obligations += len(steps)
        if n_engaged(state) >= 2:
            n_interference += len(steps)
        before = eq1.abstraction(state)
        for step in steps:
            after = eq1.abstraction(step.state)
            if isinstance(before, AbstractionUndefined):
                n_carved += _report_undefined(derived, state, step, state,
                                              before, emit)
                continue
            if isinstance(after, AbstractionUndefined):
                n_carved += _report_undefined(derived, state, step,
                                              step.state, after, emit)
                continue
            # A step that puts a fused REPL in flight fast-forwards its
            # target through both rendezvous at once (plus the responder's
            # internal tau chain for a home-initiated pair), so it may map
            # to several hops; every other step maps to at most one.
            allowed = 1
            repl = next((m for m in step.sends if m.kind == REPL), None)
            if repl is not None and repl.msg is not None:
                allowed = fused_depth.get(repl.msg, 1)
            if not eq1.holds(before, after, allowed):
                rule, action = step_rule(state, step), step.action.describe()
                emit("P4401", step_location(state, step),
                     f"rule {rule} ({action}) does not commute: abs maps "
                     f"{before.describe()} -> {after.describe()}, not "
                     f"reachable in <= {allowed} rendezvous step(s)",
                     hint="check the rewind/fast-forward targets of the "
                          "step-table row that fired here",
                     dedup=f"{rule}:{action}")

    def fault(state: AsyncState, exc: SemanticsError) -> None:
        emit("P4401", step_location(state),
             f"transition schema row cannot execute: {exc} "
             f"(in {state.describe()})", dedup=str(exc))

    sweep = explore(
        StreamedSystem(system, visit, roots=closure_roots(system, contexts),
                       fault=fault),
        name=f"{refined.name}-certificate", max_states=max_states,
        allow_deadlock=True)

    truncated = [f"the {what} sweep ({run.stop_reason})"
                 for what, run in (("rendezvous context", context_sweep),
                                   ("asynchronous", sweep))
                 if not run.completed]
    if truncated:
        emit("P4406", "protocol",
             f"certificate truncated in {' and '.join(truncated)}; "
             "obligations beyond the budget were not discharged",
             hint="raise max_contexts/max_states to certify fully")

    report = CertificateReport(
        subject=refined.name, n_contexts=len(contexts),
        n_obligations=n_obligations, n_stutters=eq1.n_stutters,
        n_mapped=eq1.n_mapped, n_mapped_deep=eq1.n_deep, n_carved=n_carved,
        n_interference=n_interference,
        closure_states=sweep.n_states - 1,  # minus the synthetic root
        complete=not truncated)
    inventory = report.inventory()
    if n_suppressed:
        inventory += f" ({n_suppressed} further failure(s) suppressed)"
    diagnostics.append(make("P4405", "protocol", inventory))
    return replace(report, diagnostics=tuple(diagnostics))


def _report_undefined(derived: StepTable, before: AsyncState, step: Step,
                      state: AsyncState, image: AbstractionUndefined,
                      emit: _EmitFn) -> int:
    """``abs`` is undefined on one end (``state``) of an edge: 1 if that
    is the fire-and-forget carve-out the AST-derived table declares, else
    a P4402/P4403 and 0."""
    if image.is_note_carveout and derived.notes:
        return 1  # abs is undefined *because* state holds a note
    rule = step_rule(before, step)
    if image.is_note_carveout:
        emit("P4402", step_location(before, step),
             f"abs undefined ({image.reason}) on rule {rule} "
             "but the plan declares no fire-and-forget messages: "
             f"{image} (in {state.describe()})",
             dedup=f"{rule}:{image.reason}")
    else:
        emit("P4403", step_location(before, step),
             f"abs has no preimage ({image.reason}) after rule "
             f"{rule}: {image} (in {state.describe()})",
             hint="a transient state must always hold a witness "
                  "message (request, ack, nack or reply) for abs "
                  "to discharge",
             dedup=f"{rule}:{image.reason}")
    return 0


# ---------------------------------------------------------------------------
# the static half
# ---------------------------------------------------------------------------


def _check_table(table: StepTable, derived: StepTable,
                 emit: _EmitFn) -> None:
    """P4404: every table row must match the AST-derived control data."""
    for spec in table:
        expected = derived.get(*spec.key)
        if expected is None:
            emit("P4404", f"{spec.role}.{spec.state}",
                 f"step-table row {spec.describe()} has no AST counterpart")
            continue
        if spec == expected:
            continue
        fields = [name for name in ("msg", "kind", "rewind_to",
                                    "forward_to", "fused_reply", "reply_to")
                  if getattr(spec, name) != getattr(expected, name)]
        emit("P4404", f"{spec.role}.{spec.state}",
             f"step-table row disagrees with the AST on "
             f"{', '.join(fields)}: table says {spec.describe()}, AST "
             f"derives {expected.describe()}",
             hint="the certificate only covers the table the refinement "
                  "derived; rebuild it with build_step_table")
    for spec in derived:
        if table.get(*spec.key) is None:
            emit("P4404", f"{spec.role}.{spec.state}",
                 f"step table is missing the row for {spec.describe()}")


def _check_reply_exits(refined: RefinedProtocol, table: StepTable,
                       emit: _EmitFn) -> None:
    """P4403 (static): a promised fused reply must have a consuming input."""
    for spec in table:
        if spec.fused_reply is None or spec.kind != KIND_REQUEST:
            continue
        process = (refined.protocol.home if spec.role == ProcessKind.HOME
                   else refined.protocol.remote)
        mid = spec.reply_to
        if mid is None or mid not in process.states:
            emit("P4403", f"{spec.role}.{spec.state}",
                 f"fused request {spec.msg!r} promises reply "
                 f"{spec.fused_reply!r} in unknown state {mid!r}")
            continue
        if not any(g.msg == spec.fused_reply
                   for g in process.state(mid).inputs):
            emit("P4403", f"{spec.role}.{mid}",
                 f"fused request {spec.msg!r} is acknowledged by reply "
                 f"{spec.fused_reply!r}, but state {mid!r} has no input "
                 "guard consuming it — the requester can never be released",
                 hint="an elided ack must be replaced by a consumable "
                      "reply; un-fuse the pair or add the reply input")


def _fused_response_depths(derived: StepTable,
                           remote: ProcessDef) -> dict[str, int]:
    """Allowed rendezvous hops, keyed by home-initiated fused reply msg.

    The responder's C3 fused response consumes the request, runs its
    internal tau chain and emits the reply in one asynchronous step, so
    the obligation maps to ``2 + len(tau chain)`` rendezvous steps.
    (A *remote*-initiated pair never compresses: the home completes the
    request rendezvous on consuming it from the buffer, one hop, and its
    later reply emission is the second hop — so its reply stays at the
    default allowance of 1.)  Read off the AST-derived table, never the
    injected one.
    """
    return {derived.reply_of[msg]: 2 + max(
                (len(chain) - 1 for chain in responder_chains(remote, msg)),
                default=0)
            for msg in derived.fused_requests(ProcessKind.HOME)}
