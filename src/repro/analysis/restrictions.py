"""Section 2.4 syntactic-restriction checks as structured diagnostics.

This is the diagnostics-engine home of the checks that used to live as
flat strings in :mod:`repro.csp.validate` (that module is now a thin
back-compat wrapper over this pass).  The refinement procedure is only
defined — and only proven sound — for protocols obeying these rules:

* **Star topology** — remote guards never name a peer, home guards
  address remotes through sender patterns / targets (P2402-P2405).
* **Remote node restrictions** — a remote communication state is either
  a single active output or a passive input(+tau) state; "we restrict
  the remote nodes to contain only input non-determinism"
  (P2406, P2407).
* **Home node generality** — generalized input/output guards, but no
  taus in communication states (P2408).
* **Named taus** — no two taus of one state share a label (P2411): a
  label is how both semantic levels and every trace name a tau.
* **Eventual exit from internal states** — no terminal states (P2401)
  and no cycles through internal states only (P2409); the latter is
  also the section 2.5 forward-progress prerequisite.

Message strings are kept *byte-identical* to the historical
``collect_violations`` output: tooling and tests built on the string API
must not observe this refactoring.
"""

from __future__ import annotations

from typing import Iterator

from ..csp.ast import Input, Output, ProcessDef, ProcessKind, Protocol, StateDef
from .diagnostics import Diagnostic, make

__all__ = ["restriction_pass", "process_restrictions"]


def restriction_pass(protocol: Protocol) -> Iterator[Diagnostic]:
    """All section 2.4 violations in ``protocol``, home first."""
    yield from process_restrictions(protocol.home)
    yield from process_restrictions(protocol.remote)


def process_restrictions(process: ProcessDef) -> Iterator[Diagnostic]:
    """Section 2.4 violations of a single process, in traversal order."""
    for state in process.states.values():
        where = f"{process.name}.{state.name}"
        if state.is_terminal:
            yield make(
                "P2401", where,
                "terminal state (no guards); processes must always "
                "eventually offer a rendezvous",
                hint="add a guard or delete the state")
            continue
        yield from _addressing(process, state, where)
        if state.duplicate_tau_label is not None:
            yield make(
                "P2411", where,
                f"two taus share the label {state.duplicate_tau_label!r}; "
                "both semantic levels and every trace name a tau by its "
                "label",
                hint="give each tau of a state its own label")
        if process.kind == ProcessKind.REMOTE:
            yield from _remote_shape(state, where)
        else:
            yield from _home_shape(state, where)
    yield from _internal_cycles(process)


def _addressing(process: ProcessDef, state: StateDef,
                where: str) -> Iterator[Diagnostic]:
    for guard in state.guards:
        if process.kind == ProcessKind.HOME:
            if isinstance(guard, Output) and guard.target is None:
                yield make(
                    "P2402", where,
                    f"home output {guard.describe()} lacks a remote target",
                    hint="pass target=VarTarget(...)/ConstTarget(...)")
            if isinstance(guard, Input) and guard.sender is None:
                yield make(
                    "P2403", where,
                    f"home input {guard.describe()} lacks a sender pattern",
                    hint="pass sender=AnySender()/VarSender(...)")
        else:
            if isinstance(guard, Output) and guard.target is not None:
                yield make(
                    "P2404", where,
                    "remote output names a peer; star topology forbids "
                    "remote-to-remote messages",
                    hint="drop the target; remote outputs go to home")
            if isinstance(guard, Input) and guard.sender is not None:
                yield make(
                    "P2405", where,
                    "remote input names a peer; star topology forbids "
                    "remote-to-remote messages",
                    hint="drop the sender pattern; remote inputs come "
                         "from home")


def _remote_shape(state: StateDef, where: str) -> Iterator[Diagnostic]:
    """Paper 2.4: remote states are single-active-output or passive."""
    n_out = len(state.outputs)
    if n_out > 1:
        yield make(
            "P2406", where,
            f"remote state offers {n_out} output guards; a remote "
            "may be the active participant of only a single rendezvous",
            hint="split the choice into a tau-guarded internal state "
                 "per output")
    if n_out == 1 and (state.inputs or state.taus):
        yield make(
            "P2407", where,
            "remote active state mixes its output with "
            "input/tau guards; output non-determinism is not allowed "
            "in remote nodes",
            hint="move the output behind a dedicated active state")


def _home_shape(state: StateDef, where: str) -> Iterator[Diagnostic]:
    if state.is_communication and state.taus:
        yield make(
            "P2408", where,
            "home communication state carries tau guards; home "
            "autonomous work belongs in internal states",
            hint="route the tau through a tau-only internal state")


def _internal_cycles(process: ProcessDef) -> Iterator[Diagnostic]:
    """Cycles through internal states only (could spin forever): P2409.

    Depth-first search over the subgraph induced by internal states: if a
    cycle exists there, the process can stay in internal states forever,
    violating the paper's eventual-communication assumption.
    """
    internal = {s.name for s in process.states.values() if s.is_internal}
    succ = {
        name: [g.to for g in process.states[name].guards if g.to in internal]
        for name in internal
    }
    WHITE, GREY, BLACK = 0, 1, 2
    colour = dict.fromkeys(internal, WHITE)
    found: list[Diagnostic] = []

    def visit(node: str, stack: list[str]) -> None:
        colour[node] = GREY
        stack.append(node)
        for nxt in succ[node]:
            if colour[nxt] == GREY:
                cycle = stack[stack.index(nxt):] + [nxt]
                found.append(make(
                    "P2409", process.name,
                    f"internal-state cycle {' -> '.join(cycle)}; the "
                    "process could avoid communication forever",
                    hint="make at least one state on the cycle offer a "
                         "rendezvous"))
            elif colour[nxt] == WHITE:
                visit(nxt, stack)
        stack.pop()
        colour[node] = BLACK

    # declaration order, so the reported cycle entry point is deterministic
    for node in process.states:
        if node in internal and colour[node] == WHITE:
            visit(node, [])
    yield from found
