"""Per-transition refinement metadata: the certificate the checker consumes.

Tables 1 and 2 of the paper are *rule schemas*: for every output guard of
the rendezvous AST the refinement introduces one transient state whose
behaviour is fully determined by four pieces of control data — where a
nack (or implicit nack) **rewinds** the sender to, where an ack
**fast-forwards** it to, and, for a fused request (section 3.3), which
reply message acknowledges it and which intermediate state must consume
that reply.  :func:`build_step_table` materializes exactly that data, one
:class:`TransitionSpec` per ``(role, state, output-index)``.

The table is the only record of how each output guard refines (plain
request, fused request with its reply, reply, or fire-and-forget note);
:func:`build_step_table` is the one place that reads the plan to decide
it.  :class:`~repro.semantics.asynchronous.AsyncSystem` looks its control
targets up here, so the simulator, the model checker and the symbolic
certificate checker of :mod:`repro.analysis.simulation` all run the
*same* transition schema — there is nothing to drift — and the
renderers, the transient pass, the abstraction function and the
certificate's bookkeeping read its rows too.  The abstraction and the
certificate derive their table afresh from the AST, never read the one
a system was handed: that is what lets the certificate checker catch a
corrupted table (a wrong rewind target makes the executed step disagree
with ``abs`` and fail its commutation obligation).

``StepTable.mutate`` is the sanctioned mutation hook the differential
test harness uses to seed faults (corrupt a rewind target, drop an ack by
pretending a pair fused) that both the symbolic checker and the
explicit-state explorer must detect.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterator, Optional

from ..csp.ast import ProcessKind
from ..errors import RefinementError, SemanticsError
from .plan import RefinedProtocol

__all__ = [
    "KIND_NOTE",
    "KIND_REPLY",
    "KIND_REQUEST",
    "StepTable",
    "TransitionSpec",
    "build_step_table",
]

#: A request for rendezvous: gets the full transient-state machinery.
KIND_REQUEST = "request"
#: A fused reply (section 3.3): emitted without a handshake of its own.
KIND_REPLY = "reply"
#: A fire-and-forget notification: sent and forgotten, no transient.
KIND_NOTE = "note"


@dataclass(frozen=True)
class TransitionSpec:
    """Control data of one refined output guard (one Tables 1/2 row set).

    ``role`` is the :class:`~repro.csp.ast.ProcessKind` of the process
    that owns the guard.
    ``rewind_to`` is the communication state a nack / implicit nack
    returns the sender to (rule schema: the state the request was sent
    from), ``forward_to`` the state an ack fast-forwards it to (the
    guard's target state).  For a fused request, ``fused_reply`` names
    the reply message type that doubles as the ack and ``reply_to`` the
    intermediate state whose input guard consumes it; both are ``None``
    otherwise.
    """

    role: str
    state: str
    out_index: int
    msg: str
    kind: str
    rewind_to: str
    forward_to: str
    fused_reply: Optional[str] = None
    reply_to: Optional[str] = None

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.role, self.state, self.out_index)

    def describe(self) -> str:
        base = (f"{self.role}.{self.state}[{self.out_index}] !{self.msg} "
                f"({self.kind}): nack→{self.rewind_to} ack→{self.forward_to}")
        if self.fused_reply is not None:
            base += f" reply {self.fused_reply}@{self.reply_to}"
        return base


class StepTable:
    """All :class:`TransitionSpec` rows of one refined protocol, indexed."""

    def __init__(self, specs: tuple[TransitionSpec, ...]) -> None:
        self.specs = tuple(specs)
        self._index: dict[tuple[str, str, int], TransitionSpec] = {}
        for spec in self.specs:
            if spec.key in self._index:
                raise RefinementError(
                    f"duplicate transition spec for {spec.key!r}")
            self._index[spec.key] = spec
        # Derived lookups, precomputed once: the table is immutable
        # (``mutate`` builds a fresh table through this constructor), so
        # rebuilding these collections per property access was pure
        # allocation churn for every consumer.
        self.reply_of: dict[str, str] = {
            s.msg: s.fused_reply for s in self.specs
            if s.fused_reply is not None}
        self.reply_msgs: frozenset[str] = frozenset(
            s.msg for s in self.specs if s.kind == KIND_REPLY)
        self.notes: frozenset[str] = frozenset(
            s.msg for s in self.specs if s.kind == KIND_NOTE)
        self._fused_requests: dict[str, frozenset[str]] = {
            role: frozenset(s.msg for s in self.specs
                            if s.role == role and s.kind == KIND_REQUEST
                            and s.fused_reply is not None)
            for role in (ProcessKind.HOME, ProcessKind.REMOTE)}

    def __iter__(self) -> Iterator[TransitionSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def spec(self, role: str, state: str, out_index: int) -> TransitionSpec:
        try:
            return self._index[(role, state, out_index)]
        except KeyError:
            raise SemanticsError(
                f"no transition spec for {role}.{state}[{out_index}]; the "
                "step table does not cover this output guard") from None

    def get(self, role: str, state: str,
            out_index: int) -> Optional[TransitionSpec]:
        return self._index.get((role, state, out_index))

    # -- derived lookups (what AsyncSystem consults) -------------------------

    def fused_requests(self, role: str) -> frozenset[str]:
        """Request message types of ``role`` that a reply acknowledges."""
        return self._fused_requests.get(role, frozenset())

    def transients(self, role: str) -> int:
        """How many transient states ``role``'s refined machine has: one
        per request, plain or fused.  A fused reply and a note are sent
        without one (:class:`~repro.semantics.asynchronous.AsyncSystem`
        sends either and moves on), so their rows count nothing."""
        return sum(1 for s in self.specs
                   if s.role == role and s.kind == KIND_REQUEST)

    # -- mutation hook (differential testing) --------------------------------

    def mutate(self, role: str, state: str, out_index: int,
               **changes: Any) -> "StepTable":
        """A copy of the table with one spec's fields replaced.

        This is the fault-injection hook of the differential harness:
        corrupting ``rewind_to``/``forward_to`` or fabricating a
        ``fused_reply`` yields a mutant semantics that the certificate
        checker must flag and explicit-state exploration must confirm.
        """
        target = self.spec(role, state, out_index)
        mutated = replace(target, **changes)
        return StepTable(tuple(mutated if s.key == target.key else s
                               for s in self.specs))


def build_step_table(refined: RefinedProtocol) -> StepTable:
    """Derive the Tables 1/2 control data for every output guard."""
    plan = refined.plan
    protocol = refined.protocol
    notes = plan.config.fire_and_forget
    replies = {pair.reply_msg for pair in plan.fused}
    reply_of = {(pair.requester, pair.request_msg): pair.reply_msg
                for pair in plan.fused}
    specs: list[TransitionSpec] = []
    for process in (protocol.home, protocol.remote):
        role = process.kind
        for state in process.states.values():
            for idx, guard in enumerate(state.outputs):
                reply: Optional[str] = None
                if guard.msg in notes:
                    kind = KIND_NOTE
                elif guard.msg in replies:
                    kind = KIND_REPLY
                else:
                    kind = KIND_REQUEST
                    reply = reply_of.get((role, guard.msg))
                specs.append(TransitionSpec(
                    role=role, state=state.name, out_index=idx,
                    msg=guard.msg, kind=kind,
                    rewind_to=state.name, forward_to=guard.to,
                    fused_reply=reply,
                    reply_to=guard.to if reply is not None else None))
    return StepTable(tuple(specs))
