"""The abstraction function ``abs`` of paper section 4.

``abs`` maps every asynchronous global state to a rendezvous global state
by erasing the machinery the refinement introduced:

1. every *request for rendezvous* in the medium or in a buffer is
   discarded, and its sender's transient state is rewound to the
   communication state it came from ("as though the request was never
   sent");
2. every *ack* in the medium is discarded and its target fast-forwarded to
   the state it will reach on consuming the ack (the rendezvous is treated
   as already complete — both parties have committed);
3. every *nack* is discarded, rewinding its target to its communication
   state.

Fused request/reply pairs (section 3.3) add one genuinely new situation the
paper folds into rule 2 ("a repl message is treated as an ack"): between
the responder consuming the un-acked request and emitting the reply,
*nothing* for the requester is in flight.  The requester is then
**half-forwarded** — advanced past the request rendezvous to the
intermediate state whose sole pending offer is the reply input — which is a
legal rendezvous-level state (the request rendezvous happened; the reply
rendezvous has not).  The in-flight ``REPL`` itself fast-forwards the
requester through both rendezvous.

Fire-and-forget notifications (the hand-designed-protocol extension) are
*not* covered: the sender commits while the receiver may be arbitrarily far
from consuming, and no finite fast-forward reproduces a rendezvous state.
``abs`` raises :class:`AbstractionUndefined` for such states — this is
precisely the formal reason the paper's procedure keeps the LR ack that the
hand-designed Avalanche protocol drops, and the hand protocol is instead
validated by direct invariant/progress checking.

Each rule reads one node at a time: a remote's image depends on the node,
its two channels and its entries in the home buffer; the home's on the
node and the channel from the remote it awaits.  :class:`Abstraction`
memoizes the images on exactly those views and composes ``abs(state)``
from them, one interned object per abstract state.
"""

from __future__ import annotations

from typing import Any, Callable, Union

from ..csp.ast import Output, ProcessDef, ProcessKind
from ..csp.env import Env
from ..errors import ReproError
from ..semantics.asynchronous import (
    AsyncState,
    AsyncSystem,
    BufEntry,
    HomeNode,
    RemoteNode,
    TRANS,
)
from ..semantics.network import ACK, NACK, NOTE, REPL, REQ, Channels, Msg
from ..semantics.state import ProcState, RvState
from .transitions import build_step_table

__all__ = ["Abstraction", "AbstractionUndefined", "Image", "abstract_state"]


class AbstractionUndefined(ReproError):
    """``abs`` is not defined for this state.

    ``reason`` is a stable machine-readable tag the certificate checker
    dispatches on: the two ``note-*`` reasons are the *documented*
    fire-and-forget carve-out (hand-designed protocols only), while
    ``no-witness`` and ``no-reply-input`` indicate a transient state with
    no abstract preimage — a broken refinement, never a legal state of a
    paper-rule protocol.
    """

    REASON_NOTE_IN_FLIGHT = "note-in-flight"
    REASON_NOTE_BUFFERED = "note-buffered"
    REASON_NO_WITNESS = "no-witness"
    REASON_NO_REPLY_INPUT = "no-reply-input"

    def __init__(self, message: str,
                 reason: str = REASON_NO_WITNESS) -> None:
        super().__init__(message)
        self.reason = reason

    @property
    def is_note_carveout(self) -> bool:
        """True for the documented fire-and-forget undefinedness."""
        return self.reason in (self.REASON_NOTE_IN_FLIGHT,
                               self.REASON_NOTE_BUFFERED)


#: ``abs`` of a state, or the exception saying why it has none.
Image = Union[RvState, AbstractionUndefined]
NodeImage = Union[ProcState, AbstractionUndefined]
#: what a node's image is memoized on (:class:`Abstraction`)
NodeKey = Union[HomeNode, RemoteNode, tuple[Any, ...]]


class Abstraction:
    """``abs`` over the states of one sweep of ``system``.

    ``abs(state)`` is composed from per-node images, each memoized on the
    node's local view — an idle node: the node itself; a transient remote
    ``i``: ``(i, node, down_i, up_i, its entries in the home buffer)``; a
    transient home: ``(home, up_awaiting)`` — the arguments of the rule
    function that computes it.  The composed image is interned, so equal
    images are one object and :attr:`n_images` counts abstract states;
    a state asked for twice (an edge's target, then its source) is looked
    up, not recomposed.  Where ``abs`` is undefined the call returns the
    :class:`AbstractionUndefined` (never raised, so a memoized one never
    grows a traceback).  The memos live as long as the object: one sweep.
    """

    def __init__(self, system: AsyncSystem) -> None:
        self.system = system
        self._states: dict[AsyncState, Image] = {}
        self._nodes: dict[NodeKey, NodeImage] = {}
        self._images: dict[tuple[ProcState, tuple[ProcState, ...]],
                           RvState] = {}

    @property
    def n_images(self) -> int:
        """Distinct abstract states handed out so far."""
        return len(self._images)

    def __call__(self, state: AsyncState) -> Image:
        image = self._states.get(state)
        if image is None:
            image = self._states[state] = self._compose(state)
        return image

    def _compose(self, state: AsyncState) -> Image:
        undefined = _note_carveout(state)
        if undefined is not None:
            return undefined
        queues = state.channels.queues
        home = state.home
        remotes: list[ProcState] = []
        for i, node in enumerate(state.remotes):
            key: NodeKey = node
            if node.mode == TRANS:
                key = (i, node, queues[Channels.to_remote(i)],
                       queues[Channels.to_home(i)],
                       tuple(e for e in home.buffer if e.sender == i))
            image = self._node(key, _abstract_remote)
            if isinstance(image, AbstractionUndefined):
                return image
            remotes.append(image)
        key = home
        if home.mode == TRANS:
            assert home.awaiting is not None
            key = (home, queues[Channels.to_home(home.awaiting)])
        image = self._node(key, _abstract_home)
        if isinstance(image, AbstractionUndefined):
            return image
        parts = (image, tuple(remotes))
        found = self._images.get(parts)
        if found is None:
            found = self._images[parts] = RvState(*parts)
        return found

    def _node(self, key: NodeKey,
              rule: Callable[..., ProcState]) -> NodeImage:
        """The image memoized on ``key``: an idle node's own control
        state, or ``rule(system, *key)`` for a transient node's view."""
        image = self._nodes.get(key)
        if image is None:
            try:
                image = (rule(self.system, *key) if isinstance(key, tuple)
                         else ProcState(state=key.state, env=key.env))
            except AbstractionUndefined as exc:
                image = exc.with_traceback(None)
            self._nodes[key] = image
        return image


def abstract_state(system: AsyncSystem, state: AsyncState) -> RvState:
    """Apply the section 4 abstraction function to one asynchronous state
    (a cold :class:`Abstraction`); raises :class:`AbstractionUndefined`."""
    image = Abstraction(system)(state)
    if isinstance(image, AbstractionUndefined):
        raise image
    return image


# ---------------------------------------------------------------------------


def _note_carveout(state: AsyncState) -> AbstractionUndefined | None:
    for queue in state.channels.queues:
        for msg in queue:
            if msg.kind == NOTE:
                return AbstractionUndefined(
                    "fire-and-forget message in flight; abs is only "
                    "defined for protocols refined by the paper's "
                    "(acknowledged) rules",
                    reason=AbstractionUndefined.REASON_NOTE_IN_FLIGHT)
    if any(entry.note for entry in state.home.buffer):
        return AbstractionUndefined(
            "fire-and-forget message buffered at home; abs undefined",
            reason=AbstractionUndefined.REASON_NOTE_BUFFERED)
    return None


def _abstract_remote(system: AsyncSystem, i: int, node: RemoteNode,
                     down: tuple[Msg, ...], up: tuple[Msg, ...],
                     entries: tuple[BufEntry, ...]) -> ProcState:
    """A transient remote ``i``'s image, from its own view only."""
    out_guard = system.protocol.remote.state(node.state).outputs[
        node.pending_out or 0]

    ack = _find_kind(down, ACK)
    if ack is not None:
        # rule 2: fast-forward through the completed rendezvous
        return ProcState(state=out_guard.to,
                         env=out_guard.apply_update(node.env))
    repl = _find_kind(down, REPL)
    if repl is not None:
        return _forward_through_reply(system, node.env, out_guard, repl,
                                      sender=-1, process=system.protocol.remote)
    if (any(m.kind == REQ and m.msg == out_guard.msg for m in up)
            or any(e.msg == out_guard.msg and not e.note for e in entries)
            or _find_kind(down, NACK) is not None):
        # rule 1/3: the request is still pending in the medium or the
        # buffer (or was nacked): rewind
        return ProcState(state=node.state, env=node.env)
    # the table derived from the AST, never the system's own: a mutant
    # semantics is judged against the unchanged abstraction
    table = build_step_table(system.refined)
    if out_guard.msg in table.fused_requests(ProcessKind.REMOTE):
        # fused request already consumed by the home, reply not yet sent:
        # half-forward to the intermediate reply-waiting state
        return ProcState(state=out_guard.to,
                         env=out_guard.apply_update(node.env))
    raise AbstractionUndefined(
        f"remote r{i} transient on {out_guard.msg!r} with no witness "
        "message anywhere — semantics bug",
        reason=AbstractionUndefined.REASON_NO_WITNESS)


def _abstract_home(system: AsyncSystem, home: HomeNode,
                   up: tuple[Msg, ...]) -> ProcState:
    """A transient home's image, from the channel of the remote it awaits."""
    assert home.awaiting is not None
    out_guard = system.protocol.home.state(home.state).outputs[
        home.pending_out or 0]

    ack = _find_kind(up, ACK)
    if ack is not None:
        return ProcState(state=out_guard.to,
                         env=out_guard.apply_update(home.env))
    repl = _find_kind(up, REPL)
    if repl is not None:
        return _forward_through_reply(system, home.env, out_guard, repl,
                                      sender=home.awaiting,
                                      process=system.protocol.home)
    # request still in flight toward the remote, dropped by a transient
    # remote, or nacked: in all cases rule 1/3 rewinds the home.
    return ProcState(state=home.state, env=home.env)


def _forward_through_reply(system: AsyncSystem, env: Env, out_guard: Output,
                           repl: Msg, sender: int,
                           process: ProcessDef) -> ProcState:
    """Fast-forward through a fused pair: request update, then reply input."""
    env = out_guard.apply_update(env)
    mid = process.state(out_guard.to)
    guard = mid.accepting(repl.msg, env, sender, repl.payload)
    if guard is not None:
        return ProcState(state=guard.to,
                         env=guard.complete(env, sender, repl.payload))
    raise AbstractionUndefined(
        f"no input guard in {mid.name!r} accepts the in-flight reply "
        f"{repl.describe()}",
        reason=AbstractionUndefined.REASON_NO_REPLY_INPUT)


def _find_kind(queue: tuple[Msg, ...], kind: str) -> Msg | None:
    for msg in queue:
        if msg.kind == kind:
            return msg
    return None
