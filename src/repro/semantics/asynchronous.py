"""Operational semantics of refined (asynchronous) protocols.

This module executes a :class:`~repro.refine.plan.RefinedProtocol` — the
output of the paper's refinement procedure — implementing Tables 1 and 2
verbatim:

**Remote node (Table 1).**  One buffer slot for a request from home.

* C1/C2 — in an active communication state, send a request for rendezvous
  and enter a transient state; a pending buffered home request is deleted
  (the home will treat our request as an *implicit nack* for it).
* C3 — in a passive communication state, a buffered home request that
  satisfies a guard is acked (completing the rendezvous); otherwise nacked.
* T1/T2 — in the transient state, an ack completes the rendezvous; a nack
  triggers an immediate retransmission.
* T3 — a request from home arriving in a transient state is dropped.

**Home node (Table 2).**  A k >= 2 slot buffer whose last free slot is
reserved for requests that can complete a rendezvous in the current state
(*progress buffer*), plus one more slot reserved while in a transient state
for the awaited remote's message (*ack buffer*).

* C1 — complete a rendezvous with a satisfying buffered request (ack it).
* C2 — otherwise, pick the next output guard (cyclic scan, resumed after
  nacks), reserve the ack buffer (nacking a buffered request if needed —
  they are all non-satisfying here, or C1 would have fired), send a request
  and go transient.
* T1/T2 — ack completes; nack returns to the communication state and the
  scan moves to the next output guard.
* T3 — a request from the awaited remote is an implicit nack; it takes the
  reserved ack-buffer slot and the home returns to the communication state.
* T4/T5/T6 — other remotes' requests are buffered if >2 slots are free,
  buffered into the progress slot if exactly 2 are free *and* satisfying,
  and nacked otherwise.

The section 3.3 request/reply fusion and the fire-and-forget extension
(hand-designed-protocol modelling) alter only which acknowledgements are
exchanged; see :mod:`repro.refine.reqreply` for the static side.

Design note: process decisions (which guard to fire) are *deterministic*
given the local view, as in a real protocol implementation; all remaining
nondeterminism — message delivery interleaving and autonomous tau choices —
is enumerated by :meth:`AsyncSystem.successors`, which is what the model
checker explores.  The discrete-event simulator drives the same transition
core through :meth:`AsyncSystem.steps`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Hashable, Iterator, Optional

from ..csp.ast import Input, Output, ProcessDef, Protocol, StateDef
from ..csp.env import Env, Value
from ..errors import SemanticsError
from ..refine.plan import RefinedProtocol
from ..refine.transitions import (
    HOME as HOME_ROLE,
    KIND_NOTE,
    KIND_REPLY,
    REMOTE as REMOTE_ROLE,
    StepTable,
    TransitionSpec,
    build_step_table,
)
from .network import ACK, NACK, NOTE, REPL, REQ, Channels, Msg
from .rendezvous import RendezvousStep
from .state import HOME_ID, ProcId, memo

__all__ = [
    "IDLE",
    "TRANS",
    "BufEntry",
    "HomeNode",
    "RemoteNode",
    "AsyncState",
    "DeliverToHome",
    "DeliverToRemote",
    "HomeStep",
    "HomeTau",
    "RemoteSend",
    "RemoteC3",
    "RemoteTau",
    "AsyncAction",
    "Step",
    "StepFootprint",
    "AsyncSystem",
]

IDLE = "idle"
TRANS = "trans"


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BufEntry:
    """One buffered request: who sent it, what rendezvous it asks for."""

    sender: ProcId
    msg: str
    payload: Value = None
    note: bool = False  # fire-and-forget entry: cannot be nacked or evicted

    def canonical_key(self) -> tuple:
        return (self.sender, self.msg, self.payload, self.note)

    def describe(self) -> str:
        who = "h" if self.sender == HOME_ID else f"r{self.sender}"
        tag = "~" if self.note else ""
        return f"{tag}{who}:{self.msg}"


@dataclass(frozen=True, slots=True)
class HomeNode:
    """Home-side control: AST state + refinement bookkeeping + buffer."""

    state: str
    env: Env
    mode: str = IDLE
    #: cyclic-scan position for the C2 output-guard rotation (row T2)
    out_idx: int = 0
    #: remote we are awaiting an ack/nack/reply from (mode == TRANS)
    awaiting: Optional[int] = None
    #: index (into the state's outputs tuple) of the pending output guard
    pending_out: Optional[int] = None
    buffer: tuple[BufEntry, ...] = ()
    _hash_cache: Optional[int] = memo()
    #: 16-byte component digest (:func:`repro.check.store._summary`)
    _digest_cache: Optional[bytes] = memo()

    _FIELDS = ("state", "env", "mode", "out_idx", "awaiting",
               "pending_out", "buffer")

    def __hash__(self) -> int:
        # Same formula as the dataclass-generated hash (the field tuple),
        # memoized like AsyncState.__hash__: home nodes are shared across
        # many successor states, so the visited store re-hashes each one
        # many times.
        cached = self._hash_cache
        if cached is None:
            cached = hash((self.state, self.env, self.mode, self.out_idx,
                           self.awaiting, self.pending_out, self.buffer))
            object.__setattr__(self, "_hash_cache", cached)
        return cached

    def canonical_key(self) -> tuple:
        return (self.state, self.env.canonical_key(), self.mode,
                self.out_idx, self.awaiting, self.pending_out,
                tuple(e.canonical_key() for e in self.buffer))

    def describe(self) -> str:
        tag = self.state if self.mode == IDLE else \
            f"{self.state}→r{self.awaiting}?"
        buf = ",".join(e.describe() for e in self.buffer)
        return f"{tag}{{{buf}}}"


@dataclass(frozen=True, slots=True)
class RemoteNode:
    """Remote-side control: AST state + transient flag + 1-slot buffer."""

    state: str
    env: Env
    mode: str = IDLE
    pending_out: Optional[int] = None
    buf: Optional[BufEntry] = None
    _hash_cache: Optional[int] = memo()
    _digest_cache: Optional[bytes] = memo()
    #: symmetry sort key (:func:`repro.check.symmetry._node_key`)
    _sym_cache: Optional[tuple[object, ...]] = memo()

    _FIELDS = ("state", "env", "mode", "pending_out", "buf")

    def __hash__(self) -> int:
        # Memoized field-tuple hash; see HomeNode.__hash__.
        cached = self._hash_cache
        if cached is None:
            cached = hash((self.state, self.env, self.mode,
                           self.pending_out, self.buf))
            object.__setattr__(self, "_hash_cache", cached)
        return cached

    def canonical_key(self) -> tuple:
        return (self.state, self.env.canonical_key(), self.mode,
                self.pending_out,
                None if self.buf is None else self.buf.canonical_key())

    def describe(self) -> str:
        tag = self.state if self.mode == IDLE else f"{self.state}*"
        return tag + (f"{{{self.buf.describe()}}}" if self.buf else "")


@dataclass(frozen=True, slots=True)
class AsyncState:
    """Global asynchronous state: all nodes plus the network.

    Hashed once per instance (see :class:`~repro.semantics.state.RvState`
    for the rationale): asynchronous states are deeply nested, and
    recomputing the structural hash on every visited-set probe dominated
    exploration profiles.
    """

    home: HomeNode
    remotes: tuple[RemoteNode, ...]
    channels: Channels
    _hash_cache: Optional[int] = memo()

    def __hash__(self) -> int:
        cached = self._hash_cache
        if cached is None:
            cached = hash((self.home, self.remotes, self.channels))
            object.__setattr__(self, "_hash_cache", cached)
        return cached

    def canonical_key(self) -> tuple:
        """Compact primitive encoding, built afresh on every call and
        memoized nowhere: no sweep asks for it per probe (the fingerprint
        store digests the nodes and ``channels.queues`` instead)."""
        return ("async", self.home.canonical_key(),
                tuple(r.canonical_key() for r in self.remotes),
                self.channels.canonical_key())

    def components(self) -> tuple[str, tuple[Any, ...], Hashable]:
        """``(tag, nodes, network)``: the parts a step replaces one at a
        time, nodes in canonical order (home, remotes 0..n-1).

        The fingerprint store (:mod:`repro.check.store`) digests each
        node once, into the node's declared ``_digest_cache``, and the
        network by value.
        """
        return "async", (self.home,) + self.remotes, self.channels.queues

    def with_home(self, home: HomeNode) -> "AsyncState":
        return replace(self, home=home)

    def with_remote(self, i: int, node: RemoteNode) -> "AsyncState":
        remotes = self.remotes[:i] + (node,) + self.remotes[i + 1:]
        return replace(self, remotes=remotes)

    def with_channels(self, channels: Channels) -> "AsyncState":
        return replace(self, channels=channels)

    def describe(self) -> str:
        remotes = " ".join(f"r{i}:{r.describe()}"
                           for i, r in enumerate(self.remotes))
        return (f"h:{self.home.describe()} {remotes} "
                f"net:{self.channels.describe()}")


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class DeliverToHome:
    """Deliver the head of remote(i) -> home channel."""

    remote: int

    def describe(self) -> str:
        return f"deliver r{self.remote}→h"


@dataclass(frozen=True, slots=True)
class DeliverToRemote:
    """Deliver the head of home -> remote(i) channel."""

    remote: int

    def describe(self) -> str:
        return f"deliver h→r{self.remote}"


@dataclass(frozen=True, slots=True)
class HomeStep:
    """The home's (deterministic) communication-state decision.

    ``kind`` is ``"C1"`` (complete a buffered rendezvous), ``"C2"`` (send a
    request and go transient) or ``"REPLY"`` (emit a fused reply).
    """

    kind: str
    detail: str = ""

    def describe(self) -> str:
        return f"home.{self.kind}" + (f"({self.detail})" if self.detail else "")


@dataclass(frozen=True, slots=True)
class HomeTau:
    label: str

    def describe(self) -> str:
        return f"home.τ:{self.label}"


@dataclass(frozen=True, slots=True)
class RemoteSend:
    """Remote ``i`` goes active: rows C1/C2 of Table 1 (or a NOTE send)."""

    remote: int

    def describe(self) -> str:
        return f"r{self.remote}.send"


@dataclass(frozen=True, slots=True)
class RemoteC3:
    """Remote ``i`` processes the buffered home request (row C3)."""

    remote: int

    def describe(self) -> str:
        return f"r{self.remote}.C3"


@dataclass(frozen=True, slots=True)
class RemoteTau:
    remote: int
    label: str

    def describe(self) -> str:
        return f"r{self.remote}.τ:{self.label}"


AsyncAction = (DeliverToHome | DeliverToRemote | HomeStep | HomeTau
               | RemoteSend | RemoteC3 | RemoteTau)


@dataclass(frozen=True, slots=True)
class StepFootprint:
    """The (node, channel, buffer-slot) objects one step touches.

    This is the independence interface the partial-order reduction in
    :mod:`repro.check.por` builds on: two steps whose footprints are
    disjoint commute.  Channels are split into *head* (pop side) and
    *tail* (push side) objects — popping the head of a non-empty FIFO
    commutes with pushing its tail, which is what makes deliveries
    independent of the sends feeding the same channel.

    :param owner: which node class the action belongs to — ``HOME_ID``
        for home decisions/taus and deliveries *to* home, the remote
        index for everything touching remote ``i``.
    :param writes: field-level write set, as ``("h", field)`` for home
        fields and ``("r", i, field)`` for remote ``i``'s fields
        (``buf`` is the remote's single buffer slot; ``buffer`` the
        home's k-slot buffer).
    :param pop: ``(channel index, popped message kind)`` for deliveries,
        ``None`` otherwise.
    :param pushes: channel indices receiving a message, in send order.
    """

    owner: ProcId
    writes: frozenset[tuple]
    pop: Optional[tuple[int, str]]
    pushes: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Step:
    """One enabled transition with its observables.

    ``completes`` lists rendezvous that *finish* on this step (each
    rendezvous of the underlying protocol is reported exactly once, at the
    moment its second party commits).  ``sends`` lists messages injected
    into the network by this step, for message-count metrics.

    A step :meth:`AsyncSystem.steps` replays holds its origin state and
    memoized delta (``_delta_cache``) and builds ``state`` when it is
    first read, then keeps it: a caller that takes one step of many
    builds one successor.  ``==``, ``repr`` and :meth:`footprint` read
    ``state`` like any other field.
    """

    action: AsyncAction
    state: AsyncState
    completes: tuple[RendezvousStep, ...] = ()
    sends: tuple[Msg, ...] = ()
    #: ``(origin, delta)`` a replayed step builds its ``state`` from
    _delta_cache: Optional[tuple[AsyncState, _Delta]] = memo()

    def __getattr__(self, name: str) -> Any:
        # reached only through an unset slot: a replayed step's ``state``
        if name != "state":
            raise AttributeError(f"'Step' object has no attribute {name!r}")
        nxt = _successor(*self._delta_cache)
        _set_state(self, nxt)
        return nxt

    def footprint(self, origin: AsyncState) -> StepFootprint:
        """Compute this step's footprint relative to its origin state.

        Writes are obtained by structural field diff of ``origin``
        against the successor — the semantics layer cannot silently grow
        an effect the footprint misses.  Channel effects are reported
        separately (``pop``/``pushes``) because FIFO head and tail are
        distinct objects for commutation purposes.
        """
        action = self.action
        if isinstance(action, (DeliverToRemote, RemoteSend, RemoteC3,
                               RemoteTau)):
            owner: ProcId = action.remote
        else:
            owner = HOME_ID
        pop: Optional[tuple[int, str]] = None
        if isinstance(action, DeliverToHome):
            chan = Channels.to_home(action.remote)
            pop = (chan, origin.channels.queues[chan][0].kind)
        elif isinstance(action, DeliverToRemote):
            chan = Channels.to_remote(action.remote)
            pop = (chan, origin.channels.queues[chan][0].kind)
        writes: set[tuple] = set()
        if self.state.home is not origin.home:
            for name in HomeNode._FIELDS:
                if getattr(self.state.home, name) != getattr(origin.home,
                                                             name):
                    writes.add(("h", name))
        for i, (old, new) in enumerate(zip(origin.remotes,
                                           self.state.remotes)):
            if new is not old:
                for name in RemoteNode._FIELDS:
                    if getattr(new, name) != getattr(old, name):
                        writes.add(("r", i, name))
        pushes: list[int] = []
        for c, (old_q, new_q) in enumerate(zip(origin.channels.queues,
                                               self.state.channels.queues)):
            base = len(old_q) - (1 if pop is not None and pop[0] == c else 0)
            pushes.extend([c] * (len(new_q) - base))
        return StepFootprint(owner=owner, writes=frozenset(writes),
                             pop=pop, pushes=tuple(pushes))


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------


#: Entry bound of one :class:`AsyncSystem`'s delta memo; the memo is
#: cleared, not evicted, when it fills (the 241,339 states of
#: invalidate n = 3 need about 21,000 entries).
_MEMO_LIMIT = 1 << 16

#: One channel's change, as :meth:`Channels.replay` takes it.
_ChannelOp = tuple[int, int, tuple[Msg, ...]]
#: One memoized step: ``(action, new home | None, (j, new remote) | None,
#: channel ops, completes, sends)``.
_Delta = tuple[AsyncAction, Optional[HomeNode],
               Optional[tuple[int, RemoteNode]], tuple[_ChannelOp, ...],
               tuple[RendezvousStep, ...], tuple[Msg, ...]]


def _channel_ops(old: tuple[tuple[Msg, ...], ...],
                 new: tuple[tuple[Msg, ...], ...],
                 ) -> Optional[tuple[_ChannelOp, ...]]:
    """``new`` as head pops and tail pushes on ``old``, or None."""
    ops = []
    for c, (before, after) in enumerate(zip(old, new)):
        if after == before:
            continue
        kept = len(before)
        if after[:kept] == before:
            popped = 0
        elif after[:kept - 1] == before[1:]:
            popped = 1
        else:
            return None
        ops.append((c, popped, after[kept - popped:]))
    return tuple(ops)


def _successor(state: AsyncState, delta: _Delta) -> AsyncState:
    """``state`` after one memoized step — the one place a delta is
    applied, for :meth:`AsyncSystem.successors` and for a replayed
    :class:`Step`'s ``state``."""
    _action, home, moved, ops, _completes, _sends = delta
    remotes = state.remotes
    if moved is not None:
        j, node = moved
        remotes = remotes[:j] + (node,) + remotes[j + 1:]
    return AsyncState(state.home if home is None else home, remotes,
                      state.channels.replay(ops) if ops else state.channels)


#: :class:`Step`'s slot setters: ``steps()`` fills four slots per step, and
#: a slot's own setter costs half of ``object.__setattr__`` (no name lookup)
_set_action = Step.action.__set__
_set_state = Step.state.__set__
_set_completes = Step.completes.__set__
_set_sends = Step.sends.__set__
_set_delta = Step._delta_cache.__set__


def _replayed(state: AsyncState, delta: _Delta) -> Step:
    """The :class:`Step` of ``delta`` at ``state``, its successor unbuilt
    (``state`` stays an unset slot until :meth:`Step.__getattr__`)."""
    step = object.__new__(Step)
    _set_action(step, delta[0])
    _set_completes(step, delta[4])
    _set_sends(step, delta[5])
    _set_delta(step, (state, delta))
    return step


def _deltas(state: AsyncState, owner: ProcId,
            steps: list[Step]) -> Optional[tuple[_Delta, ...]]:
    """The steps of one family at ``state`` as replayable deltas.

    None unless every step rewrites only the node its memo key holds
    (``owner``: the home, or remote ``i``) and changes channels by pops
    and pushes.
    Nodes are diffed by value: a rebuilt-but-equal node recorded as a
    replacement would carry this state's node into every replay.
    """
    out = []
    for step in steps:
        new = step.state
        ops = _channel_ops(state.channels.queues, new.channels.queues)
        if ops is None:
            return None
        home = None if new.home == state.home else new.home
        moved = [(j, node) for j, (old, node)
                 in enumerate(zip(state.remotes, new.remotes))
                 if node != old]
        if owner == HOME_ID:
            if moved:
                return None
        elif home is not None or any(j != owner for j, _ in moved):
            return None
        out.append((step.action, home, moved[0] if moved else None, ops,
                    step.completes, step.sends))
    return tuple(out)


class AsyncSystem:
    """Executable asynchronous semantics for a refined protocol.

    :meth:`interpret` enumerates a state's steps directly from Tables
    1/2.  :meth:`steps` and :meth:`successors` give the same answer by
    replaying memoized *deltas*: every table row reads one node plus the
    head of one channel and writes that node plus channel ends, so the
    outcome of a step family is a function of a small key —

    * ``(i, home, head)`` for the delivery of remote ``i``'s message to
      the home, ``(i, remote, head)`` for a delivery to remote ``i``;
    * ``home`` for the home's decision and taus, ``(i, remote)`` for
      remote ``i``'s local steps

    — and is recorded once per key as the replaced node plus channel
    pops and pushes (:func:`_deltas`).  :meth:`successors` applies each
    delta at once (:func:`_successor`); :meth:`steps` hands it to its
    :class:`Step`, which applies it when its ``state`` is first read.
    The memo belongs to the instance
    (the table, the plan and ``n_remotes`` are part of what a key means)
    and holds nodes and messages only, never a state or a
    :class:`Channels`.
    """

    #: read by ``perf/spans.py:251`` to name this layer's spans
    engine = "interpreted"

    def __init__(self, refined: RefinedProtocol, n_remotes: int, *,
                 table: Optional[StepTable] = None,
                 # accepted and ignored: perf/child.py:75, perf/layers.py:182
                 engine: Optional[str] = None) -> None:
        if n_remotes < 1:
            raise SemanticsError("need at least one remote node")
        self.refined = refined
        self.protocol: Protocol = refined.protocol
        self.plan = refined.plan
        self.n_remotes = n_remotes
        self.capacity = self.plan.config.home_buffer_capacity
        # The Tables 1/2 control data (rewind/fast-forward/reply targets,
        # request kinds) comes from the step table, the same record the
        # certificate checker verifies — one transition schema, no drift.
        # Passing a mutated table injects faults for differential testing.
        self.table: StepTable = (table if table is not None
                                 else build_step_table(refined))
        self._reply_of = self.table.reply_of
        self._reply_msgs = self.table.reply_msgs
        self._notes = self.table.notes
        self._remote_fused = self.table.fused_requests(REMOTE_ROLE)
        self._home_fused = self.table.fused_requests(HOME_ROLE)
        self._memo: dict[Any, tuple[_Delta, ...]] = {}

    # -- construction --------------------------------------------------------

    def initial_state(self) -> AsyncState:
        home = HomeNode(state=self.protocol.home.initial_state,
                        env=self.protocol.home.initial_env)
        remote = RemoteNode(state=self.protocol.remote.initial_state,
                            env=self.protocol.remote.initial_env)
        return AsyncState(home=home, remotes=(remote,) * self.n_remotes,
                          channels=Channels.empty(self.n_remotes))

    # -- public enumeration API ----------------------------------------------

    def interpret(self, state: AsyncState) -> list[Step]:
        """All enabled transitions, enumerated directly from the tables:
        what :meth:`steps` replays, and the reference it is tested
        against."""
        out: list[Step] = []
        for i in range(self.n_remotes):
            if state.channels.head_to_home(i) is not None:
                out.append(self._deliver_to_home(state, i))
            if state.channels.head_to_remote(i) is not None:
                out.append(self._deliver_to_remote(state, i))
        if state.home.mode == IDLE:
            out.extend(self._home_steps(state))
        for i in range(self.n_remotes):
            if state.remotes[i].mode == IDLE:
                out.extend(self._remote_steps(state, i))
        return out

    def steps(self, state: AsyncState) -> list[Step]:
        """All enabled transitions, with completion/send observables; a
        replayed step builds its successor when ``state`` is first read."""
        return [_replayed(state, o) for o in self._outcomes(state)]

    def successors(self, state: AsyncState) -> list[tuple[AsyncAction, AsyncState]]:
        return [(o[0], _successor(state, o)) for o in self._outcomes(state)]

    def apply(self, state: AsyncState, action: AsyncAction) -> AsyncState:
        for step in self.steps(state):
            if step.action == action:
                return step.state
        raise SemanticsError(f"action {action!r} not enabled")

    # -- delta replay ----------------------------------------------------------

    def _outcomes(self, state: AsyncState) -> list[_Delta]:
        """:meth:`interpret`, family by family through the memo."""
        out: list[_Delta] = []
        memo = self._memo
        home = state.home
        remotes = state.remotes
        queues = state.channels.queues
        for i in range(self.n_remotes):
            queue = queues[2 * i + 1]
            if queue:
                key: Any = (i, home, queue[0])
                family = memo.get(key)
                if family is None:
                    family = self._learn(key, state, HOME_ID, [
                        self._deliver_to_home(state, i)])
                out.extend(family)
            queue = queues[2 * i]
            if queue:
                key = (i, remotes[i], queue[0])
                family = memo.get(key)
                if family is None:
                    family = self._learn(key, state, i, [
                        self._deliver_to_remote(state, i)])
                out.extend(family)
        if home.mode == IDLE:
            family = memo.get(home)
            if family is None:
                family = self._learn(home, state, HOME_ID,
                                     self._home_steps(state))
            out.extend(family)
        for i in range(self.n_remotes):
            node = remotes[i]
            if node.mode == IDLE:
                key = (i, node)
                family = memo.get(key)
                if family is None:
                    family = self._learn(key, state, i,
                                         self._remote_steps(state, i))
                out.extend(family)
        return out

    def _learn(self, key: Any, state: AsyncState, owner: ProcId,
               steps: list[Step]) -> tuple[_Delta, ...]:
        """Memoize one interpreted family and return its deltas; a family
        :func:`_deltas` cannot express is a :class:`SemanticsError`."""
        family = _deltas(state, owner, steps)
        if family is None:
            raise SemanticsError(
                f"step family {key!r} of owner {owner!r} rewrites more "
                "than its owner's node and channel ends; it cannot be "
                "replayed")
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.clear()
        self._memo[key] = family
        return family

    # -- home: message delivery ----------------------------------------------

    def _deliver_to_home(self, state: AsyncState, i: int) -> Step:
        msg, channels = state.channels.pop(Channels.to_home(i))
        base = state.with_channels(channels)
        action = DeliverToHome(remote=i)
        home = base.home

        if msg.kind == REQ:
            return self._home_receive_request(base, i, msg, action)

        if msg.kind == NOTE:
            # fire-and-forget notification: always enters the buffer (the
            # sender has moved on and can never be nacked).
            assert msg.msg is not None
            entry = BufEntry(sender=i, msg=msg.msg, payload=msg.payload,
                             note=True)
            new_home = replace(home, buffer=home.buffer + (entry,))
            return Step(action=action, state=base.with_home(new_home))

        # ACK / NACK / REPL are only meaningful in a transient state
        # awaiting this remote (rows T1-T2); anything else is a protocol or
        # library bug.
        if home.mode != TRANS or home.awaiting != i:
            raise SemanticsError(
                f"home received {msg.describe()} from r{i} but is not "
                f"awaiting it (state {home.describe()})")
        out_guard = self._home_pending_output(home)
        spec = self._home_pending_spec(home)

        if msg.kind == NACK:  # row T2
            new_home = replace(
                home, state=spec.rewind_to, mode=IDLE, awaiting=None,
                pending_out=None,
                out_idx=self._next_out_idx(self.protocol.home, home))
            return Step(action=action, state=base.with_home(new_home))

        # Payload expressions are effect-free functions of the sender's
        # environment, which is frozen while the sender is transient — so
        # the value observed at completion equals the one sent with the
        # request.  Evaluate once here and reuse below instead of
        # re-evaluating per branch.
        request_payload = out_guard.eval_payload(home.env)

        if msg.kind == ACK:  # row T1
            env = out_guard.apply_update(home.env)
            new_home = HomeNode(state=spec.forward_to, env=env, mode=IDLE,
                                out_idx=0, buffer=home.buffer)
            completes = (RendezvousStep(active=HOME_ID, passive=i,
                                        msg=out_guard.msg,
                                        payload=request_payload),)
            return Step(action=action, state=base.with_home(new_home),
                        completes=completes)

        if msg.kind == REPL:  # fused reply: completes request + reply
            reply_msg = spec.fused_reply
            if reply_msg is None or msg.msg != reply_msg:
                raise SemanticsError(
                    f"home got unexpected reply {msg.describe()} while "
                    f"awaiting the reply to {out_guard.msg!r}")
            assert spec.reply_to is not None
            env = out_guard.apply_update(home.env)
            mid_state = self.protocol.home.state(spec.reply_to)
            in_guard = self._find_input(mid_state, reply_msg, env, i,
                                        msg.payload, "home")
            env = in_guard.complete(env, i, msg.payload)
            new_home = HomeNode(state=in_guard.to, env=env, mode=IDLE,
                                out_idx=0, buffer=home.buffer)
            completes = (
                RendezvousStep(active=HOME_ID, passive=i, msg=out_guard.msg,
                               payload=request_payload),
                RendezvousStep(active=i, passive=HOME_ID, msg=reply_msg,
                               payload=msg.payload),
            )
            return Step(action=action, state=base.with_home(new_home),
                        completes=completes)

        raise SemanticsError(f"unknown message kind {msg.kind!r}")

    def _home_receive_request(self, base: AsyncState, i: int, msg: Msg,
                              action: DeliverToHome) -> Step:
        """Buffering rules: progress/ack reservation, implicit nack (T3-T6)."""
        home = base.home
        assert msg.msg is not None
        entry = BufEntry(sender=i, msg=msg.msg, payload=msg.payload)

        if home.mode == TRANS and home.awaiting == i:
            # Row T3: implicit nack.  The request takes the reserved
            # ack-buffer slot and the home re-enters its communication state.
            spec = self._home_pending_spec(home)
            new_home = replace(
                home, state=spec.rewind_to, mode=IDLE, awaiting=None,
                pending_out=None,
                out_idx=self._next_out_idx(self.protocol.home, home))
            if self._free_slots(home) >= 1:
                new_home = replace(new_home, buffer=new_home.buffer + (entry,))
                return Step(action=action, state=base.with_home(new_home))
            if self.plan.config.reserve_ack_buffer:
                raise SemanticsError(
                    "ack-buffer reservation violated: home is transient "
                    f"with a full buffer ({home.describe()})")
            # ablation: no ack buffer was reserved, so no slot is
            # guaranteed — the request must be nacked outright.
            nack = Msg(kind=NACK)
            channels = base.channels.send_to_remote(i, nack)
            return Step(action=action,
                        state=base.with_home(new_home).with_channels(channels),
                        sends=(nack,))

        satisfies = self._satisfies_current(home, i, msg.msg, msg.payload)
        reserved = 0
        if self.plan.config.reserve_progress_buffer and not satisfies:
            reserved += 1
        if home.mode == TRANS and self.plan.config.reserve_ack_buffer:
            reserved += 1
        if self._free_slots(home) > reserved:
            new_home = replace(home, buffer=home.buffer + (entry,))
            return Step(action=action, state=base.with_home(new_home))
        # rows T6 / the communication-state analogue: nack the request
        nack = Msg(kind=NACK)
        channels = base.channels.send_to_remote(i, nack)
        return Step(action=action, state=base.with_channels(channels),
                    sends=(nack,))

    # -- home: decisions -------------------------------------------------------

    def _home_steps(self, state: AsyncState) -> list[Step]:
        """The idle home's decision, then its taus."""
        state_def = self.protocol.home.state(state.home.state)
        decision = self._home_decision(state, state_def)
        out = [] if decision is None else [decision]
        out.extend(self._home_taus(state, state_def))
        return out

    def _home_decision(self, state: AsyncState,
                       state_def: StateDef) -> Optional[Step]:
        """Rows C1/C2 of Table 2 plus fused-reply emission (deterministic).

        The caller guarantees ``home.mode == IDLE`` and passes the home's
        current :class:`StateDef`.
        """
        if not state_def.is_communication:
            return None

        c1 = self._home_c1(state, state_def)
        if c1 is not None:
            return c1
        return self._home_c2_or_reply(state, state_def)

    def _home_c1(self, state: AsyncState, state_def: StateDef) -> Optional[Step]:
        home = state.home
        for pos, entry in enumerate(home.buffer):
            guard = self._matching_input(state_def, home.env, entry)
            if guard is None:
                continue
            env = guard.complete(home.env, entry.sender, entry.payload)
            buffer = home.buffer[:pos] + home.buffer[pos + 1:]
            new_home = HomeNode(state=guard.to, env=env, mode=IDLE,
                                out_idx=0, buffer=buffer)
            new_state = state.with_home(new_home)
            sends: tuple[Msg, ...] = ()
            completes: tuple[RendezvousStep, ...] = ()
            assert isinstance(entry.sender, int)
            if entry.note:
                # fire-and-forget: consumption is the completion point
                completes = (RendezvousStep(active=entry.sender,
                                            passive=HOME_ID, msg=entry.msg,
                                            payload=entry.payload),)
            elif entry.msg in self._remote_fused:
                # fused: no ack; the eventual reply acknowledges it.  The
                # completion is reported when the requester gets the reply.
                pass
            else:
                ack = Msg(kind=ACK)
                new_state = new_state.with_channels(
                    new_state.channels.send_to_remote(entry.sender, ack))
                sends = (ack,)
            return Step(action=HomeStep(kind="C1", detail=entry.describe()),
                        state=new_state, completes=completes, sends=sends)
        return None

    def _home_c2_or_reply(self, state: AsyncState,
                          state_def: StateDef) -> Optional[Step]:
        home = state.home
        outputs = state_def.outputs
        if not outputs:
            return None
        n = len(outputs)
        for offset in range(n):
            idx = (home.out_idx + offset) % n
            guard = outputs[idx]
            if not guard.enabled(home.env):
                continue
            assert guard.target is not None
            target = guard.target.eval(home.env)
            if not 0 <= target < self.n_remotes:
                raise SemanticsError(
                    f"home output {guard.describe()} targets r{target}")
            spec = self.table.spec(HOME_ROLE, home.state, idx)
            if spec.kind == KIND_REPLY:
                return self._home_reply(state, guard, idx, target)
            if spec.kind == KIND_NOTE:
                raise SemanticsError(
                    "fire-and-forget home outputs are not supported")
            # condition (c): pointless to request a remote that is itself
            # actively requesting us
            if any(e.sender == target and not e.note for e in home.buffer):
                continue
            return self._home_c2(state, guard, idx, target)
        return None

    def _home_reply(self, state: AsyncState, guard: Output, idx: int,
                    target: int) -> Step:
        """Emit a fused reply: the requester is waiting, no ack needed."""
        home = state.home
        payload = guard.eval_payload(home.env)
        repl = Msg(kind=REPL, msg=guard.msg, payload=payload)
        channels = state.channels.send_to_remote(target, repl)
        new_home = HomeNode(state=guard.to, env=guard.apply_update(home.env),
                            mode=IDLE, out_idx=0, buffer=home.buffer)
        return Step(action=HomeStep(kind="REPLY", detail=f"{guard.msg}→r{target}"),
                    state=state.with_home(new_home).with_channels(channels),
                    sends=(repl,))

    def _home_c2(self, state: AsyncState, guard: Output, idx: int,
                 target: int) -> Optional[Step]:
        """Row C2: allocate the ack buffer, send the request, go transient."""
        home = state.home
        channels = state.channels
        sends: list[Msg] = []
        buffer = home.buffer
        if self._free_slots(home) < 1:
            # free a slot by nacking a buffered request (they are all
            # non-satisfying here, or C1 would have fired).  NOTE entries
            # cannot be nacked; if everything is a NOTE we cannot proceed.
            victim_pos = next((p for p, e in enumerate(buffer) if not e.note),
                              None)
            if victim_pos is None:
                return None
            victim = buffer[victim_pos]
            assert isinstance(victim.sender, int)
            nack = Msg(kind=NACK)
            channels = channels.send_to_remote(victim.sender, nack)
            sends.append(nack)
            buffer = buffer[:victim_pos] + buffer[victim_pos + 1:]
        req = Msg(kind=REQ, msg=guard.msg, payload=guard.eval_payload(home.env))
        channels = channels.send_to_remote(target, req)
        sends.append(req)
        new_home = replace(home, mode=TRANS, awaiting=target,
                           pending_out=idx, buffer=buffer)
        return Step(action=HomeStep(kind="C2", detail=f"{guard.msg}→r{target}"),
                    state=state.with_home(new_home).with_channels(channels),
                    sends=tuple(sends))

    def _home_taus(self, state: AsyncState,
                   state_def: StateDef) -> Iterator[Step]:
        home = state.home
        if state_def.is_communication:
            return
        for guard in state_def.taus:
            if guard.enabled(home.env):
                new_home = HomeNode(state=guard.to,
                                    env=guard.apply_update(home.env),
                                    mode=IDLE, out_idx=0, buffer=home.buffer)
                yield Step(action=HomeTau(label=guard.label),
                           state=state.with_home(new_home))

    # -- remote: message delivery ----------------------------------------------

    def _deliver_to_remote(self, state: AsyncState, i: int) -> Step:
        msg, channels = state.channels.pop(Channels.to_remote(i))
        base = state.with_channels(channels)
        action = DeliverToRemote(remote=i)
        node = base.remotes[i]

        if msg.kind == REQ:
            if node.mode == TRANS:
                # Row T3: ignore requests from home while transient
                return Step(action=action, state=base)
            if node.buf is not None:
                raise SemanticsError(
                    f"remote r{i} single-slot buffer overflow "
                    f"({node.describe()} receiving {msg.describe()})")
            assert msg.msg is not None
            entry = BufEntry(sender=HOME_ID, msg=msg.msg, payload=msg.payload)
            return Step(action=action,
                        state=base.with_remote(i, replace(node, buf=entry)))

        if node.mode != TRANS:
            raise SemanticsError(
                f"remote r{i} received {msg.describe()} while not transient")
        out_guard = self._remote_pending_output(node)
        spec = self._remote_pending_spec(node)
        # Evaluated once per delivery (see the home-side twin above): the
        # remote's env is frozen while transient, so the retransmitted
        # request and the completion observable must carry the same value.
        request_payload = out_guard.eval_payload(node.env)

        if msg.kind == NACK:  # row T2: retransmit immediately
            retry = Msg(kind=REQ, msg=out_guard.msg, payload=request_payload)
            channels2 = base.channels.send_to_home(i, retry)
            return Step(action=action, state=base.with_channels(channels2),
                        sends=(retry,))

        if msg.kind == ACK:  # row T1
            env = out_guard.apply_update(node.env)
            new_node = RemoteNode(state=spec.forward_to, env=env, mode=IDLE)
            completes = (RendezvousStep(active=i, passive=HOME_ID,
                                        msg=out_guard.msg,
                                        payload=request_payload),)
            return Step(action=action, state=base.with_remote(i, new_node),
                        completes=completes)

        if msg.kind == REPL:
            reply_msg = spec.fused_reply
            if reply_msg is None or msg.msg != reply_msg:
                raise SemanticsError(
                    f"remote r{i} got unexpected reply {msg.describe()} "
                    f"while awaiting the reply to {out_guard.msg!r}")
            assert spec.reply_to is not None
            env = out_guard.apply_update(node.env)
            mid_state = self.protocol.remote.state(spec.reply_to)
            in_guard = self._find_input(mid_state, reply_msg, env, -1,
                                        msg.payload, f"remote r{i}")
            env = in_guard.complete(env, -1, msg.payload)
            new_node = RemoteNode(state=in_guard.to, env=env, mode=IDLE)
            completes = (
                RendezvousStep(active=i, passive=HOME_ID, msg=out_guard.msg,
                               payload=request_payload),
                RendezvousStep(active=HOME_ID, passive=i, msg=reply_msg,
                               payload=msg.payload),
            )
            return Step(action=action, state=base.with_remote(i, new_node),
                        completes=completes)

        raise SemanticsError(f"unknown message kind {msg.kind!r}")

    # -- remote: decisions -------------------------------------------------------

    def _remote_steps(self, state: AsyncState, i: int) -> list[Step]:
        """Idle remote ``i``'s local steps: send, or C3 then taus."""
        node = state.remotes[i]
        state_def = self.protocol.remote.state(node.state)
        outputs = state_def.outputs
        if outputs:
            guard = outputs[0]  # validated: active states have exactly one
            if guard.enabled(node.env):
                return [self._remote_send(state, i, guard)]
            return []
        out: list[Step] = []
        if node.buf is not None and state_def.is_communication:
            out.append(self._remote_c3(state, i, state_def))
        for guard in state_def.taus:
            if guard.enabled(node.env):
                new_node = replace(node, state=guard.to,
                                   env=guard.apply_update(node.env))
                out.append(Step(action=RemoteTau(remote=i, label=guard.label),
                                state=state.with_remote(i, new_node)))
        return out

    def _remote_send(self, state: AsyncState, i: int, guard: Output) -> Step:
        """Rows C1/C2 of Table 1 (plus the fire-and-forget extension)."""
        node = state.remotes[i]
        payload = guard.eval_payload(node.env)
        spec = self.table.spec(REMOTE_ROLE, node.state, 0)
        if spec.kind == KIND_NOTE:
            note = Msg(kind=NOTE, msg=guard.msg, payload=payload)
            channels = state.channels.send_to_home(i, note)
            new_node = RemoteNode(state=spec.forward_to,
                                  env=guard.apply_update(node.env),
                                  mode=IDLE, buf=node.buf)
            return Step(action=RemoteSend(remote=i),
                        state=state.with_remote(i, new_node)
                                  .with_channels(channels),
                        sends=(note,))
        req = Msg(kind=REQ, msg=guard.msg, payload=payload)
        channels = state.channels.send_to_home(i, req)
        # row C2: deleting a pending home request constitutes the implicit
        # nack — the home will learn of it from our request's arrival.
        new_node = RemoteNode(state=node.state, env=node.env, mode=TRANS,
                              pending_out=0, buf=None)
        return Step(action=RemoteSend(remote=i),
                    state=state.with_remote(i, new_node)
                              .with_channels(channels),
                    sends=(req,))

    def _remote_c3(self, state: AsyncState, i: int,
                   state_def: StateDef) -> Step:
        """Row C3: ack a satisfying home request, nack otherwise."""
        node = state.remotes[i]
        entry = node.buf
        assert entry is not None
        guard = self._matching_input(state_def, node.env, entry)
        if guard is None:
            nack = Msg(kind=NACK)
            channels = state.channels.send_to_home(i, nack)
            new_node = replace(node, buf=None)
            return Step(action=RemoteC3(remote=i),
                        state=state.with_remote(i, new_node)
                                  .with_channels(channels),
                        sends=(nack,))

        env = guard.complete(node.env, -1, entry.payload)
        if entry.msg in self._home_fused:
            # responder side of a home-initiated fused pair: perform local
            # actions only, then answer with the reply (which also serves
            # as the ack of the request).
            return self._remote_fused_response(state, i, entry, guard, env)
        ack = Msg(kind=ACK)
        channels = state.channels.send_to_home(i, ack)
        new_node = RemoteNode(state=guard.to, env=env, mode=IDLE)
        completes = (RendezvousStep(active=HOME_ID, passive=i, msg=entry.msg,
                                    payload=entry.payload),)
        return Step(action=RemoteC3(remote=i),
                    state=state.with_remote(i, new_node)
                              .with_channels(channels),
                    completes=completes, sends=(ack,))

    def _remote_fused_response(self, state: AsyncState, i: int,
                               entry: BufEntry, guard: Input,
                               env: Env) -> Step:
        cursor = self.protocol.remote.state(guard.to)
        hops = 0
        while cursor.is_internal and len(cursor.guards) == 1:
            tau = cursor.taus[0]
            if not tau.enabled(env):
                raise SemanticsError(
                    f"fused-response local action {tau.describe()} disabled")
            env = tau.apply_update(env)
            cursor = self.protocol.remote.state(tau.to)
            hops += 1
            if hops > len(self.protocol.remote.states):
                raise SemanticsError("fused response stuck in internal loop")
        reply_msg = self._reply_of[entry.msg]
        if not (len(cursor.guards) == 1
                and isinstance(cursor.guards[0], Output)
                and cursor.guards[0].msg == reply_msg):
            raise SemanticsError(
                f"fused response: expected sole output {reply_msg!r} "
                f"in state {cursor.name!r}")
        out_guard = cursor.guards[0]
        payload = out_guard.eval_payload(env)
        repl = Msg(kind=REPL, msg=reply_msg, payload=payload)
        channels = state.channels.send_to_home(i, repl)
        new_node = RemoteNode(state=out_guard.to,
                              env=out_guard.apply_update(env), mode=IDLE)
        return Step(action=RemoteC3(remote=i),
                    state=state.with_remote(i, new_node)
                              .with_channels(channels),
                    sends=(repl,))

    # -- helpers -----------------------------------------------------------------

    def _free_slots(self, home: HomeNode) -> int:
        """Free request-buffer slots.

        Fire-and-forget notes do not count against the k-slot request
        buffer: they can never be refused, so a hand-designed protocol
        using them implicitly requires *dedicated* buffering for them over
        and above the paper's k slots (the fairness benchmark measures how
        much).  Counting them here would instead let a note steal the
        reserved ack-buffer slot and break the T3 implicit-nack guarantee —
        which is exactly what happened when this library first model-checked
        the hand-designed migratory protocol at three nodes.
        """
        return self.capacity - sum(1 for e in home.buffer if not e.note)

    def _satisfies_current(self, home: HomeNode, sender: int, msg: str,
                           payload: Value) -> bool:
        """Would this request complete a rendezvous in the home's current
        communication state?  (The progress-buffer criterion.)"""
        state_def = self.protocol.home.state(home.state)
        entry = BufEntry(sender=sender, msg=msg, payload=payload)
        return self._matching_input(state_def, home.env, entry) is not None

    @staticmethod
    def _matching_input(state_def: StateDef, env: Env,
                        entry: BufEntry) -> Optional[Input]:
        sender = entry.sender if isinstance(entry.sender, int) else -1
        for guard in state_def.inputs:
            if guard.msg == entry.msg and guard.accepts(env, sender,
                                                        entry.payload):
                return guard
        return None

    def _home_pending_output(self, home: HomeNode) -> Output:
        if home.pending_out is None:
            raise SemanticsError("home has no pending output in TRANS mode")
        return self.protocol.home.state(home.state).outputs[home.pending_out]

    def _remote_pending_output(self, node: RemoteNode) -> Output:
        if node.pending_out is None:
            raise SemanticsError("remote has no pending output in TRANS mode")
        return self.protocol.remote.state(node.state).outputs[node.pending_out]

    def _home_pending_spec(self, home: HomeNode) -> TransitionSpec:
        if home.pending_out is None:
            raise SemanticsError("home has no pending output in TRANS mode")
        return self.table.spec(HOME_ROLE, home.state, home.pending_out)

    def _remote_pending_spec(self, node: RemoteNode) -> TransitionSpec:
        if node.pending_out is None:
            raise SemanticsError("remote has no pending output in TRANS mode")
        return self.table.spec(REMOTE_ROLE, node.state, node.pending_out)

    def _next_out_idx(self, process: ProcessDef, home: HomeNode) -> int:
        outputs = process.state(home.state).outputs
        if not outputs or home.pending_out is None:
            return 0
        return (home.pending_out + 1) % len(outputs)

    @staticmethod
    def _find_input(state_def: StateDef, msg: str, env: Env, sender: int,
                    payload: Value, who: str) -> Input:
        for guard in state_def.inputs:
            if guard.msg == msg and guard.accepts(env, sender, payload):
                return guard
        raise SemanticsError(
            f"{who}: no input guard in state {state_def.name!r} accepts "
            f"the fused reply {msg!r}")
