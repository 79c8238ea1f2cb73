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
checker explores.  Each row is written once, as a rule that reads one node
(plus a channel head) and returns the step as a :class:`Delta`: the node
it rewrites plus the channel ends it pops and pushes.
:meth:`AsyncSystem.deltas` memoizes the rules' deltas and the
discrete-event simulator takes its steps from there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Hashable, NamedTuple, Optional

from ..csp.ast import Input, Output, ProcessKind, Protocol, StateDef
from ..csp.env import Env, Value
from ..errors import SemanticsError
from ..refine.plan import RefinedProtocol
from ..refine.transitions import (
    KIND_NOTE,
    KIND_REPLY,
    StepTable,
    TransitionSpec,
    build_step_table,
)
from .network import ACK, NACK, NOTE, REPL, REQ, Channels, Msg
from .rendezvous import RendezvousStep
from .state import HOME_ID, ProcId, memo, remember, value

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
    "Delta",
    "successor",
    "AsyncSystem",
]

IDLE = "idle"
TRANS = "trans"


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------


@value
@dataclass(frozen=True, slots=True)
class BufEntry:
    """One buffered request: who sent it, what rendezvous it asks for."""

    sender: ProcId
    msg: str
    payload: Value = None
    note: bool = False  # fire-and-forget entry: cannot be nacked or evicted
    _hash_cache: Optional[int] = memo()

    def describe(self) -> str:
        who = "h" if self.sender == HOME_ID else f"r{self.sender}"
        tag = "~" if self.note else ""
        return f"{tag}{who}:{self.msg}"


@value
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

    def describe(self) -> str:
        tag = self.state if self.mode == IDLE else \
            f"{self.state}→r{self.awaiting}?"
        buf = ",".join(e.describe() for e in self.buffer)
        return f"{tag}{{{buf}}}"


@value
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

    def describe(self) -> str:
        tag = self.state if self.mode == IDLE else f"{self.state}*"
        return tag + (f"{{{self.buf.describe()}}}" if self.buf else "")


@value
@dataclass(frozen=True, slots=True)
class AsyncState:
    """Global asynchronous state: all nodes plus the network.

    Hashed once per instance (:func:`~repro.semantics.state.value`):
    asynchronous states are deeply nested, and recomputing the structural
    hash on every visited-set probe dominated exploration profiles.
    """

    home: HomeNode
    remotes: tuple[RemoteNode, ...]
    channels: Channels
    _hash_cache: Optional[int] = memo()

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


# ---------------------------------------------------------------------------
# the system
# ---------------------------------------------------------------------------


#: One channel's change, as :meth:`Channels.replay` takes it:
#: ``(channel, messages popped off its head, messages pushed on its tail)``.
_ChannelOp = tuple[int, int, tuple[Msg, ...]]


class Delta(NamedTuple):
    """One enabled step as the nodes and channel ends it writes — the
    record the Tables 1/2 rules return, :meth:`AsyncSystem.deltas`
    memoizes and :func:`successor` applies.

    ``home`` is the home's new node (None: equal to the old one),
    ``moved`` the ``(j, new node)`` of the one remote it rewrites (None:
    none, or a node equal to the old one), and ``ops`` its channel
    changes in ascending channel order.  ``completes`` lists the
    rendezvous that *finish* on this step (each rendezvous of the
    underlying protocol is reported exactly once, at the moment its
    second party commits), ``sends`` the messages it puts in the network.
    It is the only record of an asynchronous step: a reader that needs
    the successor too takes ``(delta, successor(state, delta))``.
    """

    action: AsyncAction
    home: Optional[HomeNode]
    moved: Optional[tuple[int, RemoteNode]]
    ops: tuple[_ChannelOp, ...]
    completes: tuple[RendezvousStep, ...]
    sends: tuple[Msg, ...]


def successor(state: AsyncState, delta: Delta) -> AsyncState:
    """``state`` after the step ``delta`` records — the one place a delta
    is applied."""
    _action, home, moved, ops, _completes, _sends = delta
    remotes = state.remotes
    if moved is not None:
        j, node = moved
        remotes = remotes[:j] + (node,) + remotes[j + 1:]
    return AsyncState(state.home if home is None else home, remotes,
                      state.channels.replay(ops) if ops else state.channels)


def _memoize(memo: dict[Any, tuple[Delta, ...]], key: Any, owner: ProcId,
             family: tuple[Delta, ...]) -> tuple[Delta, ...]:
    """Write the rules' ``family`` to ``memo`` under ``key`` and return
    it; a family that writes a node its owner (the home, or remote ``i``)
    does not hold is a :class:`SemanticsError`."""
    for delta in family:
        if (delta.home is not None and owner != HOME_ID
                or delta.moved is not None and delta.moved[0] != owner):
            raise SemanticsError(
                f"step family {key!r} of owner {owner!r} rewrites more than "
                "its owner's node and channel ends; it cannot be replayed")
    return remember(memo, key, family)


def _home_write(action: AsyncAction, old: HomeNode, new: HomeNode,
                ops: tuple[_ChannelOp, ...] = (),
                completes: tuple[RendezvousStep, ...] = (),
                sends: tuple[Msg, ...] = ()) -> Delta:
    """A home-side step that leaves the home as ``new``."""
    return Delta(action, None if new == old else new, None, ops, completes,
                 sends)


def _remote_write(action: AsyncAction, i: int, old: RemoteNode,
                  new: RemoteNode, ops: tuple[_ChannelOp, ...] = (),
                  completes: tuple[RendezvousStep, ...] = (),
                  sends: tuple[Msg, ...] = ()) -> Delta:
    """A step of remote ``i`` that leaves it as ``new``."""
    return Delta(action, None, None if new == old else (i, new), ops,
                 completes, sends)


def _uplink(action: AsyncAction, i: int, old: RemoteNode, new: RemoteNode,
            msg: Msg, completes: tuple[RendezvousStep, ...] = ()) -> Delta:
    """A local step of remote ``i`` that leaves it as ``new`` and sends
    ``msg`` to the home."""
    return _remote_write(action, i, old, new,
                         ((Channels.to_home(i), 0, (msg,)),), completes,
                         (msg,))


def _with_entry(home: HomeNode, entry: BufEntry) -> HomeNode:
    """``home`` with ``entry`` appended to its buffer."""
    return HomeNode(state=home.state, env=home.env, mode=home.mode,
                    out_idx=home.out_idx, awaiting=home.awaiting,
                    pending_out=home.pending_out,
                    buffer=home.buffer + (entry,))


class AsyncSystem:
    """Executable asynchronous semantics for a refined protocol.

    Every row of Tables 1/2 reads one node plus the head of one channel
    and writes that node plus channel ends, so the outcome of a step
    family is a function of a small key —

    * ``(i, home, head)`` for the delivery of remote ``i``'s message to
      the home, ``(i, remote, head)`` for a delivery to remote ``i``;
    * ``home`` for the home's decision and taus, ``(i, remote)`` for
      remote ``i``'s local steps

    — and the rule methods (``_deliver_to_home`` …
    ``_remote_fused_response``) take exactly that key and write each
    step as a :class:`Delta`: the replaced node plus channel pops and
    pushes.  :meth:`deltas` memoizes each family once per key.  A caller
    that takes one step of many reads :meth:`deltas` and builds one
    successor (:func:`successor`): the simulator, :meth:`apply`, POR's
    ample step.  :meth:`successors` builds every one, and
    :meth:`interpret` runs the same loop with an empty memo.  The memo
    belongs to the instance (the table, the plan and ``n_remotes`` are
    part of what a key means) and holds nodes and messages only, never a
    state or a :class:`Channels`.
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
        self._remote_fused = self.table.fused_requests(ProcessKind.REMOTE)
        self._home_fused = self.table.fused_requests(ProcessKind.HOME)
        self._memo: dict[Any, tuple[Delta, ...]] = {}

    # -- construction --------------------------------------------------------

    def initial_state(self) -> AsyncState:
        home = HomeNode(state=self.protocol.home.initial_state,
                        env=self.protocol.home.initial_env)
        remote = RemoteNode(state=self.protocol.remote.initial_state,
                            env=self.protocol.remote.initial_env)
        return AsyncState(home=home, remotes=(remote,) * self.n_remotes,
                          channels=Channels.empty(self.n_remotes))

    # -- public enumeration API ----------------------------------------------

    def deltas(self, state: AsyncState) -> list[Delta]:
        """One :class:`Delta` per enabled step, no successor built:
        remote by remote its two deliveries, then the home's steps, then
        each remote's local steps, family by family through the memo.
        :func:`successor` applies one."""
        return self._enabled(state, self._memo)

    def interpret(self, state: AsyncState) -> list[Delta]:
        """:meth:`deltas` with no memo: every rule runs afresh, in the
        same order."""
        return self._enabled(state, {})

    def successors(self, state: AsyncState) -> list[tuple[AsyncAction, AsyncState]]:
        return [(d.action, successor(state, d)) for d in self.deltas(state)]

    def apply(self, state: AsyncState, action: AsyncAction) -> AsyncState:
        for delta in self.deltas(state):
            if delta.action == action:
                return successor(state, delta)
        raise SemanticsError(f"action {action!r} not enabled")

    def _enabled(self, state: AsyncState,
                 memo: dict[Any, tuple[Delta, ...]]) -> list[Delta]:
        """:meth:`deltas` and :meth:`interpret`: each family read from
        ``memo``, or run and written there."""
        out: list[Delta] = []
        home = state.home
        remotes = state.remotes
        queues = state.channels.queues
        for i in range(self.n_remotes):
            queue = queues[2 * i + 1]
            if queue:
                key: Any = (i, home, queue[0])
                family = memo.get(key)
                if family is None:
                    family = _memoize(memo, key, HOME_ID, (
                        self._deliver_to_home(i, home, queue[0]),))
                out.extend(family)
            queue = queues[2 * i]
            if queue:
                key = (i, remotes[i], queue[0])
                family = memo.get(key)
                if family is None:
                    family = _memoize(memo, key, i, (
                        self._deliver_to_remote(i, remotes[i], queue[0]),))
                out.extend(family)
        if home.mode == IDLE:
            family = memo.get(home)
            if family is None:
                family = _memoize(memo, home, HOME_ID, tuple(self._home_steps(home)))
            out.extend(family)
        for i in range(self.n_remotes):
            node = remotes[i]
            if node.mode == IDLE:
                key = (i, node)
                family = memo.get(key)
                if family is None:
                    family = _memoize(memo, key, i,
                                      tuple(self._remote_steps(i, node)))
                out.extend(family)
        return out

    # -- home: message delivery ----------------------------------------------

    def _deliver_to_home(self, i: int, home: HomeNode, msg: Msg) -> Delta:
        action = DeliverToHome(remote=i)
        if msg.kind == REQ:
            return self._home_receive_request(i, home, msg, action)
        pop = ((Channels.to_home(i), 1, ()),)

        if msg.kind == NOTE:
            # fire-and-forget notification: always enters the buffer (the
            # sender has moved on and can never be nacked).
            assert msg.msg is not None
            entry = BufEntry(sender=i, msg=msg.msg, payload=msg.payload,
                             note=True)
            return _home_write(action, home, _with_entry(home, entry), pop)

        # ACK / NACK / REPL are only meaningful in a transient state
        # awaiting this remote (rows T1-T2); anything else is a protocol or
        # library bug.
        if home.mode != TRANS or home.awaiting != i:
            raise SemanticsError(
                f"home received {msg.describe()} from r{i} but is not "
                f"awaiting it (state {home.describe()})")
        if msg.kind == NACK:  # row T2
            return _home_write(action, home,
                               self._rewound(home, home.buffer), pop)
        new_home, completes = self._complete(ProcessKind.HOME, home, i, msg, "home")
        return _home_write(action, home, new_home, pop, completes)

    def _home_receive_request(self, i: int, home: HomeNode, msg: Msg,
                              action: DeliverToHome) -> Delta:
        """Buffering rules: progress/ack reservation, implicit nack (T3-T6)."""
        assert msg.msg is not None
        entry = BufEntry(sender=i, msg=msg.msg, payload=msg.payload)
        pop = (Channels.to_home(i), 1, ())

        if home.mode == TRANS and home.awaiting == i:
            # Row T3: implicit nack.  The request takes the reserved
            # ack-buffer slot and the home re-enters its communication state.
            if self._free_slots(home) >= 1:
                return _home_write(action, home, self._rewound(
                    home, home.buffer + (entry,)), (pop,))
            if self.plan.config.reserve_ack_buffer:
                raise SemanticsError(
                    "ack-buffer reservation violated: home is transient "
                    f"with a full buffer ({home.describe()})")
            # ablation: no ack buffer was reserved, so no slot is
            # guaranteed — the request must be nacked outright.
            nack = Msg(kind=NACK)
            return _home_write(action, home, self._rewound(home, home.buffer),
                               ((Channels.to_remote(i), 0, (nack,)), pop),
                               sends=(nack,))

        # the progress-buffer criterion: would it complete a rendezvous
        # in the home's current communication state?
        satisfies = self.protocol.home.state(home.state).accepting(
            msg.msg, home.env, i, msg.payload) is not None
        reserved = 0
        if self.plan.config.reserve_progress_buffer and not satisfies:
            reserved += 1
        if home.mode == TRANS and self.plan.config.reserve_ack_buffer:
            reserved += 1
        if self._free_slots(home) > reserved:
            return _home_write(action, home, _with_entry(home, entry), (pop,))
        # rows T6 / the communication-state analogue: nack the request
        nack = Msg(kind=NACK)
        return Delta(action, None, None,
                     ((Channels.to_remote(i), 0, (nack,)), pop), (), (nack,))

    # -- home: decisions -------------------------------------------------------

    def _home_steps(self, home: HomeNode) -> list[Delta]:
        """The idle home's steps: in a communication state its one
        deterministic decision (rows C1/C2 of Table 2 or a fused reply),
        elsewhere its enabled taus."""
        state_def = self.protocol.home.state(home.state)
        if not state_def.is_communication:
            return [_home_write(HomeTau(label=guard.label), home, HomeNode(
                        state=guard.to, env=guard.apply_update(home.env),
                        mode=IDLE, out_idx=0, buffer=home.buffer))
                    for guard in state_def.taus if guard.enabled(home.env)]
        decision = self._home_c1(home, state_def)
        if decision is None:
            decision = self._home_c2_or_reply(home, state_def)
        return [] if decision is None else [decision]

    def _home_c1(self, home: HomeNode, state_def: StateDef) -> Optional[Delta]:
        for pos, entry in enumerate(home.buffer):
            assert isinstance(entry.sender, int)
            guard = state_def.accepting(entry.msg, home.env, entry.sender,
                                        entry.payload)
            if guard is None:
                continue
            env = guard.complete(home.env, entry.sender, entry.payload)
            buffer = home.buffer[:pos] + home.buffer[pos + 1:]
            new_home = HomeNode(state=guard.to, env=env, mode=IDLE,
                                out_idx=0, buffer=buffer)
            action = HomeStep(kind="C1", detail=entry.describe())
            if entry.note:
                # fire-and-forget: consumption is the completion point
                return _home_write(action, home, new_home, completes=(
                    RendezvousStep(active=entry.sender, passive=HOME_ID,
                                   msg=entry.msg, payload=entry.payload),))
            if entry.msg in self._remote_fused:
                # fused: no ack; the eventual reply acknowledges it.  The
                # completion is reported when the requester gets the reply.
                return _home_write(action, home, new_home)
            ack = Msg(kind=ACK)
            return _home_write(
                action, home, new_home,
                ((Channels.to_remote(entry.sender), 0, (ack,)),),
                sends=(ack,))
        return None

    def _home_c2_or_reply(self, home: HomeNode,
                          state_def: StateDef) -> Optional[Delta]:
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
            spec = self.table.spec(ProcessKind.HOME, home.state, idx)
            if spec.kind == KIND_REPLY:
                return self._home_reply(home, guard, target)
            if spec.kind == KIND_NOTE:
                raise SemanticsError(
                    "fire-and-forget home outputs are not supported")
            # condition (c): pointless to request a remote that is itself
            # actively requesting us
            if any(e.sender == target and not e.note for e in home.buffer):
                continue
            return self._home_c2(home, guard, idx, target)
        return None

    def _home_reply(self, home: HomeNode, guard: Output, target: int) -> Delta:
        """Emit a fused reply: the requester is waiting, no ack needed."""
        payload = guard.eval_payload(home.env)
        repl = Msg(kind=REPL, msg=guard.msg, payload=payload)
        new_home = HomeNode(state=guard.to, env=guard.apply_update(home.env),
                            mode=IDLE, out_idx=0, buffer=home.buffer)
        return _home_write(
            HomeStep(kind="REPLY", detail=f"{guard.msg}→r{target}"), home,
            new_home, ((Channels.to_remote(target), 0, (repl,)),),
            sends=(repl,))

    def _home_c2(self, home: HomeNode, guard: Output, idx: int,
                 target: int) -> Optional[Delta]:
        """Row C2: allocate the ack buffer, send the request, go transient."""
        ops: list[_ChannelOp] = []
        sends: tuple[Msg, ...] = ()
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
            ops.append((Channels.to_remote(victim.sender), 0, (nack,)))
            sends = (nack,)
            buffer = buffer[:victim_pos] + buffer[victim_pos + 1:]
        req = Msg(kind=REQ, msg=guard.msg, payload=guard.eval_payload(home.env))
        # the victim is never the target (condition (c)): two channels
        ops.append((Channels.to_remote(target), 0, (req,)))
        ops.sort(key=lambda op: op[0])
        new_home = HomeNode(state=home.state, env=home.env, mode=TRANS,
                            out_idx=home.out_idx, awaiting=target,
                            pending_out=idx, buffer=buffer)
        return _home_write(HomeStep(kind="C2", detail=f"{guard.msg}→r{target}"),
                           home, new_home, tuple(ops), sends=sends + (req,))

    # -- remote: message delivery ----------------------------------------------

    def _deliver_to_remote(self, i: int, node: RemoteNode, msg: Msg) -> Delta:
        action = DeliverToRemote(remote=i)
        pop = (Channels.to_remote(i), 1, ())

        if msg.kind == REQ:
            if node.mode == TRANS:
                # Row T3: ignore requests from home while transient
                return Delta(action, None, None, (pop,), (), ())
            if node.buf is not None:
                raise SemanticsError(
                    f"remote r{i} single-slot buffer overflow "
                    f"({node.describe()} receiving {msg.describe()})")
            assert msg.msg is not None
            entry = BufEntry(sender=HOME_ID, msg=msg.msg, payload=msg.payload)
            return _remote_write(action, i, node, RemoteNode(
                state=node.state, env=node.env, mode=node.mode,
                pending_out=node.pending_out, buf=entry), (pop,))

        if node.mode != TRANS:
            raise SemanticsError(
                f"remote r{i} received {msg.describe()} while not transient")
        if msg.kind == NACK:  # row T2: retransmit immediately
            out_guard = self._pending(ProcessKind.REMOTE, node)[0]
            # the env is frozen while transient: the same payload again
            retry = Msg(kind=REQ, msg=out_guard.msg,
                        payload=out_guard.eval_payload(node.env))
            return Delta(action, None, None,
                         (pop, (Channels.to_home(i), 0, (retry,))), (),
                         (retry,))
        new_node, completes = self._complete(ProcessKind.REMOTE, node, i, msg,
                                             f"remote r{i}")
        return _remote_write(action, i, node, new_node, (pop,), completes)

    # -- remote: decisions -------------------------------------------------------

    def _remote_steps(self, i: int, node: RemoteNode) -> list[Delta]:
        """Idle remote ``i``'s local steps: send, or C3 then taus."""
        state_def = self.protocol.remote.state(node.state)
        outputs = state_def.outputs
        if outputs:
            guard = outputs[0]  # validated: active states have exactly one
            if guard.enabled(node.env):
                return [self._remote_send(i, node, guard)]
            return []
        out: list[Delta] = []
        if node.buf is not None and state_def.is_communication:
            out.append(self._remote_c3(i, node, state_def))
        for guard in state_def.taus:
            if guard.enabled(node.env):
                out.append(_remote_write(
                    RemoteTau(remote=i, label=guard.label), i, node,
                    RemoteNode(state=guard.to,
                               env=guard.apply_update(node.env),
                               mode=node.mode, pending_out=node.pending_out,
                               buf=node.buf)))
        return out

    def _remote_send(self, i: int, node: RemoteNode, guard: Output) -> Delta:
        """Rows C1/C2 of Table 1 (plus the fire-and-forget extension)."""
        payload = guard.eval_payload(node.env)
        spec = self.table.spec(ProcessKind.REMOTE, node.state, 0)
        if spec.kind == KIND_NOTE:
            return _uplink(RemoteSend(remote=i), i, node, RemoteNode(
                state=spec.forward_to, env=guard.apply_update(node.env),
                mode=IDLE, buf=node.buf),
                Msg(kind=NOTE, msg=guard.msg, payload=payload))
        # row C2: deleting a pending home request constitutes the implicit
        # nack — the home will learn of it from our request's arrival.
        return _uplink(RemoteSend(remote=i), i, node, RemoteNode(
            state=node.state, env=node.env, mode=TRANS, pending_out=0,
            buf=None), Msg(kind=REQ, msg=guard.msg, payload=payload))

    def _remote_c3(self, i: int, node: RemoteNode,
                   state_def: StateDef) -> Delta:
        """Row C3: ack a satisfying home request, nack otherwise."""
        entry = node.buf
        assert entry is not None
        guard = state_def.accepting(entry.msg, node.env, -1, entry.payload)
        if guard is None:
            return _uplink(RemoteC3(remote=i), i, node, RemoteNode(
                state=node.state, env=node.env, mode=node.mode,
                pending_out=node.pending_out, buf=None), Msg(kind=NACK))

        env = guard.complete(node.env, -1, entry.payload)
        if entry.msg in self._home_fused:
            # responder side of a home-initiated fused pair: perform local
            # actions only, then answer with the reply (which also serves
            # as the ack of the request).
            return self._remote_fused_response(i, node, entry, guard, env)
        return _uplink(RemoteC3(remote=i), i, node,
                       RemoteNode(state=guard.to, env=env, mode=IDLE),
                       Msg(kind=ACK), completes=(RendezvousStep(
                           active=HOME_ID, passive=i, msg=entry.msg,
                           payload=entry.payload),))

    def _remote_fused_response(self, i: int, node: RemoteNode,
                               entry: BufEntry, guard: Input,
                               env: Env) -> Delta:
        remote = self.protocol.remote
        for name in remote.responder_chain(guard.to):
            cursor = remote.state(name)
            tau = cursor.sole_tau
            if tau is None:
                break
            if not tau.enabled(env):
                raise SemanticsError(
                    f"fused-response local action {tau.describe()} disabled")
            env = tau.apply_update(env)
        else:  # the chain's last tau leads back into it
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
        return _uplink(RemoteC3(remote=i), i, node,
                       RemoteNode(state=out_guard.to,
                                  env=out_guard.apply_update(env), mode=IDLE),
                       Msg(kind=REPL, msg=reply_msg, payload=payload))

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

    def _pending(self, role: str,
                 node: Any) -> tuple[Output, TransitionSpec]:
        """The output guard transient ``node`` (the home, or a remote, by
        ``role``) awaits an answer to, with its step-table row."""
        if node.pending_out is None:
            raise SemanticsError(f"{role} has no pending output in TRANS mode")
        process = (self.protocol.home if role == ProcessKind.HOME
                   else self.protocol.remote)
        return (process.state(node.state).outputs[node.pending_out],
                self.table.spec(role, node.state, node.pending_out))

    def _complete(self, role: str, node: Any, i: int, msg: Msg,
                  who: str) -> tuple[Any, tuple[RendezvousStep, ...]]:
        """Row T1 of both tables and the fused reply: transient ``node``
        (the home, or remote ``i``, by ``role``; ``who`` in errors) gets
        the ACK or REPL ``msg`` that completes its pending rendezvous
        with the other party.  Returns the idle node it becomes and the
        rendezvous that finish."""
        out_guard, spec = self._pending(role, node)
        # Payload expressions are effect-free functions of the sender's
        # environment, which is frozen while the sender is transient, so
        # the value observed here equals the one sent with the request.
        request_payload = out_guard.eval_payload(node.env)
        home = role == ProcessKind.HOME
        me, peer = (HOME_ID, i) if home else (i, HOME_ID)
        completes: tuple[RendezvousStep, ...] = (RendezvousStep(
            active=me, passive=peer, msg=out_guard.msg,
            payload=request_payload),)
        if msg.kind == ACK:  # row T1
            state = spec.forward_to
            env = out_guard.apply_update(node.env)
        elif msg.kind == REPL:  # fused reply: completes request + reply
            reply_msg = spec.fused_reply
            if reply_msg is None or msg.msg != reply_msg:
                raise SemanticsError(
                    f"{who} got unexpected reply {msg.describe()} while "
                    f"awaiting the reply to {out_guard.msg!r}")
            assert spec.reply_to is not None
            env = out_guard.apply_update(node.env)
            process = self.protocol.home if home else self.protocol.remote
            mid_state = process.state(spec.reply_to)
            sender = i if home else -1
            in_guard = mid_state.accepting(reply_msg, env, sender, msg.payload)
            if in_guard is None:
                raise SemanticsError(
                    f"{who}: no input guard in state {mid_state.name!r} "
                    f"accepts the fused reply {reply_msg!r}")
            state = in_guard.to
            env = in_guard.complete(env, sender, msg.payload)
            completes += (RendezvousStep(active=peer, passive=me,
                                         msg=reply_msg, payload=msg.payload),)
        else:
            raise SemanticsError(f"unknown message kind {msg.kind!r}")
        if home:
            return HomeNode(state=state, env=env, mode=IDLE, out_idx=0,
                            buffer=node.buffer), completes
        return RemoteNode(state=state, env=env, mode=IDLE), completes

    def _rewound(self, home: HomeNode,
                 buffer: tuple[BufEntry, ...]) -> HomeNode:
        """Transient ``home`` back in the communication state its pending
        request rewinds to, the scan moved past that request (rows T2/T3),
        holding ``buffer``."""
        spec = self._pending(ProcessKind.HOME, home)[1]  # pending_out set
        outputs = self.protocol.home.state(home.state).outputs
        return HomeNode(state=spec.rewind_to, env=home.env, mode=IDLE,
                        out_idx=(home.pending_out + 1) % len(outputs),
                        buffer=buffer)
