"""Symbolic two-node configurations for the refinement certificate.

The certificate checker of :mod:`repro.analysis.simulation` must discharge
one commutation obligation per *transition schema instance* — (role,
control/transient state, delivered message or send) — without exploring
the asynchronous state space whose explosion the paper set out to avoid.
This module produces those instances.

**Why two nodes suffice.**  Every Tables 1/2 row involves at most the home
node, the remote it is exchanging with, and one *competitor* whose request
must be buffered or nacked (rows T3-T6); the abstraction function ``abs``
factors per-node (each node's image depends only on its own control state
and its own channels/buffer entries).  An obligation therefore commutes
for some node count ``n`` iff it commutes in a configuration with the
involved remote plus one representative bystander, and the reachable
context set is closed under swapping remote indices — so a *two-remote*
system exhibits every schema row in every machinery posture.  This is the
standard parameterized argument (cf. flow-based frameworks for
arbitrary-``n`` protocols); it is what makes the check N-independent.

**How instances are produced.**  The *contexts* — joint control states the
parties can occupy when no machinery is in flight — are exactly the
reachable states of the **rendezvous** system at ``n = 2``: the tiny state
space the paper proposes users verify, not the asynchronous one.  Each
context ``c`` is embedded as the quiescent asynchronous state ``E(c)``
(empty channels and buffers, every node idle) and its closure is
enumerated: all asynchronous steps reachable from ``E(c)``, deduplicated
globally across contexts.  Nack/retransmit and rescan cycles revisit
earlier closure states, so the closure is finite — it is the
asynchronous reachable set at ``n = 2`` seeded from *every* context,
which also covers contexts a particular initial state would never reach.
(Quiescent states are expanded like any other: a node's out-guard cursor
after T2 nack-cycling differs from the embedding's, so treating them as
"already covered" would hide the retry flows.)

Contexts in which a remote occupies a state that exists only *mid-fused
exchange* are skipped: for a remote-initiated pair that is the requester's
reply-waiting state (the requester is transient there, never idle), and
for a home-initiated pair the responder's atomic response chain (consumed
in a single C3 step, never occupied at all).  Embedding them idle would
fabricate asynchronously unreachable configurations — e.g. a fused reply
arriving at a non-transient node, a :class:`SemanticsError` by
construction.  The closures of the surrounding contexts walk through the
real mid-exchange configurations instead.

Each emitted :class:`Obligation` carries a concrete before-state and the
executed :class:`~repro.semantics.asynchronous.Step`; a schema row whose
execution raises is reported as a :class:`SchemaFault`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union, cast

from ..csp.ast import Input, Protocol
from ..errors import SemanticsError
from ..semantics.asynchronous import (
    IDLE,
    AsyncState,
    AsyncSystem,
    DeliverToHome,
    DeliverToRemote,
    HomeNode,
    HomeStep,
    HomeTau,
    RemoteC3,
    RemoteNode,
    RemoteSend,
    RemoteTau,
    Step,
)
from ..semantics.network import Channels
from ..semantics.rendezvous import RendezvousSystem
from ..semantics.state import RvState

__all__ = [
    "Obligation",
    "SchemaFault",
    "embed",
    "enumerate_contexts",
    "enumerate_obligations",
    "is_quiescent",
]


@dataclass(frozen=True)
class Obligation:
    """One commutation obligation: a concrete step to check under ``abs``."""

    rule: str  # schema-row label, e.g. "remote.send" or "deliver.ACK→home"
    location: str  # "process.state" anchor for diagnostics
    before: AsyncState
    step: Step
    #: a competing remote has machinery of its own in this configuration
    #: (the T3-T6 buffering/nacking postures)
    interference: bool = False


@dataclass(frozen=True)
class SchemaFault:
    """A schema row whose execution raised instead of producing a step."""

    location: str
    message: str
    before: AsyncState


ObligationItem = Union[Obligation, SchemaFault]


def enumerate_contexts(protocol: Protocol, *,
                       max_states: int = 4096,
                       ) -> tuple[list[RvState], bool]:
    """Reachable rendezvous states at ``n = 2``, plus a completeness flag."""
    from ..check.explorer import explore
    from ..check.store import ExactStore

    store = ExactStore()  # iterates in BFS discovery order
    result = explore(RendezvousSystem(protocol, 2), store=store,
                     allow_deadlock=True, max_states=max_states)
    return cast("list[RvState]", list(store)), result.completed


def embed(system: AsyncSystem, context: RvState) -> AsyncState:
    """The quiescent asynchronous state ``E(c)`` of a rendezvous context."""
    home = HomeNode(state=context.home.state, env=context.home.env)
    remotes = tuple(RemoteNode(state=p.state, env=p.env)
                    for p in context.remotes)
    return AsyncState(home=home, remotes=remotes,
                      channels=Channels.empty(len(context.remotes)))


def is_quiescent(state: AsyncState) -> bool:
    """No machinery anywhere: the state is an embedding of some context."""
    if state.home.mode != IDLE or state.home.buffer:
        return False
    if any(r.mode != IDLE or r.buf is not None for r in state.remotes):
        return False
    return all(not queue for queue in state.channels.queues)


def enumerate_obligations(system: AsyncSystem,
                          contexts: list[RvState], *,
                          max_expansions: int = 20_000,
                          stats: dict[str, int] | None = None,
                          ) -> Iterator[ObligationItem]:
    """All closure obligations over the given contexts.

    Yields :class:`Obligation` records (deduplicated globally by
    (before-state, action)) and :class:`SchemaFault` records for rows
    whose execution raises.  If ``stats`` is given, ``stats["expanded"]``
    receives the closure size and ``stats["truncated"]`` is set to 1 when
    ``max_expansions`` cut the enumeration short.
    """
    skip_states = _mid_exchange_states(system)
    expanded: set[AsyncState] = set()
    if stats is not None:
        stats.setdefault("truncated", 0)
    for context in contexts:
        if any(p.state in skip_states for p in context.remotes):
            continue
        frontier: list[AsyncState] = [embed(system, context)]
        while frontier:
            state = frontier.pop()
            if state in expanded:
                continue
            if len(expanded) >= max_expansions:
                if stats is not None:
                    stats["truncated"] = 1
                    stats["expanded"] = len(expanded)
                return
            expanded.add(state)
            try:
                steps = system.steps(state)
            except SemanticsError as exc:
                yield SchemaFault(location=_location(state), message=str(exc),
                                  before=state)
                continue
            busy = _n_engaged(state)
            for step in steps:
                yield Obligation(rule=_classify(state, step),
                                 location=_location(state, step),
                                 before=state, step=step,
                                 interference=busy >= 2)
                # quiescent successors are expanded too: a node's guard
                # cursor (T2 out-guard cycling) can differ from the
                # embedding's, so stopping there would hide retry flows
                frontier.append(step.state)
    if stats is not None:
        stats["expanded"] = len(expanded)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _mid_exchange_states(system: AsyncSystem) -> frozenset[str]:
    """Remote states occupied only mid-fused-exchange (skip as contexts).

    Two families: the requester's reply-waiting state of a
    remote-initiated fused pair (occupied only while transient), and the
    responder chain of a home-initiated pair — consumed atomically by the
    C3 fused response, so asynchronous execution never idles there.
    Embedding either idle fabricates an unreachable configuration.
    """
    from ..refine.transitions import KIND_REQUEST, REMOTE
    states: set[str] = set()
    for spec in system.table:
        if (spec.role == REMOTE and spec.kind == KIND_REQUEST
                and spec.reply_to is not None):
            states.add(spec.reply_to)
    remote = system.protocol.remote
    for msg in system.table.fused_requests("home"):
        for state_def in remote.states.values():
            for guard in state_def.guards:
                if not isinstance(guard, Input) or guard.msg != msg:
                    continue
                cursor = remote.state(guard.to)
                states.add(cursor.name)
                hops = 0
                while (cursor.is_internal and len(cursor.guards) == 1
                       and hops <= len(remote.states)):
                    cursor = remote.state(cursor.taus[0].to)
                    states.add(cursor.name)
                    hops += 1
    return frozenset(states)


def _n_engaged(state: AsyncState) -> int:
    """How many remotes have machinery (transient, buffered, or in flight)."""
    count = 0
    for i, node in enumerate(state.remotes):
        if (node.mode != IDLE or node.buf is not None
                or state.channels.queues[Channels.to_remote(i)]
                or state.channels.queues[Channels.to_home(i)]
                or any(e.sender == i for e in state.home.buffer)):
            count += 1
    return count


def _classify(before: AsyncState, step: Step) -> str:
    """A human-stable schema-row label for an executed step."""
    action = step.action
    if isinstance(action, RemoteSend):
        return "remote.send"
    if isinstance(action, RemoteC3):
        return "remote.C3"
    if isinstance(action, RemoteTau):
        return "remote.tau"
    if isinstance(action, HomeStep):
        return f"home.{action.kind}"
    if isinstance(action, HomeTau):
        return "home.tau"
    if isinstance(action, DeliverToHome):
        head = before.channels.head_to_home(action.remote)
        kind = head.kind if head is not None else "?"
        return f"deliver.{kind}→home"
    if isinstance(action, DeliverToRemote):
        head = before.channels.head_to_remote(action.remote)
        kind = head.kind if head is not None else "?"
        return f"deliver.{kind}→remote"
    return "unknown"


def _location(state: AsyncState, step: Step | None = None) -> str:
    """A ``process.state`` diagnostic anchor for a closure configuration."""
    action = step.action if step is not None else None
    if isinstance(action, (RemoteSend, RemoteC3, RemoteTau, DeliverToRemote)):
        return f"remote.{state.remotes[action.remote].state}"
    return f"home.{state.home.state}"
