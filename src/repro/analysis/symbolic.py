"""Two-node configurations for the refinement certificate.

The certificate checker of :mod:`repro.analysis.simulation` must discharge
one commutation obligation per *transition schema instance* — (role,
control/transient state, delivered message or send).  This module says
where those instances come from: which asynchronous states the
certificate's sweep is rooted at, and how a step met there is named.

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

**What is swept.**  The *contexts* — joint control states the parties can
occupy when no machinery is in flight — are the reachable states of the
**rendezvous** system at ``n = 2`` (:func:`enumerate_contexts`).  Each
context ``c`` is embedded as the quiescent asynchronous state ``E(c)``
(empty channels and buffers, every node idle), and the certificate is the
*complete* ``n = 2`` asynchronous state space rooted at every embedding
(:func:`closure_roots`): one :func:`~repro.check.explorer.explore` sweep
from all of them at once, every edge an obligation.  That is a superset
of the sweep from the initial state — it also covers contexts a
particular initial state never quiesces in (on about 6 % of random
protocols strictly more states and edges; EXPERIMENTS.md section 4) — and
it is finite because nack/retransmit and rescan cycles revisit earlier
states.  Quiescent states are expanded like any other: a node's out-guard
cursor after T2 nack-cycling differs from the embedding's, so treating
them as "already covered" would hide the retry flows.

Contexts in which a remote occupies a state that exists only *mid-fused
exchange* are not roots: for a remote-initiated pair that is the
requester's reply-waiting state (the requester is transient there, never
idle), and for a home-initiated pair the responder's atomic response chain
(consumed in a single C3 step, never occupied at all).  Embedding them
idle would fabricate asynchronously unreachable configurations — e.g. a
fused reply arriving at a non-transient node, a :class:`SemanticsError` by
construction.  The sweep from the surrounding contexts walks through the
real mid-exchange configurations instead.
"""

from __future__ import annotations

from typing import Iterator, Optional, cast

from ..csp.ast import ProcessDef, Protocol
from ..check.explorer import explore
from ..check.stats import ExplorationResult
from ..check.store import ExactStore
from ..refine.transitions import KIND_REQUEST, REMOTE
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

__all__ = ["closure_roots", "embed", "enumerate_contexts", "n_engaged",
           "responder_chains", "step_location", "step_rule"]


def enumerate_contexts(protocol: Protocol, *, max_states: int = 4096,
                       ) -> tuple[list[RvState], ExplorationResult]:
    """Reachable rendezvous states at ``n = 2`` in BFS discovery order,
    and the sweep that found them."""
    store = ExactStore()  # iterates in BFS discovery order
    result = explore(RendezvousSystem(protocol, 2), store=store,
                     allow_deadlock=True, max_states=max_states)
    return cast("list[RvState]", list(store)), result


def embed(context: RvState) -> AsyncState:
    """The quiescent asynchronous state ``E(c)`` of a rendezvous context."""
    home = HomeNode(state=context.home.state, env=context.home.env)
    remotes = tuple(RemoteNode(state=p.state, env=p.env)
                    for p in context.remotes)
    return AsyncState(home=home, remotes=remotes,
                      channels=Channels.empty(len(context.remotes)))


def closure_roots(system: AsyncSystem,
                  contexts: list[RvState]) -> list[AsyncState]:
    """The embeddings the certificate's sweep starts from: every context
    but those with a remote in a mid-exchange state.

    The first context (BFS order: the rendezvous initial state) is always
    a root — its embedding is the asynchronous initial state, reachable
    whatever its remotes' states are — so the sweep contains the one
    ``check_simulation`` makes from there.  (Otherwise a remote whose
    *initial* state is a reply-waiting state leaves the certificate no
    root at all and it holds vacuously: ``random_protocol(24)``.)
    """
    skip = _mid_exchange_states(system)
    roots = []
    for index, context in enumerate(contexts):
        if index == 0 or not any(p.state in skip for p in context.remotes):
            roots.append(embed(context))
    return roots


def _mid_exchange_states(system: AsyncSystem) -> frozenset[str]:
    """Remote states occupied only mid-fused-exchange (never roots).

    Two families: the requester's reply-waiting state of a
    remote-initiated fused pair (occupied only while transient), and the
    responder chain of a home-initiated pair — consumed atomically by the
    C3 fused response, so asynchronous execution never idles there.
    Embedding either idle fabricates an unreachable configuration.
    """
    states = {spec.reply_to for spec in system.table
              if spec.role == REMOTE and spec.kind == KIND_REQUEST
              and spec.reply_to is not None}
    for msg in system.table.fused_requests("home"):
        for chain in responder_chains(system.protocol.remote, msg):
            states.update(chain)
    return frozenset(states)


def responder_chains(remote: ProcessDef, msg: str) -> Iterator[list[str]]:
    """Per input guard of ``remote`` on the home-initiated fused request
    ``msg``: the states its C3 fused response passes through in one
    asynchronous step — the guard's target, then single-tau internal
    states up to the one that emits the reply."""
    for state in remote.states.values():
        for guard in state.inputs:
            if guard.msg != msg:
                continue
            cursor = remote.state(guard.to)
            chain = [cursor.name]
            while (cursor.is_internal and len(cursor.guards) == 1
                   and len(chain) <= len(remote.states) + 1):
                cursor = remote.state(cursor.taus[0].to)
                chain.append(cursor.name)
            yield chain


def n_engaged(state: AsyncState) -> int:
    """How many remotes have machinery (transient, buffered, or in flight)."""
    count = 0
    for i, node in enumerate(state.remotes):
        if (node.mode != IDLE or node.buf is not None
                or state.channels.queues[Channels.to_remote(i)]
                or state.channels.queues[Channels.to_home(i)]
                or any(e.sender == i for e in state.home.buffer)):
            count += 1
    return count


def step_rule(before: AsyncState, step: Step) -> str:
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


def step_location(state: AsyncState, step: Optional[Step] = None) -> str:
    """A ``process.state`` diagnostic anchor for a swept configuration."""
    action = step.action if step is not None else None
    if isinstance(action, (RemoteSend, RemoteC3, RemoteTau, DeliverToRemote)):
        return f"remote.{state.remotes[action.remote].state}"
    return f"home.{state.home.state}"
