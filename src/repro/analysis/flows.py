"""Message-flow derivation from the rendezvous AST: the transaction inventory.

A *flow* is the static shape of one complete transaction: the ordered
message events (send/recv/wait) a protocol performs between two *stable*
home states, together with the home states the transaction occupies and
the remote states its participants sit in while it runs.  The notion is
lifted from the flow-based parameterized-verification literature
(Sethi/Talupur/Malik, arXiv:1407.7468): cache-coherence protocols are
naturally organised as a small set of flows.

Everything here is derived purely from the CSP AST plus the section 3.3
request/reply pair reports (:mod:`repro.refine.reqreply`):

* **stable home states** — the fixpoint of "exit states of flows entered
  at stable states", seeded with the home's initial state;
* **flow entries** — a home input guard with a *fresh* sender pattern
  (:class:`~repro.csp.ast.AnySender` / :class:`~repro.csp.ast.SetSender`)
  anywhere starts a remote-initiated flow; a
  :class:`~repro.csp.ast.VarSender` input at a stable state is a
  reply-less *notification* flow (e.g. the migratory ``LR`` writeback);
  an output guard at a stable state starts a home-initiated flow;
* **interior walk** — from the entry we follow taus, interior sends and
  :class:`~repro.csp.ast.VarSender` waits (recording precedence edges),
  stopping at the *reply* (the output back to the bound requester) — the
  same traversal discipline as the fusability checker's
  reply-domination DFS, generalized from a yes/no verdict to the full
  event structure;
* **completeness** — every output row of the refined transition table
  (:func:`repro.refine.transitions.build_step_table`) and every home
  input guard must be covered by some flow event; anything uncovered is
  a transaction the flow inventory cannot account for (**P4501**).

The :class:`FlowGraph` is what ``repro flows`` prints and the flows pass
reports (P4506 inventory, P4501 cover gaps).  No verdict rests on it:
both any-N verdicts are checked on :mod:`repro.analysis.environment`'s
abstraction, and P46xx reads its candidate lemmas off the protocol's own
two-node instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from ..csp.ast import (
    Input,
    Output,
    ProcessDef,
    Protocol,
    StateDef,
    Tau,
    VarSender,
    VarTarget,
)
from .diagnostics import Diagnostic, make

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..refine.plan import FusedPair, RefinementConfig
    from ..refine.reqreply import PairReport

__all__ = [
    "Flow",
    "FlowEvent",
    "FlowGraph",
    "Wait",
    "derive_flows",
    "flows_pass",
]

#: Flow kinds.
REMOTE_INITIATED = "remote-initiated"
HOME_INITIATED = "home-initiated"
NOTIFICATION = "notification"

#: Event kinds.
SEND = "send"
RECV = "recv"
WAIT = "wait"


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowEvent:
    """One message event of a flow, from the home's point of view.

    ``kind`` is :data:`SEND` (home emits ``msg`` at ``state``),
    :data:`RECV` (home consumes ``msg`` at ``state`` — the flow entry or
    a home-initiated flow's reply) or :data:`WAIT` (home consumes ``msg``
    from a specific engaged remote mid-flow).  ``party`` describes the
    peer: the sender pattern or target expression text.
    """

    kind: str
    state: str
    msg: str
    party: str

    def describe(self) -> str:
        arrow = {SEND: "!", RECV: "?", WAIT: "?"}[self.kind]
        return f"{self.state} {arrow}{self.msg}({self.party})"


@dataclass(frozen=True)
class Wait:
    """A home state where a flow blocks on one specific remote.

    ``var`` is the home variable naming the engaged remote, ``msgs`` the
    message types the home accepts from it there.
    """

    state: str
    var: str
    msgs: frozenset[str]

    def describe(self) -> str:
        body = "/".join(sorted(self.msgs))
        return f"{self.state}: awaits {body} from {self.var}"


@dataclass(frozen=True)
class Flow:
    """One derived message flow."""

    name: str
    kind: str
    request_msg: str
    entry_state: str
    requester_var: Optional[str]
    events: tuple[FlowEvent, ...]
    #: precedence edges as (earlier, later) indices into ``events``
    precedence: tuple[tuple[int, int], ...]
    reply_msgs: frozenset[str]
    #: home states strictly inside the flow (between entry and exits)
    interior_home: frozenset[str]
    exit_states: frozenset[str]
    waits: tuple[Wait, ...]
    #: remote states the requester occupies while the flow is in progress
    #: (request-offer states and post-request wait states)
    requester_region: frozenset[str]
    has_cycle: bool = False
    #: entered at a stable home state (nested flows are entered mid-flow)
    stable_entry: bool = True

    @property
    def message_cost(self) -> int:
        """Wire messages per completed transaction (rendezvous count)."""
        return sum(1 for e in self.events if e.kind in (SEND, RECV, WAIT))

    def describe(self) -> str:
        chain = " -> ".join(e.describe() for e in self.events)
        flags = []
        if self.has_cycle:
            flags.append("loop")
        if not self.stable_entry:
            flags.append("nested")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"{self.name} ({self.kind}): {chain}{suffix}"

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "request": self.request_msg,
            "entry_state": self.entry_state,
            "requester_var": self.requester_var,
            "events": [e.describe() for e in self.events],
            "precedence": [list(edge) for edge in self.precedence],
            "replies": sorted(self.reply_msgs),
            "interior_home": sorted(self.interior_home),
            "exits": sorted(self.exit_states),
            "waits": [w.describe() for w in self.waits],
            "requester_region": sorted(self.requester_region),
            "has_cycle": self.has_cycle,
            "stable_entry": self.stable_entry,
        }


@dataclass(frozen=True)
class FlowGraph:
    """Every derived flow of one protocol, plus the coverage verdict."""

    protocol: str
    flows: tuple[Flow, ...]
    stable_states: frozenset[str]
    fused: tuple["FusedPair", ...]
    #: human-readable descriptions of transition-table rows / input guards
    #: no flow accounts for (empty iff the cover is complete)
    uncovered: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.uncovered

    def flow(self, name: str) -> Flow:
        for flow in self.flows:
            if flow.name == name:
                return flow
        raise KeyError(f"no flow named {name!r}")

    def describe(self) -> str:
        lines = [f"flow graph for {self.protocol}: {len(self.flows)} "
                 f"flow(s), stable home states "
                 f"{{{', '.join(sorted(self.stable_states))}}}"]
        for flow in self.flows:
            lines.append(f"  {flow.describe()}")
        if self.uncovered:
            lines.append(f"  UNCOVERED ({len(self.uncovered)}):")
            lines.extend(f"    {item}" for item in self.uncovered)
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        return {
            "protocol": self.protocol,
            "stable_states": sorted(self.stable_states),
            "fused": [p.describe() for p in self.fused],
            "flows": [f.as_dict() for f in self.flows],
            "uncovered": list(self.uncovered),
            "complete": self.complete,
        }


# ---------------------------------------------------------------------------
# small static helpers
# ---------------------------------------------------------------------------


def _is_fresh(guard: Input) -> bool:
    """A fresh-sender input can start a new transaction (any remote, or
    any member of a tracked set); a ``VarSender`` input continues one."""
    return not isinstance(guard.sender, VarSender)


def _party(guard: Input | Output) -> str:
    pattern = (guard.sender if isinstance(guard, Input) else guard.target)
    return pattern.describe() if pattern is not None else "?"


# ---------------------------------------------------------------------------
# the interior walk
# ---------------------------------------------------------------------------


class _Walk:
    """DFS through a flow's interior, recording events and precedence.

    The traversal discipline mirrors the fusability checker's
    reply-domination DFS (:func:`repro.refine.reqreply._all_paths_reply`):
    taus are silent, outputs and ``VarSender`` inputs are flow events,
    fresh-sender inputs belong to *other* flows and are not entered, and
    a revisited state closes the path (flagging the flow as looping).
    """

    def __init__(self, home: ProcessDef, var: Optional[str],
                 remote_initiated: bool,
                 stop_at: frozenset[str] = frozenset()) -> None:
        self.home = home
        self.var = var
        self.remote_initiated = remote_initiated
        self.stop_at = stop_at
        self.events: list[FlowEvent] = []
        self.precedence: list[tuple[int, int]] = []
        self.reply_msgs: set[str] = set()
        self.interior: set[str] = set()
        self.exits: set[str] = set()
        self.waits: dict[tuple[str, str], Wait] = {}
        self.has_cycle = False

    def event(self, kind: str, state: str, msg: str, party: str,
              prev: int) -> int:
        idx = len(self.events)
        self.events.append(FlowEvent(kind=kind, state=state, msg=msg,
                                     party=party))
        if prev >= 0:
            self.precedence.append((prev, idx))
        return idx

    def _is_reply(self, guard: Input | Output) -> bool:
        """Does this guard complete the flow (answer the requester)?"""
        if self.var is None:
            return False
        if self.remote_initiated:
            return (isinstance(guard, Output)
                    and isinstance(guard.target, VarTarget)
                    and guard.target.var == self.var)
        return (isinstance(guard, Input)
                and isinstance(guard.sender, VarSender)
                and guard.sender.var == self.var)

    def _record_wait(self, state: StateDef, var: str) -> None:
        msgs = frozenset(g.msg for g in state.inputs
                         if isinstance(g.sender, VarSender)
                         and g.sender.var == var)
        key = (state.name, var)
        if key not in self.waits:
            self.waits[key] = Wait(state=state.name, var=var, msgs=msgs)

    def run(self, start: str, prev: int) -> None:
        self._visit(start, prev, frozenset())

    def _visit(self, state_name: str, prev: int,
               path: frozenset[str]) -> None:
        if state_name in path:
            self.has_cycle = True
            return
        if state_name in self.stop_at:
            # a stable home state: the transaction is over; whatever
            # happens next belongs to another flow
            self.exits.add(state_name)
            return
        state = self.home.state(state_name)
        deeper = path | {state_name}
        progressed = False
        for guard in state.guards:
            if isinstance(guard, Tau):
                self.interior.add(state_name)
                progressed = True
                self._visit(guard.to, prev, deeper)
            elif isinstance(guard, Output):
                self.interior.add(state_name)
                progressed = True
                idx = self.event(SEND, state_name, guard.msg, _party(guard),
                                 prev)
                if self._is_reply(guard):
                    self.reply_msgs.add(guard.msg)
                    self.exits.add(guard.to)
                else:
                    self._visit(guard.to, idx, deeper)
            elif isinstance(guard.sender, VarSender):
                self.interior.add(state_name)
                progressed = True
                self._record_wait(state, guard.sender.var)
                idx = self.event(WAIT, state_name, guard.msg, _party(guard),
                                 prev)
                if self._is_reply(guard):
                    self.reply_msgs.add(guard.msg)
                    self.exits.add(guard.to)
                else:
                    self._visit(guard.to, idx, deeper)
            # fresh-sender inputs start other flows; not entered
        if not progressed:
            # nothing but fresh entries (or no guards): the flow hands off
            self.exits.add(state_name)


# ---------------------------------------------------------------------------
# derivation
# ---------------------------------------------------------------------------


def derive_flows(protocol: Protocol, *,
                 reports: Optional[tuple["PairReport", ...]] = None,
                 config: Optional["RefinementConfig"] = None,
                 strict_cycles: bool = False) -> FlowGraph:
    """Derive ``protocol``'s message-flow graph from its AST.

    :param reports: pre-computed section 3.3 pair reports (the pass
        manager shares one set across the fusability and flow passes);
        computed on demand when ``None``.
    :param config: refinement configuration assumed for the coverage
        check against the refined transition table.
    """
    # deferred: repro.refine imports repro.csp.validate, which reaches
    # this module through the analysis package (same cycle fusability.py
    # documents)
    from ..refine.plan import RefinedProtocol, RefinementConfig, RefinementPlan
    from ..refine.reqreply import choose_pairs, fusability_report
    from ..refine.transitions import build_step_table

    config = config or RefinementConfig()
    if reports is None:
        reports = fusability_report(protocol, strict_cycles=strict_cycles)
    fused = choose_pairs(reports) if config.use_reqreply else ()

    home = protocol.home
    remote = protocol.remote

    # -- remote-initiated flows: every fresh-sender home input, anywhere --
    # pass 1: the stable fixpoint (walks run unstopped, which can only
    # overshoot exits — a safe overapproximation of the stable set)
    stable = _stable_fixpoint(protocol)

    # pass 2: derive the actual flows, stopping every walk at stable
    # states so no flow wanders into another transaction's territory
    flows: list[Flow] = []
    for state in home.states.values():  # deterministic: AST order
        for guard in state.inputs:
            if _is_fresh(guard):
                flow = _remote_initiated_flow(protocol, state, guard,
                                              stop_at=stable)
                if state.name not in stable:
                    flow = _mark_nested(flow)
                flows.append(flow)
            elif state.name in stable:
                flows.append(_notification_flow(protocol, state, guard))
        if state.name in stable:
            for out in state.outputs:
                flows.append(_home_initiated_flow(protocol, state, out,
                                                  stop_at=stable))

    flows = _dedupe_names(flows)

    # -- coverage against the refined transition table -------------------
    plan = RefinementPlan(config=config, fused=fused)
    table = build_step_table(RefinedProtocol(protocol=protocol, plan=plan))
    uncovered = tuple(_coverage_gaps(protocol, flows, table))

    return FlowGraph(protocol=protocol.name, flows=tuple(flows),
                     stable_states=stable, fused=fused,
                     uncovered=uncovered)


def _stable_fixpoint(protocol: Protocol) -> frozenset[str]:
    """Home states *between* transactions: the initial state plus every
    flow exit reachable from one, closed under taus."""
    home = protocol.home
    stable: set[str] = set()
    frontier = [home.initial_state]
    while frontier:
        name = frontier.pop()
        if name in stable:
            continue
        stable.add(name)
        exits: set[str] = set()
        state = home.state(name)
        for tau in state.taus:
            exits.add(tau.to)
        for guard in state.inputs:
            if _is_fresh(guard):
                exits.update(
                    _remote_initiated_flow(protocol, state, guard)
                    .exit_states)
            else:
                exits.add(guard.to)
        for out in state.outputs:
            exits.update(
                _home_initiated_flow(protocol, state, out).exit_states)
        frontier.extend(exits - stable)
    return frozenset(stable)


def _remote_initiated_flow(protocol: Protocol, state: StateDef,
                           guard: Input, *,
                           stop_at: frozenset[str] = frozenset()) -> Flow:
    home, remote = protocol.home, protocol.remote
    var = guard.bind_sender
    walk = _Walk(home, var, remote_initiated=True, stop_at=stop_at)
    entry = walk.event(RECV, state.name, guard.msg, _party(guard), -1)
    if var is not None:
        walk.run(guard.to, entry)
    else:
        walk.exits.add(guard.to)
    offer_states = frozenset(
        s.name for s in remote.states.values()
        for g in s.outputs if g.msg == guard.msg)
    wait_states = frozenset(
        g.to for s in remote.states.values()
        for g in s.outputs if g.msg == guard.msg)
    # the requester may keep taking local (tau) steps while the home
    # processes — the region must be closed under them
    region = frozenset(
        s for seed in offer_states | wait_states
        for s in remote.tau_closure(seed))
    return Flow(
        name=f"{guard.msg}@{state.name}",
        kind=REMOTE_INITIATED,
        request_msg=guard.msg,
        entry_state=state.name,
        requester_var=var,
        events=tuple(walk.events),
        precedence=tuple(walk.precedence),
        reply_msgs=frozenset(walk.reply_msgs),
        interior_home=frozenset(walk.interior - walk.exits),
        exit_states=frozenset(walk.exits),
        waits=tuple(walk.waits.values()),
        requester_region=region,
        has_cycle=walk.has_cycle,
    )


def _notification_flow(protocol: Protocol, state: StateDef,
                       guard: Input) -> Flow:
    """A ``VarSender`` input at a stable state: a reply-less writeback
    (e.g. the migratory ``LR``) — one rendezvous, no interior."""
    remote = protocol.remote
    assert isinstance(guard.sender, VarSender)
    event = FlowEvent(kind=RECV, state=state.name, msg=guard.msg,
                      party=_party(guard))
    offer_states = frozenset(
        s.name for s in remote.states.values()
        for g in s.outputs if g.msg == guard.msg)
    post_states = frozenset(
        g.to for s in remote.states.values()
        for g in s.outputs if g.msg == guard.msg)
    region = frozenset(
        s for seed in offer_states | post_states
        for s in remote.tau_closure(seed))
    return Flow(
        name=f"{guard.msg}@{state.name}",
        kind=NOTIFICATION,
        request_msg=guard.msg,
        entry_state=state.name,
        requester_var=guard.sender.var,
        events=(event,),
        precedence=(),
        reply_msgs=frozenset(),
        interior_home=frozenset(),
        exit_states=frozenset({guard.to}),
        waits=(),
        requester_region=region,
    )


def _home_initiated_flow(protocol: Protocol, state: StateDef,
                         guard: Output, *,
                         stop_at: frozenset[str] = frozenset()) -> Flow:
    """An output guard at a stable state: the home engages a remote."""
    home = protocol.home
    var = (guard.target.var if isinstance(guard.target, VarTarget) else None)
    walk = _Walk(home, var, remote_initiated=False, stop_at=stop_at)
    entry = walk.event(SEND, state.name, guard.msg, _party(guard), -1)
    if var is not None:
        walk.run(guard.to, entry)
    else:
        walk.exits.add(guard.to)
    responder_states = frozenset(
        s.name for s in protocol.remote.states.values()
        for g in s.inputs if g.msg == guard.msg)
    return Flow(
        name=f"{guard.msg}@{state.name}",
        kind=HOME_INITIATED,
        request_msg=guard.msg,
        entry_state=state.name,
        requester_var=var,
        events=tuple(walk.events),
        precedence=tuple(walk.precedence),
        reply_msgs=frozenset(walk.reply_msgs),
        interior_home=frozenset(walk.interior - walk.exits),
        exit_states=frozenset(walk.exits),
        waits=tuple(walk.waits.values()),
        requester_region=responder_states,
    )


def _mark_nested(flow: Flow) -> Flow:
    from dataclasses import replace
    return replace(flow, stable_entry=False)


def _dedupe_names(flows: list[Flow]) -> list[Flow]:
    from dataclasses import replace
    seen: dict[str, int] = {}
    out: list[Flow] = []
    for flow in flows:
        n = seen.get(flow.name, 0)
        seen[flow.name] = n + 1
        out.append(replace(flow, name=f"{flow.name}#{n}") if n else flow)
    return out


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def _coverage_gaps(protocol: Protocol, flows: list[Flow],
                   table: object) -> Iterator[str]:
    """Transition-table rows and input guards no flow accounts for."""
    from ..refine.transitions import HOME as T_HOME
    from ..refine.transitions import StepTable

    assert isinstance(table, StepTable)
    home, remote = protocol.home, protocol.remote

    # messages each side sends/receives inside some flow
    home_sends: set[str] = set()      # home -> remote wire messages
    remote_sends: set[str] = set()    # remote -> home wire messages
    home_inputs: set[tuple[str, str]] = set()  # (home state, msg) consumed
    for flow in flows:
        for event in flow.events:
            if event.kind == SEND:
                home_sends.add(event.msg)
            else:
                remote_sends.add(event.msg)
                home_inputs.add((event.state, event.msg))
        if flow.kind == HOME_INITIATED:
            home_sends.add(flow.request_msg)
        else:
            remote_sends.add(flow.request_msg)
        remote_sends.update(m for w in flow.waits for m in w.msgs)
        if flow.kind == REMOTE_INITIATED:
            home_sends.update(flow.reply_msgs)
        else:
            remote_sends.update(flow.reply_msgs)

    for spec in table:
        covered = (spec.msg in home_sends if spec.role == T_HOME
                   else spec.msg in remote_sends)
        if not covered:
            yield (f"{spec.role}.{spec.state}[{spec.out_index}] "
                   f"!{spec.msg} ({spec.kind}) is in no flow")

    for state in home.states.values():
        for guard in state.inputs:
            if (state.name, guard.msg) not in home_inputs:
                yield (f"home.{state.name} ?{guard.msg} is in no flow")

    for state in remote.states.values():
        for guard in state.inputs:
            if guard.msg not in home_sends:
                yield (f"remote.{state.name} ?{guard.msg} is never sent "
                       "inside a flow")


# ---------------------------------------------------------------------------
# the analysis pass
# ---------------------------------------------------------------------------


def flows_pass(protocol: Protocol, *,
               reports: Optional[tuple["PairReport", ...]] = None,
               config: Optional["RefinementConfig"] = None,
               strict_cycles: bool = False,
               graph: Optional[FlowGraph] = None) -> Iterator[Diagnostic]:
    """Emit the flow inventory (P4506) and any cover gaps (P4501)."""
    if graph is None:
        graph = derive_flows(protocol, reports=reports, config=config,
                             strict_cycles=strict_cycles)
    where = f"{protocol.name}:flows"
    kinds = {kind: sum(1 for f in graph.flows if f.kind == kind)
             for kind in (REMOTE_INITIATED, HOME_INITIATED, NOTIFICATION)}
    inventory = ", ".join(f"{n} {kind}" for kind, n in kinds.items() if n)
    yield make(
        "P4506", where,
        f"{len(graph.flows)} flow(s) derived ({inventory or 'none'}); "
        f"stable home states: {', '.join(sorted(graph.stable_states))}")
    if graph.uncovered:
        head = "; ".join(graph.uncovered[:6])
        more = (f" (+{len(graph.uncovered) - 6} more)"
                if len(graph.uncovered) > 6 else "")
        yield make(
            "P4501", where,
            f"flow cover is incomplete — {len(graph.uncovered)} "
            f"transition(s) belong to no derived flow: {head}{more}",
            hint="uncovered transitions are missing from the inventory; "
                 "see docs/ANALYSIS.md#P4501")
