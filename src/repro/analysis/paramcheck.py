"""Flow-based parameterized deadlock-freedom analysis (the P45xx family).

:mod:`repro.analysis.flows` turns a protocol's AST into a message-flow
graph; this module turns that graph into a *verdict about arbitrary N*.
The argument has three legs, in the style of flow-based parameterized
verification (Sethi/Talupur/Malik, arXiv:1407.7468):

1. **Structure** (purely static): the flow cover must be complete
   (every transition belongs to a flow, else **P4501** from the flows
   pass), distinct stable-entry flows must occupy disjoint home interiors
   (**P4508** otherwise — without mutual exclusion the per-flow argument
   cannot attribute the home state to one transaction), and the home
   buffer demand of the refinement must be finite with the reservation
   discipline on (**P4503** otherwise — the paper's section 4 deadlock
   returns for some N if a remote can demand unbounded slots).

2. **Flow invariants and stuck states** (static generation, checked on
   the abstract system they constrain): for every *wait* — a home state
   where a flow blocks on one engaged remote — we compute the *blamed
   set*: remote states that can neither produce a message the home
   accepts there nor consume one the home offers.  An empty blamed set
   makes the wait responsive outright.  Otherwise we emit the invariant
   "home at W ⇒ the engaged remote is not blamed", plus *engagement*
   invariants ("home inside flow A ⇒ A's requester sits in A's request
   region") and their duals ("a remote in A's wait region ⇒ home is
   inside A and engaged to it").  As the flow method does, the
   invariants are checked on an abstract model, never on a small
   concrete instance: :mod:`repro.analysis.environment`'s one concrete
   remote (each invariant constrains the home and *one* remote) plus a
   stateless Other, which every N-node run projects onto; each
   invariant also gates Other on the very sweep that checks it (the
   circular argument spelt out there).  A falsified wait invariant
   whose blamed state lies inside another flow's request region is a
   *waits-for cycle* between two flows (**P4502**, with the two flows
   and the blamed state as witness); any other falsification is
   **P4504** (invariant not inductive).  The invariants alone do not
   give deadlock freedom — "some remote offers what a stable home
   accepts" is an ∃ over all remotes — so a *stuck* state of the same
   sweep (no tau, no rendezvous between the home and the concrete
   remote, and the home not waiting on Other alone; the rule and why it
   is sound are in that module) is **P4502** too.  A sweep that cannot
   settle this — truncated, semantics error, a construct Other cannot
   model, or a wait region the static analysis cannot track — is
   **P4507**.

3. **Transfer**: the claim is established at the rendezvous level; the
   repo's P44xx simulation certificate (``docs/ANALYSIS.md``) is what
   carries it to the asynchronous refinement, where the implicit-nack
   discipline resolves the request/request races the invariants rule
   out here.  The differential suite
   (``tests/property/test_flows_differential.py``,
   ``benchmarks/anyn_vs_exploration.py``) cross-checks the verdict
   against explicit-state exploration at n = 2..5.

When all legs hold, **P4505** (info) records the discharge: deadlock
freedom for arbitrary N, with the invariant inventory as the certificate
body.  Everything here is WARNING/INFO severity — obligations gate
nothing by default; ``repro lint --strict`` (or ``repro flows``) is
where they bite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Optional

from ..csp.ast import Output, ProcessDef, Protocol
from .bufferdemand import remote_demand
from .diagnostics import Diagnostic, make
from .environment import (
    ENGAGED,
    WAIT,
    WAITING,
    FlowLemma,
    Sweep,
    region_lemma,
    sweep,
)
from .flows import (
    NOTIFICATION,
    REMOTE_INITIATED,
    Flow,
    FlowGraph,
    Wait,
    derive_flows,
    producible_msgs,
    tau_closure,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..refine.plan import RefinementConfig
    from ..refine.reqreply import PairReport

__all__ = [
    "ParamVerdict",
    "check_parameterized",
    "paramcheck_pass",
]

#: Concrete remotes the abstraction keeps: every flow invariant
#: constrains the home and one remote.
N_CONCRETE = 1

#: state budget of the abstract sweep
DEFAULT_BUDGET = 20_000


@dataclass(frozen=True)
class ParamVerdict:
    """The parameterized deadlock-freedom verdict for one protocol.

    ``concrete`` / ``abstract_states`` / ``completed`` / ``stuck`` are
    the facts of the environment-abstraction sweep the invariants and
    the stuck-state rule were checked on.
    """

    protocol: str
    graph: FlowGraph
    discharged: bool
    obligations: tuple[Diagnostic, ...]
    invariants: tuple[FlowLemma, ...]
    responsive_waits: int
    concrete: int
    abstract_states: int
    completed: bool
    stuck: int
    buffer_demand: Optional[int]

    @property
    def verdict(self) -> str:
        return "deadlock-free-any-N" if self.discharged else "obligations"

    def as_dict(self) -> dict[str, object]:
        return {
            "protocol": self.protocol,
            "verdict": self.verdict,
            "discharged": self.discharged,
            "complete_cover": self.graph.complete,
            "n_flows": len(self.graph.flows),
            "invariants": [
                {"name": i.name, "kind": i.kind, "flow": i.flow,
                 "detail": i.detail} for i in self.invariants],
            "responsive_waits": self.responsive_waits,
            "abstraction": {
                "concrete": self.concrete,
                "states": self.abstract_states,
                "completed": self.completed,
                "stuck": self.stuck,
            },
            "buffer_demand_per_remote": self.buffer_demand,
            "obligations": [d.as_dict() for d in self.obligations],
        }


# ---------------------------------------------------------------------------
# blamed sets
# ---------------------------------------------------------------------------


def _blamed(remote: ProcessDef, wait: Wait) -> frozenset[str]:
    """Remote states that can make no progress against a waiting home.

    A remote state escapes blame if, after local (tau) steps only, it
    can *produce* a message the home accepts at the wait, or *consume*
    one the home simultaneously offers there.  A blamed state paired
    with the wait is a local deadlock; the wait invariant asserts the
    engaged remote never sits in one.
    """
    blamed = set()
    for name in remote.states:
        if producible_msgs(remote, name) & wait.msgs:
            continue
        if wait.offers and any(
                g.msg in wait.offers
                for s in tau_closure(remote, name)
                for g in remote.state(s).inputs):
            continue
        blamed.add(name)
    return frozenset(blamed)


# ---------------------------------------------------------------------------
# invariant generation
# ---------------------------------------------------------------------------


def _wait_invariant(remote: ProcessDef, flow: Flow, wait: Wait,
                    blamed: frozenset[str]) -> FlowLemma:
    state, var = wait.state, wait.var
    detail = (f"home at {state} awaits {'/'.join(sorted(wait.msgs))} from "
              f"{var}; {var} must not be in "
              f"{{{', '.join(sorted(blamed))}}}")
    return region_lemma(remote, name=f"{flow.name}:wait@{state}", kind=WAIT,
                        flow=flow.name, var=var,
                        home_states=frozenset({state}), region=blamed,
                        inside=False, detail=detail, wait=wait)


def _engaged_invariant(remote: ProcessDef, flow: Flow) -> FlowLemma:
    interior, var = flow.interior_home, flow.requester_var
    region = flow.requester_region
    assert var is not None
    detail = (f"home inside {flow.name} "
              f"({', '.join(sorted(interior))}) ⇒ requester {var} is in "
              f"{{{', '.join(sorted(region))}}}")
    return region_lemma(remote, name=f"{flow.name}:engaged", kind=ENGAGED,
                        flow=flow.name, var=var, home_states=interior,
                        region=region, detail=detail)


def _extended_interior(flow: Flow, graph: FlowGraph) -> frozenset[str]:
    """``flow``'s interior plus the interiors of flows nested inside it
    (transitively).  While the home serves a nested transaction — e.g.
    denying an upgrade mid-writer-grant — the outer requester is still
    legitimately waiting."""
    region = set(flow.interior_home)
    grown = True
    while grown:
        grown = False
        for nested in graph.flows:
            if nested.stable_entry or nested.entry_state not in region:
                continue
            if not nested.interior_home <= region:
                region |= nested.interior_home
                grown = True
    return frozenset(region)


def _waiting_invariant(wait_state: str, flows: tuple[Flow, ...],
                       graph: FlowGraph) -> FlowLemma:
    """Dual of engagement: a remote parked in a request-wait state
    implies the home is mid-flow serving *that* remote — no requester is
    ever stranded against a stable home."""
    interiors = frozenset(s for f in flows
                          for s in _extended_interior(f, graph))
    vars_ = tuple(sorted({f.requester_var for f in flows
                          if f.requester_var is not None}))
    names = ", ".join(f.name for f in flows)
    detail = (f"a remote at {wait_state} ⇒ home is inside one of "
              f"[{names}] and engaged to it")
    return FlowLemma(name=f"waiting@{wait_state}", kind=WAITING, flow=names,
                     vars=vars_, home_states=interiors,
                     region=frozenset({wait_state}),
                     allowed_msgs=frozenset(), detail=detail)


def _sole_entry(remote: ProcessDef, wait_state: str,
                request_msgs: frozenset[str]) -> bool:
    """Is ``wait_state`` entered only by sending a request?  If other
    edges reach it, the dual invariant cannot attribute the wait."""
    if wait_state == remote.initial_state:
        return False
    for state in remote.states.values():
        for guard in state.guards:
            if guard.to != wait_state:
                continue
            if not (isinstance(guard, Output)
                    and guard.msg in request_msgs):
                return False
    return True


def generate_invariants(protocol: Protocol, graph: FlowGraph,
                        ) -> tuple[tuple[FlowLemma, ...], int,
                                   tuple[str, ...]]:
    """Build the invariant set for ``graph``.

    Returns ``(invariants, responsive_waits, untracked)`` where
    ``responsive_waits`` counts waits discharged outright (empty blamed
    set, no invariant needed) and ``untracked`` lists request-wait
    states the dual invariant cannot cover (each is a P4507 obligation).
    """
    remote = protocol.remote
    invariants: list[FlowLemma] = []
    seen: set[str] = set()
    responsive = 0

    for flow in graph.flows:
        for wait in flow.waits:
            blamed = _blamed(remote, wait)
            if not blamed:
                responsive += 1
                continue
            inv = _wait_invariant(remote, flow, wait, blamed)
            if inv.name not in seen:  # nested flows share enclosing waits
                seen.add(inv.name)
                invariants.append(inv)
        if (flow.kind != NOTIFICATION and flow.stable_entry
                and flow.interior_home and flow.requester_var is not None
                and flow.requester_region):
            invariants.append(_engaged_invariant(remote, flow))

    # duals, grouped by remote wait state across all reply-bearing flows
    by_wait: dict[str, list[Flow]] = {}
    for flow in graph.flows:
        if flow.kind != REMOTE_INITIATED or not flow.reply_msgs:
            continue
        for ws in flow.requester_wait_states:
            by_wait.setdefault(ws, []).append(flow)

    untracked: list[str] = []
    for ws in sorted(by_wait):
        flows = tuple(by_wait[ws])
        requests = frozenset(f.request_msg for f in flows)
        if not _sole_entry(remote, ws, requests):
            untracked.append(ws)
            continue
        invariants.append(_waiting_invariant(ws, flows, graph))

    return tuple(invariants), responsive, tuple(untracked)


# ---------------------------------------------------------------------------
# the check
# ---------------------------------------------------------------------------


def check_parameterized(protocol: Protocol, *,
                        graph: Optional[FlowGraph] = None,
                        reports: Optional[tuple["PairReport", ...]] = None,
                        config: Optional["RefinementConfig"] = None,
                        strict_cycles: bool = False,
                        witness_nodes: int = 2,
                        max_states: int = DEFAULT_BUDGET,
                        ) -> ParamVerdict:
    """Run the full parameterized deadlock-freedom analysis.

    ``witness_nodes`` is accepted and ignored: there is no witness
    instance any more (the frozen ``perf/`` harness still passes it).
    """
    # deferred import: repro.refine reaches back into the analysis
    # package (see flows.py)
    from ..refine.plan import RefinementConfig

    config = config or RefinementConfig()
    if graph is None:
        graph = derive_flows(protocol, reports=reports, config=config,
                             strict_cycles=strict_cycles)

    where = f"{protocol.name}:paramcheck"
    obligations: list[Diagnostic] = []

    # -- leg 1: structure ------------------------------------------------
    _check_mutex(graph, where, obligations)
    demand = _check_buffer(protocol, config, where, obligations)

    # -- leg 2: invariants and stuck states on the abstraction -----------
    invariants, responsive, untracked = generate_invariants(protocol, graph)
    for ws in untracked:
        obligations.append(make(
            "P4507", where,
            f"request-wait state remote.{ws} has entries besides the "
            "request send; the waiting-side invariant cannot attribute "
            "it to a flow — parameterized claim is inconclusive"))

    run = sweep(protocol, N_CONCRETE, invariants, max_states=max_states,
                name=f"{protocol.name}-paramcheck-abstract")
    _sweep_obligations(graph, invariants, run, where, obligations)

    # -- verdict ---------------------------------------------------------
    blocking = {"P4502", "P4503", "P4504", "P4507", "P4508"}
    discharged = (graph.complete
                  and not any(d.code in blocking for d in obligations))
    if discharged:
        obligations.append(make(
            "P4505", where,
            f"deadlock freedom discharged for arbitrary N: complete "
            f"cover by {len(graph.flows)} flows; on the environment "
            f"abstraction ({N_CONCRETE} concrete remote + Other, "
            f"{run.n_states} states) {len(invariants)} flow invariant(s) "
            f"hold — assumed of Other and checked on the same sweep — "
            f"and no state is stuck without a move of the home or the "
            f"concrete remote ({responsive} wait(s) responsive "
            f"outright); home buffer demand {demand}/remote under "
            f"reservations; transferred to the async refinement via the "
            f"P44xx simulation certificate"))

    return ParamVerdict(
        protocol=protocol.name,
        graph=graph,
        discharged=discharged,
        obligations=tuple(obligations),
        invariants=invariants,
        responsive_waits=responsive,
        concrete=N_CONCRETE,
        abstract_states=run.n_states,
        completed=run.reason is None,
        stuck=len(run.stuck),
        buffer_demand=demand,
    )


def _check_mutex(graph: FlowGraph, where: str,
                 obligations: list[Diagnostic]) -> None:
    """Stable-entry flows must occupy disjoint home interiors (nested
    flows deliberately share their enclosing transaction's states)."""
    top = [f for f in graph.flows if f.stable_entry and f.interior_home]
    for i, a in enumerate(top):
        for b in top[i + 1:]:
            shared = a.interior_home & b.interior_home
            if shared:
                obligations.append(make(
                    "P4508", where,
                    f"flows {a.name} and {b.name} share home state(s) "
                    f"{{{', '.join(sorted(shared))}}}; without mutual "
                    "exclusion the home state cannot be attributed to "
                    "one transaction"))


def _check_buffer(protocol: Protocol, config: "RefinementConfig",
                  where: str,
                  obligations: list[Diagnostic]) -> Optional[int]:
    demand = remote_demand(protocol.remote, config.fire_and_forget)
    if demand is None:
        obligations.append(make(
            "P4503", where,
            "a remote can issue unboundedly many unacknowledged "
            "messages (no finite per-remote demand); the k-bounded "
            "home-buffer argument does not close for any fixed "
            "capacity",
            hint="see P3203 and docs/ANALYSIS.md#P4503"))
    missing = [flag for flag, on in (
        ("reserve_progress_buffer", config.reserve_progress_buffer),
        ("reserve_ack_buffer", config.reserve_ack_buffer)) if not on]
    if missing:
        obligations.append(make(
            "P4503", where,
            f"reservation discipline disabled ({', '.join(missing)}); "
            "the section 4 overflow deadlock returns for some N "
            "regardless of capacity k"))
    return demand


def _sweep_obligations(graph: FlowGraph, invariants: tuple[FlowLemma, ...],
                       run: Sweep, where: str,
                       obligations: list[Diagnostic]) -> None:
    """What the abstract sweep leaves open: falsified invariants
    (P4502/P4504), stuck states (P4502), and whatever kept it from
    settling them (P4507)."""
    by_name = {inv.name: inv for inv in invariants}
    for name in sorted(run.fallen):
        obligations.append(_classify_violation(
            graph, by_name[name], run.fallen[name], where))
    if run.stuck:
        obligations.append(_stuck_obligation(graph, run, where))
    for note in ([run.reason] if run.reason is not None else run.issues):
        obligations.append(make(
            "P4507", where,
            f"the environment abstraction could not settle the invariants "
            f"and stuck states: {note}"))


def _classify_violation(graph: FlowGraph, inv: FlowLemma,
                        cex: Any, where: str) -> Diagnostic:
    if inv.kind == WAIT and inv.wait is not None:
        state = cex.states[-1]
        blamed_state: Optional[str] = None
        idx = state.home.env.get(inv.wait.var)
        if isinstance(idx, int) and 0 <= idx < len(state.remotes):
            blamed_state = state.remotes[idx].state
        for other in graph.flows:
            if other.name == inv.flow or blamed_state is None:
                continue
            if blamed_state in other.requester_region:
                return make(
                    "P4502", where,
                    f"waits-for cycle between flows {inv.flow} and "
                    f"{other.name}: at home state {inv.wait.state}, "
                    f"flow {inv.flow} awaits "
                    f"{'/'.join(sorted(inv.wait.msgs))} from "
                    f"{inv.wait.var}, but {inv.wait.var} sits at "
                    f"remote.{blamed_state} inside {other.name}'s "
                    f"request region — each flow waits on the other "
                    f"({len(cex.steps)}-step abstract witness)")
        return make(
            "P4504", where,
            f"wait invariant {inv.name} is not inductive: "
            f"{inv.detail}; falsified on the abstraction in "
            f"{len(cex.steps)} steps (engaged remote at "
            f"{blamed_state or 'untracked state'})")
    return make(
        "P4504", where,
        f"{inv.kind} invariant {inv.name} is not inductive: "
        f"{inv.detail}; falsified on the abstraction in "
        f"{len(cex.steps)} steps")


def _stuck_obligation(graph: FlowGraph, run: Sweep,
                      where: str) -> Diagnostic:
    state = run.stuck[0]
    home = state.home.state
    involved = [f.name for f in graph.flows
                if home in f.interior_home or home == f.entry_state]
    return make(
        "P4502", where,
        f"{len(run.stuck)} reachable abstract state(s) are stuck — no tau "
        f"and no rendezvous between the home and a concrete remote is "
        f"enabled, and the home is not waiting on the environment alone "
        f"— e.g. {state.describe()} (home at {home} inside "
        f"[{', '.join(involved) or 'no flow'}]); with every remote "
        f"parked like the concrete one this is a deadlock at some N")


# ---------------------------------------------------------------------------
# the analysis pass
# ---------------------------------------------------------------------------


def paramcheck_pass(protocol: Protocol, *,
                    reports: Optional[tuple["PairReport", ...]] = None,
                    config: Optional["RefinementConfig"] = None,
                    strict_cycles: bool = False,
                    graph: Optional[FlowGraph] = None,
                    ) -> Iterator[Diagnostic]:
    """Pass-manager entry point: yield the P45xx obligations/verdict."""
    verdict = check_parameterized(
        protocol, graph=graph, reports=reports, config=config,
        strict_cycles=strict_cycles)
    yield from verdict.obligations
