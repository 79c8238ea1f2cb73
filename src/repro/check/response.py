"""Response (request-leads-to-response) property checking.

The paper's progress criterion (section 2.5) is system-wide: *some* remote
keeps completing rendezvous.  Protocol designers usually also want the
per-transaction temporal property "whenever P requests, P is eventually
answered" — which, as the paper notes, holds per-remote only with enough
buffering (strong fairness), and holds in the weak some-remote form with
k = 2.  This module checks such properties,

    REQUEST leads-to RESPONSE   (LTL: G (request -> F response)),

on the explored graph — the id graph one
:func:`~repro.check.explorer.explore` sweep of
:class:`~repro.check.properties.WithCompletes` records with the response
predicate as its edge label, SCC-decomposed by the same Tarjan as
:func:`~repro.check.properties.check_progress` — under the standard
finite-state reading with transition weak-fairness: the property fails
iff some reachable ``request``-state has a maximal path that never takes
a ``response``-labelled transition, i.e. reaches a deadlock or a cycle
without crossing a response edge.

``request`` is a state predicate, evaluated once per stored state;
``response`` is an *edge* predicate over ``(state, action, completes,
next_state)``, evaluated once per edge during the sweep, so callers can
match completed rendezvous (e.g. "a grant to remote 3 completes").

This is exactly strong enough to distinguish the paper's two fairness
levels on real protocols: the some-remote progress property passes at
k = 2, while "remote 0's request is always eventually granted" fails
(remote 0 can starve) — see the tests and the fairness benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .explorer import explore
from .properties import Completed, WithCompletes, tarjan_sccs
from .store import ExactStore

__all__ = ["ResponseReport", "check_response", "grant_edge", "remote_in_state"]


@dataclass
class ResponseReport:
    """Outcome of a leads-to check."""

    ok: bool
    n_states: int
    n_request_states: int
    #: a state from which the response can be dodged forever (or None)
    witness: Optional[Any] = None
    #: why the witness fails: "deadlock" or "livelock"
    failure_kind: Optional[str] = None
    completed: bool = True
    stop_reason: Optional[str] = None

    def describe(self) -> str:
        if not self.completed:
            return f"response check incomplete: {self.stop_reason}"
        if self.ok:
            return (f"RESPONSE GUARANTEED: every one of "
                    f"{self.n_request_states} request states (of "
                    f"{self.n_states}) is eventually answered")
        where = getattr(self.witness, "describe", lambda: repr(self.witness))()
        return (f"RESPONSE CAN BE DODGED ({self.failure_kind}): from "
                f"request state {where}")


def check_response(
    system: Any,
    request: Callable[[Any], bool],
    response: Callable[[Any, Any, tuple[Any, ...], Any], bool],
    *,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
) -> ResponseReport:
    """Check ``request leads-to response`` over the reachable graph.

    ``system`` must expose ``deltas`` (asynchronous level) or ``successors``
    (rendezvous level, where ``completes`` is the action itself, or empty
    for an action the system's ``is_progress`` rules out).
    """
    def is_response(state: Any, action: Any, nxt: Any) -> bool:
        action, done = action if isinstance(action, Completed) else (action, ())
        return bool(response(state, action, done, nxt))

    store = ExactStore()
    result = explore(WithCompletes(system), max_states=max_states,
                     max_seconds=max_seconds, store=store,
                     edge_label=is_response, allow_deadlock=True)
    graph = result.graph
    if not result.completed or graph is None:
        return ResponseReport(ok=False, n_states=result.n_states,
                              n_request_states=0, completed=False,
                              stop_reason=result.stop_reason)

    # A state can dodge the response iff it reaches, without a response
    # edge, a deadlock or a cycle (an SCC of the response-free subgraph
    # with an internal edge).  SCCs complete sinks first, so one pass in
    # SCC order settles what each reaches: bit 1 a deadlock, bit 2 a
    # cycle, kept apart so the report can say *how* it is dodged.
    offsets, targets, labels = graph.offsets, graph.targets, graph.labels

    def free(src: int) -> list[int]:
        return [targets[edge] for edge in range(offsets[src], offsets[src + 1])
                if not labels[edge]]

    comp, firsts = tarjan_sccs(len(graph), free)
    dodge = bytearray(len(firsts))
    for src in sorted(range(len(graph)), key=lambda i: comp[i]):
        here = comp[src]
        if offsets[src] == offsets[src + 1]:
            dodge[here] |= 1
        for dst in free(src):
            dodge[here] |= 2 if comp[dst] == here else dodge[comp[dst]]

    requests = [i for i, state in enumerate(store) if request(state)]
    bad = next((i for i in requests if dodge[comp[i]]), None)
    return ResponseReport(
        ok=bad is None,
        n_states=len(graph),
        n_request_states=len(requests),
        witness=None if bad is None else store.state_of(bad),
        failure_kind=None if bad is None else (
            "deadlock" if dodge[comp[bad]] & 1 else "livelock"),
    )


# -- convenience predicates ---------------------------------------------------


def remote_in_state(remote: int,
                    names: frozenset[str] | set[str]) -> Callable[[Any], bool]:
    """State predicate: remote ``i``'s control state is one of ``names``."""
    names = frozenset(names)

    def predicate(state: Any) -> bool:
        return state.remotes[remote].state in names

    return predicate


def grant_edge(remote: int, msgs: frozenset[str] | set[str],
               ) -> Callable[[Any, Any, Any, Any], bool]:
    """Edge predicate: a rendezvous in ``msgs`` completes for ``remote``."""
    msgs = frozenset(msgs)

    def predicate(_state: Any, _action: Any, completes: Any,
                  _next: Any) -> bool:
        return any(c.msg in msgs and c.remote == remote for c in completes)

    return predicate
