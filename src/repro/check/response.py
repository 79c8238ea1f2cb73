"""Response (request-leads-to-response) property checking.

The paper's progress criterion (section 2.5) is system-wide: *some* remote
keeps completing rendezvous.  Protocol designers usually also want the
per-transaction temporal property "whenever P requests, P is eventually
answered" — which, as the paper notes, holds per-remote only with enough
buffering (strong fairness), and holds in the weak some-remote form with
k = 2.  This module checks such properties on the reachable graph — the
one :func:`~repro.check.explorer.explore` returns under ``keep_graph=True``,
indexed and SCC-decomposed by the helper it shares with
:func:`~repro.check.properties.check_progress`:

    REQUEST leads-to RESPONSE   (LTL: G (request -> F response))

under the standard finite-state reading with transition weak-fairness:
the property *fails* iff some state satisfying ``request`` can reach a
strongly-connected component that it can never leave... more precisely,
iff there is a reachable ``request``-state from which some maximal path
never hits a ``response``-labelled transition.  We check the dual: from
every reachable request-state, *every* terminal SCC reachable without
crossing a response edge still contains a response edge, and no
response-free finite path ends in a deadlock.

``request`` is a state predicate; ``response`` is an *edge* predicate over
``(state, action, completes, next_state)`` so callers can match completed
rendezvous (e.g. "a grant to remote 3 completes").

This is exactly strong enough to distinguish the paper's two fairness
levels on real protocols: the some-remote progress property passes at
k = 2, while "remote 0's request is always eventually granted" fails
(remote 0 can starve) — see the tests and the fairness benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .explorer import explore
from .properties import _labelled_sccs, _WithCompletes

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

    ``system`` must expose ``steps`` (asynchronous level) or ``successors``
    (rendezvous level, where ``completes`` is the action itself, or empty
    for an action the system's ``is_progress`` rules out).
    """
    result = explore(_WithCompletes(system), max_states=max_states,
                     max_seconds=max_seconds, keep_graph=True,
                     allow_deadlock=True)
    if not result.completed:
        return ResponseReport(ok=False, n_states=result.n_states,
                              n_request_states=0, completed=False,
                              stop_reason=result.stop_reason)

    # "can dodge" set: states from which some maximal path avoids every
    # response edge.  Computed as a greatest fixpoint:  dodge(s) iff
    #   s is a deadlock, or
    #   exists a non-response edge s -> t with dodge(t), or
    #   s lies on a response-free cycle (an SCC with an internal
    #   non-response edge and no escape obligation).
    # Implement by taking the SCCs of the "response-free" subgraph and
    # finding states that can reach either a deadlock or a cycle inside it.
    order, edges, sccs, comp_of = _labelled_sccs(
        result.graph or {}, response, drop_labelled=True)
    n = len(order)
    cyclic = [len(comp) > 1 for comp in sccs]

    # bad = can reach (in the response-free subgraph) a deadlock or a
    # response-free cycle; propagate each flavour backwards separately so
    # the report can say *how* the response gets dodged
    reverse: list[list[int]] = [[] for _ in range(n)]
    for src, out in enumerate(edges):
        for dst, is_response in out:
            if not is_response:
                reverse[dst].append(src)
                if dst == src:
                    cyclic[comp_of[src]] = True

    def backward_closure(seed: list[bool]) -> list[bool]:
        closed = list(seed)
        pending = [i for i in range(n) if closed[i]]
        while pending:
            for back in reverse[pending.pop()]:
                if not closed[back]:
                    closed[back] = True
                    pending.append(back)
        return closed

    bad_dead = backward_closure([not out for out in edges])
    bad_cycle = backward_closure([cyclic[comp_of[i]] for i in range(n)])

    witness = None
    witness_kind = None
    n_requests = 0
    for i in range(n):
        if request(order[i]):
            n_requests += 1
            if witness is None and (bad_dead[i] or bad_cycle[i]):
                witness = order[i]
                witness_kind = "deadlock" if bad_dead[i] else "livelock"

    return ResponseReport(
        ok=witness is None,
        n_states=n,
        n_request_states=n_requests,
        witness=witness,
        failure_kind=witness_kind,
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
