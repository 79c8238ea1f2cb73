"""Static home-buffer-demand bound (paper sections 3.2 and 6).

The refined home node owns a ``k >= 2`` slot buffer; requests that find
it full are nacked and retried (Table 2 rows T4-T6).  How much buffer can
the protocol actually *demand*?  Statically bounded, per the Table 1/2
rules:

* an ordinary (acknowledged) remote request blocks its sender — the
  remote sits in a transient state until ack/nack — so each remote
  contributes at most **one** outstanding request at a time;
* a *fire-and-forget* message (the section 5 hand-design extension) does
  not block: the sender moves on immediately and may issue further sends
  while the note still occupies a home buffer slot (notes cannot be
  nacked).  Per remote, the worst case is the longest chain of
  fire-and-forget outputs the remote can emit back to back, plus the one
  blocking request that ends the chain;
* if the remote can emit fire-and-forget messages around a cycle with no
  blocking output in between, the demand is **unbounded** (P3203).

With ``demand(remote)`` the per-remote bound, the home-side bound for
``n`` remotes is ``n * demand``.  The pass reports:

* **P3201 (warning)** — the configured ``k`` is below the bound: the
  protocol is still correct (that is what nacks are for) but requests
  will be nacked and retried under load.
* **P3202 (info)** — ``k`` is at or above the bound, so every
  simultaneously-outstanding request fits: nacks become impossible.
  This is the section 6 observation that sizing the shared pool at one
  slot per remote turns the retry machinery off.
* **P3203 (warning)** — unbounded fire-and-forget demand (a cycle of
  unacknowledged sends); no finite ``k`` suffices.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..csp.ast import Output, ProcessDef, Protocol
from .diagnostics import Diagnostic, make

__all__ = ["buffer_demand_pass", "remote_demand", "home_buffer_bound"]


def remote_demand(remote: ProcessDef,
                  fire_and_forget: frozenset[str]) -> Optional[int]:
    """Max simultaneously-outstanding un-acked sends of one remote.

    Returns ``None`` when unbounded (fire-and-forget cycle).  Computed as
    the maximum weight of any path in the remote's state graph where a
    fire-and-forget output edge weighs 1 and every other edge weighs 0;
    a blocking (acknowledged) output adds 1 and *terminates* the chain
    (the remote then waits for its ack, clearing all bookkeeping before
    it can send again).
    """
    blocking = any(
        isinstance(g, Output) and g.msg not in fire_and_forget
        for s in remote.states.values() for g in s.guards)
    if not fire_and_forget:
        return 1 if blocking else 0

    # Graph of *non-blocking* transitions over state numbers (a blocking
    # send ends the chain instead and scores its +1 via ``bonus``):
    # fire-and-forget outputs weigh 1, inputs/taus weigh 0.
    number = {name: i for i, name in enumerate(remote.states)}
    edges: list[list[tuple[int, int]]] = [[] for _ in number]
    bonus = [0] * len(number)
    for i, state in enumerate(remote.states.values()):
        for guard in state.guards:
            if isinstance(guard, Output) and guard.msg not in fire_and_forget:
                bonus[i] = 1
            else:
                weight = 1 if isinstance(guard, Output) else 0
                edges[i].append((number[guard.to], weight))

    # imported here: repro.refine's gate runs this pass, and importing
    # repro.check imports repro.refine
    from ..check.properties import tarjan_sccs
    component, firsts = tarjan_sccs(
        len(edges), lambda i: [dst for dst, _ in edges[i]])
    for src, out_edges in enumerate(edges):
        for dst, weight in out_edges:
            if weight and component[src] == component[dst]:
                return None  # fire-and-forget cycle: unbounded demand

    # Longest path over the SCC condensation.  Components are numbered in
    # reverse topological order (successors first), so a single forward
    # scan sees every successor's score before its predecessors.
    members: list[list[int]] = [[] for _ in firsts]
    for i, comp in enumerate(component):
        members[comp].append(i)
    score = [0] * len(firsts)
    for comp, group in enumerate(members):
        best = max(bonus[i] for i in group)
        for i in group:
            for dst, weight in edges[i]:
                if component[dst] != comp:
                    best = max(best, weight + score[component[dst]])
        score[comp] = best
    return max(score)


def home_buffer_bound(protocol: Protocol, nodes: int,
                      fire_and_forget: frozenset[str] = frozenset(),
                      ) -> Optional[int]:
    """Static bound on simultaneously buffered remote requests at home."""
    per_remote = remote_demand(protocol.remote, fire_and_forget)
    if per_remote is None:
        return None
    return nodes * per_remote


def buffer_demand_pass(protocol: Protocol, *, capacity: int, nodes: int,
                       fire_and_forget: frozenset[str] = frozenset(),
                       ) -> Iterator[Diagnostic]:
    where = f"{protocol.name}:home-buffer"
    bound = home_buffer_bound(protocol, nodes, fire_and_forget)
    if bound is None:
        yield make(
            "P3203", where,
            "fire-and-forget demand is unbounded: the remote can emit "
            f"unacknowledged messages ({', '.join(sorted(fire_and_forget))}) "
            "around a cycle with no blocking request in between; no finite "
            "home buffer suffices",
            hint="acknowledge at least one message on the cycle")
        return
    if capacity < bound:
        yield make(
            "P3201", where,
            f"configured k={capacity} is below the static demand bound "
            f"{bound} for n={nodes} remotes; requests will be nacked and "
            "retried under load (correct but slower)",
            hint=f"raise home_buffer_capacity to {bound} to make nacks "
                 "impossible (section 6)")
    else:
        yield make(
            "P3202", where,
            f"k={capacity} covers the worst-case demand bound {bound} for "
            f"n={nodes} remotes: every outstanding request fits, so nacks "
            "are impossible (section 6)")
