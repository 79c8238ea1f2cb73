"""Safety and progress property checking.

**Safety** (invariants, deadlock freedom) rides on the explorer: invariants
are checked on every reachable state and deadlocks recorded with shortest
traces; :func:`assert_safe` converts a bad
:class:`~repro.check.stats.ExplorationResult` into a raised
:class:`~repro.errors.PropertyViolation`.

**Progress** is the paper's section 2.5 criterion: "the refinement process
guarantees that at least one of the refined remote nodes makes forward
progress, if forward progress is possible in the rendezvous protocol" —
i.e. *some* rendezvous keeps completing (weak fairness), though any
individual remote may starve.  We check the standard finite-state
formulation: in the reachable transition graph,

* there is no deadlock state, and
* every **terminal** strongly-connected component (one with no edges
  leaving it) contains at least one *progress edge* — a transition that
  completes a rendezvous.

A terminal SCC without a progress edge is a **livelock**: the system can
run forever without ever completing another rendezvous.  This is exactly
the failure mode the paper's progress-buffer reservation exists to prevent
(section 3.2: "If no such reservation is made, a livelock can result"),
and the ablation benchmark reproduces it by switching the reservation off.

Progress is an *analysis of the reachable graph*, not a second graph
builder: :func:`check_progress` makes one
:func:`~repro.check.explorer.explore` call (``keep_graph=True``) and reads
the verdict off what it returned, so its budgets and stop reasons are the
exploration core's.  The SCC computation is an iterative Tarjan (explicit
stack, so deep graphs cannot hit Python's recursion limit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from ..errors import BudgetExceeded, PropertyViolation
from .explorer import explore
from .stats import ExplorationResult

__all__ = ["assert_safe", "ProgressReport", "check_progress", "tarjan_sccs"]


def assert_safe(result: ExplorationResult) -> ExplorationResult:
    """Raise on violations/deadlocks/incompleteness; return ``result`` if ok.

    Violations are reported before incompleteness: a run stopped *by* a
    violation is incomplete too, and the violation is the interesting fact.
    A run that is merely incomplete (budget exhausted with nothing bad
    found) raises :class:`~repro.errors.BudgetExceeded` instead — a
    different failure class, because "no verdict" is not "unsafe".
    """
    if result.violations:
        first = result.violations[0]
        raise PropertyViolation(
            f"{result.system_name}: invariant {first.property_name!r} "
            f"violated\n{first.describe()}", witness=first)
    if result.deadlock_count:
        if result.deadlocks:
            first = result.deadlocks[0]
            raise PropertyViolation(
                f"{result.system_name}: deadlock reachable\n"
                f"{first.describe()}", witness=first)
        raise PropertyViolation(
            f"{result.system_name}: {result.deadlock_count} deadlock "
            "state(s) reachable (no witness trace; re-run the sequential "
            "explorer for one)")
    if not result.completed:
        raise BudgetExceeded(
            f"{result.system_name}: exploration incomplete "
            f"({result.stop_reason}); no safety verdict", stats=result)
    return result


# ---------------------------------------------------------------------------
# progress / livelock
# ---------------------------------------------------------------------------


@dataclass
class ProgressReport:
    """Outcome of the weak-fairness progress check."""

    ok: bool
    n_states: int
    n_sccs: int
    n_terminal_sccs: int
    deadlocks: list[Any] = field(default_factory=list)
    #: one representative state per livelocked terminal SCC, with its size
    livelocks: list[tuple[int, Any]] = field(default_factory=list)
    completed: bool = True
    stop_reason: Optional[str] = None

    def describe(self) -> str:
        if not self.completed:
            return f"progress check incomplete: {self.stop_reason}"
        verdict = "PROGRESS GUARANTEED" if self.ok else "PROGRESS FAILS"
        extra = ""
        if self.deadlocks:
            extra += f"; {len(self.deadlocks)} deadlock(s)"
        if self.livelocks:
            sizes = ", ".join(str(n) for n, _s in self.livelocks[:5])
            extra += f"; livelocked terminal SCC size(s): {sizes}"
        return (f"{verdict}: {self.n_states} states, {self.n_sccs} SCCs "
                f"({self.n_terminal_sccs} terminal){extra}")


def check_progress(
    system: Any,
    *,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
) -> ProgressReport:
    """Check weak-fairness progress (no deadlock, no livelocked terminal SCC).

    Works on any system exposing ``initial_state`` and either ``steps``
    (asynchronous level — progress edges are those completing a rendezvous)
    or ``successors`` + ``is_progress`` (rendezvous level).
    """
    if not (hasattr(system, "steps") or hasattr(system, "is_progress")):
        raise TypeError("system supports neither steps() nor "
                        "successors()+is_progress()")
    result = explore(_WithCompletes(system), max_states=max_states,
                     max_seconds=max_seconds, keep_graph=True,
                     allow_deadlock=True)
    if not result.completed:
        return ProgressReport(ok=False, n_states=result.n_states, n_sccs=0,
                              n_terminal_sccs=0, completed=False,
                              stop_reason=result.stop_reason)

    order, edges, sccs, comp_of = _labelled_sccs(
        result.graph or {},
        lambda _state, _action, completes, _next: bool(completes))
    deadlocks = [order[i] for i, out in enumerate(edges) if not out]

    terminal = [True] * len(sccs)
    has_progress = [False] * len(sccs)
    for src, out in enumerate(edges):
        for dst, progress in out:
            if comp_of[src] != comp_of[dst]:
                terminal[comp_of[src]] = False
            elif progress:
                has_progress[comp_of[src]] = True

    # a terminal SCC without any edge is a deadlock state, recorded above
    livelocks = [(len(comp), order[comp[0]])
                 for comp_idx, comp in enumerate(sccs)
                 if terminal[comp_idx] and not has_progress[comp_idx]
                 and edges[comp[0]]]

    return ProgressReport(
        ok=not deadlocks and not livelocks,
        n_states=result.n_states,
        n_sccs=len(sccs),
        n_terminal_sccs=sum(terminal),
        deadlocks=deadlocks,
        livelocks=livelocks,
    )


class _WithCompletes:
    """``inner`` with what each step completed riding in the action slot.

    ``successors()`` drops the ``completes`` observable that progress and
    leads-to label edges by; this view yields ``((action, completes),
    next)`` so one ``explore(keep_graph=True)`` sweep keeps it — from
    ``steps()``, or at the rendezvous level from ``successors()``, where a
    rendezvous completes itself and an action ``is_progress`` rules out (a
    tau) completes nothing.
    """

    def __init__(self, inner: Any) -> None:
        self.inner = inner

    def initial_state(self) -> Hashable:
        return self.inner.initial_state()

    def successors(self, state: Hashable) -> list[tuple[Any, Hashable]]:
        inner = self.inner
        if hasattr(inner, "steps"):
            return [((s.action, s.completes), s.state)
                    for s in inner.steps(state)]
        is_progress = getattr(inner, "is_progress", lambda _action: True)
        return [((action, (action,) if is_progress(action) else ()), nxt)
                for action, nxt in inner.successors(state)]


def _labelled_sccs(
    graph: dict[Any, list[tuple[Any, Any]]],
    label: Callable[[Any, Any, tuple[Any, ...], Any], bool],
    *,
    drop_labelled: bool = False,
) -> tuple[list[Any], list[list[tuple[int, bool]]], list[list[int]], list[int]]:
    """Index the graph of a completed :class:`_WithCompletes` sweep; SCCs.

    Dict order of ``graph`` is BFS discovery order, so position is index.
    Returns the states in that order, per state its out-edges as ``(target
    index, label(state, action, completes, next))``, the SCCs (of the
    subgraph without labelled edges when ``drop_labelled``) and each
    state's SCC number.
    """
    index = {state: i for i, state in enumerate(graph)}
    edges = [[(index[nxt], label(state, action, completes, nxt))
              for (action, completes), nxt in succs]
             for state, succs in graph.items()]
    sccs = tarjan_sccs([[dst for dst, flag in out
                         if not (drop_labelled and flag)] for out in edges])
    comp_of = [0] * len(edges)
    for comp_idx, comp in enumerate(sccs):
        for node in comp:
            comp_of[node] = comp_idx
    return list(graph), edges, sccs, comp_of


def tarjan_sccs(adjacency: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of a graph given as adjacency lists.

    Iterative Tarjan: returns SCCs in reverse topological order (every edge
    between components goes from a later-listed SCC to an earlier one).
    """
    n = len(adjacency)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, edge_pos = work[-1]
            if edge_pos == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for pos in range(edge_pos, len(adjacency[node])):
                succ = adjacency[node][pos]
                if index[succ] == -1:
                    work[-1] = (node, pos + 1)
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack[succ]:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp.append(member)
                    if member == node:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs
