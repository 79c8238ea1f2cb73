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

Progress is an *analysis of the explored graph*, not a second graph
builder: one :func:`~repro.check.explorer.explore` sweep of
:class:`WithCompletes` with ``edge_label=completes`` records the graph as
integers (:class:`~repro.check.stats.StateGraph`: successor ids, one
"completes a rendezvous" bit per edge), and :func:`progress_of` runs an
iterative Tarjan over the arrays and asks the exact store for the states
it reports.  ``repro verify --progress`` makes that sweep its safety one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Optional

from ..errors import BudgetExceeded, PropertyViolation
from .explorer import explore
from .stats import ExplorationResult, _describe
from .store import ExactStore

__all__ = ["assert_safe", "ProgressReport", "check_progress", "completes",
           "progress_of", "tarjan_sccs", "WithCompletes"]


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
    store = ExactStore()
    result = explore(WithCompletes(system), max_states=max_states,
                     max_seconds=max_seconds, store=store,
                     edge_label=completes, allow_deadlock=True)
    return progress_of(result, store)


def progress_of(result: ExplorationResult,
                store: ExactStore) -> ProgressReport:
    """The progress verdict of a :class:`WithCompletes` sweep that
    recorded its graph with ``edge_label=`` :func:`completes` into
    ``store``; an incomplete sweep gives an incomplete report."""
    graph = result.graph
    if not result.completed or graph is None:
        return ProgressReport(ok=False, n_states=result.n_states, n_sccs=0,
                              n_terminal_sccs=0, completed=False,
                              stop_reason=result.stop_reason)
    offsets, targets, labels = graph.offsets, graph.targets, graph.labels
    comp, firsts = tarjan_sccs(len(graph), graph.successors)
    terminal = bytearray(b"\x01") * len(firsts)
    has_progress = bytearray(len(firsts))
    sizes = [0] * len(firsts)
    for src in range(len(graph)):
        here = comp[src]
        sizes[here] += 1
        for edge in range(offsets[src], offsets[src + 1]):
            if comp[targets[edge]] != here:
                terminal[here] = 0
            elif labels[edge]:
                has_progress[here] = 1
    dead = [i for i in range(len(graph)) if offsets[i] == offsets[i + 1]]
    # a terminal SCC without any edge is one of those deadlock states
    livelocks = [(sizes[c], store.state_of(first))
                 for c, first in enumerate(firsts)
                 if terminal[c] and not has_progress[c]
                 and offsets[first + 1] > offsets[first]]
    return ProgressReport(
        ok=not dead and not livelocks,
        n_states=result.n_states,
        n_sccs=len(firsts),
        n_terminal_sccs=sum(terminal),
        deadlocks=[store.state_of(i) for i in dead],
        livelocks=livelocks,
    )


class Completed(tuple[Any, tuple[Any, ...]]):
    """``(action, completes)`` of an action that completes rendezvous;
    reads as the action."""

    __slots__ = ()

    def describe(self) -> str:
        return _describe(self[0])


def completes(_state: Any, action: Any, _next: Any) -> bool:
    """The progress edge label: the step completes a rendezvous."""
    return isinstance(action, Completed)


class WithCompletes:
    """``inner`` with what each step completed riding in the action slot.

    ``successors()`` drops the ``completes`` observable that progress and
    leads-to label edges by; this view wraps each action that completes
    something as ``Completed((action, completes))`` and passes the rest
    through — from ``steps()``, or at the rendezvous level from
    ``successors()``, where a rendezvous completes itself and an action
    ``is_progress`` rules out (a tau) completes nothing.  States and
    their order are the inner system's: its safety sweep, labelled.
    """

    def __init__(self, inner: Any) -> None:
        self.inner = inner

    def initial_state(self) -> Hashable:
        return self.inner.initial_state()

    def successors(self, state: Hashable) -> list[tuple[Any, Hashable]]:
        inner = self.inner
        if hasattr(inner, "steps"):
            return [(Completed((s.action, s.completes)) if s.completes
                     else s.action, s.state) for s in inner.steps(state)]
        is_progress = getattr(inner, "is_progress", lambda _action: True)
        return [(Completed((action, (action,))) if is_progress(action)
                 else action, nxt) for action, nxt in inner.successors(state)]


def tarjan_sccs(n: int, successors: Callable[[int], Iterable[int]],
                ) -> tuple[array[int], list[int]]:
    """SCCs of the graph on nodes ``0 .. n - 1`` with out-edges to
    ``successors(node)``, by iterative Tarjan (no recursion limit): each
    node's SCC number — numbered as they complete, i.e. reverse
    topologically, every edge between SCCs going from a higher number to
    a lower one — and each SCC's first-popped member, its representative.
    A node is on Tarjan's stack while it is visited and in no SCC yet."""
    index, low, comp = (array("q", [-1]) * n for _ in range(3))
    stack: list[int] = []
    firsts: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, succs = work[-1]
            for succ in succs:
                if index[succ] == -1:  # descend
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    work.append((succ, iter(successors(succ))))
                    break
                if comp[succ] == -1 and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                work.pop()
                if low[node] == index[node]:
                    firsts.append(stack[-1])
                    while True:
                        member = stack.pop()
                        comp[member] = len(firsts) - 1
                        if member == node:
                            break
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
    return comp, firsts
