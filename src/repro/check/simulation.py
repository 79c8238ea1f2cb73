"""Checking Equation 1 of the paper: the refinement is a weak simulation.

For every reachable asynchronous state ``q`` and transition ``q ->l q'``::

    abs(q) = abs(q')  or  abs(q) ->h abs(q')          (Equation 1)

i.e. every asynchronous step is either a *stutter* (invisible at the
rendezvous level) or maps to a rendezvous-level transition.  The paper
argues this on paper for the rule schema; here we *machine-check* it
exhaustively for any concrete protocol and node count by exploring the full
asynchronous state space and testing each edge.

One refinement of the statement discovered by machine-checking it: for a
*home-initiated* fused pair (section 3.3, e.g. ``inv``/``ID``), the
responder's C3 action consumes the un-acked request, performs its local
actions, and emits the reply *atomically* — there is no intermediate
asynchronous state, so that single edge maps to **two consecutive**
rendezvous transitions (``inv`` completes, then ``ID`` completes).  The
paper folds this into "a repl message is treated as an ack", which is sound
but makes Equation 1 hold only in the bounded multi-step form::

    abs(q) = abs(q')  or  abs(q) ->h ... ->h abs(q')   (at most 2 steps)

The checker therefore allows a configurable ``max_depth`` defaulting to 2
when the plan fuses any pair and 1 otherwise (the paper's literal claim is
verified exactly for un-fused refinements).  Remote-initiated pairs
(``req``/``gr``) do not need depth 2: between the home consuming the
request and sending the reply the requester is observably *half-forwarded*
(see :mod:`repro.refine.abstraction`), giving a witness intermediate state.

We additionally check the base case (the abstractions of the two initial
states agree), which the simulation argument needs but Equation 1 alone
does not state.

This check is the workhorse of the property-based test-suite: random
protocols within the paper's syntactic restrictions are refined and
verified to weakly simulate, supporting the paper's claim that the
procedure "applies to large classes of DSM protocols".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from ..errors import SemanticsError
from ..refine.abstraction import Abstraction, AbstractionUndefined
from ..semantics.asynchronous import AsyncState, AsyncSystem, Step
from ..semantics.rendezvous import RendezvousSystem
from ..semantics.state import RvState
from .explorer import explore
from .stats import ExplorationResult

__all__ = ["Equation1", "SimulationReport", "StreamedSystem",
           "check_simulation"]


class Equation1:
    """The Equation-1 edge test and the caches it rests on.

    One instance serves one sweep of ``system``.  ``abs`` is one
    :class:`~repro.refine.abstraction.Abstraction`: composed once per
    swept state from per-node images memoized on each node's local view,
    and one interned object per abstract state however many swept states
    map to it.  A rendezvous successor set is computed once per abstract
    state (expanded on demand), and the reachability verdict once per
    ``(abs src, abs dst, depth)``.  The three counters partition the
    edges that passed :meth:`holds`.
    """

    def __init__(self, system: AsyncSystem) -> None:
        self.system = system
        self.rv_system = RendezvousSystem(system.protocol, system.n_remotes)
        #: ``abs(state)``; where undefined, the exception (not raised)
        self.abstraction = Abstraction(system)
        self._successors: dict[RvState, frozenset[RvState]] = {}
        self._hops: dict[tuple[RvState, RvState, int], int] = {}
        self.n_stutters = self.n_mapped = self.n_deep = 0

    def n_abstract_states(self) -> int:
        """Rendezvous states that are the image of some swept state."""
        return self.abstraction.n_images

    def holds(self, src: RvState, dst: RvState, depth: int) -> bool:
        """Tally one edge: a stutter, or ``dst`` reachable from ``src``
        within ``depth`` rendezvous steps; False if it is neither.
        ``src`` and ``dst`` come from :attr:`abstraction`, which interns
        them, so a stutter is one identity test."""
        if src is dst:
            self.n_stutters += 1
            return True
        hops = self.reachable_within(src, dst, depth)
        if hops == 1:
            self.n_mapped += 1
        elif hops > 1:
            self.n_deep += 1
        return hops > 0

    def reachable_within(self, src: RvState, dst: RvState,
                         depth: int) -> int:
        """Fewest rendezvous steps (1..depth) from ``src`` to ``dst``, or 0
        if unreachable within the bound."""
        key = (src, dst, depth)
        found = self._hops.get(key)
        if found is None:
            found = self._hops[key] = self._search(src, dst, depth)
        return found

    def _search(self, src: RvState, dst: RvState, depth: int) -> int:
        frontier = {src}
        for hops in range(1, depth + 1):
            nxt: set[RvState] = set()
            for state in frontier:
                succ = self._rv_successors(state)
                if dst in succ:
                    return hops
                nxt.update(succ)
            frontier = nxt
        return 0

    def _rv_successors(self, state: RvState) -> frozenset[RvState]:
        cached = self._successors.get(state)
        if cached is None:
            cached = self._successors[state] = frozenset(
                nxt for _action, nxt in self.rv_system.successors(state))
        return cached


class StreamedSystem:
    """``system`` as :func:`~repro.check.explorer.explore` sees it,
    analysed while it is swept instead of from a kept graph.

    ``visit(state, steps)`` is called once per expanded state with the
    :class:`~repro.semantics.asynchronous.Step` list out of it.  Given
    ``roots``, the sweep starts from a synthetic initial state whose
    successors they are, so one ``explore()`` call covers the
    closure of several start states.  A :class:`SemanticsError` out of
    ``steps()`` goes to ``fault(state, exc)`` when given — the state then
    has no successors — and propagates otherwise.
    """

    ROOT = "<roots>"

    def __init__(self, system: AsyncSystem,
                 visit: Callable[[AsyncState, list[Step]], None], *,
                 roots: Optional[Sequence[AsyncState]] = None,
                 fault: Optional[Callable[[AsyncState, SemanticsError],
                                          None]] = None) -> None:
        self.system = system
        self.visit = visit
        self.roots = roots
        self.fault = fault

    def initial_state(self) -> Any:
        return (self.ROOT if self.roots is not None
                else self.system.initial_state())

    def successors(self, state: Any) -> list[tuple[Any, Any]]:
        if state is self.ROOT:
            return [(None, root) for root in self.roots or ()]
        try:
            steps = self.system.steps(state)
        except SemanticsError as exc:
            if self.fault is None:
                raise
            self.fault(state, exc)
            return []
        self.visit(state, steps)
        return [(step.action, step.state) for step in steps]


@dataclass
class SimulationReport:
    """Outcome of a weak-simulation check."""

    ok: bool
    n_async_states: int
    n_edges_checked: int
    n_stutters: int
    n_mapped: int
    #: edges needing the two-step form (home-initiated fused responses)
    n_mapped_deep: int
    #: rendezvous states that are the image of some asynchronous state
    n_abstract_states: int
    exploration: Optional[ExplorationResult] = None
    failures: list[str] = field(default_factory=list)

    def describe(self) -> str:
        verdict = "WEAK SIMULATION HOLDS" if self.ok else "SIMULATION FAILS"
        lines = [
            f"{verdict}: {self.n_edges_checked} async edges over "
            f"{self.n_async_states} states "
            f"({self.n_stutters} stutters, {self.n_mapped} single-step, "
            f"{self.n_mapped_deep} two-step fused; image has "
            f"{self.n_abstract_states} rendezvous states)"
        ]
        lines += [f"  FAIL: {f}" for f in self.failures[:10]]
        if len(self.failures) > 10:
            lines.append(f"  ... and {len(self.failures) - 10} more")
        return "\n".join(lines)


def check_simulation(
    async_system: AsyncSystem,
    *,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    max_failures: int = 25,
    max_depth: Optional[int] = None,
) -> SimulationReport:
    """Exhaustively verify Equation 1 for ``async_system``.

    Sweeps the full asynchronous state space (subject to the budgets) and
    checks each edge, as it is generated, to be a stutter or to map to at
    most ``max_depth`` consecutive rendezvous transitions (see the module
    docstring for why fused pairs need depth 2).  No graph is kept; the
    rendezvous side is only expanded on demand (:class:`Equation1`).
    An undefined ``abs`` raises :class:`AbstractionUndefined`.
    """
    eq1 = Equation1(async_system)
    depth = max_depth if max_depth is not None else (
        2 if async_system.plan.fused else 1)
    failures: list[str] = []
    n_edges = 0

    def image(state: AsyncState) -> RvState:
        found = eq1.abstraction(state)
        if isinstance(found, AbstractionUndefined):
            raise found
        return found

    # base case: initial abstractions agree
    init_abs = image(async_system.initial_state())
    rv_init = eq1.rv_system.initial_state()
    if init_abs != rv_init:
        failures.append(
            f"initial abstraction mismatch: abs(q0) = {init_abs.describe()} "
            f"but rendezvous initial state is {rv_init.describe()}")

    def visit(state: AsyncState, steps: list[Step]) -> None:
        nonlocal n_edges
        if len(failures) >= max_failures:
            return
        src_abs = image(state)
        for step in steps:
            n_edges += 1
            dst_abs = image(step.state)
            if not eq1.holds(src_abs, dst_abs, depth):
                failures.append(
                    f"edge {step.action.describe()} maps "
                    f"{src_abs.describe()} -> {dst_abs.describe()}, not "
                    f"reachable in <= {depth} rendezvous steps")
                if len(failures) >= max_failures:
                    return

    exploration = explore(StreamedSystem(async_system, visit),
                          name=f"{async_system.refined.name}-simcheck",
                          max_states=max_states, max_seconds=max_seconds,
                          allow_deadlock=True)
    if not failures and not exploration.completed:
        failures.append(f"exploration incomplete: {exploration.stop_reason}")
    return SimulationReport(
        ok=not failures,
        n_async_states=exploration.n_states,
        n_edges_checked=n_edges,
        n_stutters=eq1.n_stutters,
        n_mapped=eq1.n_mapped,
        n_mapped_deep=eq1.n_deep,
        n_abstract_states=eq1.n_abstract_states(),
        exploration=exploration,
        failures=failures,
    )
