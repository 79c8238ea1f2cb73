"""Explicit-state reachability exploration (the SPIN role in the paper).

The explorer is generic over a *system* object exposing::

    initial_state() -> S          # S hashable, immutable
    successors(S) -> list[(action, S)]

which both :class:`~repro.semantics.rendezvous.RendezvousSystem` and
:class:`~repro.semantics.asynchronous.AsyncSystem` provide.  It performs a
breadth-first sweep of the reachable state space, checking invariants as
states are discovered and recording deadlocks, and stops early when the
state or time budget runs out — our stand-in for the paper's 64 MB memory
cap that produced the "Unfinished" cells of Table 3.

The sweep is level-synchronous (the visit order of a FIFO queue, made
explicit), which gives every run a per-level
:class:`~repro.check.observe.LevelEvent` stream for progress rendering
and JSON profiles (``observer=``).  :func:`explore` is the one loop;
its budget, count and event bookkeeping lives in one
:class:`ExplorationCore` per run, so where a budget is checked, what a
truncated run reports and when an observer hears of it are each decided
in one place.

The visited set is pluggable (``store=``): the default exact store keeps
full states plus BFS parent pointers, so every reported violation comes
with a *shortest* witnessing run; the ``"fingerprint"`` store trades the
traces (and a detectable sliver of soundness) for ~16 bytes per state —
see :mod:`repro.check.store`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Hashable, Optional, Protocol, Sequence

from .observe import LevelEvent, NullObserver, RunInfo, RunObserver
from .stats import Counterexample, ExplorationResult, _fmt_bytes
from .store import StateStore, StoreSpec, make_store

__all__ = ["System", "Invariant", "ExplorationCore", "expand_state",
           "explore", "replay_actions"]


def _store_spill_bytes(store: StateStore) -> int:
    spill = getattr(store, "spill_bytes", None)
    return int(spill()) if callable(spill) else 0


class System(Protocol):
    """Structural interface the explorer needs (duck-typed)."""

    def initial_state(self) -> Hashable: ...

    def successors(self, state: Hashable) -> list[tuple[Any, Hashable]]: ...


#: An invariant is a named predicate over single states.
Invariant = tuple[str, Callable[[Any], bool]]


def expand_state(system: System,
                 state: Hashable) -> tuple[list[tuple[Any, Hashable]], int]:
    """One state's successors plus its full enabled-transition count.

    Reducing systems (:class:`~repro.check.por.PORSystem`, possibly under
    a :class:`~repro.check.symmetry.SymmetricSystem`) expose ``expand``,
    returning the pruned successor list next to how many transitions were
    enabled before pruning; plain systems report ``len(successors)`` for
    both — the enabled-vs-taken accounting behind the per-level
    reduction ratio.
    """
    expand = getattr(system, "expand", None)
    if expand is not None:
        succs, enabled = expand(state)
        return succs, int(enabled)
    succs = system.successors(state)
    return succs, len(succs)


class ExplorationCore:
    """Budget, count, and event bookkeeping of one :func:`explore` run.

    The loop calls :meth:`should_stop` before each state expansion (that
    ordering *is* the budget semantics: a run may overshoot
    ``max_states`` by at most the successors of the expansion in
    flight), feeds counts through the public attributes, closes each
    level with :meth:`level_done`, and finishes with :meth:`result` —
    which also emits the observer's ``on_finish``.
    """

    def __init__(self, *, name: str, store: StoreSpec = "exact",
                 observer: Optional[RunObserver] = None,
                 max_states: Optional[int] = None,
                 max_seconds: Optional[float] = None,
                 max_bytes: Optional[int] = None,
                 reductions: tuple[str, ...] = ()) -> None:
        self.name = name
        self.store: StateStore = make_store(store)
        self.observer: RunObserver = (observer if observer is not None
                                      else NullObserver())
        self.max_states = max_states
        self.max_seconds = max_seconds
        self.max_bytes = max_bytes
        self.reductions = reductions
        self.t0 = time.perf_counter()
        self.n_transitions = 0
        #: transitions enabled before reduction (== n_transitions when no
        #: reduction is active)
        self.n_enabled = 0
        self.deadlock_count = 0
        self.completed = True
        self.stop_reason: Optional[str] = None

    def start(self) -> None:
        self.observer.on_start(RunInfo(
            name=self.name, store=self.store.name,
            max_states=self.max_states, max_seconds=self.max_seconds,
            reductions=self.reductions,
            partitions=int(getattr(self.store, "partitions", 1)),
            max_bytes=self.max_bytes))

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def should_stop(self) -> bool:
        """Check every budget; record the stop reason on the first trip.

        The state budget is exact; the memory budget compares the
        store's own footprint estimate (Python object sizes, so
        machine/version-dependent — a *graceful* stand-in for the
        paper's 64 MB memory allotment, which killed SPIN outright); the
        time budget is wall clock.
        """
        if (self.max_states is not None
                and len(self.store) > self.max_states):
            self.completed = False
            self.stop_reason = f"state budget {self.max_states} exceeded"
            return True
        if (self.max_bytes is not None
                and self.store.approx_bytes() > self.max_bytes):
            self.completed = False
            self.stop_reason = (f"memory budget "
                                f"{_fmt_bytes(self.max_bytes)} exceeded")
            return True
        if (self.max_seconds is not None
                and self.elapsed() > self.max_seconds):
            self.completed = False
            self.stop_reason = f"time budget {self.max_seconds}s exceeded"
            return True
        return False

    def stop(self, reason: str) -> None:
        self.completed = False
        self.stop_reason = reason

    def level_done(self, level: int, frontier: int, expanded: int,
                   candidates: int, new_states: int,
                   enabled: Optional[int] = None) -> None:
        self.observer.on_level(LevelEvent(
            level=level, frontier=frontier, expanded=expanded,
            candidates=candidates, new_states=new_states,
            n_states=len(self.store), n_transitions=self.n_transitions,
            deadlocks=self.deadlock_count, collisions=self.store.collisions,
            approx_bytes=self.store.approx_bytes(), seconds=self.elapsed(),
            enabled=candidates if enabled is None else enabled,
            spill_bytes=_store_spill_bytes(self.store)))

    def result(self, *, deadlocks: Optional[list[Counterexample]] = None,
               violations: Optional[list[Counterexample]] = None,
               graph: Optional[dict[Any, list[tuple[Any, Any]]]] = None,
               ) -> ExplorationResult:
        rows = getattr(self.store, "partition_rows", None)
        detail = getattr(self.store, "approx_bytes_detail", None)
        outcome = ExplorationResult(
            system_name=self.name,
            n_states=len(self.store),
            n_transitions=self.n_transitions,
            seconds=self.elapsed(),
            completed=self.completed,
            stop_reason=self.stop_reason,
            deadlocks=deadlocks or [],
            deadlock_count=self.deadlock_count,
            violations=violations or [],
            graph=graph,
            approx_bytes=self.store.approx_bytes(),
            store=self.store.name,
            fingerprint_collisions=self.store.collisions,
            n_enabled=self.n_enabled or self.n_transitions,
            reductions=self.reductions,
            partition_stats=tuple(rows()) if callable(rows) else (),
            spill_bytes=_store_spill_bytes(self.store),
            approx_bytes_detail=(dict(detail()) if callable(detail)
                                 else None),
        )
        self.observer.on_finish(outcome)
        return outcome


def explore(
    system: System,
    *,
    name: str = "system",
    invariants: Sequence[Invariant] = (),
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    max_bytes: Optional[int] = None,
    keep_graph: bool = False,
    stop_on_violation: bool = True,
    allow_deadlock: bool = False,
    store: StoreSpec = "exact",
    observer: Optional[RunObserver] = None,
    reductions: tuple[str, ...] = (),
) -> ExplorationResult:
    """Breadth-first reachability analysis of ``system``.

    :param invariants: ``(name, predicate)`` pairs checked on every state.
    :param max_states: emulate a memory cap; exceeding it stops the run with
        ``completed=False`` (a Table 3 "Unfinished" cell).
    :param max_seconds: wall-clock cap with the same early-stop behaviour.
    :param max_bytes: memory cap on the visited store's own footprint
        estimate; crossing it ends the run as a well-formed "Unfinished"
        result (the paper's 64 MB allotment, minus the OOM kill).  The
        estimate is Python-object sizes of the store's own containers, so
        unlike ``max_states`` the truncation point is machine-dependent
        (and the process grows several times more: EXPERIMENTS.md).
    :param keep_graph: retain full adjacency for SCC/progress analysis
        (memory-heavy; only for small systems or livelock checks).
    :param stop_on_violation: stop at the first invariant violation instead
        of cataloguing all of them.
    :param allow_deadlock: when False, states without successors are
        recorded as deadlocks (with traces); when True they are treated as
        legitimate final states.
    :param store: visited-state store — ``"exact"`` (default),
        ``"fingerprint"`` (SPIN-style hash compaction: ~16 bytes/state, no
        traces, collisions detected and counted), or a ready
        :class:`~repro.check.store.StateStore` from
        :func:`~repro.check.store.make_store`.  With a trace-free store,
        deadlocks are counted (not witnessed) and violation
        counterexamples carry only the violating state.
    :param observer: a :class:`~repro.check.observe.RunObserver` receiving
        per-level progress events (see :mod:`repro.check.observe`).
    :param reductions: names of the state-space reductions baked into
        ``system`` (e.g. ``("symmetry", "por")``), recorded in the run
        info and the result for profile provenance.
    :returns: an :class:`~repro.check.stats.ExplorationResult`; never raises
        for budget exhaustion, deadlocks, or violations — callers decide how
        strict to be (:func:`repro.check.properties.assert_safe` raises).
    :raises BaseException: whatever interrupts the sweep — Ctrl-C, an
        error out of ``system`` or the store — is re-raised, but only
        after the run was closed like a truncated one: the level in
        flight is reported, ``stop_reason`` is ``"interrupted"`` or
        ``"error: <message>"``, and ``observer`` gets its ``on_finish``.
    """
    core = ExplorationCore(name=name, store=store, observer=observer,
                           max_states=max_states, max_seconds=max_seconds,
                           max_bytes=max_bytes, reductions=reductions)
    core.start()
    visited = core.store
    init = system.initial_state()
    visited.add(init, None)
    graph: Optional[dict[Hashable, list[tuple[Any, Hashable]]]] = (
        {} if keep_graph else None)

    deadlock_states: list[Hashable] = []
    violations: list[Counterexample] = []

    def build_trace(state: Hashable) -> tuple[list[Any], list[Any]]:
        if not visited.supports_traces:
            # hash compaction keeps no states: the witness is the state
            # itself, with no path back to the initial state
            return [state], []
        tracer = getattr(visited, "action_trace", None)
        if callable(tracer):
            # delta-compressed stores keep action provenance, not state
            # objects: replay the actions through the live system
            steps_only: list[Any] = tracer(state)
            return replay_actions(system, steps_only), steps_only
        states: list[Any] = [state]
        steps: list[Any] = []
        cursor = state
        while True:
            entry = visited.parent_of(cursor)
            if entry is None:
                break
            prev, action = entry
            states.append(prev)
            steps.append(action)
            cursor = prev
        states.reverse()
        steps.reverse()
        return states, steps

    def check_invariants(state: Hashable) -> bool:
        """Check all invariants; return False if exploration should stop."""
        for prop_name, predicate in invariants:
            if not predicate(state):
                states, steps = build_trace(state)
                violations.append(Counterexample(prop_name, states, steps))
                if stop_on_violation:
                    return False
        return True

    stopped = False
    if not check_invariants(init):
        core.stop("invariant violated")
        stopped = True

    # Hot-loop bindings: the add method, whether parent provenance is
    # even retained (trace-free stores discard it — building a parent
    # tuple per transition for them was pure allocation churn), and
    # whether any invariant needs checking at all.
    add = visited.add
    track_parents = visited.supports_traces
    has_invariants = bool(invariants)

    level: list[Hashable] = [init] if not stopped else []
    level_index = 0
    failure: Optional[BaseException] = None
    while level:
        next_level: list[Hashable] = []
        expanded = candidates = new_states = enabled = 0
        try:
            for state in level:
                if core.should_stop():
                    stopped = True
                    break
                succs, n_enabled = expand_state(system, state)
                expanded += 1
                core.n_enabled += n_enabled
                enabled += n_enabled
                if graph is not None:
                    graph[state] = succs
                if not succs and not allow_deadlock:
                    deadlock_states.append(state)
                    core.deadlock_count += 1
                for action, nxt in succs:
                    core.n_transitions += 1
                    candidates += 1
                    if add(nxt, (state, action) if track_parents else None):
                        new_states += 1
                        if has_invariants and not check_invariants(nxt):
                            core.stop("invariant violated")
                            stopped = True
                            break
                        next_level.append(nxt)
                if stopped:
                    break
        except BaseException as exc:
            # Close the run before the exception leaves: the level in
            # flight and on_finish go out below exactly as for a budget
            # stop (so the profile is written), then it is re-raised —
            # Ctrl-C included, or a caller's next sweep would start.
            failure = exc
            core.stop("interrupted" if isinstance(exc, KeyboardInterrupt)
                      else f"error: {exc}")
            stopped = True
            # deadlocks stay counted but go unwitnessed: a trace may be
            # rebuilt through the very system that just raised
            deadlock_states.clear()
        core.level_done(level_index, len(level), expanded, candidates,
                        new_states, enabled)
        level_index += 1
        level = [] if stopped else next_level

    result = core.result(
        deadlocks=[_with_trace(build_trace, s) for s in deadlock_states],
        violations=violations,
        graph=graph,
    )
    if failure is not None:
        raise failure
    return result


def _with_trace(build_trace: Callable[[Hashable], tuple[list[Hashable],
                                                        list[object]]],
                state: Hashable) -> Counterexample:
    states, steps = build_trace(state)
    return Counterexample("deadlock-freedom", states, steps)


def replay_actions(system: System, steps: list[Any]) -> list[Any]:
    """Rematerialize the state path of an action sequence from the root.

    Inverse of :meth:`~repro.check.store.PartitionedExactStore.
    action_trace`: transitions in these systems are deterministic per
    action label (a delivery action names the message and the node), so
    following the recorded actions through ``successors`` rebuilds the
    exact state sequence the classic parent-pointer walk would return.
    Replay always consults the *full* successor relation, so traces
    recorded under a reducing wrapper still resolve.
    """
    states: list[Any] = [system.initial_state()]
    for action in steps:
        for cand_action, nxt in system.successors(states[-1]):
            if cand_action == action:
                states.append(nxt)
                break
        else:
            raise KeyError(f"action {action!r} is not enabled during "
                           "trace replay (store/system mismatch)")
    return states
