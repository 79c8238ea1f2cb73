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
and JSON profiles (``observer=``).  :func:`explore` is the one loop, so
where a budget is checked, what a truncated run reports and when an
observer hears of it are each decided in one place.

The visited set is pluggable (``store=``): the default exact store keeps
full states plus BFS parent pointers, so every reported violation comes
with a *shortest* witnessing run; the ``"fingerprint"`` store trades a
detectable sliver of soundness for ~16 bytes per state, plus 24 when it
is to rebuild the same runs by replay — see :mod:`repro.check.store`.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Hashable, Optional, Protocol, Sequence

from ..errors import CheckError
from .observe import LevelEvent, NullObserver, RunInfo, RunObserver
from .stats import Counterexample, ExplorationResult, StateGraph, _fmt_bytes
from .store import StateStore, StoreSpec, make_store

__all__ = ["System", "Invariant", "expand_state", "explore",
           "replay_actions"]


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


def explore(
    system: System,
    *,
    name: str = "system",
    invariants: Sequence[Invariant] = (),
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    max_bytes: Optional[int] = None,
    edge_label: Optional[Callable[[Any, Any, Any], bool]] = None,
    stop_on_violation: bool = True,
    allow_deadlock: bool = False,
    store: StoreSpec = "exact",
    observer: Optional[RunObserver] = None,
    reductions: tuple[str, ...] = (),
) -> ExplorationResult:
    """Breadth-first reachability analysis of ``system``.

    The cyclic collector is off while the sweep runs, and the caller's
    setting comes back however it ends: states, nodes, messages, actions
    and store entries are immutable values built from older ones, so no
    cycle forms and a collection would walk the visited set for nothing.

    :param invariants: ``(name, predicate)`` pairs checked on every state.
    :param max_states: emulate a memory cap; exceeding it stops the run with
        ``completed=False`` (a Table 3 "Unfinished" cell).
    :param max_seconds: wall-clock cap with the same early-stop behaviour.
    :param max_bytes: memory cap on the visited store's (and a recorded
        graph's) footprint estimate; crossing it ends the run as a
        well-formed "Unfinished" result (the paper's 64 MB allotment,
        minus the OOM kill).  The estimate is Python-object sizes of the
        store's own containers, so unlike ``max_states`` the truncation
        point is machine-dependent (and the process grows several times
        more: EXPERIMENTS.md).
    :param edge_label: record ``result.graph``, a
        :class:`~repro.check.stats.StateGraph` of store ids with each
        edge labelled by the bool ``edge_label(state, action, next)`` —
        what the progress and response checks read.  Needs the exact store.
    :param stop_on_violation: stop at the first invariant violation instead
        of cataloguing all of them.
    :param allow_deadlock: when False, states without successors are
        recorded as deadlocks (with traces); when True they are treated as
        legitimate final states.
    :param store: visited-state store — ``"exact"`` (default),
        ``"fingerprint"`` (SPIN-style hash compaction: 16 bytes a table
        slot, 21–43 bytes a state at its load, collisions detected and
        counted), or a ready store from
        :func:`~repro.check.store.make_store`, used as it is.  By name,
        ``"fingerprint"`` gets witness columns (24 more bytes/state)
        exactly when ``invariants`` is non-empty, so its violations and
        deadlocks carry the exact store's shortest runs, rebuilt by
        replay and checked against the state in hand.  Without
        provenance deadlocks are counted, not witnessed, and
        counterexamples carry only the violating state — as they do,
        with a ``note``, when a recorded path does not replay to it.
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
    # a store named, not handed over, is built here — with witness
    # columns exactly when there is an invariant to witness
    visited: StateStore = make_store(store, witness=bool(invariants))
    add: Callable[..., bool] = visited.add
    graph: Optional[StateGraph] = None
    if edge_label is not None:
        number = getattr(visited, "number", None)
        if number is None:
            raise ValueError(f"recording the graph needs a store that "
                             f"numbers its states, not {visited.name!r}")
        graph = StateGraph()
        targets, labels, label = graph.targets, graph.labels, edge_label

        def record(nxt: Hashable, parent: tuple[Hashable, Any]) -> bool:
            """``add``, keeping the edge: ``nxt``'s id and its label."""
            fresh = len(visited)
            targets.append(number(nxt, parent))
            labels.append(label(parent[0], parent[1], nxt))
            return targets[-1] == fresh

        add = record

    def store_bytes() -> int:
        return visited.approx_bytes() + (0 if graph is None else graph.nbytes())

    watcher: RunObserver = observer if observer is not None else NullObserver()
    t0 = time.perf_counter()
    watcher.on_start(RunInfo(
        name=name, store=visited.name, max_states=max_states,
        max_seconds=max_seconds, reductions=reductions,
        max_bytes=max_bytes))

    deadlock_states: list[Hashable] = []
    violations: list[Counterexample] = []

    def build_trace(state: Hashable,
                    ) -> tuple[list[Any], list[Any], Optional[str]]:
        """``(states, steps, note)`` witnessing ``state``; ``note`` says
        why a witness has no path, when it should have had one."""
        if not visited.supports_traces:
            # no provenance kept: the witness is the state itself, with
            # no path back to the initial state
            return [state], [], None
        tracer = getattr(visited, "action_trace", None)
        if callable(tracer):
            # a fingerprint store with witness columns keeps action
            # provenance, not state objects: replay the actions through
            # the live system.  The chain was found by fingerprint, so
            # the replay is a witness only if it ends in ``state``.
            steps_only: list[Any] = tracer(state)
            try:
                replayed = replay_actions(system, steps_only)
            except CheckError:
                replayed = []
            if replayed and replayed[-1] == state:
                return replayed, steps_only, None
            return [state], [], (
                "no trace: the recorded path does not replay to this "
                f"state ({visited.collisions} fingerprint collision(s) "
                "detected)")
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
        return states, steps, None

    def check_invariants(state: Hashable) -> bool:
        """Check all invariants; return False if exploration should stop."""
        for prop_name, predicate in invariants:
            if not predicate(state):
                violations.append(
                    Counterexample(prop_name, *build_trace(state)))
                if stop_on_violation:
                    return False
        return True

    def over_budget() -> Optional[str]:
        """Name the first budget the run has crossed — states (exact),
        then the footprint estimate, then wall clock — if any.

        Asked before each expansion, and that ordering *is* the budget
        semantics: a run may overshoot ``max_states`` by at most the
        successors of the expansion in flight.
        """
        if max_states is not None and len(visited) > max_states:
            return f"state budget {max_states} exceeded"
        if max_bytes is not None and store_bytes() > max_bytes:
            return f"memory budget {_fmt_bytes(max_bytes)} exceeded"
        if (max_seconds is not None
                and time.perf_counter() - t0 > max_seconds):
            return f"time budget {max_seconds}s exceeded"
        return None

    collecting = gc.isenabled()
    gc.disable()
    try:
        init = system.initial_state()
        visited.add(init, None)
        # why the run ended early; None while it runs and when it completes
        stop_reason = None if check_invariants(init) else "invariant violated"

        # Hot-loop bindings (``add`` above): whether parent provenance is
        # even retained (trace-free stores discard it — building a parent
        # tuple per transition for them was pure allocation churn), and
        # whether any invariant needs checking at all.
        track_parents = visited.supports_traces
        has_invariants = bool(invariants)

        n_transitions = n_enabled = deadlock_count = n_levels = 0
        level: list[Hashable] = [init] if stop_reason is None else []
        failure: Optional[BaseException] = None
        while level:
            next_level: list[Hashable] = []
            expanded = candidates = new_states = enabled = 0
            try:
                for idx, state in enumerate(level):
                    stop_reason = over_budget()
                    if stop_reason is not None:
                        break
                    succs, state_enabled = expand_state(system, state)
                    # the level lets go of each state as it is expanded:
                    # only the store, a trace or the next level keeps it
                    level[idx] = None
                    expanded += 1
                    enabled += state_enabled
                    if not succs and not allow_deadlock:
                        deadlock_states.append(state)
                        deadlock_count += 1
                    for action, nxt in succs:
                        candidates += 1
                        if add(nxt, (state, action) if track_parents else None):
                            new_states += 1
                            if has_invariants and not check_invariants(nxt):
                                stop_reason = "invariant violated"
                                break
                            next_level.append(nxt)
                    if graph is not None:
                        graph.offsets.append(len(graph.targets))
                    if stop_reason is not None:
                        break
            except BaseException as exc:
                # Close the run before the exception leaves: the level in
                # flight and on_finish go out below exactly as for a budget
                # stop (so the profile is written), then it is re-raised —
                # Ctrl-C included, or a caller's next sweep would start.
                failure = exc
                stop_reason = ("interrupted" if isinstance(exc, KeyboardInterrupt)
                               else f"error: {exc}")
                # deadlocks stay counted but go unwitnessed: a trace may be
                # rebuilt through the very system that just raised
                deadlock_states.clear()
            n_transitions += candidates
            n_enabled += enabled
            watcher.on_level(LevelEvent(
                level=n_levels, frontier=len(level), expanded=expanded,
                candidates=candidates, new_states=new_states,
                n_states=len(visited), n_transitions=n_transitions,
                deadlocks=deadlock_count, collisions=visited.collisions,
                approx_bytes=store_bytes(),
                seconds=time.perf_counter() - t0, enabled=enabled,
                spill_bytes=_store_spill_bytes(visited)))
            n_levels += 1
            level = next_level if stop_reason is None else []

        deadlocks = [Counterexample("deadlock-freedom", *build_trace(s))
                     for s in deadlock_states]
        result = ExplorationResult(
            system_name=name,
            n_states=len(visited),
            n_transitions=n_transitions,
            seconds=time.perf_counter() - t0,
            completed=stop_reason is None,
            stop_reason=stop_reason,
            deadlocks=deadlocks,
            deadlock_count=deadlock_count,
            violations=violations,
            graph=graph,
            approx_bytes=store_bytes(),
            store=visited.name,
            fingerprint_collisions=visited.collisions,
            n_enabled=n_enabled,
            depth=max(n_levels - 1, 0),
            reductions=reductions,
            spill_bytes=_store_spill_bytes(visited),
            spill_merges=int(getattr(visited, "spill_merges", 0)),
        )
        watcher.on_finish(result)
    finally:
        if collecting:
            gc.enable()
    if failure is not None:
        raise failure
    return result


def replay_actions(system: System, steps: list[Any]) -> list[Any]:
    """Rematerialize the state path of an action sequence from the root.

    Inverse of :meth:`~repro.check.store.FingerprintStore.
    action_trace`: transitions in these systems are deterministic per
    action label (a delivery action names the message and the node), so
    following the recorded actions through ``successors`` rebuilds the
    exact state sequence the classic parent-pointer walk would return.
    ``system`` must be the one the actions were recorded under, reducing
    wrappers included: a recorded action is one that wrapper offered at
    the recorded state, and under symmetry each state is its orbit's
    representative.

    :raises CheckError: when an action is not enabled where the sequence
        says it is — the sequence is not a run of ``system``.
    """
    states: list[Any] = [system.initial_state()]
    for action in steps:
        for cand_action, nxt in system.successors(states[-1]):
            if cand_action == action:
                states.append(nxt)
                break
        else:
            raise CheckError(f"action {action!r} is not enabled during "
                             "trace replay (store/system mismatch)")
    return states
