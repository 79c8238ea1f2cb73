"""Owner-computes partitioned exploration (distributed-SPIN style).

The sequential explorer (:func:`repro.check.explorer.explore`) keeps ONE
visited store in one process, so that process's dict insertions and RAM
bound the whole run.  This module shards the visited set by fingerprint
range (:func:`repro.check.store.partition_index`) and gives each
worker process one partition to *own* outright — its hot dict, its mmap
spill file, its admission decisions.  The master never touches a state.

One BFS level proceeds in four beats, all at the level-synchronous
barrier the sequential sweep makes explicit:

1. **Expand.**  Every worker expands its slice of the frontier (each
   frontier state carries a global index ``g`` fixed at the previous
   barrier), routes each successor to its owner by fingerprint, and
   sends one candidate batch ``[(g, j, state), ...]`` per peer (``j`` =
   the successor's index within ``g``'s successor list).  Per-source
   ``(enabled, taken)`` counts go to the master.
2. **Simulate.**  Each owner sorts the candidates it received by
   ``(g, j)`` — the exact order the sequential explorer would meet them
   — and *simulates* admission against its partition (membership probe
   plus a staged-set overlay, no mutation), reporting how many states
   would be first-discovered per ``g``.
3. **Replay.**  The master walks ``g = 0..frontier-1`` in order,
   consulting the shared :class:`~repro.check.explorer.ExplorationCore`
   budget check before each source — the same point the sequential loop
   checks — and accumulating transition/deadlock/new-state counts.  The
   first ``g`` that trips a budget becomes the cutoff ``k``.
4. **Commit.**  Workers admit exactly the candidates with ``g < k``
   into their stores (replaying them in ``(g, j)`` order, so collision
   accounting matches too), report the ``(g, j)`` positions of their
   new states, and the master merge-sorts all positions into the global
   index assignment of the next frontier.

Because a state's owner is a pure function of its fingerprint, each
membership decision happens in exactly one place, and because staged
admissions are ordered by ``(g, j)``, "first discovery" is resolved
identically to the sequential sweep — so ``n_states``,
``n_transitions``, ``deadlock_count``, ``completed`` and ``stop_reason``
are **byte-identical** to :func:`repro.check.explorer.explore`,
including runs truncated mid-level by ``max_states``.  (Wall-clock and
memory budgets remain machine-dependent, as in every driver.)

The payoff: per-state memory lives only in the owning worker (each
bounded by its hot tier + spill threshold), and the master's per-level
work is O(frontier) integers.  The cost is one pickled batch per peer
per level; on the hosts measured so far (1 and 2 cpus, EXPERIMENTS.md)
that costs more than the second process earns, so the sequential
explorer is faster there — use the in-process partitioned store via
``--partitions`` *without* ``--parallel`` when only the memory ceiling
matters.
"""

from __future__ import annotations

import multiprocessing
import os
from queue import Empty
from typing import Any, Hashable, Optional, Sequence, Union

from ..errors import CheckError
from .explorer import ExplorationCore, expand_state, explore
from .observe import RunObserver
from .spec import SystemSpec, build_system, shippable_spec
from .stats import ExplorationResult
from .store import make_store, partition_of

__all__ = ["explore_partitioned"]

#: seconds the master waits on its queue before re-checking that all
#: partition workers are still alive
_POLL_SECONDS = 2.0


class _Mailbox:
    """A queue wrapper that buffers out-of-kind messages.

    Messages from different senders interleave arbitrarily on one
    queue; a worker waiting for the master's ``assign`` may receive a
    fast peer's next-level ``cand`` first.  ``take`` returns the first
    message of a wanted kind and parks everything else for later.
    """

    def __init__(self, queue: Any,
                 procs: Optional[Sequence[Any]] = None) -> None:
        self._queue = queue
        self._pending: list[tuple[Any, ...]] = []
        self._procs = procs

    def take(self, kinds: tuple[str, ...]) -> tuple[Any, ...]:
        pending = self._pending
        for i, msg in enumerate(pending):
            if msg[0] in kinds:
                return pending.pop(i)
        while True:
            try:
                msg = self._queue.get(timeout=_POLL_SECONDS)
            except Empty:
                if self._procs is not None and not all(
                        p.is_alive() for p in self._procs):
                    raise CheckError(
                        "a partition worker died; partitioned "
                        "exploration cannot continue") from None
                continue
            if msg[0] == "error":  # a worker's CheckError, in its words
                raise CheckError(msg[1])
            if msg[0] in kinds:
                return msg
            pending.append(msg)


# -- worker side -------------------------------------------------------------


def _partition_worker(wid: int, partitions: int, spec: SystemSpec,
                      kind: str, bits: int, spill_dir: Optional[str],
                      spill_threshold: int, inboxes: Sequence[Any],
                      master_queue: Any) -> None:
    """Own one visited-set partition for the whole run."""
    system = build_system(spec)
    # one range, one process: a single-partition store in a private directory
    store = make_store(
        kind, 1, bits=bits, spill_threshold=spill_threshold,
        spill_dir=(None if spill_dir is None
                   else os.path.join(spill_dir, f"worker-{wid:04d}")))
    inbox = _Mailbox(inboxes[wid])
    exchanged_batches = 0
    exchanged_states = 0
    received_candidates = 0

    # seed: the initial state belongs to exactly one owner
    init = system.initial_state()
    frontier_slice: list[tuple[int, Hashable]] = []
    if partition_of(init, partitions) == wid:
        store.add(init, None)
        frontier_slice = [(0, init)]

    while True:
        msg = inbox.take(("expand", "finish", "exit"))
        if msg[0] == "exit":
            break
        if msg[0] == "finish":
            rows = store.partition_rows()  # type: ignore[attr-defined]
            row = dict(rows[0])
            row["partition"] = wid
            row["exchanged_batches"] = exchanged_batches
            row["exchanged_states"] = exchanged_states
            row["received_candidates"] = received_candidates
            master_queue.put(("rows", wid, row))
            continue

        # 1. expand the owned slice, route successors to their owners
        source_stats: list[tuple[int, int, int]] = []
        outbound: list[list[tuple[int, int, Hashable]]] = [
            [] for _ in range(partitions)]
        for g, state in frontier_slice:
            successors, enabled = expand_state(system, state)
            source_stats.append((g, enabled, len(successors)))
            for j, (_action, nxt) in enumerate(successors):
                outbound[partition_of(nxt, partitions)].append((g, j, nxt))
        for peer in range(partitions):
            if peer == wid:
                continue
            batch = outbound[peer]
            if batch:
                exchanged_batches += 1
                exchanged_states += len(batch)
            inboxes[peer].put(("cand", wid, batch))
        master_queue.put(("expanded", wid, source_stats))

        # 2. collect candidates, simulate admission in sequential order
        candidates = outbound[wid]
        for _ in range(partitions - 1):
            candidates.extend(inbox.take(("cand",))[2])
        received_candidates += len(candidates)
        candidates.sort(key=lambda c: (c[0], c[1]))
        staged: set[Hashable] = set()
        admitted: dict[int, int] = {}
        for g, _j, state in candidates:
            key, present = store.probe(state)  # type: ignore[attr-defined]
            if present or key in staged:
                continue
            staged.add(key)
            admitted[g] = admitted.get(g, 0) + 1
        master_queue.put(("admitted", wid, admitted))

        # 4. commit up to the master's cutoff; report new positions
        cutoff = int(inbox.take(("cutoff",))[1])
        new_states: list[Hashable] = []
        positions: list[tuple[int, int]] = []
        for g, j, state in candidates:
            if g >= cutoff:
                break  # candidates are (g, j)-sorted
            if store.add(state, None):
                positions.append((g, j))
                new_states.append(state)
        spill = getattr(store, "spill_bytes", None)
        master_queue.put(("level", wid, positions, len(store),
                          store.approx_bytes(), store.collisions,
                          int(spill()) if callable(spill) else 0))

        # receive next-level global indices for the states this
        # partition contributed
        indices = inbox.take(("assign",))[1]
        frontier_slice = list(zip(indices, new_states))


def _worker_main(*args: Any) -> None:
    """Process main: a :class:`CheckError` here is the master's to raise."""
    try:
        _partition_worker(*args)
    except CheckError as exc:
        args[-1].put(("error", str(exc)))  # args[-1]: the master's queue


# -- driver ------------------------------------------------------------------


def explore_partitioned(
    spec: SystemSpec,
    *,
    partitions: Optional[int] = None,
    max_states: Optional[int] = None,
    max_seconds: Optional[float] = None,
    max_bytes: Optional[int] = None,
    allow_deadlock: bool = False,
    store: str = "exact",
    bits: int = 64,
    spill_dir: Optional[Union[str, os.PathLike[str]]] = None,
    spill_threshold: int = 1 << 20,
    observer: Optional[RunObserver] = None,
    start_method: Optional[str] = None,
) -> ExplorationResult:
    """Owner-computes BFS: one worker process per visited-set partition.

    Counts (``n_states``, ``n_transitions``, ``deadlock_count``) and
    ``stop_reason`` are byte-identical to
    :func:`repro.check.explorer.explore`, including
    ``max_states``-truncated runs — see the module docstring for the
    admission-ordering argument.  Traces are not built (the states live
    sharded across processes); invariant checking stays a sequential
    feature.

    :param partitions: worker/partition count; defaults to CPU count - 1
        (floor 2).  ``1`` degenerates to the sequential explorer over a
        single-partition store.
    :param store: ``"exact"`` (delta-compressed) or ``"fingerprint"``
        (hash compaction; the only kind that can spill).
    :param bits: fingerprint truncation hook for collision tests.
    :param spill_dir: directory for mmap spill files (fingerprint store
        only); each worker gets a private subdirectory.
    :param spill_threshold: hot-tier entries per partition before a
        merge to disk.
    :param start_method: multiprocessing start method
        (``"fork"``/``"spawn"``/``"forkserver"``); None = platform
        default.
    """
    if store not in ("exact", "fingerprint"):
        raise ValueError(f"unknown store {store!r}; partitioned workers "
                         "need a store kind name, not an instance")
    if spill_dir is not None and store != "fingerprint":
        raise ValueError("spill_dir applies to the fingerprint store; the "
                         "delta-compressed exact store keeps keys resident")
    partitions = partitions or max(2, (os.cpu_count() or 2) - 1)
    name = f"{spec.protocol}-{spec.level}-{spec.n_remotes}-partitioned"
    spill_path = None if spill_dir is None else os.fspath(spill_dir)
    if partitions == 1:
        return explore(
            build_system(spec), name=name, max_states=max_states,
            max_seconds=max_seconds, max_bytes=max_bytes,
            allow_deadlock=allow_deadlock,
            store=make_store(store, 1, bits=bits, spill_dir=spill_path,
                             spill_threshold=spill_threshold),
            observer=observer, reductions=spec.reductions())

    context = multiprocessing.get_context(start_method)
    inboxes = [context.Queue() for _ in range(partitions)]
    master_queue = context.Queue()
    view = _DistributedView(store, partitions)
    core = ExplorationCore(name=name, store=view, observer=observer,
                           max_states=max_states, max_seconds=max_seconds,
                           max_bytes=max_bytes, workers=partitions,
                           reductions=spec.reductions())
    shipped = shippable_spec(spec)
    procs = [
        context.Process(
            target=_worker_main,
            args=(wid, partitions, shipped, store, bits, spill_path,
                  spill_threshold, inboxes, master_queue),
            daemon=True, name=f"partition-{wid}")
        for wid in range(partitions)
    ]
    for proc in procs:
        proc.start()
    core.start()
    master = _Mailbox(master_queue, procs)
    view.count = 1  # the seeded initial state, owned by one worker

    frontier = 1
    level_index = 0
    stopped = False
    try:
        while frontier and not stopped:
            for inbox in inboxes:
                inbox.put(("expand",))

            stats_by_g: dict[int, tuple[int, int]] = {}
            for _ in range(partitions):
                msg = master.take(("expanded",))
                for g, enabled, taken in msg[2]:
                    stats_by_g[g] = (enabled, taken)
            admitted_by_g: dict[int, int] = {}
            for _ in range(partitions):
                msg = master.take(("admitted",))
                for g, count in msg[2].items():
                    admitted_by_g[g] = admitted_by_g.get(g, 0) + count

            # 3. the replay point: identical to where the sequential
            # loop consults the budget before expanding the same state
            cutoff = frontier
            expanded = candidates = new_states = enabled_total = 0
            for g in range(frontier):
                if core.should_stop():
                    stopped = True
                    cutoff = g
                    break
                enabled, taken = stats_by_g[g]
                expanded += 1
                core.n_transitions += taken
                core.n_enabled += enabled
                candidates += taken
                enabled_total += enabled
                if taken == 0 and not allow_deadlock:
                    core.deadlock_count += 1
                admitted = admitted_by_g.get(g, 0)
                new_states += admitted
                view.count += admitted

            for inbox in inboxes:
                inbox.put(("cutoff", cutoff))

            positions_by_wid: dict[int, list[tuple[int, int]]] = {}
            all_positions: list[tuple[int, int]] = []
            owned_total = approx_total = spill_total = collisions_total = 0
            for _ in range(partitions):
                msg = master.take(("level",))
                _, wid, positions, owned, approx, collisions, spilled = msg
                positions_by_wid[wid] = positions
                all_positions.extend(positions)
                owned_total += owned
                approx_total += approx
                collisions_total += collisions
                spill_total += spilled
            view.approx = approx_total
            view.spill = spill_total
            view.collisions = collisions_total
            assert owned_total == view.count, (
                f"partition ownership drifted: workers own {owned_total} "
                f"states, replay admitted {view.count}")

            # merge the (g, j) positions into next-level global indices
            all_positions.sort()
            rank = {pos: i for i, pos in enumerate(all_positions)}
            for wid in range(partitions):
                inboxes[wid].put(
                    ("assign", [rank[p] for p in positions_by_wid[wid]]))

            core.level_done(level_index, frontier, expanded, candidates,
                            new_states, enabled_total)
            level_index += 1
            frontier = len(all_positions)

        for inbox in inboxes:
            inbox.put(("finish",))
        rows_by_wid: dict[int, dict[str, Any]] = {}
        for _ in range(partitions):
            msg = master.take(("rows",))
            rows_by_wid[msg[1]] = msg[2]
        view.rows = [rows_by_wid[wid] for wid in range(partitions)]
    except BaseException:
        # a worker blocked on a batch from a dead peer never reads "exit"
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for inbox in inboxes:
            try:
                inbox.put(("exit",))
            except Exception:
                pass
        for proc in procs:
            proc.join(timeout=10)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for q in [master_queue, *inboxes]:
            q.close()
            q.cancel_join_thread()

    return core.result()


class _DistributedView:
    """The master's store facade: aggregate counters, no states.

    The :class:`~repro.check.explorer.ExplorationCore` consults its
    store for ``len`` (state budget), ``approx_bytes`` (memory budget)
    and ``collisions``; under owner-computes those live sharded across
    worker processes, so the master holds this view, updated from
    worker reports — ``count`` during the in-level replay (so budget
    trips mid-level exactly like the sequential driver), the byte/
    collision aggregates at each level barrier.
    """

    supports_traces = False

    def __init__(self, kind: str, partitions: int) -> None:
        self.name = kind
        self.partitions = partitions
        self.collisions = 0
        self.count = 0
        self.approx = 0
        self.spill = 0
        self.rows: list[dict[str, Any]] = []

    def add(self, state: Hashable, parent: Any = None) -> bool:
        raise RuntimeError("the master never admits states under "
                           "owner-computes; workers own the partitions")

    def __len__(self) -> int:
        return self.count

    def __contains__(self, state: Hashable) -> bool:
        raise RuntimeError("membership lives in the partition owners")

    def parent_of(self, state: Hashable) -> Any:
        raise KeyError("owner-computes keeps no master-side states")

    def approx_bytes(self) -> int:
        return self.approx

    def spill_bytes(self) -> int:
        return self.spill

    def partition_rows(self) -> list[dict[str, Any]]:
        return list(self.rows)
