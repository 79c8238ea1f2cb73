"""Run observability for the explicit-state explorers.

Long reachability sweeps — the paper's Table 3 runs took SPIN minutes to
hours — are miserable to babysit blind.  This module defines the
:class:`RunObserver` protocol the explorer emits to, plus the two
consumers the CLI and benchmarks use:

* :class:`ProgressRenderer` prints one line per BFS level (frontier
  size, cumulative states, states/sec, dedup ratio, approximate bytes),
  the model checker's analogue of a progress bar;
* :class:`JsonProfileWriter` records the same events as a JSON document
  (schema ``repro.profile/5``) for offline analysis and for the CI
  benchmark artifact.

Profile JSON schema (``repro.profile/5``)::

    {
      "schema": "repro.profile/5",
      "run": {"name": ..., "store": "exact"|"fingerprint",
              "max_states": int|null,
              "max_seconds": float|null, "max_bytes": int|null,
              "reductions": ["symmetry"?, "por"?]},
      "levels": [ {"level": int, "frontier": int, "expanded": int,
                   "candidates": int, "enabled": int,
                   "new_states": int,
                   "n_states": int, "n_transitions": int,
                   "deadlocks": int, "collisions": int,
                   "approx_bytes": int, "spill_bytes": int,
                   "seconds": float,
                   "dedup_ratio": float, "states_per_sec": float,
                   "reduction_ratio": float}, ... ],
      "result": {"system": str, "store": str, "n_states": int,
                 "n_transitions": int, "n_enabled": int, "depth": int,
                 "deadlocks": int, "violations": int,
                 "fingerprint_collisions": int, "completed": bool,
                 "stop_reason": str|null, "reductions": [str, ...],
                 "seconds": float,
                 "approx_bytes": int, "spill_bytes": int,
                 "spill_merges": int,
                 "approx_bytes_detail": {"entries": int,
                                         "state_caches": int}|null}
    }

``result`` is :meth:`~repro.check.stats.ExplorationResult.counts` — the
run's deterministic facts, the same projection every ``BENCH_*.json`` row
is built from — plus what depends on the host, the store or the run's
label (``system``, ``store``, ``seconds``, the byte fields); the second
group is ``benchmarks/compare_bench.py``'s ``VOLATILE`` tuple.
``levels[].enabled`` and ``result.n_enabled`` equal the taken counts when
no reduction is active.  ``spill_bytes`` / ``spill_merges`` are the disk
tier of a ``--spill-dir`` fingerprint store (size of its sorted file,
merges of the hot dict into it), 0 otherwise.  ``approx_bytes_detail`` is
the exact store's entries-vs-memo-cache split, null for stores without
one.  ``/4`` documents also carried the store's layout — ``run.
partitions`` and a top-level ``partitions`` block of per-shard rows —
which went with in-process sharding; ``benchmarks/compare_bench.py``
never read either, so it compares a ``/4`` profile with a ``/5`` one.

``levels`` includes the partial level in flight when a budget, Ctrl-C
or an error ends the run (``result.stop_reason`` says which), so
profiles of "Unfinished" cells show exactly where the wall was hit.
Every event carries *cumulative* totals (``n_states`` etc.) next to the
per-level deltas (``frontier``/``candidates``/``new_states``) so
consumers need no reduction pass.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Optional, Protocol, Union

from .stats import ExplorationResult, _fmt_bytes

__all__ = [
    "RunInfo",
    "LevelEvent",
    "RunObserver",
    "NullObserver",
    "MultiObserver",
    "ProgressRenderer",
    "JsonProfileWriter",
    "PROFILE_SCHEMA",
]

PROFILE_SCHEMA = "repro.profile/5"


@dataclass(frozen=True)
class RunInfo:
    """Static facts about one exploration run, emitted before level 0."""

    name: str
    store: str
    max_states: Optional[int] = None
    max_seconds: Optional[float] = None
    #: active state-space reductions, inner wrapper first (e.g.
    #: ``("por", "symmetry")``); empty for full exploration
    reductions: tuple[str, ...] = ()
    #: memory budget on the store footprint estimate, None = unbounded
    max_bytes: Optional[int] = None


@dataclass(frozen=True)
class LevelEvent:
    """Statistics for one completed (or budget-truncated) BFS level."""

    #: 0-based level index (level 0 is the initial state alone)
    level: int
    #: states scheduled for expansion at this level
    frontier: int
    #: states actually expanded (< ``frontier`` only when truncated)
    expanded: int
    #: successor states examined (transitions taken) at this level
    candidates: int
    #: states first discovered at this level
    new_states: int
    #: cumulative distinct states in the store
    n_states: int
    #: cumulative transitions examined
    n_transitions: int
    #: cumulative deadlocked states
    deadlocks: int
    #: cumulative detected fingerprint collisions (0 for exact stores)
    collisions: int
    #: store footprint estimate after this level
    approx_bytes: int
    #: wall-clock seconds since the run started
    seconds: float
    #: transitions enabled at this level before any reduction pruned
    #: them (== ``candidates`` when no reduction is active)
    enabled: int = 0
    #: bytes spilled to disk after this level (0 for stores without a
    #: disk tier)
    spill_bytes: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Fraction of examined successors that were already visited."""
        if self.candidates == 0:
            return 0.0
        return 1.0 - self.new_states / self.candidates

    @property
    def reduction_ratio(self) -> float:
        """Fraction of enabled transitions pruned by reduction."""
        if self.enabled <= 0 or self.candidates >= self.enabled:
            return 0.0
        return 1.0 - self.candidates / self.enabled

    @property
    def states_per_sec(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.n_states / self.seconds


class RunObserver(Protocol):
    """What :func:`~repro.check.explorer.explore` reports to.  All
    methods are optional work for the consumer; the explorer calls every
    one exactly as documented: ``on_start`` once, ``on_level`` per
    (possibly partial) level in order, ``on_finish`` once with the final
    result — also when the run ends in an exception."""

    def on_start(self, run: RunInfo) -> None: ...

    def on_level(self, event: LevelEvent) -> None: ...

    def on_finish(self, result: ExplorationResult) -> None: ...


class NullObserver:
    """The do-nothing default."""

    def on_start(self, run: RunInfo) -> None:
        pass

    def on_level(self, event: LevelEvent) -> None:
        pass

    def on_finish(self, result: ExplorationResult) -> None:
        pass


class MultiObserver:
    """Fan one event stream out to several observers (CLI: progress
    lines *and* a profile file)."""

    def __init__(self, *observers: RunObserver) -> None:
        self.observers = tuple(observers)

    def on_start(self, run: RunInfo) -> None:
        for obs in self.observers:
            obs.on_start(run)

    def on_level(self, event: LevelEvent) -> None:
        for obs in self.observers:
            obs.on_level(event)

    def on_finish(self, result: ExplorationResult) -> None:
        for obs in self.observers:
            obs.on_finish(result)


class ProgressRenderer:
    """One human-readable line per level, SPIN-progress style."""

    def __init__(self, stream: Optional[IO[str]] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def on_start(self, run: RunInfo) -> None:
        budget = []
        if run.max_states is not None:
            budget.append(f"max_states={run.max_states}")
        if run.max_seconds is not None:
            budget.append(f"max_seconds={run.max_seconds}")
        if run.max_bytes is not None:
            budget.append(f"max_bytes={_fmt_bytes(run.max_bytes)}")
        suffix = f" [{', '.join(budget)}]" if budget else ""
        if run.reductions:
            suffix += f" [reductions: {'+'.join(run.reductions)}]"
        print(f"exploring {run.name} (store={run.store}){suffix}",
              file=self.stream)

    def on_level(self, event: LevelEvent) -> None:
        line = (f"  level {event.level:3d}: frontier {event.frontier:7d}  "
                f"states {event.n_states:8d}  "
                f"{event.states_per_sec:8.0f} st/s  "
                f"dedup {event.dedup_ratio:5.1%}  "
                f"mem {_fmt_bytes(event.approx_bytes)}")
        if event.spill_bytes:
            line += f"  spill {_fmt_bytes(event.spill_bytes)}"
        if event.reduction_ratio > 0:
            line += f"  reduced {event.reduction_ratio:5.1%}"
        if event.collisions:
            line += f"  collisions {event.collisions}"
        if event.expanded < event.frontier:
            line += f"  (truncated after {event.expanded})"
        print(line, file=self.stream)

    def on_finish(self, result: ExplorationResult) -> None:
        print(f"  done: {result.describe()}", file=self.stream)
        if result.fingerprint_collisions:
            print(f"  fingerprint collisions detected: "
                  f"{result.fingerprint_collisions} (lower bound on "
                  f"states hash compaction may have merged)",
                  file=self.stream)


class JsonProfileWriter:
    """Accumulate level events; write the profile JSON on finish."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._run: Optional[RunInfo] = None
        self._levels: list[LevelEvent] = []

    def on_start(self, run: RunInfo) -> None:
        self._run = run
        self._levels = []

    def on_level(self, event: LevelEvent) -> None:
        self._levels.append(event)

    def on_finish(self, result: ExplorationResult) -> None:
        self.path.write_text(json.dumps(self.profile(result), indent=2)
                             + "\n")

    def profile(self, result: ExplorationResult) -> dict[str, object]:
        """The profile document as a plain dict (what gets written)."""
        levels = []
        for event in self._levels:
            record = asdict(event)
            record["dedup_ratio"] = event.dedup_ratio
            record["states_per_sec"] = event.states_per_sec
            record["reduction_ratio"] = event.reduction_ratio
            levels.append(record)
        run: Optional[dict[str, object]] = None
        if self._run is not None:
            run = asdict(self._run)
            run["reductions"] = list(self._run.reductions)
        return {
            "schema": PROFILE_SCHEMA,
            "run": run,
            "levels": levels,
            "result": {
                "system": result.system_name,
                "store": result.store,
                **result.counts(),
                "seconds": result.seconds,
                "approx_bytes": result.approx_bytes,
                "spill_bytes": result.spill_bytes,
                "spill_merges": result.spill_merges,
                "approx_bytes_detail": result.approx_bytes_detail,
            },
        }
