"""Result and statistics records for model-checking runs.

The paper's Table 3 reports, per protocol/level/node-count, the number of
states visited and the wall time of the reachability analysis, with
"Unfinished" for runs that exhausted the 64 MB memory allotment.
:class:`ExplorationResult` carries exactly those quantities (plus enough
extra structure for the property checkers), and renders itself in the
paper's ``states/seconds`` cell format.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["ExplorationResult", "Counterexample", "StateGraph"]


def _fmt_bytes(n: int) -> str:
    """Human-readable byte count (shared by narration and renderers)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GiB"  # pragma: no cover - loop always returns


@dataclass
class Counterexample:
    """A finite trace witnessing a property violation.

    ``steps`` is the action sequence from the initial state; ``states`` the
    corresponding state sequence (one longer than ``steps``).  A store
    without provenance yields the state-only form: ``states`` is the
    violating state alone, ``steps`` is empty.
    """

    property_name: str
    states: list[Any]
    steps: list[Any]
    #: why a witness that should have had a path is state-only (a
    #: fingerprint store's recorded path did not replay to the state)
    note: Optional[str] = None

    def describe(self) -> str:
        lines = [f"counterexample to {self.property_name!r} "
                 f"({len(self.steps)} steps):"]
        if self.note:
            lines.append(f"  [{self.note}]")
        for idx, action in enumerate(self.steps):
            state = self.states[idx]
            lines.append(f"  {idx:3d}. {_describe(state)}")
            lines.append(f"       --[{_describe(action)}]-->")
        lines.append(f"  {len(self.steps):3d}. {_describe(self.states[-1])}")
        return "\n".join(lines)


def _describe(obj: Any) -> str:
    describe = getattr(obj, "describe", None)
    return describe() if callable(describe) else repr(obj)


@dataclass
class StateGraph:
    """The explored graph as integers: states are store ids (BFS order),
    the out-edges of state ``i`` are ``targets[offsets[i]:offsets[i + 1]]``
    (CSR form) and edge ``e`` has one label bit, ``labels[e]``.  A
    truncated sweep's graph covers the states it expanded."""

    offsets: array[int] = field(default_factory=lambda: array("q", [0]))
    targets: array[int] = field(default_factory=lambda: array("q"))
    labels: bytearray = field(default_factory=bytearray)

    def __len__(self) -> int:  # states expanded
        return len(self.offsets) - 1

    def successors(self, state_id: int) -> array[int]:
        return self.targets[self.offsets[state_id]:self.offsets[state_id + 1]]

    def nbytes(self) -> int:
        return 8 * (len(self.offsets) + len(self.targets)) + len(self.labels)


@dataclass
class ExplorationResult:
    """Outcome of one reachability run (one Table 3 cell)."""

    system_name: str
    n_states: int
    n_transitions: int
    seconds: float
    completed: bool
    #: why the run stopped early, when ``completed`` is False
    stop_reason: Optional[str] = None
    #: states with no outgoing transitions (deadlocks at this level); a
    #: run closed by an interrupt or an error reports the count only (see
    #: ``deadlock_count``), keeping this list empty
    deadlocks: list[Any] = field(default_factory=list)
    #: number of deadlocked states found; authoritative even when the
    #: ``deadlocks`` witness list is empty
    deadlock_count: int = 0
    #: first counterexample per violated invariant
    violations: list[Counterexample] = field(default_factory=list)
    #: the labelled id graph of a sweep given an ``edge_label`` (what
    #: progress and response read; the store maps ids back to states)
    graph: Optional[StateGraph] = None
    #: rough memory footprint of the visited-state set (and ``graph``),
    #: for the Table 3 memory-budget narrative (Python object sizes, not
    #: SPIN's); metered by the store (:mod:`repro.check.store`)
    approx_bytes: int = 0
    #: which visited-state store ran: ``"exact"`` or ``"fingerprint"``
    store: str = "exact"
    #: fingerprint collisions *detected* by the hash-compaction store's
    #: second hash; each one is a distinct state the run treated as
    #: already visited, i.e. a lower bound on under-exploration.  Always
    #: 0 for exact stores.
    fingerprint_collisions: int = 0
    #: transitions enabled before reduction pruned them; equals
    #: ``n_transitions`` when no reduction was active
    n_enabled: int = 0
    #: index of the last BFS level the sweep reported (the partial level
    #: of a truncated run included)
    depth: int = 0
    #: state-space reductions active during the run, inner wrapper
    #: first (e.g. ``("por", "symmetry")``)
    reductions: tuple[str, ...] = ()
    #: bytes the store spilled to disk (mmap cold tier); 0 for purely
    #: resident stores
    spill_bytes: int = 0
    #: how many times the store merged its hot tier into the spill file
    spill_merges: int = 0

    def __post_init__(self) -> None:
        if self.deadlocks and self.deadlock_count < len(self.deadlocks):
            self.deadlock_count = len(self.deadlocks)
        if not self.n_enabled:
            self.n_enabled = self.n_transitions

    @property
    def ok(self) -> bool:
        """Completed with no deadlocks and no invariant violations."""
        return (self.completed and not self.deadlock_count
                and not self.violations)

    def counts(self) -> dict[str, Any]:
        """The run's deterministic facts, the one projection of a result
        that profiles and ``BENCH_*.json`` rows are built from: equal on
        every host, store and hash seed, which time, bytes and store
        layout are not."""
        return {
            "n_states": self.n_states,
            "n_transitions": self.n_transitions,
            "n_enabled": self.n_enabled,
            "depth": self.depth,
            "deadlocks": self.deadlock_count,
            "violations": len(self.violations),
            "fingerprint_collisions": self.fingerprint_collisions,
            "completed": self.completed,
            "stop_reason": self.stop_reason,
            "reductions": list(self.reductions),
        }

    def cell(self) -> str:
        """Render as ``states/seconds``, or ``Unfinished``."""
        if not self.completed:
            return "Unfinished"
        return f"{self.n_states}/{self.seconds:.2f}"

    def describe(self) -> str:
        status = "complete" if self.completed else \
            f"UNFINISHED ({self.stop_reason})"
        extra = ""
        if self.deadlock_count:
            extra += f", {self.deadlock_count} deadlock state(s)"
        if self.violations:
            names = ", ".join(v.property_name for v in self.violations)
            extra += f", violations: {names}"
        if self.store != "exact":
            extra += (f", {self.store} store"
                      f" ({self.fingerprint_collisions} collision(s))")
        if self.reductions:
            extra += f", reductions: {'+'.join(self.reductions)}"
            if self.n_enabled > self.n_transitions:
                pruned = 1.0 - self.n_transitions / self.n_enabled
                extra += f" (pruned {pruned:.1%} of enabled transitions)"
        if self.approx_bytes:
            # the store's own footprint estimate — the same number the
            # memory budget is checked against
            extra += f", ~{_fmt_bytes(self.approx_bytes)} visited set"
            if self.spill_bytes:
                extra += (f" + {_fmt_bytes(self.spill_bytes)} spilled"
                          f" ({self.spill_merges} merge(s))")
        return (f"{self.system_name}: {self.n_states} states, "
                f"{self.n_transitions} transitions in {self.seconds:.2f}s "
                f"[{status}]{extra}")
