"""Span recorder and layer proxies for the traced run.

The benchmark traces the program from outside: nothing here is imported by
``repro``.  A :class:`Recorder` keeps a stack of open spans; proxies around
each layer's public entry points open one span per call.  Spans carry name,
start, end, parent and run id.  The *coarse* ones (``explore``, ``refine``,
a whole analysis) are kept as they are; the per-state ones (a successor
expansion, a store ``add``) would number millions, so they are folded as
they close into one record per (run, layer, BFS level): count, total ns,
self ns and max ns.  A span's **self time** is its duration minus the part
its child spans cover, so the self times under one root add up to the root.

Tracing is never on during a timed run; the traced pass is a separate run
and ``trace.overhead_ratio`` says what the spans cost.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator, Optional


class Recorder:
    """In-memory span store; written out once, when the benchmark ends."""

    def __init__(self) -> None:
        #: id of the command being traced (spans of one command share it)
        self.run = 0
        #: BFS level of the exploration in flight (see :class:`LevelClock`)
        self.level = 0
        #: open spans, innermost last: [name, child_ns, start_ns]
        self._stack: list[list[Any]] = []
        #: (run, layer, level) -> [count, total_ns, self_ns, max_ns]
        self.records: dict[tuple[int, str, int], list[int]] = {}
        #: coarse spans, whole
        self.spans: list[dict[str, Any]] = []

    def call(self, layer: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` inside a per-state span of ``layer``."""
        stack = self._stack
        frame = [layer, 0, perf_counter_ns()]
        stack.append(frame)
        try:
            return fn(*args)
        finally:
            duration = perf_counter_ns() - frame[2]
            stack.pop()
            if stack:
                stack[-1][1] += duration
            key = (self.run, layer, self.level)
            record = self.records.get(key)
            if record is None:
                self.records[key] = [1, duration, duration - frame[1],
                                     duration]
            else:
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                if duration > record[3]:
                    record[3] = duration

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        """A coarse span, kept whole; yields its record (filled on exit)."""
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0, perf_counter_ns()]
        stack.append(frame)
        record: dict[str, Any] = {"name": name, "run": self.run,
                                  "parent": parent, "start_ns": frame[2]}
        try:
            yield record
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - frame[2]
            if stack:
                stack[-1][1] += duration
            record.update(end_ns=end, total_ns=duration,
                          self_ns=duration - frame[1])
            self.spans.append(record)

    # -- read-out ----------------------------------------------------------

    def layer_totals(self, layer: str) -> tuple[int, int, int]:
        """(calls, total ns, self ns) of a per-state layer, all runs."""
        calls = total = self_ns = 0
        for (_run, name, _level), rec in self.records.items():
            if name == layer:
                calls += rec[0]
                total += rec[1]
                self_ns += rec[2]
        return calls, total, self_ns

    def span_totals(self, name: str) -> tuple[int, int, int]:
        """(count, total ns, self ns) of the coarse spans called ``name``."""
        hits = [s for s in self.spans if s["name"] == name]
        return (len(hits), sum(s["total_ns"] for s in hits),
                sum(s["self_ns"] for s in hits))

    def as_dict(self) -> dict[str, Any]:
        return {
            "spans": self.spans,
            "levels": [
                {"run": run, "layer": layer, "level": level,
                 "count": rec[0], "total_ns": rec[1], "self_ns": rec[2],
                 "max_ns": rec[3]}
                for (run, layer, level), rec in sorted(self.records.items())],
        }


class LevelClock:
    """A ``RunObserver`` that tells the recorder which BFS level is open."""

    def __init__(self, recorder: Recorder) -> None:
        self._recorder = recorder
        self.levels = 0

    def on_start(self, run: Any) -> None:
        self._recorder.level = 0

    def on_level(self, event: Any) -> None:
        self.levels += 1
        self._recorder.level = event.level + 1

    def on_finish(self, result: Any) -> None:
        self._recorder.level = 0


class TracedSystem:
    """Proxy around one system layer: a span and counts per expansion.

    Forwards the surface the explorer, the reduction wrappers and the
    simulator use (``initial_state/successors/steps/expand/n_remotes/
    engine/inner`` and, through ``__getattr__``, anything else).  ``expand``
    exists only when the wrapped layer has it, because the explorer picks
    its expansion path by that attribute.
    """

    def __init__(self, inner: Any, layer: str, recorder: Recorder,
                 below: Optional["TracedSystem"] = None) -> None:
        self.inner = inner
        self.layer = layer
        self._recorder = recorder
        #: the traced layer directly underneath (for ``moved``)
        self._below = below
        self.calls = 0
        #: successors (or steps) returned
        self.produced = 0
        #: transitions enabled before this layer pruned any
        self.enabled = 0
        #: expansions that returned a single ample successor of several
        self.singletons = 0
        #: successors that are a different object than the one the layer
        #: underneath returned (symmetry: the representative moved)
        self.moved = 0
        self._last: list[Any] = []
        if hasattr(inner, "expand"):
            self.expand = self._expand

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def initial_state(self) -> Any:
        return self.inner.initial_state()

    def _count(self, out: list[Any]) -> None:
        self.calls += 1
        self.produced += len(out)
        self._last = out
        below = self._below
        if below is not None and len(below._last) == len(out):
            self.moved += sum(1 for mine, theirs in zip(out, below._last)
                              if mine[1] is not theirs[1])

    def successors(self, state: Any) -> list[Any]:
        out = self._recorder.call(self.layer, self.inner.successors, state)
        self._count(out)
        self.enabled += len(out)
        return out

    def steps(self, state: Any) -> list[Any]:
        out = self._recorder.call(self.layer, self.inner.steps, state)
        self.calls += 1
        self.produced += len(out)
        return out

    def _expand(self, state: Any) -> tuple[list[Any], int]:
        out, enabled = self._recorder.call(self.layer, self.inner.expand,
                                           state)
        self._count(out)
        self.enabled += enabled
        if len(out) == 1 and enabled > 1:
            self.singletons += 1
        return out, enabled


class TracedStore:
    """Proxy around a visited-state store: one span per ``add``."""

    def __init__(self, inner: Any, recorder: Recorder) -> None:
        self.inner = inner
        self._recorder = recorder
        self.name = inner.name
        self.supports_traces = inner.supports_traces
        self.adds = 0
        self.fresh = 0

    def __getattr__(self, name: str) -> Any:
        # partitions, spill_bytes, partition_rows, approx_bytes_detail, ...
        return getattr(self.inner, name)

    @property
    def collisions(self) -> int:
        return self.inner.collisions

    def add(self, state: Any, parent: Any = None) -> bool:
        is_new = self._recorder.call("check.store", self.inner.add, state,
                                     parent)
        self.adds += 1
        if is_new:
            self.fresh += 1
        return is_new

    def __len__(self) -> int:
        return len(self.inner)

    def __contains__(self, state: Any) -> bool:
        return state in self.inner

    def parent_of(self, state: Any) -> Any:
        return self.inner.parent_of(state)

    def approx_bytes(self) -> int:
        return self.inner.approx_bytes()


#: class name of a system layer -> the metric prefix of its spans
_LAYER_OF = {
    "SymmetricSystem": "check.symmetry",
    "PORSystem": "check.por",
    "RendezvousSystem": "semantics.rendezvous",
}


def layer_name(system: Any) -> str:
    """The module-style layer name of one (unwrapped) system object."""
    name = type(system).__name__
    if name == "AsyncSystem":
        return ("refine.compiled" if system.engine == "compiled"
                else "semantics.asynchronous")
    return _LAYER_OF.get(name, name)


def instrument(system: Any, recorder: Recorder,
               ) -> tuple[TracedSystem, dict[str, TracedSystem]]:
    """Put a :class:`TracedSystem` around every layer of ``system``.

    Walks the ``inner`` chain of the reduction wrappers from the innermost
    layer out, swapping each wrapper's ``inner`` for the proxy of the layer
    below (the wrappers look ``self.inner`` up on every call, so the swap
    takes effect without touching their code).  Returns the outermost proxy
    and the proxies by layer name.
    """
    chain = [system]
    while getattr(chain[-1], "inner", None) is not None:
        chain.append(chain[-1].inner)
    proxies: dict[str, TracedSystem] = {}
    below: Optional[TracedSystem] = None
    for layer in reversed(chain):
        if below is not None:
            layer.inner = below
        below = TracedSystem(layer, layer_name(layer), recorder, below)
        proxies[below.layer] = below
    assert below is not None
    return below, proxies
