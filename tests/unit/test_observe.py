"""Unit tests for run observability (repro.check.observe)."""

import io
import json

import pytest

from repro.check.explorer import explore
from repro.check.observe import (
    PROFILE_SCHEMA,
    JsonProfileWriter,
    LevelEvent,
    MultiObserver,
    ProgressRenderer,
    RunInfo,
)

from .test_compare_bench import compare_bench  # benchmarks/compare_bench.py


class ChainSystem:
    def __init__(self, n, loop=False):
        self.n = n
        self.loop = loop

    def initial_state(self):
        return 0

    def successors(self, state):
        if state < self.n:
            return [(("step", state), state + 1)]
        return [(("loop", state), 0)] if self.loop else []


class Recorder:
    def __init__(self):
        self.runs, self.levels, self.results = [], [], []

    def on_start(self, run):
        self.runs.append(run)

    def on_level(self, event):
        self.levels.append(event)

    def on_finish(self, result):
        self.results.append(result)


class TestEventStream:
    def test_level_events_cover_the_run(self):
        rec = Recorder()
        result = explore(ChainSystem(9, loop=True), name="chain",
                         observer=rec)
        assert [r.name for r in rec.runs] == ["chain"]
        assert rec.results == [result]
        # a 10-state cycle explored from 0: one state per level
        assert len(rec.levels) == 10
        assert sum(e.new_states for e in rec.levels) + 1 == result.n_states
        assert sum(e.candidates for e in rec.levels) == result.n_transitions
        assert rec.levels[-1].n_states == result.n_states
        assert [e.level for e in rec.levels] == list(range(10))

    def test_truncated_run_reports_partial_level(self):
        rec = Recorder()
        result = explore(ChainSystem(1000, loop=True), max_states=5,
                         observer=rec)
        assert not result.completed
        last = rec.levels[-1]
        assert last.expanded < last.frontier or last.expanded == 0

    @pytest.mark.parametrize("exc,reason", [
        (KeyboardInterrupt(), "interrupted"),
        (RuntimeError("boom"), "error: boom"),
    ], ids=["ctrl-c", "error"])
    def test_interrupted_run_is_closed_then_reraised(self, exc, reason):
        # Ctrl-C or an error mid-sweep leaves explore() only after the
        # run was closed the way a budget stop closes it
        class Failing(ChainSystem):
            def successors(self, state):
                if state == 5:
                    raise exc
                return super().successors(state)

        rec = Recorder()
        with pytest.raises(type(exc)) as excinfo:
            explore(Failing(10), name="chain", observer=rec)
        assert excinfo.value is exc  # not swallowed, not wrapped
        [result] = rec.results
        assert not result.completed and result.stop_reason == reason
        assert result.n_states == 6 and result.n_transitions == 5
        assert [e.level for e in rec.levels] == list(range(6))
        in_flight = rec.levels[-1]
        assert (in_flight.frontier, in_flight.expanded) == (1, 0)

    def test_failed_run_counts_its_deadlocks_without_tracing_them(self):
        class Failing:
            def initial_state(self):
                return 0

            def successors(self, state):
                if state == 2:
                    raise RuntimeError("boom")
                return {0: [("a", 1), ("b", 2)], 1: []}[state]

        rec = Recorder()
        with pytest.raises(RuntimeError):
            explore(Failing(), observer=rec)
        [result] = rec.results
        assert result.deadlock_count == 1 and result.deadlocks == []

    def test_dedup_ratio_and_rates(self):
        event = LevelEvent(level=1, frontier=4, expanded=4, candidates=10,
                           new_states=4, n_states=8, n_transitions=20,
                           deadlocks=0, collisions=0, approx_bytes=100,
                           seconds=2.0)
        assert event.dedup_ratio == 0.6
        assert event.states_per_sec == 4.0
        empty = LevelEvent(level=0, frontier=1, expanded=1, candidates=0,
                           new_states=0, n_states=1, n_transitions=0,
                           deadlocks=0, collisions=0, approx_bytes=0,
                           seconds=0.0)
        assert empty.dedup_ratio == 0.0
        assert empty.states_per_sec == 0.0


class TestProgressRenderer:
    def test_renders_start_levels_finish(self):
        buf = io.StringIO()
        explore(ChainSystem(5, loop=True), name="tiny",
                observer=ProgressRenderer(buf), max_states=3)
        text = buf.getvalue()
        assert "exploring tiny" in text
        assert "max_states=3" in text
        assert "level   0" in text
        assert "UNFINISHED" in text

    def test_mentions_collisions_when_present(self):
        buf = io.StringIO()
        renderer = ProgressRenderer(buf)
        renderer.on_level(LevelEvent(level=0, frontier=1, expanded=1,
                                     candidates=2, new_states=1, n_states=2,
                                     n_transitions=2, deadlocks=0,
                                     collisions=3, approx_bytes=64,
                                     seconds=0.5))
        assert "collisions 3" in buf.getvalue()


class TestJsonProfileWriter:
    def test_writes_schema_levels_and_result(self, tmp_path):
        path = tmp_path / "profile.json"
        result = explore(ChainSystem(9, loop=True), name="chain",
                         observer=JsonProfileWriter(path))
        doc = json.loads(path.read_text())
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["run"]["name"] == "chain"
        assert doc["run"]["store"] == "exact"
        assert len(doc["levels"]) == 10
        assert {"level", "frontier", "expanded", "candidates", "new_states",
                "n_states", "n_transitions", "deadlocks", "collisions",
                "approx_bytes", "seconds", "dedup_ratio",
                "states_per_sec"} <= set(doc["levels"][0])
        assert doc["result"]["n_states"] == result.n_states
        assert doc["result"]["completed"] is True
        assert doc["result"]["fingerprint_collisions"] == 0

    @pytest.mark.parametrize("budget", [None, 5], ids=["complete", "cut"])
    def test_result_block_is_counts_plus_volatile_keys(self, tmp_path,
                                                       budget):
        # one projection: what the profile says of the run beyond its
        # counts() is exactly what compare_bench.py refuses to compare
        path = tmp_path / "profile.json"
        result = explore(ChainSystem(9, loop=True), max_states=budget,
                         observer=JsonProfileWriter(path))
        doc = json.loads(path.read_text())
        assert compare_bench.flatten(doc)["result"] == result.counts()
        assert set(doc["result"]) > set(result.counts())
        assert result.counts()["depth"] == len(doc["levels"]) - 1

    def test_fingerprint_store_recorded(self, tmp_path):
        path = tmp_path / "profile.json"
        explore(ChainSystem(5, loop=True), store="fingerprint",
                observer=JsonProfileWriter(path))
        doc = json.loads(path.read_text())
        assert doc["run"]["store"] == "fingerprint"
        assert doc["result"]["store"] == "fingerprint"


class TestMultiObserver:
    def test_fans_out_in_order(self):
        first, second = Recorder(), Recorder()
        multi = MultiObserver(first, second)
        run = RunInfo(name="x", store="exact")
        multi.on_start(run)
        assert first.runs == [run] and second.runs == [run]
        result = explore(ChainSystem(3, loop=True), observer=multi)
        assert first.results[-1] is result
        assert len(first.levels) == len(second.levels) > 0
