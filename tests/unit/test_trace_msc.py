"""Unit tests for trace recording and MSC rendering."""

from dataclasses import replace

import pytest

from repro.semantics.asynchronous import (
    DeliverToRemote,
    Delta,
    HomeTau,
    RemoteSend,
)
from repro.semantics.network import ACK, REQ, Channels, Msg
from repro.sim import AccessClass, Simulator, TraceWorkload
from repro.sim.trace import TraceEvent, message_event
from repro.viz.msc import render_msc


class TestDeriveMessageEvents:
    """The message events the simulator reads off one step's delta: a
    ``send`` per message its channel ops push, a ``deliver`` for the head
    its delivery action pops."""

    @pytest.fixture
    def record(self, migratory_refined):
        sim = Simulator(migratory_refined, 2, TraceWorkload([]),
                        record_trace=True)

        def record(channels, action, ops):
            sim.trace = []
            sim._record_trace(replace(sim.state, channels=channels),
                              Delta(action, None, None, ops, (), ()))
            return sim.trace
        return record

    def test_send_detected_from_queue_growth(self, record):
        req = Msg(kind=REQ, msg="req")
        events = record(Channels.empty(2), RemoteSend(1),
                        ((Channels.to_home(1), 0, (req,)),))
        assert events == [message_event(0.0, "send", Channels.to_home(1),
                                        req)]
        event = events[0]
        assert event.kind == "send"
        assert (event.src, event.dst) == ("r1", "h")
        assert "req" in event.label

    def test_delivery_detected_from_pop(self, record):
        before = Channels.empty(2).send_to_remote(0, Msg(kind=ACK))
        events = record(before, DeliverToRemote(0),
                        ((Channels.to_remote(0), 1, ()),))
        assert [e.kind for e in events] == ["deliver"]
        assert (events[0].src, events[0].dst) == ("h", "r0")

    def test_delivery_plus_response_send(self, record):
        # a delivery that triggers a send in the same step (e.g. C3 ack)
        before = Channels.empty(2).send_to_remote(
            0, Msg(kind=REQ, msg="inv"))
        events = record(before, DeliverToRemote(0),
                        ((Channels.to_remote(0), 1, ()),
                         (Channels.to_home(0), 0, (Msg(kind=ACK),))))
        assert [(e.kind, e.src, e.dst) for e in events] == [
            ("deliver", "h", "r0"), ("send", "r0", "h")]

    def test_no_change_no_events(self, record):
        assert record(Channels.empty(2), HomeTau(label="x"), ()) == []


class TestSimulatorTrace:
    @pytest.fixture
    def traced_run(self, migratory_refined):
        workload = TraceWorkload([(10.0, 0, AccessClass.ACQUIRE)])
        sim = Simulator(migratory_refined, 2, workload, seed=0,
                        latency=5.0, latency_jitter=0.0, record_trace=True)
        sim.run(until=500)
        return sim

    def test_trace_records_full_transaction(self, traced_run):
        kinds = [e.kind for e in traced_run.trace]
        assert kinds.count("send") == 2       # fused req + repl:gr
        assert kinds.count("deliver") == 2
        assert kinds.count("complete") == 2   # req and gr rendezvous

    def test_trace_chronological(self, traced_run):
        times = [e.time for e in traced_run.trace]
        assert times == sorted(times)

    def test_trace_off_by_default(self, migratory_refined):
        workload = TraceWorkload([(10.0, 0, AccessClass.ACQUIRE)])
        sim = Simulator(migratory_refined, 2, workload, seed=0)
        sim.run(until=500)
        assert sim.trace == []

    def test_trace_deterministic(self, migratory_refined):
        def run():
            workload = TraceWorkload([(10.0, 0, AccessClass.ACQUIRE)])
            sim = Simulator(migratory_refined, 2, workload, seed=3,
                            record_trace=True)
            sim.run(until=500)
            return sim.trace

        assert run() == run()


class TestRenderMsc:
    def _events(self):
        return [
            TraceEvent(10.0, "send", "r0", "h", "req:req"),
            TraceEvent(15.0, "deliver", "r0", "h", "req:req"),
            TraceEvent(16.0, "deliver", "h", "r1", "ack"),
            TraceEvent(16.0, "complete", "r0", "h", "req"),
        ]

    def test_header_lanes(self):
        chart = render_msc(self._events(), 2)
        header = chart.splitlines()[0]
        assert "h" in header and "r0" in header and "r1" in header

    def test_sends_hidden_by_default(self):
        chart = render_msc(self._events(), 2)
        assert "(sent)" not in chart
        assert chart.count("req:req") == 1  # only the delivery row

    def test_show_sends(self):
        chart = render_msc(self._events(), 2, show_sends=True)
        assert "(sent)" in chart

    def test_completion_marks(self):
        chart = render_msc(self._events(), 2)
        assert "✓ req" in chart

    def test_truncation(self):
        events = self._events() * 10
        chart = render_msc(events, 2, max_events=3)
        assert "more events" in chart

    def test_end_to_end_chart(self, migratory_refined):
        workload = TraceWorkload([(10.0, 0, AccessClass.ACQUIRE)])
        sim = Simulator(migratory_refined, 2, workload, seed=0,
                        latency=5.0, latency_jitter=0.0, record_trace=True)
        sim.run(until=500)
        chart = render_msc(sim.trace, 2)
        assert "repl:gr" in chart
        assert "✓ gr" in chart
