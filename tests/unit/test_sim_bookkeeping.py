"""The simulator's per-step bookkeeping, read off the taken delta, equals
what the states before and after the step say.

:meth:`Simulator._apply` takes a
:class:`~repro.semantics.asynchronous.Delta` and reads three things off
it: the trace's deliver and send events, the remote whose workload gate
goes stale, and the channels with new messages to schedule.  The
references below derive the same three facts by diffing the state
before the step against the state after it, over every channel and every
remote.  Each applied delta of the standing benchmark's ``simulate_mix``
command lines (smoke size, a few seeds) and of one ``--msc`` run must
agree with them.
"""

from typing import Optional

import pytest

from repro import cli
from repro.semantics.asynchronous import (
    DeliverToHome,
    DeliverToRemote,
    Delta,
    HomeStep,
)
from repro.semantics.network import NACK, REQ, Channels, Msg
from repro.semantics.state import HOME_ID
from repro.sim.engine import _DELIVERY, Simulator
from repro.sim.trace import TraceEvent
from repro.sim.workload import HotLineWorkload
from tests.conftest import perf_module

_WORKLOADS = perf_module("workloads")


def _party(channel: int) -> tuple[str, str]:
    remote, to_remote = divmod(channel, 2)
    return ("h", f"r{remote}") if to_remote == 0 else (f"r{remote}", "h")


def reference_trace(now, before, after, action,
                    completes) -> list[TraceEvent]:
    """The step's trace events from the two states' channels: the head a
    delivery popped, then every queue's growth beyond the pop, then the
    completions."""
    popped: Optional[int] = None
    if isinstance(action, DeliverToRemote):
        popped = Channels.to_remote(action.remote)
    elif isinstance(action, DeliverToHome):
        popped = Channels.to_home(action.remote)
    events = []
    if popped is not None:
        message = before.channels.queues[popped][0]
        src, dst = _party(popped)
        events.append(TraceEvent(now, "deliver", src, dst,
                                 message.describe(), message.payload))
    for index, (old, new) in enumerate(zip(before.channels.queues,
                                           after.channels.queues)):
        base = len(old) - (1 if index == popped else 0)
        for message in new[base:]:
            src, dst = _party(index)
            events.append(TraceEvent(now, "send", src, dst,
                                     message.describe(), message.payload))
    for r in completes:
        events.append(TraceEvent(
            now, "complete", "h" if r.active == HOME_ID else f"r{r.active}",
            "h" if r.passive == HOME_ID else f"r{r.passive}", r.msg,
            r.payload))
    return events


def reference_moved(before, after) -> set[int]:
    """Remotes whose control state or mode differs between the states."""
    return {i for i, (old, new) in enumerate(zip(before.remotes,
                                                 after.remotes))
            if old is not new and (old.state, old.mode)
            != (new.state, new.mode)}


def reference_scheduled(before, after, scheduled) -> list[int]:
    """Channels to schedule, one entry per new delivery, ascending: every
    channel whose queue object changed, up to its length."""
    out = []
    for channel, queue in enumerate(after.channels.queues):
        if queue is not before.channels.queues[channel]:
            out += [channel] * (len(queue) - scheduled[channel])
    return out


class _Seq:
    """``Simulator._seq`` that can say how many numbers it handed out."""

    def __init__(self) -> None:
        self.n = 0

    def __next__(self) -> int:
        self.n += 1
        return self.n - 1


class CheckedSimulator(Simulator):
    """A simulator that checks each applied delta against the references
    (and always records its trace, which nothing else reads)."""

    applied = 0

    def __init__(self, *args, **kwargs) -> None:
        kwargs["record_trace"] = True
        super().__init__(*args, **kwargs)
        self._seq = _Seq()

    def _apply(self, delta) -> None:
        before, now = self.state, self.now
        epochs, scheduled = list(self._gate_epoch), list(self._scheduled)
        n_trace, first_seq = len(self.trace), self._seq.n
        super()._apply(delta)
        after = self.state
        assert self.trace[n_trace:] == reference_trace(
            now, before, after, delta.action, delta.completes)
        bumped = {i for i, (a, b) in enumerate(zip(epochs, self._gate_epoch))
                  if a != b}
        assert bumped == reference_moved(before, after)
        assert not any(self._gate_pending[i] for i in bumped)
        # heap entries are (when, seq, kind, payload): this step's
        # deliveries in the order they drew their latencies
        pushed = sorted((seq, channel) for _when, seq, kind, channel
                        in self._heap
                        if kind == _DELIVERY and seq >= first_seq)
        assert [channel for _seq, channel in pushed] \
            == reference_scheduled(before, after, scheduled)
        CheckedSimulator.applied += 1


_COMMANDS = [
    (command.slug, seed, command.resolve(sim_seed=seed, spill_dir="",
                                         smoke=True))
    for command in _WORKLOADS.WORKLOADS["simulate_mix"].commands
    for seed in (0, 1, 5)
] + [("migratory-msc", 0,
      "simulate migratory -n 3 --until 500 --msc 40".split())]


@pytest.mark.parametrize("slug,seed,argv", _COMMANDS,
                         ids=[f"{slug}-seed{seed}"
                              for slug, seed, _ in _COMMANDS])
def test_bookkeeping_matches_state_diffs(slug, seed, argv, monkeypatch,
                                         capsys):
    monkeypatch.setattr(cli, "Simulator", CheckedSimulator)
    monkeypatch.setattr(CheckedSimulator, "applied", 0)
    assert cli.main(argv) == 0
    assert "rendezvous completed" in capsys.readouterr().out
    assert CheckedSimulator.applied > 100


def test_two_pushed_channels_in_ascending_order(migratory_refined,
                                                monkeypatch):
    """No run above takes a step that pushes onto two channels (the
    home's C2 nacking a victim to free its buffer), so one is applied by
    hand: its sends are traced and scheduled channel by channel."""
    monkeypatch.setattr(CheckedSimulator, "applied", 0)
    sim = CheckedSimulator(migratory_refined, 2, HotLineWorkload(seed=0))
    nack, req = Msg(kind=NACK), Msg(kind=REQ, msg="inv")
    sim._apply(Delta(HomeStep(kind="C2"), None, None,
                     ((Channels.to_remote(0), 0, (nack,)),
                      (Channels.to_remote(1), 0, (req,))), (), (nack, req)))
    assert [(e.dst, e.label) for e in sim.trace] == [("r0", "nack"),
                                                     ("r1", "req:inv")]
    assert CheckedSimulator.applied == 1
