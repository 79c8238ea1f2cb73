"""Simulation trace recording (message-level event log).

When a :class:`~repro.sim.engine.Simulator` is constructed with
``record_trace=True`` it keeps a :class:`TraceEvent` per message movement:

* ``send``    — a message entered a channel (one per message the step's
  :class:`~repro.semantics.asynchronous.Delta` pushes, so
  source/destination are always known);
* ``deliver`` — a channel head was consumed by its destination (the
  channel the delivery action names);
* ``complete`` — a rendezvous finished (with which message type and
  which remote).

Traces feed the :func:`repro.viz.msc.render_msc` message-sequence chart,
the protocol-debugging workflow the paper's designers would have used on
the Avalanche testbed, and they replay deterministically (same seeds,
same trace) so regressions show as trace diffs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TraceEvent", "message_event"]


@dataclass(frozen=True)
class TraceEvent:
    """One message-level event of a simulation run.

    ``src``/``dst`` are ``"h"`` or ``"r<i>"``; ``payload`` is carried for
    send/deliver events of payloaded messages.
    """

    time: float
    kind: str            # "send" | "deliver" | "complete"
    src: str
    dst: str
    label: str           # message description or completed rendezvous type
    payload: object = None

    def describe(self) -> str:
        arrow = {"send": "→", "deliver": "⇒", "complete": "✓"}[self.kind]
        return (f"t={self.time:9.2f}  {self.src:>3} {arrow} {self.dst:<3} "
                f"{self.label}")


def _party(channel_index: int) -> tuple[str, str]:
    """(src, dst) names for a channel index (even: h->r, odd: r->h)."""
    remote, to_remote = divmod(channel_index, 2)
    if to_remote == 0:
        return "h", f"r{remote}"
    return f"r{remote}", "h"


def message_event(now: float, kind: str, channel: int,
                  message) -> TraceEvent:
    """The ``"send"`` or ``"deliver"`` event of ``message`` on channel
    index ``channel``: the simulator reads the channel and the message off
    the step's delta (its pushes, or the delivery action's channel head)."""
    src, dst = _party(channel)
    return TraceEvent(time=now, kind=kind, src=src, dst=dst,
                      label=message.describe(), payload=message.payload)
