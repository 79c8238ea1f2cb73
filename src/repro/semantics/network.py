"""Asynchronous message and channel model (paper section 2.2).

The communication model the refinement assumes: reliable, point-to-point,
in-order delivery.  In the star topology there are exactly two directed
channels per remote node (home -> remote and remote -> home), each a FIFO
queue.  "Infinite buffering" (the network always accepts a send) is modelled
by unbounded queues — the state-space cost of that assumption is precisely
what Table 3's asynchronous columns show exploding.

Message kinds:

* ``REQ``   — request for rendezvous, carrying the rendezvous message type
  and payload (paper section 3);
* ``ACK`` / ``NACK`` — the two acknowledgement kinds (section 2.2 note:
  these are the messages a deadlock-avoiding network must always accept);
* ``REPL``  — a fused reply (section 3.3): acts as the ack of the request
  it answers *and* carries the reply rendezvous;
* ``NOTE``  — a fire-and-forget notification (hand-designed-protocol
  extension; not part of the paper's refinement rules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..csp.env import Value
from .state import memo, value

__all__ = ["REQ", "ACK", "NACK", "REPL", "NOTE", "Msg", "Channels"]

REQ = "REQ"
ACK = "ACK"
NACK = "NACK"
REPL = "REPL"
NOTE = "NOTE"


@value
@dataclass(frozen=True, slots=True)
class Msg:
    """One message in flight.

    ``msg`` is the rendezvous message type for ``REQ``/``REPL``/``NOTE``
    and ``None`` for the pure acknowledgements.
    """

    kind: str
    msg: Optional[str] = None
    payload: Value = None
    _hash_cache: Optional[int] = memo()
    _desc_cache: Optional[str] = memo()

    def describe(self) -> str:
        # Memoized: the symmetry driver renders every in-flight message
        # once per remote signature, and message objects are shared
        # across states.
        cached = self._desc_cache
        if cached is None:
            if self.kind in (ACK, NACK):
                cached = self.kind.lower()
            else:
                body = self.msg or "?"
                if self.payload is not None:
                    body += f"({self.payload!r})"
                cached = f"{self.kind.lower()}:{body}"
            object.__setattr__(self, "_desc_cache", cached)
        return cached


@value
@dataclass(frozen=True, slots=True)
class Channels:
    """All 2n directed FIFO channels of an n-remote star, immutably.

    Channel indexing: ``2*i`` is home->remote(i), ``2*i + 1`` is
    remote(i)->home.
    """

    queues: tuple[tuple[Msg, ...], ...]
    _hash_cache: Optional[int] = memo()

    @classmethod
    def empty(cls, n_remotes: int) -> "Channels":
        return cls(queues=((),) * (2 * n_remotes))

    @property
    def n_remotes(self) -> int:
        return len(self.queues) // 2

    @staticmethod
    def to_remote(i: int) -> int:
        return 2 * i

    @staticmethod
    def to_home(i: int) -> int:
        return 2 * i + 1

    # -- queries -------------------------------------------------------------

    def head_to_remote(self, i: int) -> Optional[Msg]:
        queue = self.queues[self.to_remote(i)]
        return queue[0] if queue else None

    def head_to_home(self, i: int) -> Optional[Msg]:
        queue = self.queues[self.to_home(i)]
        return queue[0] if queue else None

    def in_flight(self) -> Iterator[tuple[int, str, Msg]]:
        """Yield ``(remote, direction, msg)`` for every in-flight message.

        ``direction`` is ``"to_remote"`` or ``"to_home"``; messages come out
        in FIFO order per channel.
        """
        for i in range(self.n_remotes):
            for msg in self.queues[self.to_remote(i)]:
                yield i, "to_remote", msg
            for msg in self.queues[self.to_home(i)]:
                yield i, "to_home", msg

    @property
    def total_in_flight(self) -> int:
        return sum(len(q) for q in self.queues)

    # -- updates --------------------------------------------------------------

    def push(self, channel: int, msg: Msg) -> "Channels":
        queues = list(self.queues)
        queues[channel] = queues[channel] + (msg,)
        return Channels(queues=tuple(queues))

    def pop(self, channel: int) -> tuple[Msg, "Channels"]:
        queue = self.queues[channel]
        if not queue:
            raise IndexError(f"pop from empty channel {channel}")
        queues = list(self.queues)
        queues[channel] = queue[1:]
        return queue[0], Channels(queues=tuple(queues))

    def replay(self, ops: tuple[tuple[int, int, tuple[Msg, ...]], ...],
               ) -> "Channels":
        """Apply ``(channel, messages popped off the head, messages
        pushed onto the tail)`` ops in one step."""
        queues = self.queues
        for c, popped, pushed in ops:
            queues = (queues[:c] + (queues[c][popped:] + pushed,)
                      + queues[c + 1:])
        return Channels(queues)

    def send_to_remote(self, i: int, msg: Msg) -> "Channels":
        return self.push(self.to_remote(i), msg)

    def send_to_home(self, i: int, msg: Msg) -> "Channels":
        return self.push(self.to_home(i), msg)

    def describe(self) -> str:
        parts = []
        for i in range(self.n_remotes):
            down = self.queues[self.to_remote(i)]
            up = self.queues[self.to_home(i)]
            if down:
                parts.append(f"h→r{i}:[{','.join(m.describe() for m in down)}]")
            if up:
                parts.append(f"r{i}→h:[{','.join(m.describe() for m in up)}]")
        return " ".join(parts) if parts else "∅"
