"""Transient-state sanity checks on refined (asynchronous) machines.

The refinement never materializes transient states in the AST — they are
implied, one per output guard, and interpreted on the fly by
:class:`~repro.semantics.asynchronous.AsyncSystem` (Tables 1 and 2).
How each output guard refines is recorded in one place, the step table
of :func:`repro.refine.transitions.build_step_table`; this pass reads its
rows.  Whether each transient can exit is the certificate's question
(:mod:`.simulation`): a fused request whose reply no input consumes is
its P4403, for derived and injected tables alike.

Diagnostics: **P3402 (error)** — a fire-and-forget message is received
by the remote node (only remote-to-home notifications can skip the
handshake: the home's buffer absorbs them, the remote's single slot
cannot); **P3403 (info)** — the transient inventory, counting
transients per side with their exit kinds, so ``repro lint`` shows the
real size of the derived machine (cf. Figures 4-5).

Imports from :mod:`repro.refine` stay call-time to keep this module
importable from ``repro.csp.validate`` (see :mod:`.fusability`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..csp.ast import ProcessKind
from .diagnostics import Diagnostic, make

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..refine.plan import RefinedProtocol

__all__ = ["transient_pass"]


def transient_pass(refined: "RefinedProtocol") -> Iterator[Diagnostic]:
    from ..refine.transitions import build_step_table

    protocol = refined.protocol
    table = build_step_table(refined)
    counts = {role: table.transients(role)
              for role in (ProcessKind.REMOTE, ProcessKind.HOME)}

    for msg in sorted(table.notes):
        if msg in protocol.remote.input_msgs:
            yield make(
                "P3402", f"{protocol.name}:{msg}",
                f"fire-and-forget message {msg!r} is received by the "
                "remote node; only remote-to-home notifications can "
                "skip the handshake (the home's buffer absorbs them, "
                "the remote's single slot cannot)",
                hint="keep the ack for home-to-remote messages")

    exits = ("reply or ack/nack/implicit-nack" if table.reply_of
             else "ack/nack/implicit-nack")
    yield make(
        "P3403", protocol.name,
        f"refined machine has {counts[ProcessKind.REMOTE]} remote and "
        f"{counts[ProcessKind.HOME]} home transient state(s); every "
        f"transient exits via {exits} (Tables 1-2)")
