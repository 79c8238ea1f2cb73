"""Transient-state sanity checks on refined (asynchronous) machines.

The refinement never materializes transient states in the AST — they are
implied, one per output guard, and interpreted on the fly by
:class:`~repro.semantics.asynchronous.AsyncSystem` (Tables 1 and 2).
That makes their *exits* easy to audit statically: a node that enters the
transient for output guard ``g`` leaves it by

* consuming the **ack** (plain refined request),
* consuming the **nack** and retrying / rescanning (plain request),
* an **implicit nack** — the awaited remote's own request arriving
  instead (home side, row T3), or
* consuming the **fused reply** (section 3.3 pairs), which *requires*
  the requester's successor state to actually offer the matching reply
  input — the reply has no ack of its own, so a missing input guard
  would strand the message and the requester.

For plans produced by :func:`repro.refine.engine.refine` the fused-pair
conditions were verified during detection; this pass re-checks them on
the *plan as given*, which matters for hand-assembled
:class:`~repro.refine.plan.RefinementPlan` objects (nothing stops a test
or a determined user from pairing messages the checks would reject).

Diagnostics: **P3401 (error)** — a fused requester's transient has no
reply exit; **P3402 (error)** — a fire-and-forget message is received by
the remote node (only remote-to-home notifications can skip the
handshake: the home's buffer absorbs them, the remote's single slot
cannot); **P3403 (info)** — the transient inventory, counting transients
per side with their exit kinds, so ``repro lint`` shows the real size of
the derived machine (cf. Figures 4-5).

Imports from :mod:`repro.refine` stay call-time to keep this module
importable from ``repro.csp.validate`` (see :mod:`.fusability`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..csp.ast import Input, Output, ProcessDef
from .diagnostics import Diagnostic, make

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..refine.plan import RefinedProtocol

__all__ = ["transient_pass"]


def transient_pass(refined: "RefinedProtocol") -> Iterator[Diagnostic]:
    from ..refine.plan import HOME_SIDE, REMOTE

    protocol = refined.protocol
    plan = refined.plan
    counts = {"remote": 0, "home": 0}
    fused_ok = True

    for side, process in (("remote", protocol.remote),
                          ("home", protocol.home)):
        requester = REMOTE if side == "remote" else HOME_SIDE
        for state in process.states.values():
            for guard in state.outputs:
                counts[side] += 1
                if guard.msg in plan.fire_and_forget:
                    counts[side] -= 1  # no transient: send and move on
                    continue
                if not plan.is_fused_request(guard.msg,
                                             sender_is_home=side == "home"):
                    continue  # ack/nack exits exist by construction (T1/T2)
                reply = plan.reply_of[guard.msg]
                if not _offers_reply(process, guard, reply):
                    fused_ok = False
                    yield make(
                        "P3401",
                        f"{process.name}.{state.name}",
                        f"fused request {guard.msg!r} "
                        f"({requester}-initiated) enters a transient "
                        f"whose successor state {guard.to!r} never "
                        f"inputs the reply {reply!r}; the requester "
                        "would wait forever",
                        hint="add the reply input to the successor "
                             "state or drop the pair from fused_pairs")

    for msg in sorted(plan.fire_and_forget):
        if msg in protocol.remote.input_msgs:
            yield make(
                "P3402", f"{protocol.name}:{msg}",
                f"fire-and-forget message {msg!r} is received by the "
                "remote node; only remote-to-home notifications can "
                "skip the handshake (the home's buffer absorbs them, "
                "the remote's single slot cannot)",
                hint="keep the ack for home-to-remote messages")

    exits = ("reply or ack/nack/implicit-nack"
             if plan.fused and fused_ok else "ack/nack/implicit-nack")
    yield make(
        "P3403", protocol.name,
        f"refined machine has {counts['remote']} remote and "
        f"{counts['home']} home transient state(s); every transient "
        f"exits via {exits} (Tables 1-2)")


def _offers_reply(process: ProcessDef, request: Output, reply: str) -> bool:
    """Does the requester's successor state input the fused reply?"""
    successor = process.state(request.to)
    for guard in successor.guards:
        if isinstance(guard, Input) and guard.msg == reply:
            return True
    return False
