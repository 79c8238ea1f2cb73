"""Plain-text rendering of protocol state machines (terminal-friendly).

One line per transition, grouped by source state, using the paper's
notation: ``?``/``!`` for rendezvous guards, ``??``/``!!`` for refined
asynchronous actions, ``τ`` for autonomous decisions, and ``(dotted)``
markers for the refinement's transient states.
"""

from __future__ import annotations

from ..csp.ast import ProcessDef, ProcessKind
from ..refine.plan import RefinedProtocol
from ..refine.transitions import KIND_NOTE, KIND_REPLY, build_step_table
from .dot import ACKED, REPLY_IN, RESPONSE, TAU, UNACKED, refined_guards

__all__ = ["process_ascii", "refined_ascii", "protocol_summary"]


def process_ascii(process: ProcessDef) -> str:
    """Text table of a rendezvous-level process (Figures 1-3 style)."""
    lines = [f"process {process.name} ({process.kind}), "
             f"initial state {process.initial_state}"]
    if len(process.initial_env):
        bindings = ", ".join(f"{k}={v!r}"
                             for k, v in process.initial_env.items())
        lines.append(f"  vars: {bindings}")
    for state in process.states.values():
        kind = ("internal" if state.is_internal else
                "communication" if state.is_communication else "terminal")
        lines.append(f"  {state.name} [{kind}]")
        for guard in state.guards:
            lines.append(f"    {guard.describe():<24} -> {guard.to}")
    return "\n".join(lines)


def refined_ascii(refined: RefinedProtocol, side: str) -> str:
    """Text rendering of one refined machine (Figures 4-5 style)."""
    process, machine = refined_guards(refined, side)
    home_side = side == ProcessKind.HOME
    lines = [f"refined {process.name} [{refined.plan.describe()}]"]
    for state, rows in machine:
        lines.append(f"  {state.name}")
        for kind, guard, reply, to in rows:
            if kind == TAU:
                lines.append(f"    {guard.describe():<30} -> {to}")
                continue
            msg = guard.msg
            if kind == RESPONSE:
                lines.append(f"    ??{msg} ⇒ !!{reply:<18} -> "
                             f"(fused response)")
            elif kind == REPLY_IN:
                lines.append(f"    ??{msg} (reply){'':<13} "
                             f"-> {to}  (consumed in transient wait)")
            elif kind in (UNACKED, ACKED):
                suffix = " / !!ack" if kind == ACKED else ""
                lines.append(f"    ??{msg}{suffix:<18} -> {to}")
            elif kind == KIND_NOTE:
                lines.append(f"    !!{msg} (no ack){'':<12} -> {to}")
            elif kind == KIND_REPLY:
                lines.append(f"    !!{msg} (reply){'':<13} -> {to}")
            else:
                trans = f"{state.name}·{msg}"
                lines.append(f"    !!{msg:<26} -> {trans} (dotted)")
                lines.append(f"      {trans}: ??{reply or 'ack'} -> {to}"
                             + ("; [nack] -> retry next guard"
                                if home_side else
                                "; ??nack -> retransmit; ??* ignored"))
    return "\n".join(lines)


def protocol_summary(refined: RefinedProtocol) -> str:
    """One-paragraph summary of a refinement result."""
    plan = refined.plan
    proto = refined.protocol
    n_home = len(proto.home.states)
    n_remote = len(proto.remote.states)
    table = build_step_table(refined)
    transients_home = table.transients(ProcessKind.HOME)
    transients_remote = table.transients(ProcessKind.REMOTE)
    return (
        f"{proto.name}: home {n_home} states (+{transients_home} transient), "
        f"remote {n_remote} states (+{transients_remote} transient); "
        f"{plan.describe()}"
    )
