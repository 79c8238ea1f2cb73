"""Graphviz DOT rendering of rendezvous and refined state machines.

``process_dot`` draws a rendezvous-level process — Figures 1, 2 and 3 of
the paper.  ``refined_dot`` draws the *refined* machine — Figures 4 and 5 —
by materializing the transient states the refinement introduces (shown
dotted, as in the paper), the ack/nack edges, the implicit-nack edge
(``[nack]``), the transient self-loop on ignored requests (``h??*``) and
the fused request/reply short-cuts.

``flow_dot`` draws a derived *flow graph*
(:class:`~repro.analysis.flows.FlowGraph`): stable home states as double
circles, one dashed cluster per flow with its SEND/RECV/WAIT event chain,
entry edges from the stable state each flow leaves and exit edges back to
the stable states it can land in.

The output is plain DOT text: render with ``dot -Tpng`` if Graphviz is
available, or read directly — node/edge labels follow the paper's
``??``/``!!`` notation for asynchronous receives/sends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..csp.ast import Guard, Output, ProcessDef, ProcessKind, StateDef, Tau
from ..refine.plan import RefinedProtocol
from ..refine.transitions import KIND_NOTE, KIND_REPLY, build_step_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.flows import FlowGraph

__all__ = ["flow_dot", "process_dot", "refined_dot"]


def _escape(text: str) -> str:
    return text.replace('"', '\\"')


def process_dot(process: ProcessDef, title: str | None = None) -> str:
    """Render a rendezvous-level process as a DOT digraph."""
    lines = [f'digraph "{_escape(title or process.name)}" {{',
             "  rankdir=LR;",
             '  node [shape=circle, fontsize=11];',
             f'  __start [shape=point, label=""];',
             f'  __start -> "{_escape(process.initial_state)}";']
    for state in process.states.values():
        shape = "circle" if state.is_communication else "doublecircle"
        lines.append(f'  "{_escape(state.name)}" [shape={shape}];')
        for guard in state.guards:
            label = guard.describe()
            style = "dashed" if isinstance(guard, Tau) else "solid"
            lines.append(
                f'  "{_escape(state.name)}" -> "{_escape(guard.to)}" '
                f'[label="{_escape(label)}", style={style}];')
    lines.append("}")
    return "\n".join(lines)


def reply_destination(process: ProcessDef, guard: Output,
                      reply: str) -> str:
    """Where a fused reply lands: past the intermediate reply-wait state."""
    mid = process.state(guard.to)
    for candidate in mid.inputs:
        if candidate.msg == reply:
            return candidate.to
    return guard.to


#: Row kinds of :func:`refined_guards` besides the step table's output
#: kinds: a tau; an input acked as it is consumed (C1/C3); one taken
#: without an ack (a fused request at the home, a note); a fused reply,
#: taken inside the requester's transient wait; and a remote's fused
#: response (the home's request consumed, the reply sent, in one step).
TAU, ACKED, UNACKED, REPLY_IN, RESPONSE = (
    "tau", "acked", "unacked", "reply-in", "response")

#: ``(kind, guard, reply, to)``: the reply message a row sends or awaits
#: (``None`` for none) and the state it lands in
Row = tuple[str, Guard, Optional[str], str]


def refined_guards(refined: RefinedProtocol, side: str,
                   ) -> tuple[ProcessDef, list[tuple[StateDef, list[Row]]]]:
    """The refined ``side`` machine as both renderers draw it.

    Every row is read off the step table, the one record of how each
    guard refines: per state, the taus, then the inputs (classified by
    what the sending side's rows say about the message), then the
    outputs (their own rows; a request lands past its reply-wait state
    when a fused reply acknowledges it).
    """
    if side == ProcessKind.HOME:
        process, peer = refined.protocol.home, ProcessKind.REMOTE
    elif side == ProcessKind.REMOTE:
        process, peer = refined.protocol.remote, ProcessKind.HOME
    else:
        raise ValueError(f"side must be 'home' or 'remote', got {side!r}")
    table = build_step_table(refined)
    peer_fused = table.fused_requests(peer)
    machine = []
    for state in process.states.values():
        rows: list[Row] = [(TAU, guard, None, guard.to)
                           for guard in state.taus]
        for guard in state.inputs:
            msg, reply, kind = guard.msg, None, ACKED
            if msg in peer_fused and side == ProcessKind.REMOTE:
                kind, reply = RESPONSE, table.reply_of[msg]
            elif msg in table.reply_msgs:
                kind = REPLY_IN
            elif msg in peer_fused or msg in table.notes:
                kind = UNACKED
            rows.append((kind, guard, reply, guard.to))
        for idx, guard in enumerate(state.outputs):
            spec = table.spec(side, state.name, idx)
            reply, to = spec.fused_reply, spec.forward_to
            if reply is not None:
                to = reply_destination(process, guard, reply)
            rows.append((spec.kind, guard, reply, to))
        machine.append((state, rows))
    return process, machine


def refined_dot(refined: RefinedProtocol, side: str,
                title: str | None = None) -> str:
    """Render one side of the refined machine (``"home"``/``"remote"``)."""
    process, machine = refined_guards(refined, side)
    home_side = side == ProcessKind.HOME

    lines = [f'digraph "{_escape(title or f"{process.name} (refined)")}" {{',
             "  rankdir=LR;",
             "  node [shape=circle, fontsize=11];",
             '  __start [shape=point, label=""];',
             f'  __start -> "{_escape(process.initial_state)}";']

    def edge(src: str, dst: str, label: str, dotted: bool = False) -> None:
        style = ", style=dotted" if dotted else ""
        lines.append(f'  "{_escape(src)}" -> "{_escape(dst)}" '
                     f'[label="{_escape(label)}"{style}];')

    for state, rows in machine:
        lines.append(f'  "{_escape(state.name)}";')
        for kind, guard, reply, to in rows:
            if kind == TAU:
                edge(state.name, to, guard.describe())
                continue
            who, msg = _peer_name(guard, home_side), guard.msg
            if kind == RESPONSE:
                # the reply edge is drawn from the consuming state
                # straight through the local chain
                edge(state.name, to, f"{who}??{msg} ⇒ …!!{reply}")
            elif kind == REPLY_IN:
                # drawn dotted for reference only
                edge(state.name, to, f"{who}??{msg} (in transient)",
                     dotted=True)
            elif kind == UNACKED:
                edge(state.name, to, f"{who}??{msg}")
            elif kind == ACKED:
                edge(state.name, to, f"{who}??{msg} / {who}!!ack")
            elif kind == KIND_NOTE:
                edge(state.name, to, f"{who}!!{msg} (no ack)")
            elif kind == KIND_REPLY:
                # sent without awaiting any acknowledgement
                edge(state.name, to, f"{who}!!{msg} (reply)")
            else:
                trans = f"{state.name}·{msg}"
                lines.append(f'  "{_escape(trans)}" [style=dotted, '
                             f'label="{_escape(trans)}"];')
                edge(state.name, trans, f"{who}!!{msg}")
                edge(trans, to, f"{who}??{reply or 'ack'}", dotted=True)
                if home_side:
                    # explicit or implicit nack returns the home to the
                    # communication state, where the next output guard
                    # is attempted (row T2/T3)
                    edge(trans, state.name, "[nack]", dotted=True)
                    edge(trans, trans, "r(x)??msg/nack", dotted=True)
                else:
                    edge(trans, trans, "h??nack / retransmit", dotted=True)
                    edge(trans, trans, "h??*", dotted=True)
    lines.append("}")
    return "\n".join(lines)


def _peer_name(guard: Guard, home_side: bool) -> str:
    if not home_side:
        return "h"
    pattern = getattr(guard, "sender", None) or getattr(guard, "target", None)
    return pattern.describe() if pattern is not None else "r(?)"


def flow_dot(graph: "FlowGraph", title: str | None = None) -> str:
    """Render a derived flow graph as a DOT digraph.

    Stable home states are shared double-circle nodes; each flow becomes
    a dashed cluster holding its event chain (WAIT events shown as
    diamonds), with an entry edge from the stable state the flow leaves
    and exit edges to the stable states it can land in.
    """
    lines = [f'digraph "{_escape(title or f"{graph.protocol} flows")}" {{',
             "  rankdir=LR;",
             "  node [fontsize=11];"]
    for state in sorted(graph.stable_states):
        lines.append(f'  "{_escape(state)}" [shape=doublecircle];')
    for i, flow in enumerate(graph.flows):
        nodes = [f"f{i}e{j}" for j in range(len(flow.events))]
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="{_escape(flow.name)} ({flow.kind})";')
        lines.append("    style=dashed; fontsize=10;")
        for node, event in zip(nodes, flow.events):
            shape = "diamond" if event.kind == "wait" else "box"
            lines.append(f'    {node} [shape={shape}, '
                         f'label="{_escape(event.describe())}"];')
        for src, dst in zip(nodes, nodes[1:]):
            lines.append(f"    {src} -> {dst};")
        lines.append("  }")
        if nodes:
            if flow.entry_state in graph.stable_states:
                lines.append(f'  "{_escape(flow.entry_state)}" -> {nodes[0]} '
                             "[style=dotted];")
            for exit_state in sorted(flow.exit_states):
                if exit_state in graph.stable_states:
                    lines.append(f'  {nodes[-1]} -> "{_escape(exit_state)}" '
                                 "[style=dotted];")
    lines.append("}")
    return "\n".join(lines)
