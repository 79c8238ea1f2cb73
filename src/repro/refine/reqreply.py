"""Static detection of request/reply pairs (paper section 3.3).

The generic refinement turns each rendezvous into two messages (request +
ack).  When two rendezvous ``m1``; ``m2`` form a request/reply exchange, the
acks of *both* can be elided, so the pair costs 2 messages instead of 4:

* the reply doubles as the ack of the request, and
* the requester is guaranteed to be waiting when the reply arrives, so the
  reply itself needs no ack.

The paper states the applicability condition syntactically: "If statements
``h!req(e)`` and ``h?repl(v)`` always appear together as ``h!req(e);
h?repl(v)`` in the remote node, and ``ri!repl`` always appears after
``ri?req`` in the home node, then the acks can be dropped" — and dually for
home-initiated pairs (``inv``/``ID``), where the responder must perform
"local actions only" between receiving the request and sending the reply.

This module implements that check conservatively:

**Remote-initiated pair (m1, m2)** — e.g. ``req``/``gr``:

* remote side: *every* ``Output(m1)`` guard's successor state consists of
  exactly one guard, an ``Input(m2)``;
* home side: for *every* ``Input(m1)`` guard (which must bind the sender to
  a variable ``v``), every path from its successor state reaches an
  ``Output(m2)`` targeting ``VarTarget(v)`` before: any other output to
  ``v``, any input restricted to ``v``, any rebinding of ``v``, or any
  cycle.  Rendezvous with *other* remotes in between are fine — that is
  exactly the migratory home's ``E -> I1 -> I3 -> gr`` path, which talks to
  the old owner before replying to the requester.

**Home-initiated pair (m1, m2)** — e.g. ``inv``/``ID``:

* home side: every ``Output(m1)`` guard targeting ``VarTarget(v)`` has a
  successor state containing an ``Input(m2)`` from ``VarSender(v)``
  (other guards may coexist there — they handle races via implicit nack);
* remote side: every ``Input(m1)`` guard's successor chain performs local
  actions only (internal states with a single tau) and ends in a state
  with exactly one guard, an ``Output(m2)``.

``detect_fusable_pairs`` returns all pairs passing these checks;
``check_pair`` validates one explicitly requested pair and explains any
failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..csp.ast import (
    Input,
    Output,
    ProcessDef,
    ProcessKind,
    Protocol,
    StateDef,
    VarSender,
    VarTarget,
)
from ..errors import RefinementError
from .plan import FusedPair

__all__ = [
    "ConditionResult",
    "PairReport",
    "candidate_pairs",
    "check_pair",
    "choose_pairs",
    "detect_fusable_pairs",
    "explain_pair",
    "fusability_report",
]


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of one section 3.3 applicability condition for one pair."""

    condition: str  # short name, e.g. "requester-adjacency"
    ok: bool
    reason: Optional[str] = None  # failure explanation when not ok

    def describe(self) -> str:
        status = "ok" if self.ok else f"FAIL ({self.reason})"
        return f"{self.condition}: {status}"


@dataclass(frozen=True)
class PairReport:
    """Per-condition fusability verdict for one candidate pair.

    This is the structured form of :func:`check_pair`: instead of the
    first failure only, every section 3.3 condition is evaluated and
    named, so authors can see exactly *which* requirement their protocol
    misses (the ``repro lint`` fusability report renders these).
    """

    pair: FusedPair
    conditions: tuple[ConditionResult, ...]

    @property
    def fusable(self) -> bool:
        return all(c.ok for c in self.conditions)

    @property
    def failures(self) -> tuple[ConditionResult, ...]:
        return tuple(c for c in self.conditions if not c.ok)

    def describe(self) -> str:
        verdict = "fusable" if self.fusable else "NOT fusable"
        body = "; ".join(c.describe() for c in self.conditions)
        return f"{self.pair.describe()}: {verdict} [{body}]"


def explain_pair(protocol: Protocol, pair: FusedPair,
                 strict_cycles: bool = False) -> PairReport:
    """Evaluate every section 3.3 condition for ``pair`` independently.

    All conditions are checked so the report names each one that fails;
    :func:`check_pair` reports the first.
    """
    conditions: list[ConditionResult] = []

    def run(name: str, reason: Optional[str]) -> None:
        conditions.append(ConditionResult(condition=name, ok=reason is None,
                                          reason=reason))

    if pair.requester == ProcessKind.REMOTE:
        run("requester-adjacency (remote h!req; h?repl)",
            _check_requester_adjacency(protocol.remote, pair,
                                       remote_side=True))
        run("home-responder reply path (ri!repl after ri?req)",
            _check_home_responder(protocol.home, pair, strict_cycles))
        run("reply domination (no unsolicited repl)",
            _check_reply_domination(protocol.home, pair))
    elif pair.requester == ProcessKind.HOME:
        run("requester-adjacency (home ri!req; ri?repl)",
            _check_requester_adjacency(protocol.home, pair,
                                       remote_side=False))
        run("remote-responder local actions only",
            _check_remote_responder(protocol.remote, pair))
    else:
        run("requester side", f"unknown requester side {pair.requester!r}")
    return PairReport(pair=pair, conditions=tuple(conditions))


def fusability_report(protocol: Protocol,
                      strict_cycles: bool = False) -> tuple[PairReport, ...]:
    """Section 3.3 report over every candidate request/reply pair.

    Candidates come from requester-side adjacency in both directions (the
    same generation :func:`detect_fusable_pairs` uses), so a pair appears
    here exactly when the protocol *syntactically suggests* it; each is
    then explained condition by condition.
    """
    return tuple(explain_pair(protocol, pair, strict_cycles=strict_cycles)
                 for pair in candidate_pairs(protocol))


def detect_fusable_pairs(protocol: Protocol,
                         strict_cycles: bool = False) -> tuple[FusedPair, ...]:
    """A maximal set of request/reply pairs the section 3.3 optimization
    applies to.

    Fusable pairs can *chain* — in a lock protocol ``acq``/``ok`` and
    ``ok``/``rel`` may both pass the static checks, with ``ok`` playing
    reply in one and request in the other.  Chained fusions are not
    supported by the message model (a single wire message cannot be both a
    ``REPL`` and an ack-eliding ``REQ``), so detection picks a maximal
    non-overlapping subset greedily, in a deterministic order:
    remote-initiated pairs first (the paper's primary ``req``/``repl``
    shape), then home-initiated, alphabetically within each group.
    Explicitly requested overlapping pairs (``refine(fused_pairs=...)``)
    are an error instead — the user should choose.

    ``strict_cycles=True`` additionally rejects pairs whose home-side reply
    path passes through a cycle (see :func:`check_pair`).
    """
    return choose_pairs(fusability_report(protocol,
                                          strict_cycles=strict_cycles))


def choose_pairs(reports: tuple[PairReport, ...]) -> tuple[FusedPair, ...]:
    """The maximal non-overlapping fused subset of explained candidates.

    This is the selection half of :func:`detect_fusable_pairs`, split out
    so callers holding the (expensive) per-pair reports — the analysis
    pass manager caches one set per protocol — can pick the fused pairs
    without re-running :func:`explain_pair`.  The greedy order is the
    engine's: remote-initiated first, then alphabetical.
    """
    candidates = [report.pair for report in reports if report.fusable]
    candidates.sort(key=lambda p: (p.requester != ProcessKind.REMOTE,
                                   p.request_msg, p.reply_msg))
    pairs: list[FusedPair] = []
    used: set[str] = set()
    for pair in candidates:
        if pair.request_msg in used or pair.reply_msg in used:
            continue
        used.update((pair.request_msg, pair.reply_msg))
        pairs.append(pair)
    return tuple(pairs)


def check_pair(protocol: Protocol, pair: FusedPair,
               strict_cycles: bool = False) -> Optional[str]:
    """Return ``None`` if ``pair`` is fusable, else a reason string.

    ``strict_cycles`` controls how home-side reply paths through *cycles*
    are treated.  A cycle before the reply (e.g. the invalidate protocol's
    "invalidate one sharer at a time" loop between consuming ``reqW`` and
    replying ``grW``) means the *syntactic* check cannot bound when the
    reply happens.  The paper's condition ("``ri!repl`` always appears
    after ``ri?req``") is about ordering, not termination, so by default
    such cycles are accepted — every loop a correct protocol contains
    terminates (here: the sharer set strictly shrinks), and a protocol
    whose loop did not terminate would fail the *dynamic* progress check
    (:func:`repro.check.properties.check_progress`) regardless of fusion.
    Pass ``strict_cycles=True`` to refuse the optimization in that case and
    fall back to the always-safe plain request/ack refinement.

    The reason is the first failing condition of :func:`explain_pair`.
    """
    failures = explain_pair(protocol, pair, strict_cycles).failures
    return failures[0].reason if failures else None


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------


def candidate_pairs(protocol: Protocol) -> Iterator[FusedPair]:
    """Guess (m1, m2) pairs from requester-side adjacency, both directions."""
    seen: set[tuple[str, str, str]] = set()
    for process in (protocol.remote, protocol.home):
        requester = process.kind
        for state in process.states.values():
            for guard in state.outputs:
                for reply in _adjacent_reply_msgs(
                        process, guard,
                        remote_side=requester == ProcessKind.REMOTE):
                    key = (guard.msg, reply, requester)
                    if key not in seen:
                        seen.add(key)
                        yield FusedPair(request_msg=guard.msg,
                                        reply_msg=reply, requester=requester)


def _adjacent_reply_msgs(process: ProcessDef, guard: Output,
                         remote_side: bool) -> tuple[str, ...]:
    """Message types of inputs immediately following ``guard``."""
    succ = process.state(guard.to)
    if remote_side:
        if len(succ.guards) == 1 and isinstance(succ.guards[0], Input):
            return (succ.guards[0].msg,)
        return ()
    # home side: the reply input must come from the same remote the request
    # went to; other guards may coexist (they resolve races, e.g. the
    # migratory home's LR-vs-ID race after sending inv).
    if not isinstance(guard.target, VarTarget):
        return ()
    return tuple(candidate.msg for candidate in succ.inputs
                 if isinstance(candidate.sender, VarSender)
                 and candidate.sender.var == guard.target.var)


def _reject_overlaps(pairs: list[FusedPair]) -> None:
    """A message type may play only one role across all fused pairs."""
    roles: dict[str, str] = {}
    for pair in pairs:
        for msg, role in ((pair.request_msg, "request"),
                          (pair.reply_msg, "reply")):
            if roles.setdefault(msg, role) != role:
                raise RefinementError(
                    f"message {msg!r} would be both a fused request and a "
                    "fused reply; such chained fusions are not supported"
                )


# ---------------------------------------------------------------------------
# requester-side checks
# ---------------------------------------------------------------------------


def _check_requester_adjacency(process: ProcessDef, pair: FusedPair,
                               remote_side: bool) -> Optional[str]:
    """Every Output(m1) must be immediately followed by the Input(m2)."""
    found = False
    for state in process.states.values():
        for guard in state.outputs:
            if guard.msg != pair.request_msg:
                continue
            found = True
            replies = _adjacent_reply_msgs(process, guard, remote_side)
            if pair.reply_msg not in replies:
                return (f"{process.name}.{state.name}: output "
                        f"{pair.request_msg!r} is not immediately followed "
                        f"by input {pair.reply_msg!r}")
            if remote_side:
                continue
            # home requester: target must be a VarTarget so we can match the
            # reply input to the same remote
            if not isinstance(guard.target, VarTarget):
                return (f"{process.name}.{state.name}: fused home request "
                        f"{pair.request_msg!r} needs a variable target")
    if not found:
        return f"{process.name} never sends {pair.request_msg!r}"
    return None


# ---------------------------------------------------------------------------
# responder-side checks
# ---------------------------------------------------------------------------


def _check_remote_responder(remote: ProcessDef, pair: FusedPair) -> Optional[str]:
    """Remote consumes m1, does local work only, then its sole guard is m2."""
    found = False
    for state in remote.states.values():
        for guard in state.inputs:
            if guard.msg != pair.request_msg:
                continue
            found = True
            cursor = remote.state(remote.responder_chain(guard.to)[-1])
            if cursor.sole_tau is not None:
                return (f"{remote.name}: internal loop after consuming "
                        f"{pair.request_msg!r}")
            if not (len(cursor.guards) == 1
                    and isinstance(cursor.guards[0], Output)
                    and cursor.guards[0].msg == pair.reply_msg):
                return (f"{remote.name}.{state.name}: consuming "
                        f"{pair.request_msg!r} does not lead (via local "
                        f"actions only) to a sole output {pair.reply_msg!r}")
    if not found:
        return f"{remote.name} never receives {pair.request_msg!r}"
    return None


def _check_home_responder(home: ProcessDef, pair: FusedPair,
                          strict_cycles: bool) -> Optional[str]:
    """Every home path from consuming m1(j) reaches Output(m2 -> j) safely."""
    found = False
    for state in home.states.values():
        for guard in state.inputs:
            if guard.msg != pair.request_msg:
                continue
            found = True
            if guard.bind_sender is None:
                return (f"{home.name}.{state.name}: input "
                        f"{pair.request_msg!r} does not bind its sender, so "
                        "the reply target cannot be tracked")
            reason = _all_paths_reply(home, home.state(guard.to),
                                      guard.bind_sender, pair, strict_cycles)
            if reason is not None:
                return reason
    if not found:
        return f"{home.name} never receives {pair.request_msg!r}"
    return None


def _check_reply_domination(home: ProcessDef, pair: FusedPair) -> Optional[str]:
    """Every emission of the reply must answer a pending fused request.

    This is the other half of the paper's condition "``ri!repl`` always
    appears *after* ``ri?req``": if the home can reach an ``Output(m2)``
    along a path on which no un-answered ``m1`` consumption is pending, it
    would emit an unsolicited ``REPL`` at a remote that is not waiting —
    the asynchronous semantics would (rightly) fault.  Found by
    property-based testing on random protocols.

    We track the number of pending (consumed-but-unanswered) requests per
    reachable ``(state, count)`` pair, saturating counts at 2; a reply
    emitted at count 0 rejects the pair.
    """
    from collections import deque

    initial = (home.initial_state, 0)
    seen = {initial}
    queue = deque([initial])
    while queue:
        state_name, count = queue.popleft()
        for guard in home.state(state_name).guards:
            nxt = count
            if isinstance(guard, Input) and guard.msg == pair.request_msg:
                nxt = min(2, count + 1)
            elif isinstance(guard, Output) and guard.msg == pair.reply_msg:
                if count == 0:
                    return (f"{home.name}.{state_name}: reply "
                            f"{pair.reply_msg!r} can be emitted with no "
                            f"pending {pair.request_msg!r} consumption")
                nxt = count - 1
            successor = (guard.to, nxt)
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return None


def _all_paths_reply(home: ProcessDef, start: StateDef, var: str,
                     pair: FusedPair, strict_cycles: bool) -> Optional[str]:
    """DFS: every path from ``start`` replies to ``var`` before touching it.

    "Touching" means another output to the same remote, an input restricted
    to it, or rebinding the variable — any of which would break the
    requester's silent wait.  Cycles before the reply are rejected only
    under ``strict_cycles`` (see :func:`check_pair`); otherwise a revisited
    state simply closes that path (the loop is assumed to terminate).
    """
    seen: set[str] = set()

    def visit(state: StateDef) -> Optional[str]:
        if state.name in seen:
            if strict_cycles:
                return (f"{home.name}.{state.name}: cycle reachable before "
                        f"replying {pair.reply_msg!r} to the requester")
            return None
        seen.add(state.name)
        try:
            if state.is_terminal:
                return (f"{home.name}.{state.name}: dead end before replying "
                        f"{pair.reply_msg!r}")
            for guard in state.guards:
                if isinstance(guard, Output):
                    targets_var = (isinstance(guard.target, VarTarget)
                                   and guard.target.var == var)
                    if targets_var and guard.msg == pair.reply_msg:
                        continue  # this branch replied; done
                    if targets_var:
                        return (f"{home.name}.{state.name}: sends "
                                f"{guard.msg!r} to the requester before the "
                                f"{pair.reply_msg!r} reply")
                elif isinstance(guard, Input):
                    if (isinstance(guard.sender, VarSender)
                            and guard.sender.var == var):
                        return (f"{home.name}.{state.name}: waits on the "
                                "silently-blocked requester before replying")
                    if guard.bind_sender == var:
                        return (f"{home.name}.{state.name}: rebinds "
                                f"{var!r} before replying")
                reason = visit(home.state(guard.to))
                if reason is not None:
                    return reason
            return None
        finally:
            seen.discard(state.name)

    return visit(start)
