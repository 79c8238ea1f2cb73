"""Abstract syntax for rendezvous (CSP-style) protocol specifications.

This module defines the high-level language of the paper (section 2.3/2.4):
a protocol is a *home* process plus a *remote* process template, each a
finite state machine whose states carry *guards*:

* :class:`Output` — ``P!m(e)``: offer to be the *active* party of a
  rendezvous, sending message type ``m`` with payload ``e``.
* :class:`Input` — ``P?m(v)``: offer to be the *passive* party, receiving
  ``m`` and binding its payload.
* :class:`Tau` — an autonomous internal decision (the paper's example is a
  cache eviction), taken without communicating.

States containing at least one Input/Output are *communication* states;
states with only Tau guards are *internal* states (paper section 2.4).  The
communication topology is a star: remotes only ever talk to the home node,
so remote-side guards do not name a peer, and home-side guards name remotes
through :class:`SenderPat` / :class:`Target` addressing patterns.

Guards carry small Python callables for payload expressions, acceptance
conditions and variable updates; the refinement procedure never inspects
these (it is purely structural), so arbitrary finite-domain computations are
allowed as long as environments stay hashable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Optional, Union

from .env import Env, Value
from ..errors import SpecError

__all__ = [
    "DATA",
    "HOME",
    "AnySender",
    "VarSender",
    "SetSender",
    "PredSender",
    "SenderPat",
    "VarTarget",
    "ConstTarget",
    "ExprTarget",
    "Target",
    "Output",
    "Input",
    "Tau",
    "Guard",
    "StateDef",
    "ProcessDef",
    "Protocol",
    "ProcessKind",
]

#: Abstract data token used when the protocol's payload values do not matter
#: for the property being checked (the common case in protocol verification).
DATA: Value = "DATA"

#: Symbolic identity of the home node (remote ids are ints ``0..n-1``).
HOME = "home"


# ---------------------------------------------------------------------------
# Addressing patterns (home-side guards name remotes through these)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnySender:
    """``r(i)?m`` — accept the message from *any* remote node."""

    def matches(self, env: Env, sender: int) -> bool:
        return True

    def describe(self) -> str:
        return "r(i)"


@dataclass(frozen=True)
class VarSender:
    """``r(o)?m`` — accept only from the remote currently stored in ``var``."""

    var: str

    def matches(self, env: Env, sender: int) -> bool:
        return env[self.var] == sender

    def describe(self) -> str:
        return f"r({self.var})"


@dataclass(frozen=True)
class SetSender:
    """``r(s in S)?m`` — accept from any member of the set variable ``var``."""

    var: str

    def matches(self, env: Env, sender: int) -> bool:
        members = env[self.var]
        return isinstance(members, frozenset) and sender in members

    def describe(self) -> str:
        return f"r(s∈{self.var})"


@dataclass(frozen=True)
class PredSender:
    """Accept from senders satisfying an arbitrary predicate on (env, id)."""

    pred: Callable[[Env, int], bool]
    name: str = "pred"

    def matches(self, env: Env, sender: int) -> bool:
        return bool(self.pred(env, sender))

    def describe(self) -> str:
        return f"r({self.name})"


SenderPat = Union[AnySender, VarSender, SetSender, PredSender]


@dataclass(frozen=True)
class VarTarget:
    """``r(o)!m`` — send to the remote id held in variable ``var``."""

    var: str

    def eval(self, env: Env) -> int:
        value = env[self.var]
        if not isinstance(value, int):
            raise SpecError(
                f"output target variable {self.var!r} holds {value!r}, "
                "expected a remote id (int)"
            )
        return value

    def describe(self) -> str:
        return f"r({self.var})"


@dataclass(frozen=True)
class ConstTarget:
    """Send to a fixed remote id (mostly useful in tests)."""

    remote: int

    def eval(self, env: Env) -> int:
        return self.remote

    def describe(self) -> str:
        return f"r({self.remote})"


@dataclass(frozen=True)
class ExprTarget:
    """Send to the remote id computed by ``expr(env)``."""

    expr: Callable[[Env], int]
    name: str = "expr"

    def eval(self, env: Env) -> int:
        return int(self.expr(env))

    def describe(self) -> str:
        return f"r({self.name})"


Target = Union[VarTarget, ConstTarget, ExprTarget]


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Output:
    """Active rendezvous offer ``target!msg(payload)``.

    ``update`` is applied to the sender's environment when (and only when)
    the rendezvous *completes* — in the asynchronous refinement that is on
    receipt of the ack, never on sending the request.

    ``cond`` (optional) gates whether this offer is enabled at all in the
    current environment; the invalidate protocol uses it to guard its
    "invalidate next sharer" output on the sharers set being non-empty.
    """

    msg: str
    to: str
    target: Optional[Target] = None  # None on the remote side (peer is HOME)
    payload: Optional[Callable[[Env], Value]] = None
    update: Optional[Callable[[Env], Env]] = None
    cond: Optional[Callable[[Env], bool]] = None

    def enabled(self, env: Env) -> bool:
        return self.cond is None or bool(self.cond(env))

    def eval_payload(self, env: Env) -> Value:
        return self.payload(env) if self.payload is not None else None

    def apply_update(self, env: Env) -> Env:
        return self.update(env) if self.update is not None else env

    def describe(self) -> str:
        peer = self.target.describe() if self.target is not None else "h"
        return f"{peer}!{self.msg}"


@dataclass(frozen=True)
class Input:
    """Passive rendezvous offer ``sender?msg(bind_value)``.

    On completion the semantics (both levels) performs, in order:

    1. bind ``bind_sender`` to the id of the sending remote (home side only),
    2. bind ``bind_value`` to the received payload,
    3. apply ``update`` to the resulting environment.

    ``cond(env, sender, value)`` further restricts acceptance beyond the
    ``sender`` addressing pattern; it sees the *pre-binding* environment.
    """

    msg: str
    to: str
    sender: Optional[SenderPat] = None  # None on the remote side (peer is HOME)
    bind_sender: Optional[str] = None
    bind_value: Optional[str] = None
    cond: Optional[Callable[[Env, int, Value], bool]] = None
    update: Optional[Callable[[Env], Env]] = None

    def accepts(self, env: Env, sender: int, value: Value) -> bool:
        """Does this guard accept ``msg`` from ``sender`` carrying ``value``?"""
        if self.sender is not None and not self.sender.matches(env, sender):
            return False
        if self.cond is not None and not self.cond(env, sender, value):
            return False
        return True

    def complete(self, env: Env, sender: int, value: Value) -> Env:
        """Environment after the rendezvous on this guard completes."""
        if self.bind_sender is not None:
            env = env.set(self.bind_sender, sender)
        if self.bind_value is not None:
            env = env.set(self.bind_value, value)
        if self.update is not None:
            env = self.update(env)
        return env

    def describe(self) -> str:
        peer = self.sender.describe() if self.sender is not None else "h"
        binding = f"({self.bind_value})" if self.bind_value else ""
        return f"{peer}?{self.msg}{binding}"


@dataclass(frozen=True)
class Tau:
    """Autonomous internal step (eviction decisions, CPU read/write intents)."""

    label: str
    to: str
    cond: Optional[Callable[[Env], bool]] = None
    update: Optional[Callable[[Env], Env]] = None

    def enabled(self, env: Env) -> bool:
        return self.cond is None or bool(self.cond(env))

    def apply_update(self, env: Env) -> Env:
        return self.update(env) if self.update is not None else env

    def describe(self) -> str:
        return f"τ:{self.label}"


Guard = Union[Output, Input, Tau]


# ---------------------------------------------------------------------------
# States, processes, protocols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateDef:
    """One named state of a process, with its ordered guard list.

    Guard order is significant for the home node: the refinement's T2 rule
    cycles through output guards in declaration order when a rendezvous
    attempt is nacked (paper Table 2).
    """

    name: str
    guards: tuple[Guard, ...] = ()

    @cached_property
    def outputs(self) -> tuple[Output, ...]:
        return tuple(g for g in self.guards if isinstance(g, Output))

    @cached_property
    def inputs(self) -> tuple[Input, ...]:
        return tuple(g for g in self.guards if isinstance(g, Input))

    @cached_property
    def taus(self) -> tuple[Tau, ...]:
        return tuple(g for g in self.guards if isinstance(g, Tau))

    def accepting(self, msg: str, env: Env, sender: int,
                  value: Value) -> Optional[Input]:
        """The first declared input guard that accepts ``msg`` from
        ``sender`` (-1 on the remote side) carrying ``value``, or None:
        the input choice of both levels (paper Tables 1 and 2)."""
        for guard in self.inputs:
            if guard.msg == msg and guard.accepts(env, sender, value):
                return guard
        return None

    @property
    def duplicate_tau_label(self) -> Optional[str]:
        """The first label two of this state's taus share, if any."""
        labels = [g.label for g in self.taus]
        return next((x for i, x in enumerate(labels) if x in labels[:i]),
                    None)

    @cached_property
    def is_communication(self) -> bool:
        """A state offering at least one rendezvous (paper section 2.4)."""
        return bool(self.outputs) or bool(self.inputs)

    @property
    def is_internal(self) -> bool:
        """A state with only autonomous (tau) behaviour."""
        return bool(self.guards) and not self.is_communication

    @property
    def is_terminal(self) -> bool:
        """A state with no behaviour at all (normally a spec bug)."""
        return not self.guards

    @property
    def sole_tau(self) -> Optional[Tau]:
        """The guard of a state whose one guard is a tau, else None."""
        if len(self.guards) == 1 and isinstance(self.guards[0], Tau):
            return self.guards[0]
        return None


class ProcessKind:
    """Role of a process in the star topology."""

    HOME = "home"
    REMOTE = "remote"


@dataclass(frozen=True)
class ProcessDef:
    """A process: named states, an initial state and initial variable values."""

    name: str
    kind: str  # ProcessKind.HOME or ProcessKind.REMOTE
    states: Mapping[str, StateDef]
    initial_state: str
    initial_env: Env = field(default_factory=Env)

    def __post_init__(self) -> None:
        if self.kind not in (ProcessKind.HOME, ProcessKind.REMOTE):
            raise SpecError(f"unknown process kind {self.kind!r}")
        if self.initial_state not in self.states:
            raise SpecError(
                f"process {self.name!r}: initial state "
                f"{self.initial_state!r} is not defined"
            )
        for state in self.states.values():
            for guard in state.guards:
                if guard.to not in self.states:
                    raise SpecError(
                        f"process {self.name!r}: guard {guard.describe()} in "
                        f"state {state.name!r} targets undefined state "
                        f"{guard.to!r}"
                    )

    def state(self, name: str) -> StateDef:
        try:
            return self.states[name]
        except KeyError:
            raise SpecError(
                f"process {self.name!r} has no state {name!r}"
            ) from None

    def tau_closure(self, start: str) -> frozenset[str]:
        """States reachable from ``start`` through tau edges only."""
        seen = {start}
        stack = [start]
        while stack:
            for guard in self.state(stack.pop()).taus:
                if guard.to not in seen:
                    seen.add(guard.to)
                    stack.append(guard.to)
        return frozenset(seen)

    def responder_chain(self, start: str) -> list[str]:
        """``start``, then each state reached by the sole tau of a
        single-guard internal state, up to the first state already held:
        the local work a fused responder does between consuming a
        request and sending its reply (section 3.3).  The chain ends in
        a loop when its last state still has a :attr:`StateDef.sole_tau`."""
        chain = [start]
        tau = self.state(start).sole_tau
        while tau is not None and tau.to not in chain:
            chain.append(tau.to)
            tau = self.state(tau.to).sole_tau
        return chain

    @cached_property
    def input_msgs(self) -> frozenset[str]:
        """The message types some input guard of this process receives."""
        return frozenset(g.msg for state in self.states.values()
                         for g in state.inputs)

    @property
    def message_types(self) -> frozenset[str]:
        """All rendezvous message types this process sends or receives."""
        out: set[str] = set()
        for state in self.states.values():
            for guard in state.guards:
                if isinstance(guard, (Output, Input)):
                    out.add(guard.msg)
        return frozenset(out)


@dataclass(frozen=True)
class Protocol:
    """A rendezvous protocol: a home process and a remote process template.

    All remote nodes run the same template (paper section 2.4: "we assume
    that all the remote nodes follow the same protocol").  Instantiation
    with a concrete node count happens in the semantics layers.
    """

    name: str
    home: ProcessDef
    remote: ProcessDef

    def __post_init__(self) -> None:
        if self.home.kind != ProcessKind.HOME:
            raise SpecError("Protocol.home must have kind HOME")
        if self.remote.kind != ProcessKind.REMOTE:
            raise SpecError("Protocol.remote must have kind REMOTE")

    @property
    def message_types(self) -> frozenset[str]:
        return self.home.message_types | self.remote.message_types
