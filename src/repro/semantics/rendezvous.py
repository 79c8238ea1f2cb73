"""Operational semantics of rendezvous protocols (the paper's high level).

A rendezvous protocol executes as a closed system of ``1 + n`` processes:
the home node and ``n`` copies of the remote template, communicating only by
synchronous rendezvous (CSP-style).  A global transition is either:

* a **tau step** of one process (autonomous decision or internal state), or
* a **rendezvous**: an enabled Output guard of one process paired with a
  matching enabled Input guard of its peer; both processes move atomically.

This tiny state space is what the paper proposes users verify; the
refinement engine then compiles the same AST down to the asynchronous level.

The system object is *pure*: states are immutable values, and
:meth:`RendezvousSystem.successors` enumerates all interleavings, which is
exactly the interface the explicit-state explorer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from ..csp.ast import Input, Output, Protocol, Tau
from ..csp.env import Value
from ..errors import SemanticsError
from .state import HOME_ID, ProcId, ProcState, RvState

__all__ = ["RendezvousAction", "TauStep", "RendezvousStep", "RendezvousSystem"]


@dataclass(frozen=True, slots=True)
class TauStep:
    """Process ``proc`` takes the autonomous guard ``label``."""

    proc: ProcId
    label: str

    def describe(self) -> str:
        who = "h" if self.proc == HOME_ID else f"r{self.proc}"
        return f"{who}.τ:{self.label}"


@dataclass(frozen=True, slots=True)
class RendezvousStep:
    """A completed rendezvous on message type ``msg``.

    ``active`` executed the Output guard, ``passive`` the Input guard
    (paper section 2.3 terminology).  One of the two is always the home
    node; ``remote`` is the remote party's index whichever side it is on.
    ``out_index`` pins *which* of the active side's output guards fired:
    two guards may carry the same (msg, target, payload) yet continue to
    different states, and the refined semantics can take either (the T2
    rule cycles through output guards on nack), so the rendezvous level
    must offer both as distinct steps.
    """

    active: ProcId
    passive: ProcId
    msg: str
    payload: Value = None
    out_index: int = 0

    @property
    def remote(self) -> int:
        party = self.passive if self.active == HOME_ID else self.active
        assert isinstance(party, int)
        return party

    def describe(self) -> str:
        def name(p: ProcId) -> str:
            return "h" if p == HOME_ID else f"r{p}"

        return f"{name(self.active)}!{self.msg} ⇄ {name(self.passive)}"


RendezvousAction = Union[TauStep, RendezvousStep]


class RendezvousSystem:
    """Executable rendezvous semantics for ``protocol`` with ``n`` remotes."""

    def __init__(self, protocol: Protocol, n_remotes: int) -> None:
        if n_remotes < 1:
            raise SemanticsError("need at least one remote node")
        self.protocol = protocol
        self.n_remotes = n_remotes

    # -- construction -------------------------------------------------------

    def initial_state(self) -> RvState:
        home = ProcState(self.protocol.home.initial_state,
                         self.protocol.home.initial_env)
        remote = ProcState(self.protocol.remote.initial_state,
                           self.protocol.remote.initial_env)
        return RvState(home=home, remotes=(remote,) * self.n_remotes)

    # -- transition enumeration ---------------------------------------------

    def actions(self, state: RvState) -> list[RendezvousAction]:
        return list(self._iter_actions(state))

    def _iter_actions(self, state: RvState) -> Iterator[RendezvousAction]:
        yield from self._tau_actions(state)
        yield from self._home_active_rendezvous(state)
        yield from self._remote_active_rendezvous(state)

    def _tau_actions(self, state: RvState) -> Iterator[TauStep]:
        home_def = self.protocol.home.state(state.home.state)
        for guard in home_def.taus:
            if guard.enabled(state.home.env):
                yield TauStep(proc=HOME_ID, label=guard.label)
        for i, proc in enumerate(state.remotes):
            for guard in self.protocol.remote.state(proc.state).taus:
                if guard.enabled(proc.env):
                    yield TauStep(proc=i, label=guard.label)

    def _home_active_rendezvous(self, state: RvState) -> Iterator[RendezvousAction]:
        home_def = self.protocol.home.state(state.home.state)
        for idx, guard in enumerate(home_def.outputs):
            if not guard.enabled(state.home.env):
                continue
            assert guard.target is not None
            target = guard.target.eval(state.home.env)
            if not 0 <= target < self.n_remotes:
                yield from self._outside_offer(state, idx, guard, target)
                continue
            remote = state.remotes[target]
            payload = guard.eval_payload(state.home.env)
            for r_guard in self.protocol.remote.state(remote.state).inputs:
                if r_guard.msg == guard.msg and r_guard.accepts(
                        remote.env, -1, payload):
                    yield RendezvousStep(active=HOME_ID, passive=target,
                                         msg=guard.msg, payload=payload,
                                         out_index=idx)
                    break  # one matching input is one rendezvous offer

    def _outside_offer(self, state: RvState, idx: int, guard: Output,
                       target: int) -> Iterator[RendezvousAction]:
        """An enabled home output addressed outside ``0..n-1``: an error
        in a closed system (the environment abstraction of
        :mod:`repro.analysis.environment` answers for its Other node)."""
        raise SemanticsError(
            f"home output {guard.describe()} targets remote "
            f"{target}, outside 0..{self.n_remotes - 1}"
        )

    def _remote_active_rendezvous(self, state: RvState) -> Iterator[RendezvousStep]:
        home_def = self.protocol.home.state(state.home.state)
        for i, proc in enumerate(state.remotes):
            for idx, guard in enumerate(
                    self.protocol.remote.state(proc.state).outputs):
                if not guard.enabled(proc.env):
                    continue
                payload = guard.eval_payload(proc.env)
                for h_guard in home_def.inputs:
                    if h_guard.msg == guard.msg and h_guard.accepts(
                            state.home.env, i, payload):
                        yield RendezvousStep(active=i, passive=HOME_ID,
                                             msg=guard.msg, payload=payload,
                                             out_index=idx)
                        break

    # -- transition application ----------------------------------------------

    def apply(self, state: RvState, action: RendezvousAction) -> RvState:
        if isinstance(action, TauStep):
            return self._apply_tau(state, action)
        return self._apply_rendezvous(state, action)

    def _apply_tau(self, state: RvState, action: TauStep) -> RvState:
        if action.proc == HOME_ID:
            proc, process_def = state.home, self.protocol.home
        else:
            proc, process_def = state.remotes[action.proc], self.protocol.remote
        guard = self._find_tau(process_def.state(proc.state).taus, action.label,
                               proc, process_def.name)
        moved = proc.moved(guard.to, guard.apply_update(proc.env))
        if action.proc == HOME_ID:
            return state.with_home(moved)
        return state.with_remote(action.proc, moved)

    @staticmethod
    def _find_tau(taus: Iterable[Tau], label: str, proc: ProcState,
                  process_name: str) -> Tau:
        for guard in taus:
            if guard.label == label and guard.enabled(proc.env):
                return guard
        raise SemanticsError(
            f"tau {label!r} not enabled in {process_name}.{proc.state}"
        )

    def _apply_rendezvous(self, state: RvState, action: RendezvousStep) -> RvState:
        if action.active == HOME_ID:
            return self._apply_home_active(state, action)
        return self._apply_remote_active(state, action)

    def _apply_home_active(self, state: RvState, action: RendezvousStep) -> RvState:
        remote_idx = action.passive
        assert isinstance(remote_idx, int)
        home_def = self.protocol.home.state(state.home.state)
        out_guard = self._output_at(
            home_def.outputs, state.home.env, action,
            f"home state {state.home.state!r}")
        assert out_guard.target is not None
        if out_guard.target.eval(state.home.env) != remote_idx:
            raise SemanticsError(
                f"home output {out_guard.describe()} does not target "
                f"r{remote_idx}")
        remote = state.remotes[remote_idx]
        in_guard = self._matching_input(
            self.protocol.remote.state(remote.state).inputs,
            remote.env, action.msg, -1, action.payload)
        new_home = state.home.moved(
            out_guard.to, out_guard.apply_update(state.home.env))
        new_remote = remote.moved(
            in_guard.to, in_guard.complete(remote.env, -1, action.payload))
        return state.with_home(new_home).with_remote(remote_idx, new_remote)

    def _apply_remote_active(self, state: RvState, action: RendezvousStep) -> RvState:
        remote_idx = action.active
        assert isinstance(remote_idx, int)
        remote = state.remotes[remote_idx]
        out_guard = self._output_at(
            self.protocol.remote.state(remote.state).outputs, remote.env,
            action, f"remote r{remote_idx} state {remote.state!r}")
        in_guard = self._matching_input(
            self.protocol.home.state(state.home.state).inputs,
            state.home.env, action.msg, remote_idx, action.payload)
        new_remote = remote.moved(
            out_guard.to, out_guard.apply_update(remote.env))
        new_home = state.home.moved(
            in_guard.to,
            in_guard.complete(state.home.env, remote_idx, action.payload))
        return state.with_home(new_home).with_remote(remote_idx, new_remote)

    @staticmethod
    def _output_at(outputs: tuple[Output, ...], env, action: RendezvousStep,
                   where: str) -> Output:
        """The output guard ``action.out_index`` names, verified enabled.

        Resolving by index (not by first (msg, payload) match) is what
        keeps two same-message output guards distinct — the refined
        semantics can take either, so the rendezvous level must too.
        """
        if not 0 <= action.out_index < len(outputs):
            raise SemanticsError(
                f"{where} has no output guard #{action.out_index}")
        guard = outputs[action.out_index]
        if (guard.msg != action.msg or not guard.enabled(env)
                or guard.eval_payload(env) != action.payload):
            raise SemanticsError(
                f"{where}: output guard #{action.out_index} does not offer "
                f"{action.msg!r} with payload {action.payload!r}")
        return guard

    @staticmethod
    def _matching_input(inputs: Iterable[Input], env, msg: str, sender: int,
                        payload: Value) -> Input:
        for guard in inputs:
            if guard.msg == msg and guard.accepts(env, sender, payload):
                return guard
        raise SemanticsError(f"no input guard accepts {msg!r} from {sender}")

    # -- convenience ---------------------------------------------------------

    def successors(self, state: RvState) -> list[tuple[RendezvousAction, RvState]]:
        return [(action, self.apply(state, action))
                for action in self.actions(state)]

    def is_progress(self, action: RendezvousAction) -> bool:
        """Progress-criterion labelling: rendezvous completions are progress."""
        return isinstance(action, RendezvousStep)
