"""Operational semantics of rendezvous protocols (the paper's high level).

A rendezvous protocol executes as a closed system of ``1 + n`` processes:
the home node and ``n`` copies of the remote template, communicating only by
synchronous rendezvous (CSP-style).  A global transition is either:

* a **tau step** of one process (autonomous decision or internal state), or
* a **rendezvous**: an enabled Output guard of one process paired with a
  matching enabled Input guard of its peer; both processes move atomically.

This tiny state space is what the paper proposes users verify; the
refinement engine then compiles the same AST down to the asynchronous level.

States are immutable values.  :meth:`~RendezvousSystem.actions` +
:meth:`~RendezvousSystem.apply` interpret the guards and are the
reference; :meth:`~RendezvousSystem.successors`, what the explorer
consumes, gives the same list in the same order by replaying step
families memoized on the local view each reads — the home node, ``(i,
remote)``, and for an acceptance ``(remote, msg, payload)`` or ``(home,
i, msg, payload)``: the asynchronous level's contract (docs/ANALYSIS.md,
"The step engine").  Families hold nodes and steps, never states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Union

from ..csp.ast import Output, Protocol, Tau
from ..csp.env import Value
from ..errors import SemanticsError
from .state import HOME_ID, ProcId, ProcState, RvState, remember

__all__ = ["RendezvousAction", "TauStep", "RendezvousStep", "RendezvousSystem"]

#: a memo miss, where None is a value (no input accepts)
_UNSEEN = object()


def _put(nodes: tuple[ProcState, ...], i: int,
         node: ProcState) -> tuple[ProcState, ...]:
    return nodes[:i] + (node,) + nodes[i + 1:]


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
        for process in (protocol.home, protocol.remote):
            for sdef in process.states.values():
                if sdef.duplicate_tau_label is not None:
                    raise SemanticsError(
                        f"P2411: {process.name}.{sdef.name} has two taus "
                        f"labelled {sdef.duplicate_tau_label!r}")
        self.protocol = protocol
        self.n_remotes = n_remotes
        self._memo: dict[Any, Any] = {}

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
            if self.protocol.remote.state(remote.state).accepting(
                    guard.msg, remote.env, -1, payload) is not None:
                yield RendezvousStep(active=HOME_ID, passive=target,
                                     msg=guard.msg, payload=payload,
                                     out_index=idx)

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
                if home_def.accepting(guard.msg, state.home.env, i,
                                      payload) is not None:
                    yield RendezvousStep(active=i, passive=HOME_ID,
                                         msg=guard.msg, payload=payload,
                                         out_index=idx)

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
        i = action.remote
        if action.active == HOME_ID:
            active = state.home
            out_guard = self._output_at(
                self.protocol.home.state(active.state).outputs, active.env,
                action, f"home state {active.state!r}")
            assert out_guard.target is not None
            if out_guard.target.eval(active.env) != i:
                raise SemanticsError(
                    f"home output {out_guard.describe()} does not target "
                    f"r{i}")
            passive, process, sender = state.remotes[i], self.protocol.remote, -1
        else:
            active = state.remotes[i]
            out_guard = self._output_at(
                self.protocol.remote.state(active.state).outputs, active.env,
                action, f"remote r{i} state {active.state!r}")
            passive, process, sender = state.home, self.protocol.home, i
        in_guard = process.state(passive.state).accepting(
            action.msg, passive.env, sender, action.payload)
        if in_guard is None:
            raise SemanticsError(
                f"no input guard accepts {action.msg!r} from {sender}")
        sent = active.moved(out_guard.to, out_guard.apply_update(active.env))
        received = passive.moved(
            in_guard.to, in_guard.complete(passive.env, sender, action.payload))
        if action.active == HOME_ID:
            return state.with_home(sent).with_remote(i, received)
        return state.with_home(received).with_remote(i, sent)

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

    # -- convenience ---------------------------------------------------------

    def successors(self, state: RvState) -> list[tuple[Any, RvState]]:
        """``[(a, apply(state, a)) for a in actions(state)]``, replayed
        family by family through the memo."""
        out: list[tuple[Any, RvState]] = []
        home, remotes = state.home, state.remotes
        home_taus, home_outputs = self._family(HOME_ID, home)
        out.extend((action, RvState(node, remotes))
                   for action, node in home_taus)
        families = [self._family(i, node) for i, node in enumerate(remotes)]
        for i, (taus, _) in enumerate(families):
            out.extend((action, RvState(home, _put(remotes, i, node)))
                       for action, node in taus)
        for moved, step, guard, idx, target in home_outputs:
            if step is None:  # addressed outside the remotes
                out.extend((action, RvState(moved, remotes)) for action
                           in self._outside_offer(state, idx, guard, target))
                continue
            node = self._accepted(remotes[target], -1, step)
            if node is not None:
                out.append((step, RvState(moved, _put(remotes, target, node))))
        for i, (_, outputs) in enumerate(families):
            for moved, step, _, _, _ in outputs:
                node = self._accepted(home, i, step)
                if node is not None:
                    out.append((step, RvState(node, _put(remotes, i, moved))))
        return out

    def _family(self, who: ProcId, proc: ProcState,
                ) -> tuple[tuple[Any, ...], tuple[Any, ...]]:
        """The enabled taus and outputs of node ``proc`` (the home, or
        remote ``who``), each with the node it leaves behind."""
        key: Any = proc if who == HOME_ID else (who, proc)
        family = self._memo.get(key)
        if family is not None:
            return family
        process = self.protocol.home if who == HOME_ID else self.protocol.remote
        sdef, env = process.state(proc.state), proc.env
        taus = [(TauStep(who, guard.label),
                 proc.moved(guard.to, guard.apply_update(env)))
                for guard in sdef.taus if guard.enabled(env)]
        outputs: list[tuple[Any, ...]] = []
        for idx, guard in enumerate(sdef.outputs):
            if not guard.enabled(env):
                continue
            moved = proc.moved(guard.to, guard.apply_update(env))
            target: ProcId = HOME_ID
            if who == HOME_ID:
                assert guard.target is not None
                target = guard.target.eval(env)
                if not 0 <= target < self.n_remotes:
                    outputs.append((moved, None, guard, idx, target))
                    continue
            step = RendezvousStep(who, target, guard.msg,
                                  guard.eval_payload(env), idx)
            outputs.append((moved, step, guard, idx, target))
        return remember(self._memo, key, (tuple(taus), tuple(outputs)))

    def _accepted(self, proc: ProcState, sender: int,
                  step: RendezvousStep) -> Optional[ProcState]:
        """``proc`` (a remote if ``sender`` is -1, else the home) after its
        first input accepting ``step``, or None."""
        msg, payload = step.msg, step.payload
        key = (proc, msg, payload) if sender < 0 else (proc, sender, msg,
                                                       payload)
        node = self._memo.get(key, _UNSEEN)
        if node is _UNSEEN:
            process = self.protocol.remote if sender < 0 else self.protocol.home
            guard = process.state(proc.state).accepting(msg, proc.env, sender,
                                                        payload)
            node = None if guard is None else proc.moved(
                guard.to, guard.complete(proc.env, sender, payload))
            remember(self._memo, key, node)
        return node

    def is_progress(self, action: RendezvousAction) -> bool:
        """Progress-criterion labelling: rendezvous completions are progress."""
        return isinstance(action, RendezvousStep)
