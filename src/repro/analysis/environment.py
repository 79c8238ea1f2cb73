"""The environment abstraction both any-N verdicts are checked on.

The explorer decides properties at fixed node counts; the P45xx
(deadlock freedom) and P46xx (coherence) passes claim them for *any*
number of remotes.  Both rest on one CMP-style construction: keep
``n_concrete`` **concrete remotes** (ids ``0..n_concrete-1``) and
collapse every further remote into one stateless **Other** node (id
``n_concrete``).  Remotes are interchangeable copies of one template,
so any N-node run projects — for every choice of which remotes are the
concrete ones — onto a run of this abstract system; a property of the
home and at most ``n_concrete`` remotes that holds on every reachable
abstract state therefore holds at every N.  ``n_concrete`` is read off
the property: 2 for single-writer/SWMR, 1 for deadlock freedom (the
stuck-state rule below looks at the home and one remote).

The concrete fragment *is* :class:`~repro.semantics.rendezvous.
RendezvousSystem` at ``n_concrete`` nodes — :class:`EnvironmentSystem`
subclasses it and adds only Other's moves:

* **Other sends**: any remote-template output message (with any payload
  the template can produce) may arrive at the home at any time, through
  *every* accepting home input guard — Other conflates real senders
  whose first-matching guard would differ, so one offer per accepting
  guard is the sound enumeration.  The home applies its usual binding
  and update with the sender id of Other.
* **Other receives**: a home output whose target evaluates to Other is
  absorbed unconditionally whenever the message is in the remote
  template's input alphabet (some environment node in some state might
  accept it); the home applies its update, Other has no state to change.
* **Sticky sets**: a home update may shrink an id-set variable (e.g.
  the sharer set).  Concretely that removes *one* id; in the
  projection, other environment members may remain.  Whenever a step
  removes Other from a ``frozenset`` variable the abstract system
  additionally offers a variant step that keeps it.
* **Initial bindings**: a home variable that names a remote in the
  initial environment names a concrete one in some projections and an
  environment member in the others, so the initial state also steps to
  its copies with those ids replaced by Other.

The steps come from one memo contract, the rendezvous level's: the
inherited families are replayed as they are, Other's sends are memoized
on the home node (all the gates read) and sticky variants on the (old,
new) home environment pair.

Ungated, Other over-approximates every environment unconditionally —
and is sometimes too wild for a proof: it can answer a point-to-point
handshake it was never part of.  A :class:`Lemma` — "home in H ⇒ the
remote bound to ``var`` is in R" (P46xx's noninterference lemmas, read
off the protocol's two-node instance; deadlock freedom sweeps with
none) — tames it: while it holds, an environment member bound to
``var`` can only send what R produces, so Other-sends along
``VarSender(var)`` guards are pruned to those messages (fresh-sender
guards stay open, Other also plays the innocent bystanders).  The
argument is CMP's circular one: every lemma that gates Other is an
invariant of the very sweep it gates, checked on the concrete remotes
(the instance with ``var`` bound to Other is vacuous — the projection
with that remote concrete covers it).  By induction on run length the
gated Other still
over-approximates the environment as long as no lemma has failed, so a
sweep on which every gating lemma holds is sound; :func:`sweep` drops
the lemmas a sweep falsifies and repeats until none falls.

A reachable abstract state in which neither a tau nor a rendezvous
between the home and a concrete remote is enabled is **stuck**:
Other's offers never count as the move that un-deadlocks a state,
because "some remote offers it" is an ∃ the abstraction cannot
witness.  One exception: when the home's enabled directed guards
(``VarTarget`` outputs, ``VarSender`` inputs) address Other and no
concrete remote, the state is excused — a deadlocked N-node state
projects, with an addressed remote chosen as the concrete one (any
remote if the home addresses none), onto a stuck abstract state the
exception does not cover, so no real deadlock escapes.

Soundness caveat, stated rather than hidden: the abstraction is exact
for the id-opaque fragment the library and generator use (variable /
set / any sender patterns, variable targets, id-polymorphic updates);
:func:`static_guard_issues` names the home guards outside it, and both
verdicts refuse to discharge on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Callable, Iterator, Optional, Sequence

from ..csp.ast import (
    ConstTarget,
    ExprTarget,
    Input,
    Output,
    PredSender,
    ProcessDef,
    Protocol,
    VarSender,
    VarTarget,
)
from ..csp.env import Env, Value
# repro.semantics and repro.refine import each other, and the cycle only
# resolves entered from repro.refine; repro/__init__ imports this package
# before either, so enter it that way round here
from .. import refine as _refine_first  # noqa: F401, I001
from ..semantics.rendezvous import RendezvousSystem
from ..semantics.state import ProcState, RvState, remember

__all__ = [
    "EnvironmentSystem",
    "Lemma",
    "OtherInit",
    "OtherRecv",
    "OtherSend",
    "StickyStep",
    "Sweep",
    "is_abstract",
    "producible_msgs",
    "region_lemma",
    "static_guard_issues",
    "sweep",
]

#: name of the one explorer invariant all active lemmas are checked under
LEMMAS = "lemmas"


# ---------------------------------------------------------------------------
# abstract actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OtherSend:
    """The environment sends ``msg`` to the home.

    ``in_index`` pins which home input guard accepted it: Other stands
    for many real senders at once, so every accepting guard is a
    distinct abstract step (first-match would under-approximate).
    """

    msg: str
    payload: Value = None
    in_index: int = 0

    def describe(self) -> str:
        return f"other!{self.msg} ⇄ h[#{self.in_index}]"


@dataclass(frozen=True)
class OtherRecv:
    """The home sends ``msg`` to an environment node, which absorbs it."""

    msg: str
    out_index: int = 0

    def describe(self) -> str:
        return f"h!{self.msg} ⇄ other"


@dataclass(frozen=True)
class StickyStep:
    """Variant of a step whose update removed Other from the id-set
    variables in ``vars`` — this copy keeps it, modelling real runs
    where further environment members remain in the set."""

    base: str
    vars: tuple[str, ...]

    def describe(self) -> str:
        return f"{self.base} ⊕ other∈{{{','.join(self.vars)}}}"


@dataclass(frozen=True)
class OtherInit:
    """Variant of the initial state in which the remotes ``ids`` named
    by the home's initial environment are environment members."""

    ids: tuple[int, ...]

    def describe(self) -> str:
        return f"init ⊕ other={{{','.join(f'r{i}' for i in self.ids)}}}"


def is_abstract(action: Any) -> bool:
    """Is ``action`` a move only the abstraction has (no concrete run
    takes it)?"""
    return isinstance(action, (OtherSend, OtherRecv, StickyStep, OtherInit))


# ---------------------------------------------------------------------------
# lemmas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma:
    """Home in ``home_states`` ⇒ the remote bound to ``var`` is in
    ``region``.

    P46xx's noninterference lemmas have this shape.  ``allowed_msgs`` is
    what a remote satisfying the lemma can send — the gate it puts on
    Other while it holds.
    """

    name: str
    var: str
    home_states: frozenset[str]
    region: frozenset[str]
    allowed_msgs: frozenset[str]

    def holds(self, rv: RvState) -> bool:
        """Does the lemma hold of ``rv``'s concrete remotes?"""
        home = rv.home
        if home.state not in self.home_states:
            return True
        idx = home.env.get(self.var)
        if idx == len(rv.remotes):
            return True  # bound to Other: the symmetric instance covers it
        if not isinstance(idx, int) or not 0 <= idx < len(rv.remotes):
            return False  # untracked engagement: conservatively falsified
        return rv.remotes[idx].state in self.region

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "var": self.var,
            "home_states": sorted(self.home_states),
            "region": sorted(self.region),
            "allowed_msgs": sorted(self.allowed_msgs),
        }


def producible_msgs(process: ProcessDef, start: str) -> frozenset[str]:
    """Output message types offerable from ``start`` after local (tau)
    steps only — what the process can *produce* without outside help."""
    return frozenset(g.msg for s in process.tau_closure(start)
                     for g in process.state(s).outputs)


def region_lemma(remote: ProcessDef, *, name: str, var: str,
                 home_states: frozenset[str],
                 region: frozenset[str]) -> Lemma:
    """Build a gating lemma; its ``allowed_msgs`` are whatever the
    states it leaves the remote in can produce (after local steps)."""
    allowed = frozenset().union(*(producible_msgs(remote, s)
                                  for s in region))
    return Lemma(name=name, var=var, home_states=home_states,
                 region=region, allowed_msgs=allowed)


def _safe(pred: Callable[[Any], bool]) -> Callable[[Any], bool]:
    """``pred`` with a crash counted as a falsification."""
    def wrapped(state: Any) -> bool:
        try:
            return pred(state)
        except Exception:
            return False
    return wrapped


# ---------------------------------------------------------------------------
# the abstract system
# ---------------------------------------------------------------------------


class EnvironmentSystem(RendezvousSystem):
    """``n_concrete`` concrete remotes plus the Other environment node.

    States are plain :class:`~repro.semantics.state.RvState` values over
    the concrete remotes (Other is stateless); taus and rendezvous among
    the home and the concrete remotes are the inherited enumerators', so
    a violation trace without abstract steps is a real
    ``n_concrete``-node run.  While it is swept the system collects what
    the caller needs afterwards: the remote environments seen (the
    payload fixpoint of :func:`sweep`) and the stuck states.
    """

    def __init__(self, protocol: Protocol, n_concrete: int, *,
                 other_sends: dict[str, tuple[Value, ...]],
                 lemmas: Sequence[Lemma] = ()) -> None:
        super().__init__(protocol, n_concrete)
        self.other = n_concrete
        self.other_sends = other_sends
        self.lemmas = tuple(lemmas)
        self.seen_remote_envs: set[Env] = {protocol.remote.initial_env}
        self.stuck: list[RvState] = []
        # dispatch by home state: the lemmas to check there, and the
        # gates on Other per (home state, engaged variable)
        self._checks = {
            name: tuple(lemma for lemma in self.lemmas
                        if name in lemma.home_states)
            for name in protocol.home.states}
        self._gates: dict[tuple[str, str], list[frozenset[str]]] = {}
        for lemma in self.lemmas:
            for name in lemma.home_states:
                self._gates.setdefault((name, lemma.var), []).append(
                    lemma.allowed_msgs)
        #: Other's sends per home node, sticky variants per (old, new)
        #: home environment; bounded like the inherited step memo
        self._sends: dict[ProcState, tuple[Any, ...]] = {}
        self._sticky: dict[tuple[Env, Env], tuple[Any, ...]] = {}
        self._initial = self.initial_state()
        self._initial_variants = self._other_initials()

    # -- lemma checks --------------------------------------------------------

    def lemmas_hold(self, state: RvState) -> bool:
        """The one explorer invariant: every active lemma holds."""
        for lemma in self._checks[state.home.state]:
            if not lemma.holds(state):
                return False
        return True

    def falsified(self, state: RvState) -> list[Lemma]:
        return [lemma for lemma in self._checks[state.home.state]
                if not lemma.holds(state)]

    # -- explorer interface --------------------------------------------------

    def successors(self, state: RvState) -> list[tuple[Any, RvState]]:
        result: list[tuple[Any, RvState]] = []
        moved = False  # by a tau or a home <-> concrete rendezvous
        for action, post in super().successors(state):
            moved = moved or not isinstance(action, OtherRecv)
            self._offer(result, state, action, post)
        if not moved and not self._excused(state):
            self.stuck.append(state)
        for action, node in self._other_sends(state.home):
            self._offer(result, state, action, RvState(node, state.remotes))
        if state == self._initial:
            result.extend(self._initial_variants)
        for _, post in result:
            if post.remotes is not state.remotes:  # a remote moved
                for proc in post.remotes:
                    self.seen_remote_envs.add(proc.env)
        return result

    def apply(self, state: RvState, action: Any) -> RvState:
        if isinstance(action, OtherRecv):
            guard = self.protocol.home.state(
                state.home.state).outputs[action.out_index]
            return state.with_home(state.home.moved(
                guard.to, guard.apply_update(state.home.env)))
        return super().apply(state, action)

    # -- Other's moves -------------------------------------------------------

    def _outside_offer(self, state: RvState, idx: int, guard: Output,
                       target: int) -> Iterator[Any]:
        if target != self.other:
            return super()._outside_offer(state, idx, guard, target)
        if guard.msg not in self.protocol.remote.input_msgs:
            return iter(())  # no environment node could ever accept it
        return iter((OtherRecv(msg=guard.msg, out_index=idx),))

    def _other_sends(self, home: ProcState,
                     ) -> tuple[tuple[OtherSend, ProcState], ...]:
        """Other's sends the home accepts, each with the home it leaves;
        memoized on the home node, all the gates read."""
        sends = self._sends.get(home)
        if sends is None:
            inputs = list(enumerate(
                self.protocol.home.state(home.state).inputs))
            sends = remember(self._sends, home, tuple(
                (OtherSend(msg=msg, payload=payload, in_index=i),
                 home.moved(g.to, g.complete(home.env, self.other, payload)))
                for msg, payloads in self.other_sends.items()
                for payload in payloads for i, g in inputs
                if g.msg == msg and not self._gated(home, g)
                and g.accepts(home.env, self.other, payload)))
        return sends

    def _gated(self, home: Any, guard: Input) -> bool:
        """Does an active lemma forbid Other this send?"""
        if not isinstance(guard.sender, VarSender):
            return False  # fresh-sender guards also model bystanders
        var = guard.sender.var
        return home.env.get(var) == self.other and any(
            guard.msg not in allowed
            for allowed in self._gates.get((home.state, var), ()))

    def _excused(self, state: RvState) -> bool:
        """A stuck state is excused when the home's enabled directed
        guards address Other and no concrete remote."""
        env = state.home.env
        home_def = self.protocol.home.state(state.home.state)
        addressed = {
            env.get(g.target.var) for g in home_def.outputs
            if isinstance(g.target, VarTarget) and g.enabled(env)}
        addressed.update(
            env.get(g.sender.var) for g in home_def.inputs
            if isinstance(g.sender, VarSender))
        return self.other in addressed and not any(
            isinstance(i, int) and 0 <= i < self.other for i in addressed)

    # -- sticky id-set and initial variants ----------------------------------

    def _offer(self, result: list[tuple[Any, RvState]], pre: RvState,
               action: Any, post: RvState) -> None:
        """Append one step and, if its update removed Other from id-set
        variables, the variants that keep it."""
        result.append((action, post))
        old, new = pre.home.env, post.home.env
        if new is old:
            return
        variants = self._sticky.get((old, new))
        if variants is None:
            # both envs declare the same variables, in canonical order
            lost = [key for (key, was), (_, now)
                    in zip(old.canonical_key(), new.canonical_key())
                    if isinstance(was, frozenset) and self.other in was
                    and isinstance(now, frozenset) and self.other not in now]
            variants = remember(self._sticky, (old, new), tuple(
                (subset, new.update(
                    {key: new[key] | {self.other}  # type: ignore[operator]
                     for key in subset}))
                for subset in _nonempty_subsets(lost)))
        for subset, env in variants:
            result.append((
                StickyStep(base=action.describe(), vars=subset),
                post.with_home(post.home.moved(post.home.state, env))))

    def _other_initials(self) -> list[tuple[Any, RvState]]:
        """The initial state with every non-empty subset of the concrete
        ids its home environment names replaced by Other."""
        home = self._initial.home

        def concrete(value: Value) -> bool:
            return (isinstance(value, int) and not isinstance(value, bool)
                    and 0 <= value < self.other)

        named = sorted({v for v in home.env.values() if concrete(v)}
                       | {i for v in home.env.values()
                          if isinstance(v, frozenset)
                          for i in v if concrete(i)})
        variants: list[tuple[Any, RvState]] = []
        for ids in _nonempty_subsets(named):
            def swap(value: Value) -> Value:
                if isinstance(value, frozenset):
                    return frozenset(swap(i) for i in value)
                return self.other if concrete(value) and value in ids \
                    else value
            env = home.env.update(
                {key: swap(value) for key, value in home.env.items()})
            variants.append((OtherInit(ids), self._initial.with_home(
                home.moved(home.state, env))))
        return variants


def _nonempty_subsets(items: Sequence[Any]) -> Iterator[tuple[Any, ...]]:
    return (subset for size in range(1, len(items) + 1)
            for subset in combinations(items, size))


# ---------------------------------------------------------------------------
# what the abstraction cannot model
# ---------------------------------------------------------------------------


def static_guard_issues(protocol: Protocol) -> list[str]:
    """Home-side constructs the abstraction cannot classify for Other."""
    issues = []
    for name in sorted(protocol.home.states):
        sdef = protocol.home.state(name)
        for guard in sdef.inputs:
            if isinstance(guard.sender, PredSender):
                issues.append(
                    f"home input ?{guard.msg} at {name} matches senders by "
                    f"predicate {guard.sender.describe()}; predicates are "
                    "not id-opaque, so Other cannot be classified")
        for guard in sdef.outputs:
            if isinstance(guard.target, ExprTarget):
                issues.append(
                    f"home output !{guard.msg} at {name} computes its "
                    f"target by expression {guard.target.describe()}; the "
                    "abstraction cannot map it onto the concrete/Other "
                    "split")
            elif isinstance(guard.target, ConstTarget):
                issues.append(
                    f"home output !{guard.msg} at {name} targets the fixed "
                    f"remote {guard.target.remote}; fixed ids break the "
                    "remote-symmetry premise of the concrete-node "
                    "argument")
    return issues


def other_send_table(
        protocol: Protocol, payload_envs: set[Env],
) -> tuple[dict[str, tuple[Value, ...]], list[str]]:
    """All (message, payload) pairs the remote template can emit,
    payloads evaluated over every remote environment seen so far."""
    issues: set[str] = set()
    table: dict[str, set[Value]] = {}
    for name in sorted(protocol.remote.states):
        for guard in protocol.remote.state(name).outputs:
            values = table.setdefault(guard.msg, set())
            for env in payload_envs:
                try:
                    values.add(guard.eval_payload(env))
                except Exception as exc:
                    issues.add(
                        f"payload of remote output !{guard.msg} at {name} "
                        f"is not evaluable under the abstraction ({exc})")
    return ({msg: tuple(sorted(values, key=repr))
             for msg, values in sorted(table.items())}, sorted(issues))


# ---------------------------------------------------------------------------
# the circular check
# ---------------------------------------------------------------------------


@dataclass
class Sweep:
    """What :func:`sweep` established about one protocol.

    ``result`` is the last exploration (``None`` when the system raised
    before one finished), sound for what it reports when ``reason`` is
    ``None``: every lemma of ``held`` is an invariant of it and gated
    its Other.  ``fallen`` maps each dropped lemma to its shortest
    falsifying trace; ``issues`` are the constructs that make the
    over-approximation incomplete (no discharge may rest on the sweep);
    ``reason`` says why it could not be finished (truncation, an error
    out of the semantics).
    """

    held: tuple[Lemma, ...] = ()
    fallen: dict[str, Any] = field(default_factory=dict)
    iterations: int = 0
    result: Any = None
    stuck: tuple[RvState, ...] = ()
    issues: tuple[str, ...] = ()
    reason: Optional[str] = None

    @property
    def n_states(self) -> int:
        return self.result.n_states if self.result is not None else 0


def sweep(protocol: Protocol, n_concrete: int, lemmas: Sequence[Lemma],
          *, invariants: Sequence[tuple[str, Callable[[Any], bool]]] = (),
          max_states: int, name: str) -> Sweep:
    """Sweep the abstraction of ``protocol`` with ``lemmas`` gating Other
    and checked on the same run, to the fixpoint where none falls.

    Two things restart the sweep: a remote environment not seen before
    (Other may send any payload some reachable remote environment can
    produce), and a falsified lemma, which is dropped — gating only
    removes behaviour, so a lemma that fell under more gates falls under
    fewer, and dropping all of a sweep's casualties at once loses
    nothing.  ``invariants`` are checked beside the lemmas (a crash in
    one is a falsification); their violations are in ``result``.
    """
    from ..check.explorer import explore

    issues = static_guard_issues(protocol)
    active = list(lemmas)
    done = Sweep()
    if issues:
        done.issues = tuple(issues)
        done.reason = ("the environment abstraction is unsound here: "
                       + issues[0])
        return done
    payload_envs = {protocol.remote.initial_env}
    other_sends, payload_issues = other_send_table(protocol, payload_envs)
    while True:
        done.iterations += 1
        checks = [(prop, _safe(pred)) for prop, pred in invariants]
        try:
            system = EnvironmentSystem(protocol, n_concrete,
                                       other_sends=other_sends, lemmas=active)
            if active:
                checks.append((LEMMAS, system.lemmas_hold))
            result = explore(system, name=name, invariants=checks,
                             max_states=max_states, stop_on_violation=False,
                             allow_deadlock=True)
        except Exception as exc:  # semantics errors on ill-formed protocols
            done.reason = f"abstract exploration failed ({exc})"
            break
        done.result, done.stuck = result, tuple(system.stuck)
        if not result.completed:
            done.reason = (f"abstract exploration truncated "
                           f"({result.stop_reason}) after "
                           f"{result.n_states} states")
            break
        new_envs = system.seen_remote_envs - payload_envs
        if new_envs:
            payload_envs |= new_envs
            grown, more = other_send_table(protocol, payload_envs)
            payload_issues.extend(x for x in more if x not in payload_issues)
            if grown != other_sends:
                other_sends = grown
                continue
        fell = False
        for cex in result.violations:
            if cex.property_name != LEMMAS:
                continue
            for lemma in system.falsified(cex.states[-1]):
                fell = True
                best = done.fallen.get(lemma.name)
                if best is None or len(cex.steps) < len(best.steps):
                    done.fallen[lemma.name] = cex
        if not fell:
            break
        active = [x for x in active if x.name not in done.fallen]
    done.held = tuple(active) if done.reason is None else ()
    done.issues = tuple(payload_issues)
    return done
