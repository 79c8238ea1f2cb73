"""Symmetry reduction for protocol state spaces (Ip/Dill scalarset style).

All remote nodes run the same template (paper section 2.4), so every global
state is equivalent to any relabelling of the remote indices — provided the
relabelling is applied consistently to the home's id-valued variables, the
buffers, and the per-remote channels.  Exploring one representative per
orbit can shrink the reachable space by up to ``n!``, which is exactly what
the invalidate rows of Table 3 need at larger node counts.

We use a *normalization* function rather than a true canonical form: each
state is mapped to an orbit member chosen by sorting remotes on a local
signature (control state, environment, channel contents, buffer
occupancy, and how the home's variables point at them).  Sorting is not
guaranteed to merge every orbit when signatures tie, but any consistent
orbit member is **sound** — the reduced system reaches a state orbit iff
the full system reaches the orbit — so reachability, deadlock and
*symmetric* invariants (all of ours quantify over remotes) are preserved.
Ties only cost extra states, never correctness.  The total order is
pinned, though: POR picks its ample set on the representative, so another
order gives other (equally sound) counts.

The signature's pieces are rendered strings.  Each is built once per
distinct remote node, channel queue and home environment and looked up
after that.  The node's own part comes first in the signature and is
cached on the node object, so a successor whose remotes' node parts
already strictly increase is its own representative — the sort's own
answer — after ``n - 1`` tuple comparisons, with no signature built
(close to half the successors of an asynchronous ``--symmetry --por``
sweep).  Any other successor costs a few dictionary probes and one small
sort; a state that already is its representative is returned as is.
Relabelling rebuilds the channel order and the remotes tuple, and the
home once per distinct (home, permutation) only: the rebuilt home is
one object per value, the very object the step memo's deltas hold
(:meth:`~repro.semantics.asynchronous.AsyncSystem.canonical`).
:class:`SymmetricSystem` binds its level's normalizer once, at
construction.

The home's variables that hold remote ids (or sets of them) must be
declared via :class:`SymmetrySpec` — the semantics cannot tell an id-typed
``0`` from a data ``0``.  Each library protocol exports its spec
(``MIGRATORY_SYMMETRY`` etc. in :mod:`repro.protocols.symmetry`).

Progress (SCC) analysis and the Equation-1 checker intentionally do *not*
use reduction: their edge labels distinguish remote identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Union

from ..csp.env import Env, Value
from ..errors import CheckError
from ..semantics.asynchronous import (
    AsyncState,
    AsyncSystem,
    BufEntry,
    HomeNode,
    RemoteNode,
)
from ..semantics.network import Channels, Msg
from ..semantics.rendezvous import RendezvousSystem
from ..semantics.state import ProcState, RvState
from .explorer import expand_state

__all__ = ["SymmetrySpec", "SymmetricSystem", "normalize"]


@dataclass(frozen=True)
class SymmetrySpec:
    """Which home variables carry remote identities.

    :param id_vars: variables holding a single remote id (or ``None``).
    :param set_vars: variables holding a ``frozenset`` of remote ids.
    """

    id_vars: frozenset[str] = frozenset()
    set_vars: frozenset[str] = frozenset()


#: Bound on each per-system table (:func:`_queue_key`,
#: :func:`_home_refs`, :func:`_relabelled`); cleared, not evicted, past
#: this.
_TABLE_LIMIT = 1 << 20

_State = Union[RvState, AsyncState]
#: ``(singles, members)``: the id variables equal to one remote and the
#: set variables containing it, each in name order.
_Refs = tuple[tuple[str, ...], tuple[str, ...]]
_QueueKeys = dict[tuple[Msg, ...], tuple[str, ...]]
_HomeRefs = dict[Env, tuple[_Refs, ...]]
#: ``(home, order) -> home relabelled by order`` (:func:`_relabelled`)
_Relabelled = dict[tuple[HomeNode, tuple[int, ...]], HomeNode]


class SymmetricSystem:
    """Wrap a system so the explorer sees one representative per orbit.

    Works with both :class:`~repro.semantics.rendezvous.RendezvousSystem`
    and :class:`~repro.semantics.asynchronous.AsyncSystem`, bare or under
    a wrapper that exposes them as ``inner`` (``PORSystem``).  Construction
    raises :class:`~repro.errors.CheckError` when ``spec`` names a variable
    the home process does not declare.  Not checked: that the named
    variables really hold remote ids, that no unnamed home variable does,
    and that remote-node environments are id-free (true for the whole
    library: remotes only hold data).

    Nothing is memoized per state; the three tables that are not
    instance caches (:func:`_queue_key`, :func:`_home_refs`,
    :func:`_relabelled`) belong to this object and are bounded by
    :data:`_TABLE_LIMIT`.  At the asynchronous level a relabelled home
    is put through the base system's
    :meth:`~repro.semantics.asynchronous.AsyncSystem.canonical`, so it
    is the very object the step memo's deltas hold for its value.
    """

    def __init__(self, inner: Any, spec: SymmetrySpec) -> None:
        base = inner
        while hasattr(base, "inner"):
            base = base.inner
        declared = base.protocol.home.initial_env
        missing = sorted(var for var in spec.id_vars | spec.set_vars
                         if var not in declared)
        if missing:
            raise CheckError(
                f"symmetry spec names {', '.join(map(repr, missing))}, which "
                f"the home process of {base.protocol.name!r} does not "
                f"declare (it has {', '.join(declared) or 'no variables'})")
        self.inner = inner
        self.spec = spec
        self.n = inner.n_remotes
        self._queue_keys: _QueueKeys = {}
        self._home_refs: _HomeRefs = {}
        self._relabelled: _Relabelled = {}
        self._normalize: Callable[[Any], Any]
        if isinstance(base, AsyncSystem):
            self._normalize = partial(_normalize_async, spec,
                                      self._queue_keys, self._home_refs,
                                      self._relabelled, base.canonical)
        elif isinstance(base, RendezvousSystem):
            self._normalize = partial(_normalize_rv, spec, self._home_refs)
        else:
            raise CheckError(
                f"cannot normalize the states of {type(base).__name__}")

    def initial_state(self) -> _State:
        return self._normalize(self.inner.initial_state())

    def successors(self, state: _State) -> list[tuple[Any, _State]]:
        return self.expand(state)[0]

    def expand(self, state: _State) -> tuple[list[tuple[Any, _State]], int]:
        """Successors plus the inner system's enabled count (forwarded
        from a reducing inner system such as
        :class:`~repro.check.por.PORSystem`)."""
        succs, enabled = expand_state(self.inner, state)
        _normalize = self._normalize
        return ([(action, _normalize(nxt))
                 for action, nxt in succs], enabled)


def normalize(state: _State, spec: SymmetrySpec) -> _State:
    """Map ``state`` to its orbit representative (``state`` itself, the
    same object, when it already is one)."""
    if isinstance(state, AsyncState):
        return _normalize_async(spec, {}, {}, {}, _same, state)
    if isinstance(state, RvState):
        return _normalize_rv(spec, {}, state)
    raise CheckError(f"cannot normalize states of type {type(state)!r}")


def _same(home: HomeNode) -> HomeNode:
    """:func:`normalize`'s stand-in for a system's ``canonical``: with
    no step memo to share with, a relabelled home is its own object."""
    return home


# ---------------------------------------------------------------------------


def _node_key(node: Union[ProcState, RemoteNode]) -> tuple[object, ...]:
    """The part of a remote's sort key the node alone decides, built once
    per node object into the memo slot its class declares,
    ``_sym_cache``."""
    key = node._sym_cache
    if key is None:
        env = tuple((k, repr(v)) for k, v in node.env.items())
        if isinstance(node, RemoteNode):
            key = (node.state, node.mode, node.pending_out or -1,
                   node.buf.describe() if node.buf else "", env)
        else:
            key = (node.state, env)
        object.__setattr__(node, "_sym_cache", key)
    return key


def _ascending(remotes: tuple[Union[ProcState, RemoteNode], ...]) -> bool:
    """Whether the remotes' node keys strictly increase: every full sort
    key starts with its node key, so the sort then keeps the order."""
    prev: Optional[tuple[object, ...]] = None
    for node in remotes:
        key = node._sym_cache
        if key is None:
            key = _node_key(node)
        if prev is not None and not prev < key:
            return False
        prev = key
    return True


def _queue_key(queue: tuple[Msg, ...], table: _QueueKeys) -> tuple[str, ...]:
    """One channel's rendering, built once per distinct queue."""
    key = table.get(queue)
    if key is None:
        key = tuple(m.describe() for m in queue)
        if len(table) > _TABLE_LIMIT:
            table.clear()
        table[queue] = key
    return key


def _home_refs(env: Env, spec: SymmetrySpec, n: int,
               table: _HomeRefs) -> tuple[_Refs, ...]:
    """How the home's id-typed variables point at each of the ``n``
    remotes, built once per distinct home environment."""
    refs = table.get(env)
    if refs is None:
        singles: list[tuple[str, ...]] = [()] * n
        members: list[tuple[str, ...]] = [()] * n
        for var, val in env.canonical_key():  # in name order
            if var in spec.id_vars:
                if isinstance(val, int) and 0 <= val < n:
                    singles[val] += (var,)
            elif var in spec.set_vars and isinstance(val, frozenset):
                for i in range(n):
                    if i in val:
                        members[i] += (var,)
        refs = tuple((singles[i], members[i]) for i in range(n))
        if len(table) > _TABLE_LIMIT:
            table.clear()
        table[env] = refs
    return refs


def _relabel_env(env: Env, spec: SymmetrySpec,
                 relabel: dict[int, int]) -> Env:
    changes: dict[str, Value] = {}
    for var, val in env.canonical_key():
        if var in spec.id_vars:
            if isinstance(val, int) and relabel.get(val, val) != val:
                changes[var] = relabel[val]
        elif var in spec.set_vars and isinstance(val, frozenset):
            moved = frozenset(relabel.get(m, m) for m in val)
            if moved != val:
                changes[var] = moved
    return env.update(changes) if changes else env


def _normalize_rv(spec: SymmetrySpec, home_refs: _HomeRefs,
                  state: RvState) -> RvState:
    if _ascending(state.remotes):
        return state
    n = len(state.remotes)
    refs = _home_refs(state.home.env, spec, n, home_refs)
    keys = [(_node_key(proc), refs[i])
            for i, proc in enumerate(state.remotes)]
    order = sorted(range(n), key=keys.__getitem__)
    if order == list(range(n)):
        return state  # already the representative
    relabel = {old: new for new, old in enumerate(order)}
    env = _relabel_env(state.home.env, spec, relabel)
    home = (state.home if env is state.home.env
            else ProcState(state.home.state, env))
    return RvState(home=home,
                   remotes=tuple(state.remotes[old] for old in order))


def _normalize_async(spec: SymmetrySpec, queue_keys: _QueueKeys,
                     home_refs: _HomeRefs, relabelled: _Relabelled,
                     canonical: Callable[[HomeNode], HomeNode],
                     state: AsyncState) -> AsyncState:
    if _ascending(state.remotes):
        return state
    home = state.home
    queues = state.channels.queues
    n = len(state.remotes)
    refs = _home_refs(home.env, spec, n, home_refs)
    slots: list[tuple[int, ...]] = [()] * n
    notes: list[tuple[int, ...]] = [()] * n
    for pos, entry in enumerate(home.buffer):
        if isinstance(entry.sender, int):
            slots[entry.sender] += (pos,)
            if entry.note:
                notes[entry.sender] += (pos,)
    awaiting = home.awaiting
    keys = []
    for i, node in enumerate(state.remotes):
        down, up = queues[2 * i], queues[2 * i + 1]
        keys.append((_node_key(node),
                     _queue_key(down, queue_keys) if down else (),
                     _queue_key(up, queue_keys) if up else (),
                     slots[i], notes[i], awaiting == i, refs[i]))
    order = sorted(range(n), key=keys.__getitem__)
    if order == list(range(n)):
        return state

    # Channels.to_remote(i)/.to_home(i) are 2i/2i + 1, so the new queue
    # tuple is the old pairs in the new order.
    new_queues = tuple(q for old in order
                       for q in (queues[2 * old], queues[2 * old + 1]))
    channels = (state.channels if new_queues == queues
                else Channels(queues=new_queues))
    return AsyncState(home=_relabelled(home, tuple(order), spec, relabelled,
                                       canonical),
                      remotes=tuple(state.remotes[old] for old in order),
                      channels=channels)


def _relabelled(home: HomeNode, order: tuple[int, ...], spec: SymmetrySpec,
                table: _Relabelled,
                canonical: Callable[[HomeNode], HomeNode]) -> HomeNode:
    """``home`` with remote ``order[new]`` renamed ``new`` in its buffer,
    id variables and ``awaiting``, built once per distinct (home, order)
    and put through ``canonical`` (a home that names no moved remote
    keeps its value)."""
    key = (home, order)
    image = table.get(key)
    if image is None:
        relabel = {old: new for new, old in enumerate(order)}
        buffer = tuple(
            BufEntry(sender=relabel[e.sender], msg=e.msg, payload=e.payload,
                     note=e.note)
            if isinstance(e.sender, int) and relabel[e.sender] != e.sender
            else e
            for e in home.buffer)
        env = _relabel_env(home.env, spec, relabel)
        awaiting = home.awaiting
        if isinstance(awaiting, int):
            awaiting = relabel[awaiting]
        image = home
        if (env is not home.env or awaiting != home.awaiting
                or buffer != home.buffer):
            image = HomeNode(state=home.state, env=env, mode=home.mode,
                             out_idx=home.out_idx, awaiting=awaiting,
                             pending_out=home.pending_out, buffer=buffer)
        image = canonical(image)
        if len(table) > _TABLE_LIMIT:
            table.clear()
        table[key] = image
    return image
