"""Shared global-state containers for both semantic levels.

A *global state* is what the model checker hashes and stores: the control
state and variable environment of the home node and of every remote node,
plus (at the asynchronous level only) buffers and in-flight messages.  The
rendezvous-level :class:`RvState` lives here; the richer asynchronous state
lives in :mod:`repro.semantics.asynchronous` but reuses :class:`ProcState`.

Process identities: the home node is :data:`HOME_ID`; remote nodes are
``0 .. n-1``.

Every value type of the semantics is a slotted frozen dataclass: an
instance holds its fields plus the memos its class declares with
:func:`memo`, and nothing else — no instance dict, no attribute added
later.  Its identity is its compared fields, read once by :func:`value`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, Optional, Union

from ..csp.env import Env

__all__ = ["HOME_ID", "ProcId", "ProcState", "RvState", "memo", "remember",
           "value"]

#: Identity of the home node in transition labels and message records.
HOME_ID = "h"

ProcId = Union[str, int]  # HOME_ID or a remote index


def memo() -> Any:
    """A declared per-object memo slot: ``None`` until its owner fills it
    (with ``object.__setattr__``), and outside ``==``, ``hash()``,
    ``repr`` and ``dataclasses.replace`` — a replaced copy starts empty."""
    return field(default=None, init=False, repr=False, compare=False)


def value(cls: type) -> type:
    """Finish a slotted frozen dataclass as a value type whose identity
    is its compared fields, read here once.

    The class gets ``fields_of(obj)``, the tuple of those fields in
    declaration order (named by ``__match_args__``), which the canonical
    encoding (:func:`repro.check.store._enc`) encodes.  And its
    ``__hash__``, the one the dataclass generated — the hash of that
    tuple — is memoized in the declared ``_hash_cache``: values are
    shared across many states, and every store probe and step memo
    rehashes them.
    """
    names = tuple(f.name for f in fields(cls) if f.compare)
    if names != getattr(cls, "__match_args__", None):
        raise TypeError(f"{cls.__name__}: every compared field must be an "
                        "init field, in declaration order")
    get = attrgetter(*names)
    fields_of = get if len(names) > 1 else (lambda obj: (get(obj),))
    field_hash = cls.__hash__

    def __hash__(self: Any) -> int:
        cached = self._hash_cache
        if cached is None:
            cached = field_hash(self)
            object.__setattr__(self, "_hash_cache", cached)
        return cached

    cls.fields_of = staticmethod(fields_of)
    cls.__hash__ = __hash__
    return cls


#: Entry bound of one system's step memo, at either level; the memo is
#: cleared, not evicted, when it fills (the 241,339 states of
#: asynchronous invalidate n = 3 need about 21,000 entries).
_MEMO_LIMIT = 1 << 16


def remember(memo: dict[Any, Any], key: Any, value: Any,
             values: Optional[dict[Any, Any]] = None) -> Any:
    """Store ``value`` under ``key`` in a bounded memo; returns it.

    ``values`` is the memo's value table, when it keeps one: one object
    per value among the parts of what the memo holds.  It is cleared
    with the memo, and on its own when it reaches the memo's bound, so
    it never outlives the memo or grows past its bound."""
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
        if values is not None:
            values.clear()
    elif values is not None and len(values) >= _MEMO_LIMIT:
        values.clear()
    memo[key] = value
    return value


@value
@dataclass(frozen=True, slots=True)
class ProcState:
    """Control state name plus variable environment of one process."""

    state: str
    env: Env
    #: symmetry sort key (:func:`repro.check.symmetry._node_key`)
    _sym_cache: Optional[tuple[object, ...]] = memo()
    _hash_cache: Optional[int] = memo()
    #: 16-byte component digest (:func:`repro.check.store._summary`)
    _digest_cache: Optional[bytes] = memo()

    def moved(self, state: str, env: Env | None = None) -> "ProcState":
        return ProcState(state=state, env=self.env if env is None else env)

    def describe(self) -> str:
        if len(self.env) == 0:
            return self.state
        body = ",".join(f"{k}={v!r}" for k, v in self.env.items())
        return f"{self.state}[{body}]"


@value
@dataclass(frozen=True, slots=True)
class RvState:
    """Global state of the rendezvous-level transition system.

    Hashed once per instance (:func:`value`): the model checker's visited
    set probes each state many times, and the structural hash over
    nested dataclasses is the hot path.
    """

    home: ProcState
    remotes: tuple[ProcState, ...]
    _hash_cache: Optional[int] = memo()

    def components(self) -> tuple[str, tuple[ProcState, ...], tuple[()]]:
        """``(tag, nodes, network)`` as :class:`~repro.semantics.
        asynchronous.AsyncState` gives them: the fingerprint store
        digests each node once, into its ``_digest_cache``; there is no
        network."""
        return "rv", (self.home,) + self.remotes, ()

    @property
    def n_remotes(self) -> int:
        return len(self.remotes)

    def with_home(self, home: ProcState) -> "RvState":
        return RvState(home=home, remotes=self.remotes)

    def with_remote(self, index: int, proc: ProcState) -> "RvState":
        remotes = list(self.remotes)
        remotes[index] = proc
        return RvState(home=self.home, remotes=tuple(remotes))

    def describe(self) -> str:
        remotes = " ".join(
            f"r{i}:{p.describe()}" for i, p in enumerate(self.remotes)
        )
        return f"h:{self.home.describe()} {remotes}"
