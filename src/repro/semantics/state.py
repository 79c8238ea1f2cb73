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
later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

from ..csp.env import Env

__all__ = ["HOME_ID", "ProcId", "ProcState", "RvState", "memo"]

#: Identity of the home node in transition labels and message records.
HOME_ID = "h"

ProcId = Union[str, int]  # HOME_ID or a remote index


def memo() -> Any:
    """A declared per-object memo slot: ``None`` until its owner fills it
    (with ``object.__setattr__``), and outside ``==``, ``hash()``,
    ``repr`` and ``dataclasses.replace`` — a replaced copy starts empty."""
    return field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class ProcState:
    """Control state name plus variable environment of one process."""

    state: str
    env: Env
    #: symmetry sort key (:func:`repro.check.symmetry._node_key`)
    _sym_cache: Optional[tuple[object, ...]] = memo()

    def moved(self, state: str, env: Env | None = None) -> "ProcState":
        return ProcState(state=state, env=self.env if env is None else env)

    def canonical_key(self) -> tuple:
        """Compact primitive encoding for fingerprinting (see
        :mod:`repro.check.store`)."""
        return (self.state, self.env.canonical_key())

    def describe(self) -> str:
        if len(self.env) == 0:
            return self.state
        body = ",".join(f"{k}={v!r}" for k, v in self.env.items())
        return f"{self.state}[{body}]"


@dataclass(frozen=True, slots=True)
class RvState:
    """Global state of the rendezvous-level transition system.

    Hashed once per instance: the model checker's visited set probes each
    state many times, and the structural hash over nested dataclasses is
    the hot path.  The hash lives in a declared :func:`memo`, invisible
    to ``==`` and ``replace``.
    """

    home: ProcState
    remotes: tuple[ProcState, ...]
    _hash_cache: Optional[int] = memo()

    def __hash__(self) -> int:
        cached = self._hash_cache
        if cached is None:
            cached = hash((self.home, self.remotes))
            object.__setattr__(self, "_hash_cache", cached)
        return cached

    def canonical_key(self) -> tuple:
        """Compact primitive encoding for fingerprinting (see
        :mod:`repro.check.store`)."""
        return ("rv", self.home.canonical_key(),
                tuple(r.canonical_key() for r in self.remotes))

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
