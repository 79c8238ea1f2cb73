"""Immutable, hashable variable environments for protocol processes.

Every process in a protocol owns a set of local variables (the paper's
processes have, e.g., an owner variable ``o`` in the migratory home node and
a sharers set in the invalidate home node).  Because global protocol states
are enumerated and hashed by the model checker, environments must be
immutable and hashable; :class:`Env` provides a tiny persistent-map
implementation tuned for the very small variable counts (0-4) protocols use.

Values stored in an :class:`Env` must themselves be hashable (ints, strings,
``None``, ``frozenset``, tuples).  Mutating operations return a new
environment, sharing nothing mutable with the original.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, Mapping

Value = Hashable

__all__ = ["Env", "Value"]


class Env(Mapping[str, Value]):
    """A persistent (immutable) string-keyed map with structural hashing.

    >>> e = Env({"o": None, "S": frozenset()})
    >>> e2 = e.set("o", 3)
    >>> e["o"] is None and e2["o"] == 3
    True
    >>> e.set("o", None) == e
    True
    """

    __slots__ = ("_items", "_hash")

    _items: tuple[tuple[str, Value], ...]
    _hash: int

    def __init__(self, mapping: Mapping[str, Value] | None = None) -> None:
        items = tuple(sorted((mapping or {}).items()))
        for key, value in items:
            if not isinstance(key, str):
                raise TypeError(f"Env keys must be str, got {key!r}")
            hash(value)  # raises TypeError for unhashable values, up front
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_hash", hash(items))

    # -- Mapping interface -------------------------------------------------

    def __getitem__(self, key: str) -> Value:
        for name, value in self._items:
            if name == key:
                return value
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: object) -> bool:
        return any(name == key for name, _ in self._items)

    # -- persistent updates ------------------------------------------------

    def set(self, key: str, value: Value) -> "Env":
        """Return a new environment with ``key`` bound to ``value``.

        ``key`` must already be declared in this environment: protocols
        declare their full variable set up front, and a typo'd update should
        fail loudly rather than silently grow the state vector.
        """
        # Hot path of every guard update: splice into the already-sorted
        # item tuple instead of rebuilding through __init__'s sort.
        items = self._items
        for i, (name, old) in enumerate(items):
            if name == key:
                if old is value or old == value:
                    return self
                new_items = items[:i] + ((key, value),) + items[i + 1:]
                env = Env.__new__(Env)
                object.__setattr__(env, "_items", new_items)
                # hash() raises TypeError for unhashable values, like the
                # up-front check in __init__
                object.__setattr__(env, "_hash", hash(new_items))
                return env
        raise KeyError(f"variable {key!r} not declared in this Env")

    def update(self, changes: Mapping[str, Value]) -> "Env":
        """Return a new environment applying all ``changes`` at once."""
        pending = dict(changes)
        changed = False
        out = []
        for name, old in self._items:
            if name in pending:
                new = pending.pop(name)
                out.append((name, new))
                if not (new is old or new == old):
                    changed = True
            else:
                out.append((name, old))
        if pending:
            raise KeyError(
                f"variables not declared in this Env: {list(pending)}")
        if not changed:
            return self
        new_items = tuple(out)
        env = Env.__new__(Env)
        object.__setattr__(env, "_items", new_items)
        object.__setattr__(env, "_hash", hash(new_items))
        return env

    # -- identity ------------------------------------------------------------

    def canonical_key(self) -> tuple[tuple[str, Value], ...]:
        """The sorted item tuple: the env's canonical structural encoding.

        Used by the model checker's fingerprint store
        (:mod:`repro.check.store`); values that are themselves unordered
        (frozensets) are canonicalised by the store, not here.
        """
        return self._items

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Env):
            return self._items == other._items
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"Env({body})"

    def as_dict(self) -> dict[str, Any]:
        """A plain mutable copy, for display and debugging."""
        return dict(self._items)


EMPTY_ENV = Env()
