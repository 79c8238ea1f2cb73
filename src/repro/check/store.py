"""Pluggable visited-state stores for the explicit-state explorers.

The visited set is the memory bottleneck of explicit-state model checking
— the very bottleneck the paper's Table 3 "Unfinished" cells dramatize.
This module factors it behind a small :class:`StateStore` interface with
two representations, one class each, both built by :func:`make_store`:

* :class:`ExactStore` — full states, numbered densely, plus BFS parent
  ids, so traces can be rebuilt and a recorded graph can name states by
  id.  The default, and the oracle the other is tested against.
* :class:`FingerprintStore` — SPIN's *hash compaction*: ~16 bytes per
  state, detected collisions counted; on request 24 more for witness
  columns, from which the explorer rebuilds the exact store's traces by
  replay; optionally a disk tier, the hot dict spilling to an
  mmap-backed sorted file (:mod:`repro.check.spill`).

Why two, why the delta-compressed third went and why the fingerprint
store is no longer sharded is measured in EXPERIMENTS.md ("Store layer,
decided by measurement").

Every hash rests on a *canonical encoding* (:func:`_enc`): bytes in
which unordered containers (``frozenset`` values in variable
environments, e.g. sharer sets) are sorted.  Canonicalisation matters
because two equal frozensets built in different insertion orders may
iterate — and therefore ``repr`` — differently; hashing the raw ``repr``
would split one state into two.  States advertise an encoding by
exposing ``canonical_key()`` (see :mod:`repro.semantics.state` /
:mod:`repro.semantics.asynchronous`); plain hashable states (ints in the
unit-test toy systems) are used as-is.  A state that also exposes
``components()`` is fingerprinted component-wise (:func:`_summary`):
each part is digested once, a probe hashes the digests.  Nothing is
cached per state: a memo that lives as long as the state does makes the
"16 bytes per state" store as large as the exact one.

Every store meters its own containers via
:meth:`StateStore.approx_bytes`, which is what the Table 3 "Unfinished"
narration and ``--memory-limit`` read; the process's real growth is
several times larger (EXPERIMENTS.md has the numbers).
"""

from __future__ import annotations

import struct
import sys
from array import array
from hashlib import blake2b
from pathlib import Path
from typing import Any, Hashable, Iterator, Optional, Protocol, Union

from ..errors import CheckError
from .spill import SpillFile

__all__ = [
    "STORE_NAMES",
    "ParentEntry",
    "StateStore",
    "ExactStore",
    "FingerprintStore",
    "StoreSpec",
    "fingerprint",
    "make_store",
]

#: BFS provenance of a state: ``(predecessor, action)``; ``None`` for the
#: initial state.
ParentEntry = Optional[tuple[Hashable, Any]]


# ---------------------------------------------------------------------------
# canonical encoding + fingerprints
# ---------------------------------------------------------------------------


#: Byte encodings of canonical subtrees, keyed by the subtree tuple
#: itself.  Canonical keys share subtrees heavily (node keys recur across
#: millions of states), so encoding is one C-level tuple hash plus a join
#: of cached chunks instead of a Python-level walk of the whole tree.
#: Value-keyed, so sharing across protocols and stores is harmless; the
#: bound keeps 10^7-state runs from pinning unbounded encodings.
_ENC_CACHE: dict[tuple, bytes] = {}
_ENC_LIMIT = 1 << 20


def _enc(obj: Any) -> bytes:
    """Deterministic, injective byte encoding of a structural key.

    Tuples become ``t(...)``, frozensets ``f(...)`` with elements sorted
    by their encodings (equal sets encode equally regardless of
    insertion/iteration order), an object with a ``canonical_key()``
    that key's encoding, other leaves their ``repr`` — whose quoting and
    escaping keep string contents from masquerading as structure.
    Unlike ``hash()``, the result is stable across processes.
    """
    if type(obj) is tuple:
        cached = _ENC_CACHE.get(obj)
        if cached is None:
            cached = b"t(" + b",".join(_enc(x) for x in obj) + b")"
            if len(_ENC_CACHE) > _ENC_LIMIT:
                _ENC_CACHE.clear()
            _ENC_CACHE[obj] = cached
        return cached
    if isinstance(obj, frozenset):
        return b"f(" + b",".join(sorted(_enc(x) for x in obj)) + b")"
    key = getattr(obj, "canonical_key", None)
    return _enc(key()) if callable(key) else repr(obj).encode()


def _encode(state: Hashable) -> bytes:
    """Canonical byte encoding of ``state``: canonical key -> bytes.
    :func:`_summary`'s fallback for states without ``components()``.

    Subtree chunks come out of the bounded ``_ENC_CACHE``; the root
    tuple is joined here without an entry of its own, because it is
    unique to the state and a cached root would pin one key tuple plus
    one blob per visited state for as long as the cache lives.
    """
    key = getattr(state, "canonical_key", None)
    root = key() if callable(key) else state
    if type(root) is tuple:
        return b"t(" + b",".join(_enc(x) for x in root) + b")"
    return _enc(root)


#: Digests of ``(tag, arity, network)`` summary heads, keyed by value (a
#: sweep meets far fewer networks than states); bounded like ``_ENC_CACHE``.
_HEAD_DIGESTS: dict[tuple, bytes] = {}


def _digest(part: Any) -> bytes:
    """The 16 bytes that stand for ``part`` in the summary of every
    state holding it: blake2b over its canonical encoding."""
    return blake2b(_enc(part), digest_size=16).digest()


def _summary(state: Hashable) -> bytes:
    """The bytes every hash of ``state`` is taken over.

    For a state that exposes ``components()`` — ``(tag, nodes,
    network)`` — one 16-byte digest of tag, arity and network, then one
    per node in order, so position is hashed (80 bytes at n = 3).  A
    node's digest is kept in the memo slot its class declares,
    ``_digest_cache``: it dies with the node, and ``replace`` never
    copies it.  Anything else is its whole canonical encoding
    (:func:`_encode`).
    """
    components = getattr(state, "components", None)
    if components is None:
        return _encode(state)
    tag, nodes, network = components()
    head = (tag, len(nodes), network)
    digest = _HEAD_DIGESTS.get(head)
    if digest is None:
        if len(_HEAD_DIGESTS) > _ENC_LIMIT:
            _HEAD_DIGESTS.clear()
        digest = _HEAD_DIGESTS[head] = _digest(head)
    parts = [digest]
    for node in nodes:
        digest = node._digest_cache
        if digest is None:
            digest = _digest(node)
            object.__setattr__(node, "_digest_cache", digest)
        parts.append(digest)
    return b"".join(parts)


def fingerprint(state: Hashable, *, salt: bytes = b"") -> int:
    """A 64-bit fingerprint of ``state``.

    blake2b over :func:`_summary`: deterministic across processes and
    runs (unlike ``hash()``, which is seeded per process), uniform, and
    fast enough for the state rates this library reaches.  ``salt`` keys
    an independent second fingerprint.
    """
    digest = blake2b(_summary(state), digest_size=8, key=salt).digest()
    return int.from_bytes(digest, "big")


# ---------------------------------------------------------------------------
# the store interface
# ---------------------------------------------------------------------------


class StateStore(Protocol):
    """Structural interface of a visited-state store."""

    #: store kind, echoed into results and profiles
    name: str
    #: True when provenance is retained and traces can be rebuilt: the
    #: exact store's parent pointers (:meth:`parent_of`), or a fingerprint
    #: store's witness columns (``action_trace()``, replayed)
    supports_traces: bool
    #: detected fingerprint collisions (always 0 for exact stores)
    collisions: int

    def add(self, state: Hashable, parent: ParentEntry = None) -> bool:
        """Record ``state``; return True iff it was not already present."""
        ...

    def __len__(self) -> int: ...

    def __contains__(self, state: Hashable) -> bool: ...

    def parent_of(self, state: Hashable) -> ParentEntry:
        """The BFS parent entry of ``state`` (the exact store only)."""
        ...

    def approx_bytes(self) -> int:
        """Crude memory footprint of the store (Table 3 narration)."""
        ...


class ExactStore:
    """Full states numbered densely as they arrive — BFS order, which the
    explorer also expands them in, so a recorded graph names states by id
    — plus BFS provenance: parent-id and action columns."""

    name = "exact"
    supports_traces = True
    collisions = 0

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._states: list[Hashable] = []
        self._parents = array("q")
        self._actions: list[Any] = []

    def add(self, state: Hashable, parent: ParentEntry = None) -> bool:
        fresh = len(self._states)
        return self.number(state, parent) == fresh

    def number(self, state: Hashable, parent: ParentEntry = None) -> int:
        """The id of ``state``, added with ``parent`` (itself stored) if new."""
        # setdefault keeps the first (shortest-path) parent and hashes
        # the state once, where a contains-then-insert pair hashes twice.
        fresh = len(self._states)
        found = self._ids.setdefault(state, fresh)
        if found == fresh:
            source, action = (None, None) if parent is None else parent
            self._parents.append(-1 if parent is None else self._ids[source])
            self._states.append(state)
            self._actions.append(action)
        return found

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, state: Hashable) -> bool:
        return state in self._ids

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._states)

    def state_of(self, state_id: int) -> Hashable:
        """The state numbered ``state_id``."""
        return self._states[state_id]

    def parent_of(self, state: Hashable) -> ParentEntry:
        state_id = self._ids[state]
        parent_id = self._parents[state_id]
        if parent_id < 0:
            return None
        return self._states[parent_id], self._actions[state_id]

    def approx_bytes(self) -> int:
        """Containers plus sampled per-entry cost.

        Deliberately rough — it narrates the Table 3 memory-budget story,
        it does not meter CPython precisely: the newest entry's state
        object (its declared memo slots included, but not the nodes and
        messages it shares with other states), its id, its action and
        three column slots, times the entry count.
        """
        n = len(self._states)
        if not n:
            return 0
        # Sample the newest entry: the initial state (the oldest) is the
        # only one without a parent, so the newest is representative.
        state, action = self._states[-1], self._actions[-1]
        per_state = (sys.getsizeof(state) + sys.getsizeof(n)  # + its id
                     + sys.getsizeof(action) + 24)  # + three column slots
        return sys.getsizeof(self._ids) + n * per_state


#: a 16-byte digest as two big-endian 64-bit words
_TWO_WORDS = struct.Struct(">QQ").unpack

#: front-filter size of a spilling store: 2 MiB = 2^24 one-bit buckets.
#: Only allocated at the first merge; before that the hot dict alone
#: answers membership.
_FILTER_BYTES = 1 << 21
_FILTER_MASK = (_FILTER_BYTES * 8) - 1


class FingerprintStore:
    """SPIN-style hash compaction: 64-bit fingerprints, no states.

    Each state is reduced to a primary 64-bit fingerprint (the dict key)
    and an independent 64-bit check hash (the value).  A state whose
    primary fingerprint is present but whose check hash differs is a
    *detected collision*: a distinct state that hash compaction would
    have silently merged.  It is still treated as visited — that is the
    compaction trade-off — but counted, so results can report how much
    the run may have under-explored.

    No state is kept, so a violation is witnessed by the state alone —
    unless the store was built with ``witness=True``
    (``supports_traces`` says which).  Then the dict value is a dense
    id, and three columns indexed by it hold the check hash, the BFS
    parent's id and an interned action id, 24 bytes a state:
    :meth:`action_trace` walks them back to the root and the explorer
    replays the actions through the live system.  :func:`~repro.check.
    explorer.explore` asks for the columns itself when it is given the
    store by *name* and has invariants to witness; nothing else does, so
    a counts-only sweep pays nothing for them.

    With a ``spill_dir`` there is a disk tier: when the hot dict reaches
    ``spill_threshold`` entries it is merged into one mmap-backed sorted
    file (:class:`~repro.check.spill.SpillFile`) and starts over, which
    bounds resident memory at about ``spill_threshold`` entries however
    large the explored space grows.  A 2 MiB bit filter (allocated at
    the first merge) short-circuits most absent-key probes so cold
    lookups rarely touch the mmap.  The store owns the ``*.spill`` files
    of its directory and starts by deleting them: records it did not
    write are another run's visited set.  Spilling does not change
    membership, so it cannot change exploration counts; a spilling store
    keeps no witnesses (the columns index resident entries).

    ``bits`` truncates the stored key, which exists to make collisions
    reproducible in tests; production use keeps all 64.
    """

    name = "fingerprint"

    def __init__(self, *, bits: int = 64,
                 spill_dir: Optional[Union[str, Path]] = None,
                 spill_threshold: int = 1 << 20,
                 witness: bool = False) -> None:
        if not 1 <= bits <= 64:
            raise ValueError(f"fingerprint bits must be in 1..64, got {bits}")
        if spill_threshold < 1:
            raise ValueError(
                f"spill threshold must be >= 1, got {spill_threshold}")
        if witness and spill_dir is not None:
            raise ValueError(
                "witness columns index resident entries; a fingerprint "
                "store with a spill_dir keeps no witnesses (out of scope)")
        self.supports_traces = witness
        self.collisions = 0
        #: merges of the hot dict into the spill file so far
        self.spill_merges = 0
        self._mask = (1 << bits) - 1
        self._hot: dict[int, int] = {}
        self._spill: Optional[SpillFile] = None
        self._filter: Optional[bytearray] = None
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._threshold = spill_threshold
        self._len = 0
        if witness:
            # the hot dict maps key -> dense id; check hash and BFS
            # provenance are columns indexed by it
            self._checks = array("Q")
            self._parents = array("q")
            self._steps = array("q")
            self._actions: list[Any] = []
            self._action_ids: dict[Any, int] = {}
            self._memo_state: Any = None
            self._memo_gid = -1
            self.add = self._add_witnessed  # type: ignore[method-assign]
        if self._spill_dir is not None:
            try:
                self._spill_dir.mkdir(parents=True, exist_ok=True)
                for stale in self._spill_dir.glob("*.spill"):
                    stale.unlink()
            except OSError as exc:
                raise CheckError(f"cannot use spill directory "
                                 f"{self._spill_dir}: {exc}") from exc

    def _locate(self, state: Hashable) -> tuple[int, int]:
        """(masked fingerprint key, check hash) of ``state``.

        One :func:`_summary` and one digest feed both hashes: the primary
        fingerprint is the first 8 bytes of a 16-byte blake2b, the check
        hash the last 8 — independent bits of one hash call.
        """
        fp, check = _TWO_WORDS(
            blake2b(_summary(state), digest_size=16).digest())
        return fp & self._mask, check

    def _lookup(self, key: int) -> Optional[int]:
        """What is stored under ``key`` (hot tier, then disk), else None."""
        flt = self._filter
        if flt is not None:
            idx = key & _FILTER_MASK
            if not (flt[idx >> 3] >> (idx & 7)) & 1:
                return None  # filter covers hot+spill: definitely absent
        current = self._hot.get(key)
        if current is None:
            spill = self._spill
            if spill is not None:
                return spill.lookup(key)
        return current

    def add(self, state: Hashable, parent: ParentEntry = None) -> bool:
        key, check = self._locate(state)
        current = self._lookup(key)
        if current is not None:
            if current != check:
                self.collisions += 1
            return False
        hot = self._hot
        hot[key] = check
        flt = self._filter
        if flt is not None:
            idx = key & _FILTER_MASK
            flt[idx >> 3] |= 1 << (idx & 7)
        self._len += 1
        if self._spill_dir is not None and len(hot) >= self._threshold:
            self._merge()
        return True

    def _add_witnessed(self, state: Hashable,
                       parent: ParentEntry = None) -> bool:
        """:meth:`add` for a witness store (bound over it at
        construction, so the column-free path above never tests for it)."""
        key, check = self._locate(state)
        gid = self._hot.get(key)
        if gid is not None:
            if self._checks[gid] != check:
                self.collisions += 1
            return False
        self._hot[key] = self._len
        self._len += 1
        self._checks.append(check)
        parent_gid = step = -1
        if parent is not None:
            source, action = parent
            parent_gid = self._gid_of(source)
            cached = self._action_ids.get(action)
            if cached is None:
                cached = self._action_ids[action] = len(self._actions)
                self._actions.append(action)
            step = cached
        self._parents.append(parent_gid)
        self._steps.append(step)
        return True

    def _gid_of(self, state: Hashable) -> int:
        # The explorer expands one source state at a time, so the parent
        # of consecutive adds is almost always the same object: memoize
        # by identity and pay one fingerprint per source.
        if state is self._memo_state:
            return self._memo_gid
        gid = self._hot.get(self._locate(state)[0])
        if gid is None:
            raise KeyError("state is not in the store")
        self._memo_state = state
        self._memo_gid = gid
        return gid

    def action_trace(self, state: Hashable) -> list[Any]:
        """Actions from the initial state to ``state`` (shortest path);
        witness stores only.

        No state is stored: the caller replays the actions through the
        live system and must compare where the replay ends with
        ``state`` — the chain is looked up by fingerprint, so under a
        collision it can be another state's.
        """
        if not self.supports_traces:
            raise KeyError("this fingerprint store keeps no witness columns")
        gid = self._gid_of(state)
        steps: list[Any] = []
        while self._parents[gid] >= 0:
            steps.append(self._actions[self._steps[gid]])
            gid = self._parents[gid]
        steps.reverse()
        return steps

    def _merge(self) -> None:
        assert self._spill_dir is not None
        hot = self._hot
        spill = self._spill
        if spill is None:
            # First merge: the file starts empty, so folding the hot tier
            # into a fresh filter makes it cover the whole store; from
            # here on add() keeps it current.
            spill = self._spill = SpillFile(self._spill_dir / "visited.spill")
            flt = self._filter = bytearray(_FILTER_BYTES)
            for key in hot:
                idx = key & _FILTER_MASK
                flt[idx >> 3] |= 1 << (idx & 7)
        try:
            spill.merge(hot)
        except OSError as exc:
            raise CheckError(
                f"cannot write spill file {spill.path}: {exc}") from exc
        hot.clear()
        self.spill_merges += 1

    def __len__(self) -> int:
        return self._len

    def __contains__(self, state: Hashable) -> bool:
        # what add() would find, without admitting or counting anything
        return self._lookup(self._locate(state)[0]) is not None

    def parent_of(self, state: Hashable) -> ParentEntry:
        raise KeyError(
            "fingerprint stores keep no states, so no parent pointers; "
            "a witness store answers action_trace()")

    def approx_bytes(self) -> int:
        """Resident bytes: the hot dict at two 64-bit words an entry, the
        bit filter, the witness columns.  Spilled records live on disk
        (see :meth:`spill_bytes`) and page cache the OS may drop, so
        they deliberately do not count against ``--memory-limit``."""
        total = sys.getsizeof(self._hot) + 16 * len(self._hot)
        if self._filter is not None:
            total += sys.getsizeof(self._filter)
        if self.supports_traces:
            total += sum(col.itemsize * len(col) for col in
                         (self._checks, self._parents, self._steps))
            total += (sys.getsizeof(self._actions)
                      + sys.getsizeof(self._action_ids))
        return total

    def spill_bytes(self) -> int:
        """On-disk bytes of the spill file (0 before the first merge)."""
        return self._spill.spill_bytes if self._spill is not None else 0

    def close(self) -> None:
        if self._spill is not None:
            self._spill.close()


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

STORE_NAMES = ("exact", "fingerprint")

#: What callers may pass for a ``store=`` argument: a kind name or a
#: ready-made store instance (for tests injecting e.g. truncated-bit
#: fingerprint stores).
StoreSpec = Union[str, StateStore]


def make_store(spec: StoreSpec = "exact", partitions: Optional[int] = None, *,
               spill_dir: Optional[Union[str, Path]] = None,
               spill_threshold: int = 1 << 20, bits: int = 64,
               witness: bool = False) -> StateStore:
    """Resolve a ``store=`` argument to a fresh (or given) store.

    The one place a store is constructed.  ``"exact"`` is
    :class:`ExactStore`, which takes none of the sizing arguments;
    ``"fingerprint"`` is :class:`FingerprintStore`, with ``witness``
    columns when the caller has counterexamples to rebuild
    (:func:`~repro.check.explorer.explore` asks; ignored for the exact
    store, which always can).

    ``partitions`` is what is left of in-process sharding (EXPERIMENTS.md,
    "4b"): the store is one table, and a partition count only multiplies
    the merge threshold, which keeps the promise ``--partitions P
    --spill-threshold N`` made about memory — about ``P x N`` resident
    entries.  It goes when the frozen benchmark stops passing it.
    """
    if not isinstance(spec, str):
        return spec
    if spec == "exact":
        if partitions is not None or spill_dir is not None:
            raise ValueError(
                "partitions and spill_dir size the fingerprint store; the "
                "exact store keeps every state resident in one dict")
        return ExactStore()
    if spec == "fingerprint":
        if partitions is not None and partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        return FingerprintStore(
            bits=bits, spill_dir=spill_dir, witness=witness,
            spill_threshold=spill_threshold * (partitions or 1))
    raise ValueError(f"unknown store {spec!r}; "
                     f"choose from {', '.join(STORE_NAMES)}")


#: The factory's name from when sharded stores had one of their own.  Kept
#: only because the frozen benchmark (perf/layers.py) imports it; drop it in
#: the next change allowed to edit perf/.
make_partitioned_store = make_store
