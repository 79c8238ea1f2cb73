"""Pluggable visited-state stores for the explicit-state explorers.

The visited set is the memory bottleneck of explicit-state model checking
— the very bottleneck the paper's Table 3 "Unfinished" cells dramatize.
This module factors it behind a small :class:`StateStore` interface with
two representations, one class each, both built by :func:`make_store`:

* :class:`ExactStore` — full states, numbered densely, plus BFS parent
  ids, so traces can be rebuilt and a recorded graph can name states by
  id.  The default, and the oracle the other is tested against.
* :class:`FingerprintStore` — SPIN's *hash compaction*: two 64-bit
  words a state in an open-addressing table (21–43 bytes at its load),
  detected collisions counted; on request 24 more for witness columns,
  from which the explorer rebuilds the exact store's traces by replay;
  optionally a disk tier, the table spilling to an mmap-backed sorted
  file (:mod:`repro.check.spill`).

Why two, why the delta-compressed third went and why the fingerprint
store is no longer sharded is measured in EXPERIMENTS.md ("Store layer,
decided by measurement").

Every hash rests on a *canonical encoding* (:func:`_enc`): bytes in
which unordered containers (``frozenset`` values in variable
environments, e.g. sharer sets) are sorted.  Canonicalisation matters
because two equal frozensets built in different insertion orders may
iterate — and therefore ``repr`` — differently; hashing the raw ``repr``
would split one state into two.  A value type of the semantics is
encoded as the tuple of its compared fields (``fields_of``, from
:func:`repro.semantics.state.value`), an ``Env`` as its sorted items;
plain hashable states (ints in the unit-test toy systems) are used
as-is.  Both levels' states expose ``components()`` and are
fingerprinted node by node (:func:`_summary`): each node is digested
once, into its own memo, and a probe hashes the digests.  Nothing is
cached per state: a memo that lives as long as the state does makes the
two-words-a-state store as large as the exact one.

Every store meters its own containers via
:meth:`StateStore.approx_bytes`, which is what the Table 3 "Unfinished"
narration and ``--memory-limit`` read; the process's real growth is
several times larger (EXPERIMENTS.md has the numbers).
"""

from __future__ import annotations

import struct
import sys
# hashlib.blake2b itself: importing hashlib would map OpenSSL's libcrypto
from _blake2 import blake2b
from array import array
from itertools import islice
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
#: itself.  Subtrees are shared heavily (a node's fields recur across
#: millions of states, and symmetry's relabelling rebuilds equal nodes),
#: so encoding is one C-level tuple hash plus a join of cached chunks
#: instead of a Python-level walk of the whole tree.  Value-keyed, so
#: sharing across protocols and stores is harmless; the bound keeps
#: 10^7-state runs from pinning unbounded encodings.
_ENC_CACHE: dict[tuple, bytes] = {}
_ENC_LIMIT = 1 << 20


def _enc(obj: Any) -> bytes:
    """Deterministic, injective byte encoding of a structural key.

    Tuples become ``t(...)``, frozensets ``f(...)`` with elements sorted
    by their encodings (equal sets encode equally regardless of
    insertion/iteration order), a value type the encoding of its
    ``fields_of`` tuple, an ``Env`` that of its ``canonical_key()``,
    other leaves their ``repr`` — whose quoting and escaping keep string
    contents from masquerading as structure.  Unlike ``hash()``, the
    result is stable across processes.
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
    fields_of = getattr(obj, "fields_of", None)
    if fields_of is not None:
        return _enc(fields_of(obj))
    key = getattr(obj, "canonical_key", None)
    return _enc(key()) if callable(key) else repr(obj).encode()


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
    network)``, an ``AsyncState`` or an ``RvState`` — one 16-byte digest
    of tag, arity and network, then one per node in order, so position
    is hashed (80 bytes at n = 3).  A node's digest is kept in the memo
    slot its class declares, ``_digest_cache``: it dies with the node,
    and ``replace`` never copies it.  Anything else (the toy states of
    the unit tests) is its whole canonical encoding.
    """
    components = getattr(state, "components", None)
    if components is None:
        return _enc(state)
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
#: Only allocated at the first merge; before that the table alone
#: answers membership.
_FILTER_BYTES = 1 << 21
_FILTER_MASK = (_FILTER_BYTES * 8) - 1


class FingerprintStore:
    """SPIN-style hash compaction: 64-bit fingerprints, no states.

    Each state is reduced to a primary 64-bit fingerprint (the key) and
    an independent 64-bit check hash.  A state whose primary fingerprint
    is present but whose check hash differs is a *detected collision*: a
    distinct state that hash compaction would have silently merged.  It
    is still treated as visited — that is the compaction trade-off — but
    counted, so results can report how much the run may have
    under-explored.

    Resident entries live in one open-addressing table: two
    ``array('Q')`` columns, key and value (the check hash), linearly
    probed over a power-of-two capacity doubled by one rehash pass past
    3/4 load: 16 bytes a slot, 21–43 bytes a state (35 at the 241,339
    states of complete invalidate n = 3).

    No state is kept, so a violation is witnessed by the state alone —
    unless the store was built with ``witness=True``
    (``supports_traces`` says which).  Then the value is a dense id,
    and three columns indexed by it hold the check hash, the BFS
    parent's id and an interned action id, 24 bytes a state more:
    :meth:`action_trace` walks them back to the root and the explorer
    replays the actions through the live system.  :func:`~repro.check.
    explorer.explore` asks for the columns itself when it is given the
    store by *name* and has invariants to witness; nothing else does, so
    a counts-only sweep pays nothing for them.

    With a ``spill_dir`` there is a disk tier: when the table holds
    ``spill_threshold`` entries they are merged into one mmap-backed
    sorted file (:class:`~repro.check.spill.SpillFile`) and the table
    starts over at the same capacity, which bounds it at the smallest
    one holding ``spill_threshold`` entries however large the explored
    space grows.  A 2 MiB bit filter (allocated at the first merge)
    short-circuits most absent-key probes so cold lookups rarely touch
    the mmap.  The store owns the ``*.spill`` files of its directory and
    their ``*.spill.tmp`` merge temps, and starts by deleting them:
    records it did not write are another run's visited set, and a temp
    is what a run killed mid-merge left.  Spilling does not change
    membership, so it cannot change exploration counts; a spilling
    store keeps no witnesses (the columns index resident entries).

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
        #: merges of the table into the spill file so far
        self.spill_merges = 0
        self._mask = (1 << bits) - 1
        self._alloc(8)  # slots of a fresh table, a power of two
        self._spill: Optional[SpillFile] = None
        self._filter: Optional[bytearray] = None
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._threshold = spill_threshold
        self._len = 0
        if witness:
            # the table maps key -> dense id; check hash and BFS
            # provenance are columns indexed by it
            self._checks = array("Q")
            self._parents = array("q")
            self._steps = array("q")
            self._actions: list[Any] = []
            self._action_ids: dict[Any, int] = {}
            self._memo_state: Any = None
            self._memo_gid = -1
        if self._spill_dir is not None:
            try:
                self._spill_dir.mkdir(parents=True, exist_ok=True)
                for pattern in ("*.spill", "*.spill.tmp"):
                    for stale in self._spill_dir.glob(pattern):
                        stale.unlink()
            except OSError as exc:
                raise CheckError(f"cannot use spill directory "
                                 f"{self._spill_dir}: {exc}") from exc

    def _alloc(self, slots: int) -> None:
        """An empty table of ``slots`` slots, plus key 0's own slot."""
        self._slots = slots
        self._resident = 0
        self._keys = array("Q", [0]) * (slots + 1)  # allocated exactly
        self._keys[slots] = 1
        self._vals = array("Q", [0]) * (slots + 1)

    def _probe(self, key: int) -> int:
        """The slot holding ``key``, or ``~slot`` of the free slot it
        would take.

        Linear probing from the key's low bits; 0 marks a free slot, so
        key 0 has its own slot past the table, whose key column reads 0
        when taken and 1 when free.
        """
        keys = self._keys
        mask = self._slots - 1
        if not key:
            return mask + 1 if not keys[mask + 1] else ~(mask + 1)
        slot = key & mask
        found = keys[slot]
        while found != key:
            if not found:
                return ~slot
            slot = (slot + 1) & mask
            found = keys[slot]
        return slot

    def _put(self, slot: int, key: int, value: int) -> None:
        """Fill the free ``slot`` :meth:`_probe` gave for ``key``."""
        self._keys[slot] = key
        self._vals[slot] = value
        flt = self._filter
        if flt is not None:
            idx = key & _FILTER_MASK
            flt[idx >> 3] |= 1 << (idx & 7)
        self._resident += 1
        if 4 * self._resident > 3 * self._slots:
            self._grow()

    def _grow(self) -> None:
        """Double the table: one pass moves each entry to its new slot."""
        old_keys, old_vals, old = self._keys, self._vals, self._slots
        resident = self._resident
        self._alloc(2 * old)
        keys, vals, mask = self._keys, self._vals, 2 * old - 1
        keys[-1], vals[-1] = old_keys[old], old_vals[old]  # key 0's slot
        for key, value in zip(islice(old_keys, old), old_vals):
            if key:  # keys are distinct: the first free slot is its own
                slot = key & mask
                while keys[slot]:
                    slot = (slot + 1) & mask
                keys[slot] = key
                vals[slot] = value
        self._resident = resident

    def _items(self) -> Iterator[tuple[int, int]]:
        """The resident ``(key, value)`` pairs."""
        keys, vals, slots = self._keys, self._vals, self._slots
        for key, value in zip(islice(keys, slots), vals):
            if key:
                yield key, value
        if not keys[slots]:
            yield 0, vals[slots]

    def _locate(self, state: Hashable) -> tuple[int, int]:
        """(masked fingerprint key, check hash) of ``state``.

        One :func:`_summary` and one digest feed both hashes: the primary
        fingerprint is the first 8 bytes of a 16-byte blake2b, the check
        hash the last 8 — independent bits of one hash call.
        """
        fp, check = _TWO_WORDS(
            blake2b(_summary(state), digest_size=16).digest())
        return fp & self._mask, check

    def _lookup(self, key: int, slot: int) -> Optional[int]:
        """What is stored under ``key``, whose probe gave ``slot``: the
        table's value, else the disk tier's, else None."""
        if slot >= 0:
            return self._vals[slot]
        flt = self._filter
        if flt is None:
            return None  # nothing spilled yet
        idx = key & _FILTER_MASK
        if not (flt[idx >> 3] >> (idx & 7)) & 1:
            return None  # filter covers table+spill: definitely absent
        assert self._spill is not None
        return self._spill.lookup(key)

    def add(self, state: Hashable, parent: ParentEntry = None) -> bool:
        if self.supports_traces:
            return self._add_witnessed(state, parent)
        key, check = self._locate(state)
        slot = self._probe(key)
        current = (self._vals[slot] if slot >= 0
                   else self._lookup(key, slot))
        if current is not None:
            if current != check:
                self.collisions += 1
            return False
        self._put(~slot, key, check)
        self._len += 1
        if self._spill_dir is not None and self._resident >= self._threshold:
            self._merge()
        return True

    def _add_witnessed(self, state: Hashable,
                       parent: ParentEntry = None) -> bool:
        """:meth:`add` for a witness store (not bound over ``add`` on the
        instance: a store holding its own bound method is a cycle)."""
        key, check = self._locate(state)
        slot = self._probe(key)
        if slot >= 0:
            if self._checks[self._vals[slot]] != check:
                self.collisions += 1
            return False
        self._put(~slot, key, self._len)
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
        slot = self._probe(self._locate(state)[0])
        if slot < 0:
            raise KeyError("state is not in the store")
        self._memo_state = state
        self._memo_gid = gid = self._vals[slot]
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
        spill = self._spill
        if spill is None:
            # First merge: the file starts empty, so folding the table
            # into a fresh filter makes it cover the whole store; from
            # here on add() keeps it current.
            spill = self._spill = SpillFile(self._spill_dir / "visited.spill")
            flt = self._filter = bytearray(_FILTER_BYTES)
            for key, _ in self._items():
                idx = key & _FILTER_MASK
                flt[idx >> 3] |= 1 << (idx & 7)
        try:
            spill.merge(self._items())
        except OSError as exc:
            raise CheckError(
                f"cannot write spill file {spill.path}: {exc}") from exc
        self._alloc(self._slots)
        self.spill_merges += 1

    def __len__(self) -> int:
        return self._len

    def __contains__(self, state: Hashable) -> bool:
        # what add() would find, without admitting or counting anything
        key = self._locate(state)[0]
        return self._lookup(key, self._probe(key)) is not None

    def parent_of(self, state: Hashable) -> ParentEntry:
        raise KeyError(
            "fingerprint stores keep no states, so no parent pointers; "
            "a witness store answers action_trace()")

    def approx_bytes(self) -> int:
        """Resident bytes: the table's two columns at capacity, the bit
        filter, the witness columns and the action intern table.
        Spilled records live on disk (see :meth:`spill_bytes`) and page
        cache the OS may drop, so they deliberately do not count against
        ``--memory-limit``."""
        columns = [self._keys, self._vals]
        total = sys.getsizeof(self._filter) if self._filter is not None else 0
        if self.supports_traces:
            columns += (self._checks, self._parents, self._steps)
            total += (sys.getsizeof(self._actions)
                      + sys.getsizeof(self._action_ids))
        return total + sum(col.buffer_info()[1] * col.itemsize
                           for col in columns)

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
