"""Model-based differential test of the fingerprint store's table.

:class:`~repro.check.store.FingerprintStore` keeps its resident entries
in an open-addressing table (two ``array('Q')`` columns, linear probing,
key 0 in a slot of its own).  A plain dict of masked fingerprint to
check hash is the model: seeded streams of raw ``(fingerprint, check)``
pairs go to both, and every ``add()`` verdict, ``len``, ``collisions``
and ``in`` must agree, at every key width, through several growths, on
the disk tier and with witness columns.
"""

import random

import pytest

from repro.check.explorer import explore
from repro.check.spec import SystemSpec, build_system
from repro.check.store import ExactStore, FingerprintStore

BITS = (1, 2, 8, 16, 64)


class RawStore(FingerprintStore):
    """A fingerprint store fed ``(fingerprint, check)`` pairs as states."""

    def _locate(self, state):
        fp, check = state
        return fp & self._mask, check


class Model:
    """What the table must answer: a dict of masked key to check hash,
    plus the dense id each key got (the witness form's value)."""

    def __init__(self, bits):
        self.mask = (1 << bits) - 1
        self.checks, self.gids = {}, {}
        self.collisions = 0

    def add(self, state):
        key, check = state[0] & self.mask, state[1]
        if key in self.checks:
            self.collisions += self.checks[key] != check
            return False
        self.gids[key] = len(self.checks)
        self.checks[key] = check
        return True

    def __contains__(self, state):
        return state[0] & self.mask in self.checks


def pool(seed, n):
    """``n`` random states, plus the ones a table gets wrong first:
    fingerprint 0 (and a colliding twin), fingerprints whose low bits
    all point at a table's last slot (so their probes wrap around), and
    fingerprints differing only above bit 16."""
    rng = random.Random(seed)
    states = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(n)]
    states += [(0, 5), (0, 6), (1 << 63, 7)]
    states += [((rng.getrandbits(40) << 16) | 0xFFFF, rng.getrandbits(64))
               for _ in range(n // 20)]
    states += [(rng.getrandbits(48) << 16, rng.getrandbits(64))
               for _ in range(n // 20)]
    return states


def stream(seed, states, length):
    """``length`` draws from ``states``: most of them revisits."""
    rng = random.Random(seed + 1)
    return [rng.choice(states) for _ in range(length)]


def drive(store, model, states, draws):
    for state in draws:
        assert store.add(state) == model.add(state), state
    assert len(store) == len(model.checks)
    assert store.collisions == model.collisions
    for state in states:
        assert (state in store) == (state in model), state


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("seed", range(3))
def test_plain_table_matches_dict(bits, seed):
    states = pool(seed, 3000)
    store, model = RawStore(bits=bits), Model(bits)
    drive(store, model, states, stream(seed, states, 9000))
    if bits == 64:
        assert store._slots >= 4096  # grown nine times from 8 slots
    fresh = [(seed + 1, 0), (0, 0)]
    assert [(s in store) for s in fresh] == [(s in model) for s in fresh]


@pytest.mark.parametrize("bits", BITS)
def test_witness_gids_match_insertion_order(bits):
    states = pool(7, 2000)
    store, model = RawStore(bits=bits, witness=True), Model(bits)
    drive(store, model, states, stream(7, states, 6000))
    for state in states:
        key = state[0] & model.mask
        if key in model.gids:
            assert store._gid_of(state) == model.gids[key]
            store._memo_state = None  # look every state up afresh
        else:
            with pytest.raises(KeyError, match="not in the store"):
                store._gid_of(state)


@pytest.mark.parametrize("threshold", (1, 3, 64))
@pytest.mark.parametrize("bits", BITS)
def test_spilling_table_matches_dict(tmp_path, threshold, bits):
    states = pool(threshold, 300)
    store = RawStore(bits=bits, spill_dir=tmp_path,
                     spill_threshold=threshold)
    model = Model(bits)
    try:
        drive(store, model, states, stream(threshold, states, 900))
        # the table empties at every merge, one per threshold new keys
        assert store.spill_merges == len(model.checks) // threshold
        # sized from the threshold: never doubled past what it needs
        assert store._slots == 8 or 4 * threshold > 3 * store._slots // 2
    finally:
        store.close()


def test_action_trace_matches_exact_parents():
    # a witness store grown from 8 slots to 8192 under a real sweep names
    # every state's BFS path exactly as the exact store's parent pointers
    system = build_system(SystemSpec("invalidate", "async", 2))
    exact, witness = ExactStore(), FingerprintStore(witness=True)
    explore(system, name="x", store=exact)
    explore(system, name="x", store=witness)
    assert len(exact) == len(witness) == 5262
    assert witness.collisions == 0
    for state in exact:
        path, entry = [], exact.parent_of(state)
        while entry is not None:
            path.append(entry[1])
            entry = exact.parent_of(entry[0])
        assert witness.action_trace(state) == path[::-1]
