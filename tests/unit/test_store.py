"""Unit tests for the pluggable visited-state stores (repro.check.store)."""

import dataclasses
import os
import pickle
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import repro
import repro.check.store as store_module
from repro.analysis.memokey import structural_key
from repro.check.explorer import explore
from repro.check.spec import SystemSpec, build_system
from repro.check.store import (
    ExactStore,
    FingerprintStore,
    fingerprint,
    make_store,
)
from repro.check.symmetry import SymmetricSystem, normalize
from repro.csp.env import Env
from repro.protocols import LIBRARY_PROTOCOLS, symmetry_spec_for
from repro.semantics.asynchronous import TRANS, BufEntry, HomeNode, RemoteNode
from repro.semantics.network import REQ, Channels, Msg
from repro.semantics.state import ProcState, RvState
from tests.conftest import cold_copy


class TestMakeStore:
    def test_by_name(self):
        assert isinstance(make_store("exact"), ExactStore)
        assert isinstance(make_store("fingerprint"), FingerprintStore)

    def test_default_is_exact(self):
        assert make_store().name == "exact"

    def test_instance_passthrough(self):
        store = FingerprintStore(bits=16)
        assert make_store(store) is store

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown store"):
            make_store("bloom")

    def test_sharded_spilling_store_counts_like_the_plain_one(self, tmp_path):
        # one factory: a partition count and spilling are arguments, not a
        # second constructor, and neither changes what the store admits
        plain = make_store("fingerprint")
        sharded = make_store("fingerprint", 4, spill_dir=tmp_path / "a",
                             spill_threshold=16)
        alias = store_module.make_partitioned_store(
            "fingerprint", 4, spill_dir=tmp_path / "b", spill_threshold=16)
        for state in [("state", i % 700) for i in range(2000)]:
            verdict = plain.add(state)
            assert sharded.add(state) == alias.add(state) == verdict
        assert len(plain) == len(sharded) == len(alias) == 700
        assert sharded.spill_bytes() == alias.spill_bytes() > 0
        assert sharded.spill_merges == alias.spill_merges == 700 // (4 * 16)
        sharded.close()
        alias.close()

    def test_exact_has_no_disk_tier(self, tmp_path):
        with pytest.raises(ValueError, match="spill"):
            make_store("exact", spill_dir=tmp_path)


class TestExactStore:
    def test_add_dedups(self):
        store = ExactStore()
        assert store.add("a") and not store.add("a")
        assert len(store) == 1 and "a" in store

    def test_parent_pointers_support_traces(self):
        store = ExactStore()
        store.add("root", None)
        store.add("child", ("root", "step"))
        assert store.supports_traces
        assert store.parent_of("root") is None
        assert store.parent_of("child") == ("root", "step")

    def test_states_are_numbered_in_discovery_order(self):
        store = ExactStore()
        assert store.number("root") == 0
        assert store.number("a", ("root", "x")) == 1
        assert store.number("b", ("a", "y")) == 2
        assert store.number("a", ("b", "z")) == 1  # first parent kept
        assert list(store) == ["root", "a", "b"]
        assert [store.state_of(i) for i in range(3)] == list(store)
        assert store.parent_of("b") == ("a", "y")
        assert store.parent_of("a") == ("root", "x")
        with pytest.raises(KeyError):
            store.add("c", ("nowhere", "w"))  # a parent must be stored

    def test_no_collisions_ever(self):
        store = ExactStore()
        for i in range(1000):
            store.add(i)
        assert store.collisions == 0

    def test_approx_bytes_counts_parent_payloads(self):
        bare, with_parents = ExactStore(), ExactStore()
        bare.add("s0", None)
        with_parents.add("s0", None)
        for i in range(1, 50):
            bare.add(f"s{i}", None)
            with_parents.add(f"s{i}", (f"s{i - 1}", ("some", "action", i)))
        assert with_parents.approx_bytes() > bare.approx_bytes()

    def test_empty_store_is_zero_bytes(self):
        assert ExactStore().approx_bytes() == 0


class TestFingerprintStore:
    def test_add_dedups_without_keeping_states(self):
        store = FingerprintStore()
        assert store.add("a") and not store.add("a")
        assert len(store) == 1 and "a" in store
        assert not store.supports_traces
        with pytest.raises(KeyError):
            store.parent_of("a")

    def test_no_collisions_on_distinct_small_space(self):
        store = FingerprintStore()
        for i in range(10_000):
            assert store.add(i)
        assert store.collisions == 0
        assert len(store) == 10_000

    def test_truncated_bits_detect_collisions(self):
        # 8-bit primary fingerprints collide for sure across 1000 states;
        # the independent check hash must notice (and count) them.
        store = FingerprintStore(bits=8)
        for i in range(1000):
            store.add(i)
        assert len(store) <= 256
        assert store.collisions >= 1000 - 256

    def test_witness_columns_are_metered_and_say_so(self):
        plain, witness = FingerprintStore(), FingerprintStore(witness=True)
        assert witness.supports_traces and not plain.supports_traces
        prev = None
        for i in range(1000):
            parent = None if prev is None else (prev, ("act", i % 7))
            assert plain.add(("s", i), parent) == witness.add(("s", i), parent)
            prev = ("s", i)
        # check hash, parent id, action id: 24 bytes a state, all counted
        assert witness.approx_bytes() - plain.approx_bytes() >= 24 * 1000
        with pytest.raises(KeyError):
            witness.parent_of(("s", 3))  # no states kept: replay instead
        with pytest.raises(KeyError, match="witness"):
            plain.action_trace(("s", 3))

    def test_witnesses_with_a_disk_tier_are_out_of_scope(self, tmp_path):
        with pytest.raises(ValueError, match="spill_dir keeps no witnesses"):
            FingerprintStore(witness=True, spill_dir=tmp_path)
        with pytest.raises(ValueError, match="spill_dir keeps no witnesses"):
            make_store("fingerprint", witness=True, spill_dir=tmp_path)

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            FingerprintStore(bits=0)
        with pytest.raises(ValueError):
            FingerprintStore(bits=65)

    def test_approx_bytes_far_below_exact(self):
        exact, compact = ExactStore(), FingerprintStore()
        parent = ("p",) * 20
        exact.add(parent)  # a parent must be in the store
        for i in range(2000):
            state = (("a" * 50, i), ("b" * 50, i), i)
            exact.add(state, (parent, "action"))
            compact.add(state)
        assert compact.approx_bytes() < exact.approx_bytes() / 3


class TestApproxBytes:
    """``approx_bytes()`` is what a fingerprint store holds: the table's
    two columns at capacity, the witness columns, the bit filter and the
    action intern table — ``buffer_info()`` arithmetic, nothing sampled."""

    @staticmethod
    def column_bytes(*columns):
        return sum(col.buffer_info()[1] * col.itemsize for col in columns)

    def test_plain_table_at_capacity(self):
        store = FingerprintStore()
        for i in range(1000):
            store.add(("s", i))
        assert store._slots == 2048  # 1000 entries past 3/4 of 1024
        table = self.column_bytes(store._keys, store._vals)
        assert store.approx_bytes() == table == 16 * (2048 + 1)
        # the columns allocate exactly what they index
        empty = sys.getsizeof(array("Q"))
        assert sys.getsizeof(store._keys) - empty == 8 * (2048 + 1)

    def test_witness_columns_and_intern_table(self):
        store = FingerprintStore(witness=True)
        prev = None
        for i in range(1000):
            store.add(("s", i), None if prev is None else (prev, ("a", i % 7)))
            prev = ("s", i)
        assert store.approx_bytes() == (
            self.column_bytes(store._keys, store._vals, store._checks,
                              store._parents, store._steps)
            + sys.getsizeof(store._actions)
            + sys.getsizeof(store._action_ids))
        assert self.column_bytes(store._checks, store._parents,
                                 store._steps) == 24 * 1000

    def test_spilling_table_and_filter(self, tmp_path):
        store = FingerprintStore(spill_dir=tmp_path, spill_threshold=64)
        for i in range(40):
            store.add(("s", i))
        assert store.approx_bytes() == 16 * (64 + 1)  # no filter yet
        for i in range(40, 1000):
            store.add(("s", i))
        assert store.spill_merges == 1000 // 64
        # sized from the threshold: 64 entries fit 128 slots at 3/4 load
        assert store._slots == 128
        assert store.approx_bytes() == (
            self.column_bytes(store._keys, store._vals)
            + sys.getsizeof(store._filter)) == 16 * 129 + sys.getsizeof(
                bytearray(2 * 1024 * 1024))
        store.close()


class TestNothingPinnedPerState:
    def test_fingerprint_sweep_leaves_no_per_state_memo(self, monkeypatch):
        # "~16 bytes per state" is only true if the encoding layer keeps
        # nothing alive per state: no blob or key on the state object, no
        # entry per state in the subtree cache
        class Recording:
            def __init__(self, inner):
                self.inner, self.expanded = inner, []

            def initial_state(self):
                return self.inner.initial_state()

            def successors(self, state):
                self.expanded.append(state)
                return self.inner.successors(state)

        digested = []
        digest = store_module._digest
        store_module._HEAD_DIGESTS.clear()
        monkeypatch.setattr(store_module, "_digest",
                            lambda node: digested.append(node) or digest(node))
        system = Recording(build_system(SystemSpec("invalidate", "async", 2)))
        store_module._ENC_CACHE.clear()
        result = explore(system, name="x", store="fingerprint")
        assert result.completed and result.n_states >= 2000
        assert len(system.expanded) == result.n_states
        for state in system.expanded:
            # a state holds its fields and its hash memo, nothing else
            assert not hasattr(state, "__dict__")
            assert not hasattr(state, "_digest_cache")
            # nor a key on its nodes: digested once, then dropped
            for node in (state.home,) + state.remotes:
                assert node._digest_cache is not None
                assert not hasattr(node, "_key_cache")
        assert len(store_module._ENC_CACHE) < result.n_states // 2
        # every probe (the initial state, then one per transition) looks
        # up one digest for its network and one per node; a digest is
        # computed only for a network value or a node object no earlier
        # probe has met
        lookups = (1 + result.n_transitions) * 4
        assert 0 < len(digested) <= lookups // 20


class TestCanonicalEncoding:
    def test_value_types_keep_their_bytes(self):
        # the bytes each value type's hand-written canonical key gave,
        # before the encoding read the compared fields: nodes, messages
        # and buffer entries encode as they did, so every asynchronous
        # digest and spill record is unchanged
        enc = store_module._enc
        home = HomeNode(
            "S", Env({"sharers": frozenset({2, 0, 1}), "owner": None}),
            mode=TRANS, out_idx=1, awaiting=0, pending_out=2,
            buffer=(BufEntry(1, "inv", payload=3, note=True),
                    BufEntry("h", "get")))
        assert enc(home) == (
            b"t('S',t(t('owner',None),t('sharers',f(0,1,2))),'trans',1,0,2,"
            b"t(t(1,'inv',3,True),t('h','get',None,False)))")
        remote = RemoteNode(
            "I", Env({"data": 5}), mode=TRANS, pending_out=0,
            buf=BufEntry("h", "inv", payload=frozenset({"a", "b"})))
        assert enc(remote) == (
            b"t('I',t(t('data',5)),'trans',0,t('h','inv',f('a','b'),False))")
        assert enc(Msg(REQ, "get", payload=(1, "x"))) == \
            b"t('REQ','get',t(1,'x'))"

    def test_plain_hashables_pass_through(self):
        # not a value type: the value itself is what gets encoded
        assert fingerprint(7) != fingerprint("7")
        assert fingerprint(("a", 1)) != fingerprint(("a", "1"))
        assert fingerprint(("a", 1)) == fingerprint(("a",) + (1,))

    def test_frozensets_are_ordered(self):
        e1 = Env({"S": frozenset(["a", "b", "c"]), "o": None})
        e2 = Env({"S": frozenset(["c", "a", "b"]), "o": None})
        p1, p2 = ProcState("s", e1), ProcState("s", e2)
        assert fingerprint(p1) == fingerprint(p2)
        assert fingerprint(frozenset(["a", "b", "c"])) == \
            fingerprint(frozenset(["c", "b", "a"]))

    def test_frozenset_distinct_from_tuple(self):
        assert fingerprint(frozenset({1})) != fingerprint((1,))
        assert fingerprint((frozenset({1}),)) != fingerprint(((1,),))

    def test_fingerprint_is_64_bit_and_stable_across_pickle(self):
        state = RvState(home=ProcState("h", Env({"o": 2})),
                        remotes=(ProcState("r", Env()),) * 2)
        fp = fingerprint(state)
        assert 0 <= fp < 2 ** 64
        assert fingerprint(pickle.loads(pickle.dumps(state))) == fp

    def test_salt_gives_independent_fingerprint(self):
        assert fingerprint("state") != fingerprint("state", salt=b"check")

    def test_distinct_states_distinct_fingerprints(self):
        # not guaranteed in theory, but 64 bits over a handful of states
        # colliding would mean the encoding is broken
        states = [RvState(home=ProcState("h", Env({"o": i})),
                          remotes=(ProcState("r", Env()),))
                  for i in range(100)]
        assert len({fingerprint(s) for s in states}) == 100


class TestComponentFingerprints:
    """An ``AsyncState`` (and an ``RvState``) is hashed over one cached
    digest per node plus one for its network, not over its whole
    encoding: a cached digest must never outlive or misrepresent the
    node it was taken of, and position must still be hashed."""

    @pytest.fixture(scope="class")
    def system(self):
        return build_system(SystemSpec("invalidate", "async", 3))

    @pytest.fixture(scope="class")
    def states(self, system):
        store = ExactStore()
        explore(system, name="x", store=store, max_states=1500)
        return list(store)

    @staticmethod
    def digest_of(node):
        return node._digest_cache

    def test_replace_never_inherits_a_digest(self, states):
        state = states[-1]
        fp = fingerprint(state)
        for i, node in enumerate(state.remotes):
            assert self.digest_of(node) is not None
            changed = dataclasses.replace(node, pending_out=7)
            assert self.digest_of(changed) is None
            assert fingerprint(state.with_remote(i, changed)) != fp
            assert self.digest_of(changed) != self.digest_of(node)
        home = dataclasses.replace(state.home, out_idx=state.home.out_idx + 1)
        assert self.digest_of(home) is None
        assert fingerprint(state.with_home(home)) != fp
        assert self.digest_of(home) != self.digest_of(state.home)

    def test_replayed_nodes_carry_their_own_digest(self, system, states):
        # successors() replays memoized deltas through the constructors:
        # whatever digest a node of a replayed state holds is its own
        for state in states[::7]:
            fingerprint(state)
            for _action, nxt in system.successors(state):
                fingerprint(nxt)
                for node in (nxt.home,) + nxt.remotes:
                    cold = dataclasses.replace(node)
                    assert self.digest_of(cold) is None
                    assert self.digest_of(node) == store_module._digest(cold)

    def test_symmetry_relabelling_never_inherits_a_digest(self, system,
                                                          states):
        """A relabelled home never carries its pre-image's digest.  A
        symmetric system relabels a home once per (home, permutation)
        and shares it through the step memo's value table, so the home
        may already carry a digest: then it is its own."""
        spec = symmetry_spec_for("invalidate")
        symmetric = SymmetricSystem(system, spec)
        pairs = [(state, normalize(state, spec)) for state in states]
        for state in states[::5]:
            pairs += [(nxt, image) for (_, nxt), (_, image) in zip(
                system.successors(state), symmetric.successors(state))]
        rebuilt = carried = 0
        for state, image in pairs:
            fingerprint(state)
            if image.home is not state.home:
                rebuilt += 1
                digest = self.digest_of(image.home)
                if digest is not None:
                    carried += 1
                    assert digest == store_module._digest(
                        dataclasses.replace(image.home))
                if image.home != state.home:
                    fingerprint(image)
                    assert self.digest_of(image.home) != \
                        self.digest_of(state.home)
            assert fingerprint(image) == fingerprint(cold_copy(image))
        assert rebuilt  # the relabel path was exercised
        assert carried  # and met homes the sweep had digested

    def test_position_is_hashed(self, states):
        state = next(s for s in states if s.remotes[0] != s.remotes[1])
        a, b, c = state.remotes
        swapped = dataclasses.replace(state, remotes=(b, a, c))
        assert fingerprint(swapped) != fingerprint(state)
        # same messages, same nodes: only *which* queue holds one differs
        state = next(s for s in states
                     if s.channels.queues[0] and not s.channels.queues[2])
        queues = list(state.channels.queues)
        queues[0], queues[2] = queues[2], queues[0]
        moved = state.with_channels(Channels(queues=tuple(queues)))
        assert fingerprint(moved) != fingerprint(state)
        store = FingerprintStore()
        assert store.add(state) and store.add(moved) and store.add(swapped)
        assert store.collisions == 0

    @staticmethod
    def assert_digested_once(candidate, warm, monkeypatch):
        """Every hash of ``candidate`` goes through one summary: a cold
        copy is digested on its first probe and never again."""
        digested = []
        digest = store_module._digest
        monkeypatch.setattr(store_module, "_digest",
                            lambda part: digested.append(part) or digest(part))
        store_module._ENC_CACHE.clear()
        store_module._HEAD_DIGESTS.clear()
        store = FingerprintStore()
        assert candidate not in store
        encoded = len(store_module._ENC_CACHE)
        assert store.add(candidate)
        assert candidate in store
        assert fingerprint(candidate) == warm
        # the head (tag, arity, network), the home and each remote: once
        assert len(digested) == 2 + len(candidate.remotes)
        assert len(store_module._ENC_CACHE) == encoded

    def test_contains_then_add_encode_each_component_once(self, states,
                                                          monkeypatch):
        warm = fingerprint(states[-1])
        self.assert_digested_once(cold_copy(states[-1]), warm, monkeypatch)

    def test_rendezvous_state_is_digested_node_by_node(self, monkeypatch):
        system = build_system(SystemSpec("invalidate", "rendezvous", 3))
        store = ExactStore()
        explore(system, name="x", store=store, max_states=200)
        state = store.state_of(len(store) - 1)
        warm = fingerprint(state)
        assert all(node._digest_cache is not None
                   for node in (state.home,) + state.remotes)
        cold = dataclasses.replace(
            state, home=dataclasses.replace(state.home),
            remotes=tuple(dataclasses.replace(r) for r in state.remotes))
        assert cold.home._digest_cache is None
        self.assert_digested_once(cold, warm, monkeypatch)


# ---------------------------------------------------------------------------
# the disk tier, and what is left of ``partitions``
# ---------------------------------------------------------------------------


class TestPartitionedFingerprintStore:
    """The fingerprint store was sharded by fingerprint range until PR 23
    (EXPERIMENTS.md, "4b").  It is one table now; ``make_store(kind, P,
    spill_threshold=N)`` still takes a partition count and turns it into
    a merge threshold of ``P x N``.  Membership never depended on either."""

    def test_membership_matches_unsharded_store(self):
        # one shuffled list, the same verdict sequence and collision count
        # at any partition count: sharding is not part of the semantics
        states = [("state", i % 700) for i in range(2000)]
        random.Random(14).shuffle(states)
        plain, sharded = FingerprintStore(), make_store("fingerprint", 3)
        for state in states:
            assert plain.add(state) == sharded.add(state)
        assert len(plain) == len(sharded) == 700
        assert sharded.collisions == plain.collisions == 0
        # truncated keys too, now that a key has one table to collide in
        # (the sharded class separated keys that fell in different ranges)
        for partitions in (None, 3):
            store = make_store("fingerprint", partitions, bits=8)
            for state in states:
                store.add(state)
            assert (len(store), store.collisions) == (240, 1304)

    def test_membership_matches_with_spill(self, tmp_path):
        plain = FingerprintStore()
        spilling = make_store("fingerprint", 3, spill_dir=tmp_path,
                              spill_threshold=16)
        states = [("state", i % 700) for i in range(2000)]
        for state in states:
            assert plain.add(state) == spilling.add(state)
        assert len(spilling) == 700
        assert spilling.spill_bytes() > 0
        # 3 x 16 resident entries between merges, as the flags promised
        assert spilling.spill_merges == 700 // 48
        spilling.close()

    def test_truncated_bits_detect_collisions(self, tmp_path):
        # a collision is detected on the disk tier as in the hot dict
        resident = FingerprintStore(bits=8)
        spilling = FingerprintStore(bits=8, spill_dir=tmp_path,
                                    spill_threshold=32)
        for i in range(1000):
            assert resident.add(("state", i)) == spilling.add(("state", i))
        assert spilling.spill_merges > 0
        assert spilling.collisions == resident.collisions >= 1000 - 256
        spilling.close()

    def test_probe_predicts_add_without_mutation(self, tmp_path):
        # `in` answers what add() would find and leaves no trace of itself
        store = FingerprintStore(spill_dir=tmp_path, spill_threshold=2)
        assert "s" not in store
        assert len(store) == 0  # a membership test never admits
        for state in "stu":
            store.add(state)
        assert store.spill_merges == 1  # "s" and "t" are on disk, "u" hot
        assert all(state in store for state in "stu") and "v" not in store
        assert len(store) == 3 and store.collisions == 0
        store.close()

    def test_approx_bytes_excludes_spill(self, tmp_path):
        resident = FingerprintStore()
        spilling = FingerprintStore(spill_dir=tmp_path, spill_threshold=8)
        for i in range(500):
            resident.add(("state", i))
            spilling.add(("state", i))
        # nearly everything moved to disk, so the resident estimate of
        # the spilling store must be dominated by the bit filter, not
        # 500 hot entries
        hot_part = spilling.approx_bytes() - 2 * 1024 * 1024
        assert hot_part < resident.approx_bytes()
        assert spilling.spill_bytes() > 0
        spilling.close()

    def test_validation(self):
        with pytest.raises(ValueError, match="partitions"):
            make_store("fingerprint", 0)
        with pytest.raises(ValueError, match="bits"):
            make_store("fingerprint", 2, bits=65)
        with pytest.raises(ValueError, match="threshold"):
            make_store("fingerprint", 2, spill_threshold=0)

    def test_no_parent_pointers(self):
        store = make_store("fingerprint", 2)
        store.add("s")
        with pytest.raises(KeyError):
            store.parent_of("s")


class TestPartitionedExactStore:
    """The store with traces below the oracle's footprint.  That was the
    delta-compressed ``PartitionedExactStore``; it is the fingerprint
    store with witness columns now (EXPERIMENTS.md, "4a"), and these are
    its tests, pointed at the survivor."""

    def test_membership_matches_classic_exact(self):
        classic, witness = ExactStore(), FingerprintStore(witness=True)
        states = [("state", "x" * 40, i % 300) for i in range(900)]
        prev = None
        for state in states:
            parent = None if prev is None else (prev, ("act", state[2]))
            assert classic.add(state, parent) == witness.add(state, parent)
            prev = state
        assert len(classic) == len(witness) == 300
        assert witness.collisions == 0

    def test_action_trace_replays_parent_chain(self):
        store = FingerprintStore(witness=True)
        store.add("root", None)
        store.add("a", ("root", "step1"))
        store.add("b", ("a", "step2"))
        store.add("b", ("root", "shortcut"))  # first (shortest) parent wins
        assert store.supports_traces
        assert store.action_trace("root") == []
        assert store.action_trace("b") == ["step1", "step2"]
        with pytest.raises(KeyError, match="not in the store"):
            store.action_trace("c")
        with pytest.raises(KeyError, match="not in the store"):
            store.add("d", ("c", "step3"))

    def test_approx_bytes_far_below_classic_exact(self):
        system = build_system(SystemSpec("invalidate", "async", 2))
        classic, witness = ExactStore(), FingerprintStore(witness=True)
        explore(system, name="x", store=classic)
        explore(system, name="x", store=witness)
        assert len(classic) == len(witness) == 5262
        # classic keeps every state object, its id and its action alive;
        # the witness store keeps a dict slot and 24 column bytes a state
        assert witness.approx_bytes() < classic.approx_bytes() / 2

    def test_probe_predicts_add(self):
        store = FingerprintStore(witness=True)
        assert "s" not in store and len(store) == 0
        store.add("s")
        assert "s" in store and "t" not in store
        assert len(store) == 1  # a membership test never admits


class TestMakePartitionedStore:
    """``make_store`` with a partition count (the former second factory;
    what ``repro check --partitions P`` and the frozen ``perf/`` call)."""

    def test_kinds(self):
        # the exact store has one layout: a partition count used to
        # select the delta-compressed class and is refused now
        with pytest.raises(ValueError, match="size the fingerprint store"):
            make_store("exact", 2)
        fp = make_store("fingerprint", 3)
        assert isinstance(fp, FingerprintStore)
        assert not hasattr(fp, "partitions")  # one table, however many asked

    def test_exact_rejects_spill(self, tmp_path):
        with pytest.raises(ValueError, match="spill"):
            make_store("exact", 2, spill_dir=tmp_path)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown store"):
            make_store("bloom", 2)


class TestNoOpenSSL:
    """Digests come from CPython's own blake2 module, never through
    ``hashlib``, whose import maps OpenSSL's libcrypto into the process;
    the function is the same, so no digest changed."""

    RUN = """
import sys
import repro.cli
rc = repro.cli.main(["check", "migratory", "--level", "async", "-n", "2",
                     "--store", "fingerprint"])
print(rc, sorted({"hashlib", "_hashlib"} & sys.modules.keys()))
"""

    def test_a_fresh_run_imports_no_hashlib(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", self.RUN], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 []"

    def test_blake2b_is_hashlibs_own(self):
        import _blake2
        import hashlib

        assert _blake2.blake2b is hashlib.blake2b

    def test_fingerprints_are_pinned(self):
        system = build_system(SystemSpec("invalidate", "async", 2))
        init = system.initial_state()
        (_, successor), *_ = system.successors(init)
        rendezvous = build_system(SystemSpec("invalidate", "rendezvous", 2))
        (_, rv_state), *_ = rendezvous.successors(rendezvous.initial_state())
        # the rendezvous state is summarized node by node, as the
        # asynchronous ones are, so its fingerprint differs from the
        # whole-state encoding's 0xcec0e9295b8cf316
        assert [fingerprint(s) for s in (init, successor, rv_state)] == [
            0x323bc033876dc63d, 0x66b5fa92d9b2cbb9, 0xe65196b7333bea6c]

    #: the key digests bytecode, so each CPython minor version has its own
    MIGRATORY_KEYS = {
        (3, 10): "ad216e206c7183e9b9bd2d36a5c582aa",
        (3, 11): "c62d2d99dedcfa6d63d55476afb3e874",
        (3, 12): "eaaecac2c44148ae6ba7cac1e4036d07",
        (3, 13): "044b81cc50284dea7a5da010fc9f238c",
    }

    def test_structural_key_is_pinned(self):
        expected = self.MIGRATORY_KEYS.get(sys.version_info[:2])
        if expected is None:
            pytest.skip("no structural key pinned for this CPython version")
        key = structural_key(LIBRARY_PROTOCOLS["migratory"]())
        assert key.hex() == expected
