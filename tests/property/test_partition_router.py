"""Property: a fingerprint is a pure function of the state.

The fingerprint is a salted blake2b over the canonical encoding — for
an asynchronous state, over one cached digest per node and one for the
network — with no dependence on the process, its start method or
``PYTHONHASHSEED``.  Anything ambient in a fingerprint would make two
runs of one model disagree on collisions and spill-file contents (CI
compares fingerprint runs under two hash seeds), so we check the values
byte-for-byte in fork and spawn children that build the same states
themselves (states are not a pickle format); and since a fingerprint is
two hashes deep, the exact store judges it on whole reachable state
spaces.  (The range router that turned a fingerprint into a partition,
and its half of this file, went with in-process sharding in PR 23; the
file keeps its name until ROADMAP item 5.)
"""

import multiprocessing as mp
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import AsyncSystem, refine
from repro.check.explorer import explore
from repro.check.spec import SystemSpec, build_system
from repro.check.store import ExactStore, FingerprintStore, fingerprint
from repro.gen import GeneratorParams, random_protocol
from tests.conftest import cold_copy

@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_assignment_stable_within_process(seed):
    # equal states built separately, sets filled in opposite orders
    state = ("state", seed, frozenset({seed % 7, "flag"}))
    again = ("state", seed, frozenset({"flag", seed % 7}))
    assert fingerprint(state) == fingerprint(again)
    store = FingerprintStore()
    assert store.add(state) and not store.add(again) and again in store
    assert store.collisions == 0


def _child_fingerprints(out):
    out.extend([fingerprint(state) for state in _states()])


def _states():
    return ([("state", i, frozenset({i % 5})) for i in range(64)]
            + _real_states(64))


def _real_states(count):
    """``count`` invalidate n = 3 states from a BFS prefix, the ones with
    the largest sharer sets first: frozensets in the home ``Env`` iterate
    in a hash-seed-dependent order, nodes and messages are shared between
    them as in a sweep, and (in this process) their digests are warm."""
    store = ExactStore()
    explore(build_system(SystemSpec("invalidate", "async", 3)), name="x",
            store=store, max_states=3000)

    def sharers(state):
        return max((len(v) for v in state.home.env.values()
                    if isinstance(v, frozenset)), default=0)

    states = sorted(store, key=sharers, reverse=True)[:count]
    assert sharers(states[0]) >= 2
    return states


def test_assignment_stable_across_processes_and_start_methods(monkeypatch):
    """fork and spawn children must fingerprint exactly like the parent.

    Each child builds the states itself and only fingerprints travel.
    spawn re-imports everything in a fresh interpreter (module state
    gone, and a different ``PYTHONHASHSEED`` from the environment), so
    its states start without any cached digest; the fork child inherits
    the parent's warm memos.  This fails loudly if a fingerprint ever
    picks up an ambient dependence.
    """
    parent = [fingerprint(state) for state in _states()]
    assert len(set(parent)) == len(parent) == 128
    seed = os.environ.get("PYTHONHASHSEED")
    monkeypatch.setenv("PYTHONHASHSEED", "1" if seed != "1" else "2")
    for method in ("fork", "spawn"):
        ctx = mp.get_context(method)
        with ctx.Manager() as manager:
            out = manager.list()
            proc = ctx.Process(target=_child_fingerprints, args=(out,))
            proc.start()
            proc.join(60)
            assert proc.exitcode == 0
            assert list(out) == parent, f"{method} child disagrees"


# -- the two-level hash against the exact store ------------------------------

SMALL = GeneratorParams(n_remote_states=3, n_home_states=3,
                        n_remote_msgs=2, n_home_msgs=2)


def assert_fingerprints_sound(system, **budget):
    """Over every state ``system`` reaches: distinct states have distinct
    fingerprints (64-bit and the store's 128), and a cold copy — every
    memo empty — fingerprints like the warm original."""
    exact, compact = ExactStore(), FingerprintStore()
    explore(system, name="x", store=exact, allow_deadlock=True, **budget)
    seen = set()
    for state in exact:
        fp = fingerprint(state)
        assert fp not in seen
        seen.add(fp)
        assert compact.add(state)
        cold = cold_copy(state)
        for node, warm in zip((cold.home,) + cold.remotes,
                              (state.home,) + state.remotes):
            assert node._digest_cache is None  # no digest carried over
            assert warm._digest_cache is not None
        assert fingerprint(cold) == fp
        assert cold in compact
    assert len(compact) == len(exact) and compact.collisions == 0
    return len(exact)


@pytest.mark.parametrize("protocol", ["migratory", "invalidate", "msi", "mesi"])
def test_fingerprints_separate_every_reachable_state(protocol):
    system = build_system(SystemSpec(protocol, "async", 2))
    assert assert_fingerprints_sound(system) > 100


def test_fingerprints_separate_the_reduced_n3_sweep():
    system = build_system(SystemSpec("invalidate", "async", 3,
                                     symmetry=True, por=True))
    assert assert_fingerprints_sound(system) == 23180


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fingerprints_separate_random_protocol_states(seed):
    system = AsyncSystem(refine(random_protocol(seed, SMALL)), 2)
    assert_fingerprints_sound(system, max_states=1500)
