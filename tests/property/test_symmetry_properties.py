"""Property-based tests for symmetry normalization.

The defining algebraic property: normalization is invariant under remote
permutations — permuting a state's remote identities (consistently through
envs, buffers, channels) and normalizing gives the same representative as
normalizing the original.  Checked on states sampled from real reachable
sets under random permutations: migratory (two id variables) and, for the
set variable ``S``, home buffer entries and ``awaiting``, invalidate and
msi.

:class:`TestOrderOracle` pins the *order* the normalizer picks, not just
the orbit: normalization is not canonical on ties and POR chooses its
ample set on the representative, so a different total order over remotes
changes state counts.  The oracle is the string-building signature the
normalizer used before its keys were cached per node, queue and home
environment, kept here verbatim.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    AsyncSystem,
    RendezvousSystem,
    invalidate_protocol,
    migratory_protocol,
    msi_protocol,
    refine,
)
from repro.check.por import PRESERVE_COUNTS, PORSystem
from repro.check.symmetry import SymmetricSystem, normalize
from repro.protocols.symmetry import (
    INVALIDATE_SYMMETRY,
    MIGRATORY_SYMMETRY,
    MSI_SYMMETRY,
)
from repro.semantics.asynchronous import AsyncState, BufEntry, HomeNode
from repro.semantics.network import Channels
from repro.semantics.state import ProcState, RvState
from tests.conftest import reachable_states

N = 3

_protocol = migratory_protocol()
_rv_states = reachable_states(RendezvousSystem(_protocol, N))
_async_states = reachable_states(AsyncSystem(refine(_protocol), N))


_BIGGER = {"invalidate": (invalidate_protocol, INVALIDATE_SYMMETRY),
           "msi": (msi_protocol, MSI_SYMMETRY)}


@functools.lru_cache(maxsize=None)
def _sample(name):
    """``(spec, rendezvous states, async states)`` of a bigger protocol:
    breadth-first prefixes of the unreduced spaces, deep enough to fill
    ``S``, the home buffer and ``awaiting``."""
    build, spec = _BIGGER[name]
    protocol = build()
    rv = reachable_states(RendezvousSystem(protocol, N), max_states=1500)
    asy = reachable_states(AsyncSystem(refine(protocol), N),
                           max_states=6000)
    return spec, rv, asy


def permute_env(env, spec, perm):
    changes = {}
    for var in spec.id_vars:
        value = env[var]
        if isinstance(value, int):
            changes[var] = perm[value]
    for var in spec.set_vars:
        changes[var] = frozenset(perm[m] for m in env[var])
    return env.update(changes) if changes else env


def permute_rv(state: RvState, perm: list[int],
               spec=MIGRATORY_SYMMETRY) -> RvState:
    """Apply a remote permutation consistently (old i -> perm[i])."""
    remotes = [None] * N
    for old, proc in enumerate(state.remotes):
        remotes[perm[old]] = proc
    return RvState(home=ProcState(state.home.state,
                                  permute_env(state.home.env, spec, perm)),
                   remotes=tuple(remotes))


def permute_async(state: AsyncState, perm: list[int],
                  spec=MIGRATORY_SYMMETRY) -> AsyncState:
    remotes = [None] * N
    for old, node in enumerate(state.remotes):
        remotes[perm[old]] = node
    queues = [()] * (2 * N)
    for old in range(N):
        queues[Channels.to_remote(perm[old])] = \
            state.channels.queues[Channels.to_remote(old)]
        queues[Channels.to_home(perm[old])] = \
            state.channels.queues[Channels.to_home(old)]
    buffer = tuple(
        BufEntry(sender=perm[e.sender] if isinstance(e.sender, int)
                 else e.sender, msg=e.msg, payload=e.payload, note=e.note)
        for e in state.home.buffer)
    awaiting = (perm[state.home.awaiting]
                if isinstance(state.home.awaiting, int)
                else state.home.awaiting)
    home = HomeNode(state=state.home.state,
                    env=permute_env(state.home.env, spec, perm),
                    mode=state.home.mode,
                    out_idx=state.home.out_idx, awaiting=awaiting,
                    pending_out=state.home.pending_out, buffer=buffer)
    return AsyncState(home=home, remotes=tuple(remotes),
                      channels=Channels(queues=tuple(queues)))


perms = st.permutations(list(range(N)))


class TestOrbitInvariance:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_rv_states), perms)
    def test_rv_normalization_permutation_invariant(self, state, perm):
        permuted = permute_rv(state, list(perm))
        assert normalize(state, MIGRATORY_SYMMETRY) == \
            normalize(permuted, MIGRATORY_SYMMETRY)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(_async_states), perms)
    def test_async_normalization_permutation_invariant(self, state, perm):
        permuted = permute_async(state, list(perm))
        assert normalize(state, MIGRATORY_SYMMETRY) == \
            normalize(permuted, MIGRATORY_SYMMETRY)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(_async_states))
    def test_idempotence(self, state):
        once = normalize(state, MIGRATORY_SYMMETRY)
        assert normalize(once, MIGRATORY_SYMMETRY) == once

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(_async_states), perms)
    def test_permutation_preserves_env_sanity(self, state, perm):
        """The permutation helper itself keeps the env well-formed."""
        permuted = permute_async(state, list(perm))
        for var in ("o", "j"):
            value = permuted.home.env[var]
            assert value is None or 0 <= value < N


@pytest.mark.parametrize("name", sorted(_BIGGER))
class TestSetVarsBuffersAwaiting:
    """The same properties where the home holds a sharer set, buffered
    requests and an awaited remote."""

    def test_sample_exercises_the_spec(self, name):
        spec, _rv, asy = _sample(name)
        assert any(s.home.env["S"] for s in asy)
        assert any(len(s.home.buffer) > 1 for s in asy)
        assert any(s.home.awaiting is not None for s in asy)
        assert any(normalize(s, spec) is not s for s in asy)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), perm=perms)
    def test_rv_orbit_invariance(self, name, data, perm):
        spec, rv, _asy = _sample(name)
        state = data.draw(st.sampled_from(rv))
        assert normalize(state, spec) == \
            normalize(permute_rv(state, list(perm), spec), spec)

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), perm=perms)
    def test_async_orbit_invariance(self, name, data, perm):
        spec, _rv, asy = _sample(name)
        state = data.draw(st.sampled_from(asy))
        assert normalize(state, spec) == \
            normalize(permute_async(state, list(perm), spec), spec)

    def test_representatives_are_fixed_points_by_identity(self, name):
        """``normalize(rep) is rep``: idempotence, and the identity the
        traced ``check.symmetry.moved_ratio`` counts on."""
        spec, rv, asy = _sample(name)
        for state in rv + asy:
            rep = normalize(state, spec)
            assert normalize(rep, spec) is rep


# -- the pre-cache normalizer, verbatim, as the order oracle ----------------


def _old_env_key(env):
    return tuple((k, repr(v)) for k, v in env.items())


def _old_home_refs(env, spec, i):
    singles = tuple(sorted(var for var in spec.id_vars
                           if var in env and env[var] == i))
    members = tuple(sorted(
        var for var in spec.set_vars
        if isinstance(val := env.get(var), frozenset) and i in val))
    return singles, members


def _old_relabel_env(env, spec, relabel):
    changes = {}
    for var in spec.id_vars:
        val = env.get(var)
        if isinstance(val, int) and val in relabel:
            changes[var] = relabel[val]
    for var in spec.set_vars:
        val = env.get(var)
        if isinstance(val, frozenset):
            changes[var] = frozenset(relabel.get(m, m) for m in val)
    return env.update(changes) if changes else env


def old_order(state, spec):
    """The remote order the string-building signature sorts into."""
    home = state.home

    def rv_signature(i):
        proc = state.remotes[i]
        return (proc.state, _old_env_key(proc.env),
                _old_home_refs(home.env, spec, i))

    def async_signature(i):
        node = state.remotes[i]
        down = tuple(m.describe()
                     for m in state.channels.queues[Channels.to_remote(i)])
        up = tuple(m.describe()
                   for m in state.channels.queues[Channels.to_home(i)])
        buffer_slots = tuple(pos for pos, entry in enumerate(home.buffer)
                             if entry.sender == i)
        note_slots = tuple(pos for pos, entry in enumerate(home.buffer)
                           if entry.sender == i and entry.note)
        return (node.state, node.mode, node.pending_out or -1,
                node.buf.describe() if node.buf else "",
                _old_env_key(node.env), down, up, buffer_slots, note_slots,
                home.awaiting == i,
                _old_home_refs(home.env, spec, i))

    return sorted(range(len(state.remotes)),
                  key=rv_signature if isinstance(state, RvState)
                  else async_signature)


def old_normalize(state, spec):
    order = old_order(state, spec)
    relabel = {old: new for new, old in enumerate(order)}
    remotes = tuple(state.remotes[old] for old in order)
    env = _old_relabel_env(state.home.env, spec, relabel)
    if isinstance(state, RvState):
        return RvState(home=ProcState(state.home.state, env),
                       remotes=remotes)
    home = state.home
    queues = list(state.channels.queues)
    for old, new in relabel.items():
        queues[Channels.to_remote(new)] = \
            state.channels.queues[Channels.to_remote(old)]
        queues[Channels.to_home(new)] = \
            state.channels.queues[Channels.to_home(old)]
    buffer = tuple(
        BufEntry(sender=relabel.get(e.sender, e.sender), msg=e.msg,
                 payload=e.payload, note=e.note)
        for e in home.buffer)
    awaiting = (relabel[home.awaiting]
                if isinstance(home.awaiting, int) else home.awaiting)
    return AsyncState(
        home=HomeNode(state=home.state, env=env, mode=home.mode,
                      out_idx=home.out_idx, awaiting=awaiting,
                      pending_out=home.pending_out, buffer=buffer),
        remotes=remotes, channels=Channels(queues=tuple(queues)))


#: each case reads its protocol from a session fixture (``fixture(name)``)
_ORDER_CASES = {
    "invalidate-async-3-sym+por": lambda fixture: (
        INVALIDATE_SYMMETRY,
        PORSystem(AsyncSystem(fixture("invalidate_refined"), 3),
                  preserve=PRESERVE_COUNTS),
        5000),
    "msi-async-2": lambda fixture: (
        MSI_SYMMETRY, AsyncSystem(fixture("msi_refined"), 2), None),
    "invalidate-rendezvous-4": lambda fixture: (
        INVALIDATE_SYMMETRY, RendezvousSystem(fixture("invalidate"), 4),
        None),
}


class TestOrderOracle:
    @pytest.mark.parametrize("case", sorted(_ORDER_CASES))
    def test_same_order_as_string_signature(self, case, request):
        """Every successor the reduced sweep normalizes lands on the
        representative the old signature's order gives."""
        spec, inner, budget = _ORDER_CASES[case](request.getfixturevalue)
        reps = reachable_states(SymmetricSystem(inner, spec),
                                max_states=budget)
        checked = moved = 0
        for rep in reps:
            for _action, nxt in inner.successors(rep):
                order = old_order(nxt, spec)
                new = normalize(nxt, spec)
                assert new.remotes == \
                    tuple(nxt.remotes[old] for old in order)
                assert new == old_normalize(nxt, spec)
                checked += 1
                moved += order != sorted(order)
        assert checked > len(reps) and moved > 0
