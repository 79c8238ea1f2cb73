"""Unit tests for symmetry reduction (repro.check.symmetry)."""

from dataclasses import replace

import pytest

from repro import (
    AsyncSystem,
    RendezvousSystem,
    explore,
)
from repro.check import symmetry
from repro.check.por import PRESERVE_COUNTS, PRESERVE_INVARIANTS, PORSystem
from repro.check.symmetry import SymmetricSystem, SymmetrySpec, normalize
from repro.errors import CheckError
from repro.protocols.symmetry import (
    INVALIDATE_SYMMETRY,
    MIGRATORY_SYMMETRY,
    MSI_SYMMETRY,
    symmetry_spec_for,
)
from repro.semantics.network import REQ, Channels, Msg
from tests.conftest import reachable_states


class TestNormalizeBasics:
    def test_initial_state_is_fixed_point(self, migratory):
        system = RendezvousSystem(migratory, 4)
        init = system.initial_state()
        assert normalize(init, MIGRATORY_SYMMETRY) == init

    def test_idempotent(self, migratory):
        system = RendezvousSystem(migratory, 3)
        state = system.initial_state()
        for action, nxt in system.successors(state):
            once = normalize(nxt, MIGRATORY_SYMMETRY)
            assert normalize(once, MIGRATORY_SYMMETRY) == once

    def test_orbit_members_collapse(self, migratory):
        """Grant to r0 vs grant to r2: same orbit, same representative."""
        from repro.semantics.rendezvous import RendezvousStep
        from repro.semantics.state import HOME_ID
        from repro.csp.ast import DATA
        system = RendezvousSystem(migratory, 3)

        def drive(i):
            s = system.initial_state()
            s = system.apply(s, RendezvousStep(i, HOME_ID, "req"))
            s = system.apply(s, RendezvousStep(HOME_ID, i, "gr",
                                               payload=DATA))
            return s

        assert drive(0) != drive(2)
        assert normalize(drive(0), MIGRATORY_SYMMETRY) == \
            normalize(drive(2), MIGRATORY_SYMMETRY)

    def test_unknown_state_type_rejected(self):
        with pytest.raises(CheckError):
            normalize(42, MIGRATORY_SYMMETRY)

    def test_spec_lookup(self):
        assert symmetry_spec_for("migratory") is MIGRATORY_SYMMETRY
        assert "S" in symmetry_spec_for("invalidate").set_vars
        assert "u" in MSI_SYMMETRY.id_vars
        with pytest.raises(KeyError):
            symmetry_spec_for("nope")


class TestSoundness:
    """The reduced system reaches exactly the orbit-representatives of the
    full system's reachable set (up to normalization ties)."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_rv_orbits_match(self, migratory, n):
        system = RendezvousSystem(migratory, n)
        full = reachable_states(system)
        reduced = reachable_states(SymmetricSystem(system,
                                                   MIGRATORY_SYMMETRY))
        full_orbits = {normalize(s, MIGRATORY_SYMMETRY) for s in full}
        # the reduced run must cover every orbit and introduce none
        assert {normalize(s, MIGRATORY_SYMMETRY)
                for s in reduced} == full_orbits
        assert len(reduced) <= len(full)

    @pytest.mark.parametrize("n", [2, 3])
    def test_async_orbits_match(self, migratory_refined, n):
        system = AsyncSystem(migratory_refined, n)
        full = reachable_states(system)
        reduced = reachable_states(SymmetricSystem(system,
                                                   MIGRATORY_SYMMETRY))
        full_orbits = {normalize(s, MIGRATORY_SYMMETRY) for s in full}
        assert {normalize(s, MIGRATORY_SYMMETRY)
                for s in reduced} == full_orbits

    def test_invalidate_orbits_match(self, invalidate):
        system = RendezvousSystem(invalidate, 3)
        full = reachable_states(system)
        reduced = reachable_states(SymmetricSystem(system,
                                                   INVALIDATE_SYMMETRY))
        full_orbits = {normalize(s, INVALIDATE_SYMMETRY) for s in full}
        assert {normalize(s, INVALIDATE_SYMMETRY)
                for s in reduced} == full_orbits

    def test_symmetric_invariants_preserved(self, migratory):
        from repro import MIGRATORY_SPEC, coherence_invariants
        system = SymmetricSystem(RendezvousSystem(migratory, 4),
                                 MIGRATORY_SYMMETRY)
        result = explore(system,
                         invariants=coherence_invariants(MIGRATORY_SPEC))
        assert result.ok

    def test_violations_still_found_under_reduction(self, migratory):
        """An (artificial) symmetric invariant violation survives."""
        system = SymmetricSystem(RendezvousSystem(migratory, 3),
                                 MIGRATORY_SYMMETRY)
        result = explore(
            system,
            invariants=[("nobody-ever-holds",
                         lambda s: all(r.state != "V" for r in s.remotes))])
        assert result.violations


class TestReductionPower:
    def test_migratory_rendezvous_becomes_constant(self, migratory):
        sizes = [explore(SymmetricSystem(RendezvousSystem(migratory, n),
                                         MIGRATORY_SYMMETRY)).n_states
                 for n in (3, 6, 10)]
        # idle remotes are fully interchangeable: the orbit count saturates
        assert sizes[0] == sizes[1] == sizes[2]

    def test_invalidate_reduction_large(self, invalidate):
        full = explore(RendezvousSystem(invalidate, 4)).n_states
        reduced = explore(SymmetricSystem(RendezvousSystem(invalidate, 4),
                                          INVALIDATE_SYMMETRY)).n_states
        assert reduced * 10 < full

    def test_async_reduction(self, migratory_refined):
        full = explore(AsyncSystem(migratory_refined, 4)).n_states
        reduced = explore(
            SymmetricSystem(AsyncSystem(migratory_refined, 4),
                            MIGRATORY_SYMMETRY)).n_states
        assert reduced * 10 < full


class TestSpecValidation:
    """A spec naming a variable the home does not declare is a typo, not
    a variable that happens to hold no id."""

    def test_mistyped_id_var_rejected(self, migratory, migratory_refined):
        typo = SymmetrySpec(id_vars=frozenset({"ownr"}))
        for inner in (RendezvousSystem(migratory, 2),
                      AsyncSystem(migratory_refined, 2),
                      PORSystem(AsyncSystem(migratory_refined, 2))):
            with pytest.raises(CheckError, match="'ownr'"):
                SymmetricSystem(inner, typo)

    def test_unknown_system_rejected(self, migratory):
        """The normalizer is bound once, by the unwrapped system's class."""
        class Other:
            protocol = migratory
            n_remotes = 2

        with pytest.raises(CheckError, match="cannot normalize the states "
                           "of Other"):
            SymmetricSystem(Other(), MIGRATORY_SYMMETRY)

    def test_every_missing_name_is_listed(self, migratory):
        spec = SymmetrySpec(id_vars=frozenset({"o", "ownr"}),
                            set_vars=frozenset({"S"}))
        with pytest.raises(CheckError) as err:
            SymmetricSystem(RendezvousSystem(migratory, 2), spec)
        assert "'S'" in str(err.value) and "'ownr'" in str(err.value)
        assert "'o'" not in str(err.value)


#: states of each budgeted sweep at n = 3
SWEEP_BUDGET = 3000
PROTOCOLS = ["migratory", "invalidate", "msi", "mesi"]


def _full_sort(monkeypatch, system, state):
    """``system``'s normalizer on ``state`` with the early return off."""
    with monkeypatch.context() as patch:
        patch.setattr(symmetry, "_ascending", lambda remotes: False)
        return system._normalize(state)


def _agrees_with_full_sort(monkeypatch, system, successors):
    """Each successor's representative equals the full sort's, and a
    successor whose node keys strictly increase is returned as is — the
    very object the full sort returns.  How many returned early."""
    early = 0
    for nxt in successors:
        fast = system._normalize(nxt)
        full = _full_sort(monkeypatch, system, nxt)
        assert fast == full
        if symmetry._ascending(nxt.remotes):
            assert fast is nxt and full is nxt
            early += 1
    return early


class TestSortedRemotesReturnEarly:
    """Both normalizers return a state whose remotes' node keys strictly
    increase as is; the full sort must agree on every successor of every
    state of a budgeted sweep of each library protocol at n = 3."""

    @pytest.mark.parametrize("preserve",
                             [PRESERVE_COUNTS, PRESERVE_INVARIANTS])
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_async_sym_por_sweep(self, name, preserve, request,
                                 monkeypatch):
        por = PORSystem(
            AsyncSystem(request.getfixturevalue(f"{name}_refined"), 3),
            preserve=preserve)
        system = SymmetricSystem(por, symmetry_spec_for(name))
        early = 0
        for state in reachable_states(system, max_states=SWEEP_BUDGET,
                                      allow_deadlock=True):
            early += _agrees_with_full_sort(monkeypatch, system,
                                            [nxt for _, nxt in
                                             por.expand(state)[0]])
        assert early

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_rendezvous_sweep(self, name, request, monkeypatch):
        inner = RendezvousSystem(request.getfixturevalue(name), 3)
        system = SymmetricSystem(inner, symmetry_spec_for(name))
        early = 0
        for state in reachable_states(system, max_states=SWEEP_BUDGET,
                                      allow_deadlock=True):
            early += _agrees_with_full_sort(monkeypatch, system,
                                            [nxt for _, nxt in
                                             inner.successors(state)])
        assert early

    def test_tied_async_node_keys_take_the_full_sort(self,
                                                     migratory_refined):
        """Two equal idle remotes, only remote 0 with a request in
        flight to it: the node keys tie, the channel part orders them."""
        state = AsyncSystem(migratory_refined, 2).initial_state()
        queues = list(state.channels.queues)
        queues[Channels.to_remote(0)] = (Msg(REQ, "inv"),)
        state = state.with_channels(Channels(tuple(queues)))
        assert not symmetry._ascending(state.remotes)
        rep = normalize(state, MIGRATORY_SYMMETRY)
        assert rep is not state
        assert rep.channels.queues[Channels.to_remote(1)] \
            == (Msg(REQ, "inv"),)
        assert rep.channels.queues[Channels.to_remote(0)] == ()

    def test_tied_rendezvous_node_keys_take_the_full_sort(self, migratory):
        """Two equal remotes, the home's owner variable naming remote 0:
        the node keys tie, the home's reference orders them."""
        state = RendezvousSystem(migratory, 2).initial_state()
        home = replace(state.home, env=state.home.env.update({"o": 0}))
        state = replace(state, home=home)
        assert not symmetry._ascending(state.remotes)
        rep = normalize(state, MIGRATORY_SYMMETRY)
        assert rep is not state
        assert rep.home.env["o"] == 1
