"""Protocol tests: MSI with upgrade (library extension)."""

import pytest

from repro import (
    AsyncSystem,
    MSI_SPEC,
    RendezvousSystem,
    assert_safe,
    async_structural_invariants,
    check_progress,
    coherence_invariants,
    explore,
)
from repro.protocols.invariants import holders
from repro.semantics.rendezvous import RendezvousStep, TauStep
from repro.semantics.state import HOME_ID


class TestStructure:
    def test_upgrade_states_exist(self, msi):
        assert {"S.up", "S.grU"} <= set(msi.remote.states)
        assert {"U.chk", "U.send", "U.wait", "U.grant"} <= set(msi.home.states)

    def test_upgrade_grant_carries_no_data(self, msi):
        grant = msi.home.state("U.grant").outputs[0]
        assert grant.msg == "grU"
        assert grant.payload is None

    def test_messages(self, msi):
        assert msi.message_types == frozenset(
            {"reqR", "reqW", "reqU", "grR", "grW", "grU", "upfail",
             "evS", "invS", "IA", "inv", "ID", "LR"})


class TestVerification:
    @pytest.mark.parametrize("n", [1, 2])
    def test_rendezvous_safe(self, msi, n):
        result = explore(RendezvousSystem(msi, n),
                         invariants=coherence_invariants(MSI_SPEC))
        assert assert_safe(result).ok

    def test_rendezvous_progress(self, msi):
        assert check_progress(RendezvousSystem(msi, 2)).ok

    def test_async_safe(self, msi_refined):
        invariants = (coherence_invariants(MSI_SPEC)
                      + async_structural_invariants(2))
        result = explore(AsyncSystem(msi_refined, 2), invariants=invariants)
        assert assert_safe(result).ok

    def test_async_progress(self, msi_refined):
        assert check_progress(AsyncSystem(msi_refined, 2)).ok


class TestUpgradeScenarios:
    def _share(self, system, s, i):
        s = system.apply(s, TauStep(proc=i, label="wantR"))
        s = system.apply(s, RendezvousStep(i, HOME_ID, "reqR"))
        return system.apply(s, RendezvousStep(HOME_ID, i, "grR",
                                              payload="DATA"))

    def test_successful_upgrade_invalidates_others_only(self, msi):
        system = RendezvousSystem(msi, 2)
        s = system.initial_state()
        s = self._share(system, s, 0)
        s = self._share(system, s, 1)
        # r0 upgrades: home must invalidate r1 but not r0
        s = system.apply(s, TauStep(proc=0, label="wantUp"))
        s = system.apply(s, RendezvousStep(0, HOME_ID, "reqU"))
        assert s.home.state == "U.chk" and s.home.env["j"] == 0
        s = system.apply(s, TauStep(proc=HOME_ID, label="more"))
        assert s.home.env["t0"] == 1  # the *other* sharer
        s = system.apply(s, RendezvousStep(HOME_ID, 1, "invS"))
        s = system.apply(s, RendezvousStep(1, HOME_ID, "IA"))
        s = system.apply(s, TauStep(proc=HOME_ID, label="done"))
        s = system.apply(s, RendezvousStep(HOME_ID, 0, "grU"))
        assert s.remotes[0].state == "M"
        assert s.home.env["o"] == 0 and s.home.env["S"] == frozenset()
        assert holders(s, MSI_SPEC.exclusive) == [0]

    def test_competing_upgrade_denied(self, msi):
        """While invalidating for a writer, a sharer's upgrade is denied."""
        system = RendezvousSystem(msi, 3)
        s = system.initial_state()
        s = self._share(system, s, 0)
        s = self._share(system, s, 1)
        # r2 asks for write: home enters the W loop over sharers {0, 1}
        s = system.apply(s, TauStep(proc=2, label="wantW"))
        s = system.apply(s, RendezvousStep(2, HOME_ID, "reqW"))
        s = system.apply(s, TauStep(proc=HOME_ID, label="more"))
        assert s.home.state == "W.send"
        # r1 tries to upgrade concurrently
        s = system.apply(s, TauStep(proc=1, label="wantUp"))
        s = system.apply(s, RendezvousStep(1, HOME_ID, "reqU"))
        assert s.home.state == "W.send.deny"
        s = system.apply(s, RendezvousStep(HOME_ID, 1, "upfail"))
        assert s.remotes[1].state == "S"  # back to plain sharer
        # the W loop continues and r1 is eventually invalidated normally
        s = system.apply(s, TauStep(proc=HOME_ID, label="more"))
        target = s.home.env["t0"]
        s = system.apply(s, RendezvousStep(HOME_ID, target, "invS"))
        s = system.apply(s, RendezvousStep(target, HOME_ID, "IA"))
        assert target in (0, 1)


class TestGeneralityClaim:
    def test_three_protocols_refine_with_one_engine(self, migratory_refined,
                                                    invalidate_refined,
                                                    msi_refined):
        """Paper section 8: the procedure applies to a class of protocols."""
        for refined in (migratory_refined, invalidate_refined, msi_refined):
            assert refined.plan.fused  # fusion found work in each
            result = explore(AsyncSystem(refined, 2), max_states=200_000)
            assert assert_safe(result).ok
