"""Protocol tests: MESI with exclusive-clean copies (library extension)."""

import pytest

from repro import (
    AsyncSystem,
    MESI_SPEC,
    RendezvousSystem,
    assert_safe,
    async_structural_invariants,
    check_progress,
    check_simulation,
    coherence_invariants,
    explore,
    mesi_protocol,
    refine,
)
from repro.protocols.invariants import holders
from repro.semantics.rendezvous import RendezvousStep, TauStep
from repro.semantics.state import HOME_ID


class TestStructure:
    def test_states(self, mesi):
        assert {"E", "M", "S", "I", "E.dc", "E.ic", "M.dd"} <= \
            set(mesi.remote.states)
        assert {"F", "X", "X.rw", "X.ww", "Sh", "W.chk"} <= \
            set(mesi.home.states)

    def test_silent_upgrade_is_a_tau(self, mesi):
        writes = [g for g in mesi.remote.state("E").taus
                  if g.label == "write"]
        assert len(writes) == 1 and writes[0].to == "M"

    def test_clean_evict_carries_no_data(self, mesi):
        evE = mesi.remote.state("E.ev").outputs[0]
        assert evE.msg == "evE" and evE.payload is None

    def test_dirty_writeback_carries_data(self, mesi):
        lr = mesi.remote.state("M.lr").outputs[0]
        assert lr.msg == "LR" and lr.payload is not None

    def test_messages(self, mesi):
        assert mesi.message_types == frozenset(
            {"reqR", "reqW", "grE", "grS", "grM", "evE", "LR", "down",
             "dnC", "dnD", "invX", "IC", "ID", "evS", "invS", "IA"})


class TestFusionDecisions:
    """The dual-reply structure must defeat fusion exactly where it should."""

    def test_plan(self, mesi_refined):
        fused = {(p.request_msg, p.reply_msg)
                 for p in mesi_refined.plan.fused}
        assert fused == {("reqW", "grM"), ("invS", "IA")}

    def test_reqr_not_fused_two_grants(self, mesi_refined):
        assert "reqR" not in {p.request_msg
                              for p in mesi_refined.plan.fused}

    def test_down_not_fused_clean_or_dirty_reply(self, mesi_refined):
        assert "down" not in {p.request_msg
                              for p in mesi_refined.plan.fused}
        assert "invX" not in {p.request_msg
                              for p in mesi_refined.plan.fused}


class TestVerification:
    @pytest.mark.parametrize("n", [1, 2])
    def test_rendezvous_safe(self, mesi, n):
        result = explore(RendezvousSystem(mesi, n),
                         invariants=coherence_invariants(MESI_SPEC))
        assert assert_safe(result).ok

    def test_rendezvous_progress(self, mesi):
        assert check_progress(RendezvousSystem(mesi, 2)).ok

    def test_async_safe(self, mesi_refined):
        invariants = (coherence_invariants(MESI_SPEC)
                      + async_structural_invariants(2))
        result = explore(AsyncSystem(mesi_refined, 2), invariants=invariants)
        assert assert_safe(result).ok

    def test_async_progress(self, mesi_refined):
        assert check_progress(AsyncSystem(mesi_refined, 2)).ok

    def test_weak_simulation(self, mesi_refined):
        assert check_simulation(AsyncSystem(mesi_refined, 2)).ok

    def test_data_domain_verifies(self):
        proto = mesi_protocol(data_values=2)
        result = explore(RendezvousSystem(proto, 2),
                         invariants=coherence_invariants(MESI_SPEC))
        assert assert_safe(result).ok


class TestScenarios:
    def _grant_exclusive(self, system, s, i):
        s = system.apply(s, TauStep(proc=i, label="wantR"))
        s = system.apply(s, RendezvousStep(i, HOME_ID, "reqR"))
        return system.apply(s, RendezvousStep(HOME_ID, i, "grE",
                                              payload="DATA"))

    def test_first_reader_gets_exclusive_clean(self, mesi):
        system = RendezvousSystem(mesi, 2)
        s = self._grant_exclusive(system, system.initial_state(), 0)
        assert s.remotes[0].state == "E"
        assert s.home.state == "X" and s.home.env["o"] == 0

    def test_clean_downgrade_on_second_reader(self, mesi):
        system = RendezvousSystem(mesi, 2)
        s = self._grant_exclusive(system, system.initial_state(), 0)
        s = system.apply(s, TauStep(proc=1, label="wantR"))
        s = system.apply(s, RendezvousStep(1, HOME_ID, "reqR"))
        s = system.apply(s, RendezvousStep(HOME_ID, 0, "down"))
        assert s.remotes[0].state == "E.dc"
        s = system.apply(s, RendezvousStep(0, HOME_ID, "dnC"))
        s = system.apply(s, RendezvousStep(HOME_ID, 1, "grS",
                                           payload="DATA"))
        assert s.home.state == "Sh"
        assert s.home.env["S"] == frozenset({0, 1})
        assert holders(s, MESI_SPEC.shared) == [0, 1]

    def test_dirty_downgrade_after_silent_write(self):
        proto = mesi_protocol(data_values=4)
        system = RendezvousSystem(proto, 2)
        s = system.initial_state()
        s = system.apply(s, TauStep(proc=0, label="wantR"))
        s = system.apply(s, RendezvousStep(0, HOME_ID, "reqR"))
        s = system.apply(s, RendezvousStep(HOME_ID, 0, "grE", payload=0))
        s = system.apply(s, TauStep(proc=0, label="write"))  # silent E -> M
        assert s.remotes[0].state == "M"
        assert s.remotes[0].env["d"] == 1
        s = system.apply(s, TauStep(proc=1, label="wantR"))
        s = system.apply(s, RendezvousStep(1, HOME_ID, "reqR"))
        s = system.apply(s, RendezvousStep(HOME_ID, 0, "down"))
        # the home gets the *dirty* reply and learns the new value
        s = system.apply(s, RendezvousStep(0, HOME_ID, "dnD", payload=1))
        assert s.home.env["mem"] == 1
        s = system.apply(s, RendezvousStep(HOME_ID, 1, "grS", payload=1))
        assert s.remotes[1].env["d"] == 1  # reader sees the silent write

    def test_clean_evict_keeps_home_value(self):
        proto = mesi_protocol(data_values=4)
        system = RendezvousSystem(proto, 1)
        s = system.initial_state()
        s = system.apply(s, TauStep(proc=0, label="wantR"))
        s = system.apply(s, RendezvousStep(0, HOME_ID, "reqR"))
        s = system.apply(s, RendezvousStep(HOME_ID, 0, "grE", payload=0))
        s = system.apply(s, TauStep(proc=0, label="evict"))
        s = system.apply(s, RendezvousStep(0, HOME_ID, "evE"))
        assert s.home.state == "F"
        assert s.home.env["mem"] == 0  # nothing travelled, nothing lost


class TestSimulation:
    def test_runs_with_coherence_oracle(self):
        from repro.sim import Simulator, SyntheticWorkload
        from repro.sim.oracle import CoherenceOracle
        refined = refine(mesi_protocol(data_values=4))
        oracle = CoherenceOracle(
            grant_msgs=frozenset({"grE", "grS", "grM"}),
            relinquish_msgs=frozenset({"LR", "ID", "dnD"}),
            initial=0)
        sim = Simulator(refined, 4,
                        SyntheticWorkload(seed=8, write_fraction=0.5),
                        seed=8, oracles=(oracle,))
        metrics = sim.run(until=20_000)
        assert metrics.total_completions > 20
        assert oracle.n_checked > 10

    def test_clean_evictions_save_data_transfers(self, mesi_refined):
        """Read-only MESI traffic never writes back."""
        from repro.sim import Simulator, SyntheticWorkload
        sim = Simulator(mesi_refined, 4,
                        SyntheticWorkload(seed=9, write_fraction=0.0),
                        seed=9)
        metrics = sim.run(until=20_000)
        assert metrics.completions_by_type.get("LR", 0) == 0
        assert metrics.completions_by_type.get("dnD", 0) == 0
        assert (metrics.completions_by_type.get("evE", 0)
                + metrics.completions_by_type.get("evS", 0)
                + metrics.completions_by_type.get("dnC", 0)) > 0
