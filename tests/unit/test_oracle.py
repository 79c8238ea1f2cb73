"""Unit tests for the simulation oracles (repro.sim.oracle)."""

import pytest

from repro import invalidate_protocol, migratory_protocol, refine
from repro.errors import SimulationError
from repro.semantics.rendezvous import RendezvousStep
from repro.semantics.state import HOME_ID
from repro.sim import HotLineWorkload, Simulator, SyntheticWorkload
from repro.sim.oracle import CoherenceOracle, StarvationOracle


class TestCoherenceOracleUnit:
    def test_clean_chain_passes(self):
        oracle = CoherenceOracle(initial=0)
        oracle.observe(1.0, RendezvousStep(HOME_ID, 0, "gr", payload=0))
        oracle.observe(2.0, RendezvousStep(0, HOME_ID, "LR", payload=3))
        oracle.observe(3.0, RendezvousStep(HOME_ID, 1, "gr", payload=3))
        assert oracle.n_checked == 3

    def test_stale_grant_caught(self):
        oracle = CoherenceOracle(initial=0)
        oracle.observe(1.0, RendezvousStep(0, HOME_ID, "ID", payload=7))
        with pytest.raises(SimulationError, match="coherence violation"):
            oracle.observe(2.0, RendezvousStep(HOME_ID, 1, "gr", payload=0))

    def test_unrelated_messages_ignored(self):
        oracle = CoherenceOracle(initial=0)
        oracle.observe(1.0, RendezvousStep(HOME_ID, 0, "inv"))
        oracle.observe(2.0, RendezvousStep(0, HOME_ID, "req"))
        assert oracle.n_checked == 0


class TestStarvationOracleUnit:
    def test_balanced_completions_pass(self):
        oracle = StarvationOracle(n_remotes=2, threshold=3)
        for _round in range(10):
            oracle.observe(1.0, RendezvousStep(0, HOME_ID, "req"))
            oracle.observe(1.0, RendezvousStep(1, HOME_ID, "req"))

    def test_stalled_active_remote_alarms(self):
        oracle = StarvationOracle(n_remotes=2, threshold=3)
        oracle.observe(1.0, RendezvousStep(1, HOME_ID, "req"))  # r1 active
        with pytest.raises(SimulationError, match="starvation"):
            for _i in range(10):
                oracle.observe(2.0, RendezvousStep(0, HOME_ID, "req"))

    def test_never_active_remote_is_not_flagged(self):
        oracle = StarvationOracle(n_remotes=3, threshold=3)
        for _i in range(10):
            oracle.observe(1.0, RendezvousStep(0, HOME_ID, "req"))
            oracle.observe(1.0, RendezvousStep(1, HOME_ID, "req"))
        # r2 never participated; no alarm


class TestOraclesInSimulation:
    @pytest.mark.parametrize("build,kwargs", [
        (migratory_protocol, dict(data_values=4)),
        (invalidate_protocol, dict(data_values=3)),
    ])
    def test_coherence_holds_end_to_end(self, build, kwargs):
        refined = refine(build(**kwargs))
        oracle = CoherenceOracle(initial=0)
        sim = Simulator(refined, 4,
                        SyntheticWorkload(seed=5, write_fraction=0.8),
                        seed=5, oracles=(oracle,))
        metrics = sim.run(until=20_000)
        assert metrics.total_completions > 20
        assert oracle.n_checked > 10

    def test_no_starvation_under_hot_line(self, migratory_refined):
        oracle = StarvationOracle(n_remotes=4, threshold=2_000)
        sim = Simulator(migratory_refined, 4, HotLineWorkload(seed=6),
                        seed=6,
                        oracles=(oracle,))
        metrics = sim.run(until=20_000)
        assert metrics.total_completions > 100

    def test_oracle_failure_surfaces(self, migratory_refined):
        """A deliberately lying oracle shows the hook is actually wired."""

        class AlwaysFails:
            def observe(self, now, rendezvous):
                raise SimulationError("injected")

        sim = Simulator(migratory_refined, 2, HotLineWorkload(seed=7),
                        seed=7,
                        oracles=(AlwaysFails(),))
        with pytest.raises(SimulationError, match="injected"):
            sim.run(until=5_000)
