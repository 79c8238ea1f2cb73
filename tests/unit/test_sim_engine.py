"""Unit tests for the discrete-event simulator (repro.sim)."""

import pytest

from repro import AsyncSystem
from repro.cli import main
from repro.protocols.handwritten import handwritten_migratory
from repro.sim import (
    AccessClass,
    HotLineWorkload,
    Simulator,
    SyntheticWorkload,
    TraceWorkload,
    workload_spec_for,
)
from repro.sim.policy import MIGRATORY_WORKLOAD, SEND, TAU
from tests.conftest import perf_module, reachable_states

_WORKLOADS = perf_module("workloads")
_VERDICT = perf_module("verdict")


class TestWorkloadSpec:
    def test_classify(self):
        assert MIGRATORY_WORKLOAD.classify("I", SEND, None) == \
            AccessClass.ACQUIRE
        assert MIGRATORY_WORKLOAD.classify("V", TAU, "evict") == \
            AccessClass.EVICT
        assert MIGRATORY_WORKLOAD.classify("V.lr", SEND, None) is None

    def test_lookup_by_name(self):
        assert workload_spec_for("migratory").name == "migratory"
        assert workload_spec_for("migratory", explicit_rw=True).name == \
            "migratory-rw"
        assert workload_spec_for("invalidate").name == "invalidate"
        with pytest.raises(KeyError):
            workload_spec_for("nope")


class TestDeterminism:
    def test_same_seed_same_metrics(self, migratory_refined):
        def run():
            sim = Simulator(migratory_refined, 3,
                            SyntheticWorkload(seed=7), seed=7)
            return sim.run(until=5000)

        a, b = run(), run()
        assert a.messages_by_kind == b.messages_by_kind
        assert a.completions_by_remote == b.completions_by_remote
        assert a.acquire_latencies == b.acquire_latencies

    def test_different_seed_differs(self, migratory_refined):
        a = Simulator(migratory_refined, 3, SyntheticWorkload(seed=1),
                      seed=1).run(until=5000)
        b = Simulator(migratory_refined, 3, SyntheticWorkload(seed=2),
                      seed=2).run(until=5000)
        assert a.total_messages != b.total_messages


class TestProtocolActivity:
    def test_transactions_complete(self, migratory_refined):
        sim = Simulator(migratory_refined, 4, SyntheticWorkload(seed=3),
                        seed=3)
        metrics = sim.run(until=20_000)
        assert metrics.total_completions > 50
        assert metrics.completions_by_type["gr"] > 0
        assert metrics.completions_by_type["req"] > 0

    def test_contention_generates_nacks_and_invalidations(
            self, migratory_refined):
        sim = Simulator(migratory_refined, 6, HotLineWorkload(seed=4),
                        seed=4)
        metrics = sim.run(until=20_000)
        assert metrics.messages_by_kind["NACK"] > 0
        assert metrics.completions_by_type["inv"] > 0
        assert metrics.nack_rate > 0.01

    def test_single_node_never_nacked(self, migratory_refined):
        sim = Simulator(migratory_refined, 1, SyntheticWorkload(seed=5),
                        seed=5)
        metrics = sim.run(until=20_000)
        assert metrics.messages_by_kind.get("NACK", 0) == 0

    def test_fused_pair_costs_two_messages(self, migratory_refined):
        """One uncontended acquire = exactly REQ + REPL."""
        sim = Simulator(migratory_refined, 1,
                        TraceWorkload([(10.0, 0, AccessClass.ACQUIRE)]),
                        seed=0)
        metrics = sim.run(until=1000)
        assert metrics.total_messages == 2
        assert metrics.messages_by_kind == {"REQ": 1, "REPL": 1}
        assert metrics.completions_by_type["req"] == 1
        assert metrics.completions_by_type["gr"] == 1

    def test_plain_pair_costs_four_messages(self, migratory_refined_plain):
        sim = Simulator(migratory_refined_plain, 1,
                        TraceWorkload([(10.0, 0, AccessClass.ACQUIRE)]),
                        seed=0)
        metrics = sim.run(until=1000)
        assert metrics.total_messages == 4
        assert metrics.messages_by_kind == {"REQ": 2, "ACK": 2}

    def test_hand_protocol_saves_the_lr_ack(self):
        trace = TraceWorkload([(10.0, 0, AccessClass.ACQUIRE),
                               (200.0, 0, AccessClass.EVICT)])
        hand = Simulator(handwritten_migratory(), 1, trace, seed=0)
        hand_metrics = hand.run(until=2000)
        # acquire (2) + LR as unacked NOTE (1)
        assert hand_metrics.total_messages == 3
        assert hand_metrics.messages_by_kind["NOTE"] == 1

    def test_refined_lr_costs_the_ack(self, migratory_refined):
        trace = TraceWorkload([(10.0, 0, AccessClass.ACQUIRE),
                               (200.0, 0, AccessClass.EVICT)])
        sim = Simulator(migratory_refined, 1, trace, seed=0)
        metrics = sim.run(until=2000)
        # acquire (2) + LR request + its ack (2)
        assert metrics.total_messages == 4
        assert metrics.messages_by_kind["ACK"] == 1


class TestLatencyTracking:
    def test_latency_recorded_per_acquire(self, migratory_refined):
        sim = Simulator(migratory_refined, 2, SyntheticWorkload(seed=9),
                        seed=9, latency=10.0, latency_jitter=0.0)
        metrics = sim.run(until=30_000)
        assert metrics.acquire_latencies
        # an uncontended fused acquire takes >= 2 network hops (allow
        # float rounding on the sum of two exact 10.0 latencies)
        assert min(metrics.acquire_latencies) >= 20.0 - 1e-6

    def test_percentiles_monotone(self, migratory_refined):
        sim = Simulator(migratory_refined, 4, HotLineWorkload(seed=11),
                        seed=11)
        metrics = sim.run(until=20_000)
        pct = metrics.latency_percentiles((50, 90, 99))
        assert pct[50] <= pct[90] <= pct[99]


class TestTraceWorkload:
    def test_exact_schedule(self, migratory_refined):
        trace = TraceWorkload([
            (100.0, 0, AccessClass.ACQUIRE),
            (500.0, 1, AccessClass.ACQUIRE),
        ])
        sim = Simulator(migratory_refined, 2, trace, seed=0,
                        latency=1.0, latency_jitter=0.0)
        metrics = sim.run(until=5000)
        # both acquires completed; the second required an inv/ID migration
        assert metrics.completions_by_type["gr"] == 2
        assert metrics.completions_by_type["inv"] == 1


class TestSimulatedStatesAreVerifiedStates:
    def test_simulation_stays_inside_model_checked_space(
            self, migratory_refined):
        """The simulator resolves, never invents, nondeterminism."""
        system = AsyncSystem(migratory_refined, 2)
        reachable = set(reachable_states(system, allow_deadlock=True))
        sim = Simulator(migratory_refined, 2, HotLineWorkload(seed=13),
                        seed=13)
        observed = set()
        original_apply = sim._apply

        def spy(delta):
            original_apply(delta)
            observed.add(sim.state)

        sim._apply = spy
        sim.run(until=3000)
        assert observed
        assert observed <= reachable


class TestOneStepListPerState:
    def test_steps_asked_once_per_state_reached(self, migratory_refined):
        """Every event and workload query at one state shares one
        ``deltas()`` list; taking a step drops it."""
        sim = Simulator(migratory_refined, 4, HotLineWorkload(seed=5),
                        seed=5)
        reached = [sim.state]
        asked = []
        deltas, apply = sim.system.deltas, sim._apply

        def spy_deltas(state):
            asked.append(state)
            return deltas(state)

        def spy_apply(delta):
            apply(delta)
            reached.append(sim.state)

        sim.system.deltas, sim._apply = spy_deltas, spy_apply
        sim.run(until=3000)
        assert len(reached) > 100
        assert len(asked) == len(reached)
        assert all(a is r for a, r in zip(asked, reached))


class TestResolvedNondeterminism:
    """Both ``simulate_mix`` command lines of the standing benchmark, at
    its smoke size, report the completions and messages
    ``perf/expected.json`` holds for each simulator seed: a reordered
    step list changes which step a seeded run takes."""

    @pytest.mark.parametrize("seed", range(_WORKLOADS.SIM_SEEDS))
    @pytest.mark.parametrize(
        "command", _WORKLOADS.WORKLOADS["simulate_mix"].commands,
        ids=lambda command: command.slug)
    def test_matches_reference(self, command, seed, capsys):
        argv = command.resolve(sim_seed=seed, spill_dir="", smoke=True)
        rc = main(argv)
        facts = _VERDICT.extract(argv, rc, capsys.readouterr().out)
        assert facts == _VERDICT.expected_for(
            _VERDICT.load_expected(), command.slug, smoke=True,
            sim_seed=seed)
