"""Unit tests for the ``--parallel`` path: picklable system descriptions
(repro.check.spec) and the multi-process driver that ships them
(repro.check.partitioned) against the sequential explorer."""

import pytest

from repro.check.explorer import explore
from repro.check.partitioned import explore_partitioned
from repro.check.spec import (
    SystemSpec,
    build_system,
    register_factory,
    shippable_spec,
)


class TestSystemSpec:
    def test_config_round_trip(self):
        spec = SystemSpec(protocol="migratory", level="async", n_remotes=2,
                          config=(("home_buffer_capacity", 3),))
        assert spec.config_dict() == {"home_buffer_capacity": 3}

    def test_build_rendezvous(self):
        system = build_system(SystemSpec("migratory", "rendezvous", 3))
        assert system.n_remotes == 3

    def test_build_async_with_config(self):
        system = build_system(SystemSpec(
            "migratory", "async", 2,
            config=(("use_reqreply", False),)))
        assert system.plan.fused == ()

    def test_build_symmetric(self):
        system = build_system(SystemSpec("migratory", "rendezvous", 3,
                                         symmetry=True))
        assert hasattr(system, "inner")

    def test_unknown_protocol(self):
        with pytest.raises(KeyError):
            build_system(SystemSpec("nope", "rendezvous", 2))

    def test_unknown_level(self):
        with pytest.raises(ValueError):
            build_system(SystemSpec("migratory", "sideways", 2))

    def test_registered_factory(self):
        from repro.protocols.migratory import migratory_protocol
        register_factory("custom-migratory", migratory_protocol)
        system = build_system(SystemSpec("custom-migratory",
                                         "rendezvous", 2))
        assert system.protocol.name == "migratory"


class TestParallelMatchesSequential:
    @pytest.mark.parametrize("spec", [
        SystemSpec("migratory", "rendezvous", 4),
        SystemSpec("migratory", "async", 3),
        SystemSpec("invalidate", "rendezvous", 2),
    ])
    def test_counts_identical(self, spec):
        sequential = explore(build_system(spec))
        parallel = explore_partitioned(spec, partitions=2)
        assert parallel.n_states == sequential.n_states
        assert parallel.n_transitions == sequential.n_transitions
        assert parallel.completed

    def test_workers_one_falls_back_to_sequential(self):
        spec = SystemSpec("migratory", "rendezvous", 3)
        result = explore_partitioned(spec, partitions=1)
        assert result.completed
        assert result.n_states == explore(build_system(spec)).n_states

    def test_budget_respected(self):
        spec = SystemSpec("migratory", "async", 4)
        result = explore_partitioned(spec, partitions=2, max_states=500)
        assert not result.completed
        assert "budget" in result.stop_reason

    def test_symmetric_parallel(self):
        spec = SystemSpec("migratory", "async", 3, symmetry=True)
        sequential = explore(build_system(spec))
        parallel = explore_partitioned(spec, partitions=2)
        assert parallel.n_states == sequential.n_states

    def test_truncated_counts_identical(self):
        # budgets are checked per source state, not per level: a
        # multi-process run must not overshoot max_states by a frontier
        spec = SystemSpec("migratory", "async", 3)
        for budget in (50, 123, 500):
            sequential = explore(build_system(spec), max_states=budget)
            parallel = explore_partitioned(spec, partitions=2,
                                           max_states=budget)
            assert parallel.n_states == sequential.n_states
            assert parallel.n_transitions == sequential.n_transitions
            assert parallel.deadlock_count == sequential.deadlock_count
            assert parallel.stop_reason == sequential.stop_reason

    def test_parallel_reports_memory(self):
        result = explore_partitioned(
            SystemSpec("migratory", "rendezvous", 3), partitions=2)
        assert result.approx_bytes > 0

    def test_fingerprint_store_in_parallel(self):
        spec = SystemSpec("migratory", "rendezvous", 3)
        result = explore_partitioned(spec, partitions=2,
                                     store="fingerprint")
        assert result.store == "fingerprint"
        assert result.fingerprint_collisions == 0
        assert result.n_states == explore(build_system(spec)).n_states


class TestSpawnWorkers:
    """Registered factories must reach workers under the spawn start method.

    ``spawn`` workers inherit nothing from the parent, so the in-process
    ``_EXTRA_FACTORIES`` registry is empty there; the regression fixed
    here is that the factory's ``module:function`` path now rides inside
    the SystemSpec and is resolved by import on the worker side.
    """

    def test_registered_path_is_shipped(self):
        from repro.protocols.migratory import migratory_protocol
        register_factory("spawn-migratory", migratory_protocol)
        spec = shippable_spec(SystemSpec("spawn-migratory", "rendezvous", 2))
        assert spec.factory == "repro.protocols.migratory:migratory_protocol"

    def test_lambda_factory_has_no_path(self):
        from repro.protocols.migratory import migratory_protocol
        register_factory("spawn-lambda", lambda: migratory_protocol())
        spec = shippable_spec(SystemSpec("spawn-lambda", "rendezvous", 2))
        assert spec.factory is None  # still fine in-process / under fork

    def test_registered_factory_under_spawn(self):
        from repro.protocols.migratory import migratory_protocol
        register_factory("spawn-migratory", migratory_protocol)
        spec = SystemSpec("spawn-migratory", "rendezvous", 2)
        sequential = explore(build_system(spec))
        parallel = explore_partitioned(spec, partitions=2,
                                       start_method="spawn")
        assert parallel.n_states == sequential.n_states
        assert parallel.n_transitions == sequential.n_transitions

    def test_explicit_factory_path_under_spawn(self):
        spec = SystemSpec(
            "anything", "rendezvous", 2,
            factory="repro.protocols.invalidate:invalidate_protocol")
        sequential = explore(build_system(spec))
        parallel = explore_partitioned(spec, partitions=2,
                                       start_method="spawn")
        assert parallel.n_states == sequential.n_states
