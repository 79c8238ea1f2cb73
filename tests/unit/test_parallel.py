"""Unit tests for system descriptions (repro.check.spec): ``SystemSpec``
and ``build_system``, the one builder the CLI, benchmarks and tests share.

The file is named for the multi-process driver whose tests it also held
until that driver was deleted; the name stays so these test IDs do.
"""

import pytest

from repro.check.spec import SystemSpec, build_system
from repro.refine.plan import RefinementConfig


class TestSystemSpec:
    def test_config_round_trip(self):
        # the spec holds the frozen config itself: hashable as a whole, and
        # the built system is refined under exactly that object
        config = RefinementConfig(home_buffer_capacity=3)
        spec = SystemSpec(protocol="migratory", level="async", n_remotes=2,
                          config=config)
        assert spec == SystemSpec("migratory", "async", 2, config=config)
        assert len({spec, SystemSpec("migratory", "async", 2)}) == 2
        assert build_system(spec).plan.config is config

    def test_build_rendezvous(self):
        system = build_system(SystemSpec("migratory", "rendezvous", 3))
        assert system.n_remotes == 3

    def test_build_async_with_config(self):
        system = build_system(SystemSpec(
            "migratory", "async", 2,
            config=RefinementConfig(use_reqreply=False)))
        assert system.plan.fused == ()

    def test_build_symmetric(self):
        system = build_system(SystemSpec("migratory", "rendezvous", 3,
                                         symmetry=True))
        assert hasattr(system, "inner")

    def test_unknown_protocol(self):
        with pytest.raises(KeyError, match="choose from"):
            build_system(SystemSpec("nope", "rendezvous", 2))

    def test_unknown_level(self):
        with pytest.raises(ValueError):
            build_system(SystemSpec("migratory", "sideways", 2))
