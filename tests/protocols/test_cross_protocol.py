"""Cross-protocol contract tests: facts every library protocol must satisfy.

These guard against drift as protocols are added: each must validate,
refine, verify at N=1, render, carry a coherence spec whose state names
exist, a symmetry spec whose variables exist, and a workload spec that
gates every autonomous decision of the remote template (a forgotten gate
would make the simulator silently never fire that transition... or fire
it eagerly, which is worse).
"""

import pytest

from repro import (
    AsyncSystem,
    INVALIDATE_SPEC,
    MESI_SPEC,
    MIGRATORY_SPEC,
    MSI_SPEC,
    RendezvousSystem,
    assert_safe,
    explore,
    invalidate_protocol,
    mesi_protocol,
    migratory_protocol,
    msi_protocol,
    refine,
)
from repro.check.por import PORSystem
from repro.check.symmetry import SymmetricSystem
from repro.csp.ast import Output, Tau
from repro.protocols.symmetry import symmetry_spec_for
from repro.sim.policy import SEND, TAU, workload_spec_for

LIBRARY = [
    ("migratory", migratory_protocol, MIGRATORY_SPEC),
    ("invalidate", invalidate_protocol, INVALIDATE_SPEC),
    ("msi", msi_protocol, MSI_SPEC),
    ("mesi", mesi_protocol, MESI_SPEC),
]


@pytest.mark.parametrize("name,build,spec", LIBRARY)
class TestLibraryContract:
    def test_single_node_sane(self, name, build, spec):
        protocol = build()
        assert_safe(explore(RendezvousSystem(protocol, 1)))
        assert_safe(explore(AsyncSystem(refine(protocol), 1)))

    def test_coherence_spec_names_real_states(self, name, build, spec):
        protocol = build()
        states = set(protocol.remote.states)
        assert spec.exclusive <= states
        assert spec.shared <= states

    def test_symmetry_spec_names_real_vars(self, name, build, spec):
        protocol = build()
        symmetry = symmetry_spec_for(name)
        declared = set(protocol.home.initial_env)
        assert symmetry.id_vars <= declared
        assert symmetry.set_vars <= declared

    def test_symmetric_system_accepts_library_spec(self, name, build, spec):
        """Both levels, with and without POR in between."""
        protocol = build()
        symmetry = symmetry_spec_for(name)
        inner = AsyncSystem(refine(protocol), 2)
        for system in (RendezvousSystem(protocol, 2), inner,
                       PORSystem(inner)):
            assert SymmetricSystem(system, symmetry).inner is system

    def test_workload_spec_gates_every_remote_decision(self, name, build,
                                                       spec):
        """Every tau (autonomous decision) and every output offered from
        the initial 'idle' region must be either gated or justified as
        protocol-internal.  Concretely: all taus reachable in the remote
        template are classified, except continuation taus inside internal
        states the gated tau already covers."""
        protocol = build()
        workload = workload_spec_for(name)
        ungated = []
        for state in protocol.remote.states.values():
            for guard in state.guards:
                if isinstance(guard, Tau):
                    if workload.classify(state.name, TAU,
                                         guard.label) is None:
                        ungated.append(f"{state.name}:{guard.label}")
        # library protocols gate every tau: the CPU/cache owns them all
        assert ungated == [], f"ungated remote taus in {name}: {ungated}"

    def test_acquire_complete_msgs_exist(self, name, build, spec):
        protocol = build()
        workload = workload_spec_for(name)
        assert workload.acquire_complete_msgs <= protocol.message_types

    def test_figures_render(self, name, build, spec):
        from repro.viz import process_dot, refined_ascii, refined_dot
        protocol = build()
        refined = refine(protocol)
        assert process_dot(protocol.home).startswith("digraph")
        assert "refined" in refined_ascii(refined, "remote")
        assert refined_dot(refined, "home").startswith("digraph")

    def test_initial_remote_state_is_decision_point(self, name, build,
                                                    spec):
        """The remote template starts idle: its initial state offers only
        gated choices (taus) or a gated send — never an ungated output."""
        protocol = build()
        workload = workload_spec_for(name)
        initial = protocol.remote.state(protocol.remote.initial_state)
        for guard in initial.guards:
            if isinstance(guard, Output):
                assert workload.classify(initial.name, SEND, None) \
                    is not None
            elif isinstance(guard, Tau):
                assert workload.classify(initial.name, TAU,
                                         guard.label) is not None
