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


@pytest.fixture
def refined(name, request):
    """The session-scoped ``<name>_refined`` of ``tests/conftest.py``."""
    return request.getfixturevalue(f"{name}_refined")


@pytest.mark.parametrize("name,build,spec", LIBRARY)
class TestLibraryContract:
    def test_single_node_sane(self, name, build, spec, refined):
        assert_safe(explore(RendezvousSystem(build(), 1)))
        assert_safe(explore(AsyncSystem(refined, 1)))

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

    def test_symmetric_system_accepts_library_spec(self, name, build, spec,
                                                   refined):
        """Both levels, with and without POR in between."""
        symmetry = symmetry_spec_for(name)
        inner = AsyncSystem(refined, 2)
        for system in (RendezvousSystem(build(), 2), inner,
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

    def test_figures_render(self, name, build, spec, refined):
        from repro.viz import process_dot, refined_ascii, refined_dot
        assert process_dot(build().home).startswith("digraph")
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


def _shapes(state):
    """What a guard is, minus its callables: kind, msg or label, sender,
    target, bindings, successor, and which callables it carries."""
    return [(type(g).__name__, getattr(g, "msg", None),
             getattr(g, "label", None), getattr(g, "sender", None),
             getattr(g, "target", None), getattr(g, "bind_sender", None),
             getattr(g, "bind_value", None), g.to,
             *(getattr(g, f, None) is not None
               for f in ("cond", "update", "payload")))
            for g in state.guards]


#: States msi and mesi take unchanged from invalidate, per process, and
#: states whose invalidate guards they keep in order among added ones.
FAMILY = {
    "msi": (msi_protocol, {
        "home": ("F", "F.gr", "F.grw", "Sh.gr", "Sh.chk", "W.chk",
                 "W.grant", "E", "RI", "RI2", "RI3", "WI", "WI2", "WI3"),
        "remote": ("I", "I.r", "I.grR", "I.w", "I.grW", "S.ev", "S.ia",
                   "M", "M.lr", "M.id"),
    }, {"home": ("Sh", "W.send", "W.wait"), "remote": ("S",)}),
    "mesi": (mesi_protocol, {
        "home": ("Sh", "Sh.chk", "W.chk", "W.send", "W.wait"),
        "remote": ("S", "S.ev", "S.ia", "M.lr", "M.id"),
    }, {"home": (), "remote": ()}),
}


@pytest.mark.parametrize("data_values", [None, 2])
@pytest.mark.parametrize("name", sorted(FAMILY))
def test_invalidate_family_shares_invalidates_states(name, data_values):
    """msi and mesi extend invalidate: every state they share with it has
    invalidate's guards, and an extended one keeps them in order."""
    build, same, extended = FAMILY[name]
    base = invalidate_protocol(data_values)
    member = build(data_values)
    for process in ("home", "remote"):
        ours = getattr(base, process)
        theirs = getattr(member, process)
        for state in same[process]:
            assert _shapes(theirs.state(state)) == \
                _shapes(ours.state(state)), (name, state)
        for state in extended[process]:
            added = iter(_shapes(theirs.state(state)))
            assert all(shape in added
                       for shape in _shapes(ours.state(state))), (name, state)
