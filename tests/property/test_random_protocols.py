"""Property-based soundness: refinement is correct for the whole class.

The paper's central theorem is argued once for the rule schema; here we
machine-check its consequences on *randomly generated* protocols inside the
restricted specification class — the strongest evidence this library can
offer for "our synthesis procedure applies to large classes of DSM
protocols".  For every generated protocol:

* the refinement plan is accepted (validation, fusion checks);
* Equation 1 (bounded weak simulation) holds over the full asynchronous
  state space at 2 remotes;
* the abstraction function is total on reachable states;
* structural invariants of the semantics hold everywhere.

State spaces are capped; runs that exceed the cap are discarded via
``assume`` (they are rare with the default generator parameters).
"""

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import AsyncSystem, RefinementConfig, refine
from repro.check.explorer import explore
from repro.check.simulation import check_simulation
from repro.gen import GeneratorParams, random_protocol
from repro.protocols.invariants import async_structural_invariants
from repro.refine.abstraction import abstract_state
from tests.conftest import reachable_states

SMALL = GeneratorParams(n_remote_states=3, n_home_states=3,
                        n_remote_msgs=2, n_home_msgs=2)

# filter_too_much is suppressed because the conditional properties below
# (progress transfer especially) discard non-qualifying protocols with
# ``assume`` by design; whether the health check trips depends only on
# which seeds hypothesis happens to draw.
lenient = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.data_too_large,
                                          HealthCheck.filter_too_much])


@st.composite
def protocols(draw):
    seed = draw(st.integers(0, 10_000))
    return random_protocol(seed, SMALL)


class TestRefinementSoundness:
    @lenient
    @given(protocols())
    def test_weak_simulation_holds(self, protocol):
        refined = refine(protocol)
        report = check_simulation(AsyncSystem(refined, 2),
                                  max_states=3000, max_seconds=5)
        assume(report.exploration.completed)
        assert report.ok, report.describe()

    @lenient
    @given(protocols())
    def test_plain_refinement_exact_equation_1(self, protocol):
        refined = refine(protocol, RefinementConfig(use_reqreply=False))
        report = check_simulation(AsyncSystem(refined, 2), max_depth=1,
                                  max_states=3000, max_seconds=5)
        assume(report.exploration.completed)
        assert report.ok, report.describe()

    @lenient
    @given(protocols())
    def test_abstraction_total_and_structure_invariant(self, protocol):
        refined = refine(protocol)
        system = AsyncSystem(refined, 2)
        result = explore(system, max_states=3000, max_seconds=5,
                         invariants=async_structural_invariants(2),
                         allow_deadlock=True)
        assume(result.completed)
        assert not result.violations, result.violations[0].describe()
        for state in reachable_states(system, max_states=3000,
                                      allow_deadlock=True)[:500]:
            abstract_state(system, state)  # must never raise

    @lenient
    @given(protocols(), st.integers(2, 4))
    def test_buffer_capacity_never_exceeded(self, protocol, k):
        refined = refine(protocol, RefinementConfig(home_buffer_capacity=k))
        result = explore(AsyncSystem(refined, 2), max_states=2000,
                         max_seconds=5,
                         invariants=async_structural_invariants(k),
                         allow_deadlock=True)
        assert not result.violations


class TestProgressTransfer:
    """Paper section 2.5: 'the refinement process guarantees that at least
    one of the refined remote nodes makes forward progress, if forward
    progress is possible in the rendezvous protocol' — checked as a
    conditional property on random protocols."""

    @lenient
    @given(protocols())
    def test_rendezvous_progress_implies_async_progress(self, protocol):
        from repro.check.properties import check_progress
        from repro.semantics.rendezvous import RendezvousSystem
        rendezvous = check_progress(RendezvousSystem(protocol, 2),
                                    max_states=3000, max_seconds=3)
        assume(rendezvous.completed and rendezvous.ok)
        asynchronous = check_progress(AsyncSystem(refine(protocol), 2),
                                      max_states=8000, max_seconds=6)
        assume(asynchronous.completed)
        assert asynchronous.ok, asynchronous.describe()


class TestGeneratorAgreementAcrossLevels:
    @lenient
    @given(protocols())
    def test_async_initial_abstraction_matches(self, protocol):
        from repro.semantics.rendezvous import RendezvousSystem
        refined = refine(protocol)
        system = AsyncSystem(refined, 2)
        assert abstract_state(system, system.initial_state()) == \
            RendezvousSystem(protocol, 2).initial_state()
