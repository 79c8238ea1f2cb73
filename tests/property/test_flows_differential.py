"""Property-based soundness of the parameterized (P45xx) verdict.

The verdict — bounded buffers, plus no stuck state on the ungated
environment abstraction every N-node run projects onto — makes a
deliberately one-sided claim: it may *fail* to discharge a
deadlock-free protocol (incompleteness is allowed and counted), but it
must never stamp ``deadlock-free-any-N`` on a protocol that bounded
exploration can refute.  This suite pins that direction against the
explicit-state explorer at n = 2..5 — n = 5 because some deadlocks
depend on the parity of N — over the library protocols and random
protocols from the generator: a derandomized hypothesis draw (the same
seeds on every run), an exhaustive sweep of seeds 0..1499, and the six
seeds that the verdict discharged while it still checked its invariants
on an n = 2 instance (``benchmarks/anyn_vs_exploration.py`` runs all of
0..9999 in CI).
"""

import pytest
from hypothesis import given, note, settings, strategies as st

from repro.analysis.paramcheck import check_parameterized
from repro.check.explorer import explore
from repro.gen import GeneratorParams, random_protocol
from repro.protocols import LIBRARY_PROTOCOLS
from repro.semantics.rendezvous import RendezvousSystem

SMALL = GeneratorParams(n_remote_states=3, n_home_states=3,
                        n_remote_msgs=2, n_home_msgs=2)

lenient = settings(max_examples=25, deadline=None, derandomize=True)

#: discharged ``deadlock-free-any-N`` up to PR 23 while n = 3 deadlocks
#: (870 and the last three at odd N only: no witness size is a cut-off)
ONCE_UNSOUND = (382, 870, 1328, 1797, 6047, 6100)

SIZES = (2, 3, 4, 5)

#: per-instance exploration budget; generated protocols are tiny, so a
#: truncated run means something is badly wrong — treat it as such
ORACLE_BUDGET = 50_000


@st.composite
def protocols(draw):
    return random_protocol(draw(st.integers(0, 10_000)), SMALL)


def deadlock_found(protocol, n: int) -> bool:
    result = explore(RendezvousSystem(protocol, n),
                     name=f"{protocol.name}-oracle-{n}",
                     max_states=ORACLE_BUDGET)
    assert result.completed, f"oracle truncated at n={n}"
    return bool(result.deadlocks)


class TestStaticVerdictIsSound:
    @lenient
    @given(protocols())
    def test_discharged_implies_no_bounded_deadlock(self, protocol):
        verdict = check_parameterized(protocol)
        note(f"verdict: {verdict.verdict}, "
             f"{verdict.abstract_states} abstract state(s), "
             f"{verdict.stuck} stuck")
        if not verdict.discharged:
            # incompleteness is allowed; soundness only binds discharges
            return
        for n in SIZES:
            assert not deadlock_found(protocol, n), (
                f"static pass discharged {protocol.name!r} but exploration "
                f"finds a deadlock at n={n}")

    @pytest.mark.parametrize("seed", ONCE_UNSOUND)
    def test_known_unsound_seed_is_fixed(self, seed):
        protocol = random_protocol(seed, SMALL)
        assert any(deadlock_found(protocol, n) for n in SIZES)
        assert not check_parameterized(protocol).discharged

    def test_no_discharge_refuted_on_seeds_0_to_1499(self):
        # only discharges are explored, which keeps this to a few seconds
        discharged = [seed for seed in range(1500) if check_parameterized(
            random_protocol(seed, SMALL)).discharged]
        # completeness floor: 358 measured; 115 while flow invariants,
        # cover and interior mutex still blocked
        assert len(discharged) >= 350
        refuted = [(seed, n) for seed in discharged for n in SIZES
                   if deadlock_found(random_protocol(seed, SMALL), n)]
        assert not refuted

    @lenient
    @given(protocols())
    def test_refuted_protocols_carry_an_obligation(self, protocol):
        # contrapositive sanity: a deadlock at n = 2 must leave a P45xx
        # obligation (never a clean discharge)
        if deadlock_found(protocol, 2):
            verdict = check_parameterized(protocol)
            assert not verdict.discharged
            assert any(d.code in {"P4502", "P4503", "P4507"}
                       for d in verdict.obligations)

    @lenient
    @given(protocols())
    def test_verdict_is_deterministic(self, protocol):
        first = check_parameterized(protocol)
        second = check_parameterized(protocol)
        assert first.discharged == second.discharged
        assert [d.code for d in first.obligations] == \
            [d.code for d in second.obligations]


class TestLibraryProtocolsAgree:
    def test_discharges_match_exploration(self):
        # symmetry reduction preserves deadlock existence and keeps the
        # n=4 library instances inside the oracle budget
        from repro.check.symmetry import SymmetricSystem
        from repro.protocols.symmetry import symmetry_spec_for

        for name, factory in LIBRARY_PROTOCOLS.items():
            protocol = factory()
            verdict = check_parameterized(protocol)
            assert verdict.discharged, name
            spec = symmetry_spec_for(name)
            for n in (2, 3, 4):
                system = SymmetricSystem(RendezvousSystem(protocol, n), spec)
                result = explore(system, name=f"{name}-oracle-{n}",
                                 max_states=ORACLE_BUDGET,
                                 reductions=("symmetry",))
                assert result.completed, (name, n)
                assert not result.deadlocks, (name, n)
