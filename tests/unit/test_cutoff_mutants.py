"""The certificate's two-node cut-off, on the two mutants that break it.

Each case is a single-row ``StepTable.mutate`` mutant of a random
protocol (``tests/conftest.py::CUTOFF_MUTANTS``).  Equation 1 holds on
its n = 2 sweep and fails on its n = 3 sweep, while the P44xx
certificate, which checks two nodes, convicts it only through the static
row check (P4404) and its cut-off warning (P4405).  These tests pin that
behaviour as it is today.  They are the cases ROADMAP item 3(c) must turn
into P4401-P4403 convictions; when it does, the certificate assertion
here changes to say so.
"""

import pytest

from repro import AsyncSystem
from repro.analysis.simulation import check_certificate
from repro.check.simulation import check_simulation

#: ``(seed, mutant index)``: the n = 2 and n = 3 state counts
CASES = {(778, 0): (86, 628), (840, 3): (393, 6_626)}

pytestmark = pytest.mark.parametrize(
    "case", list(CASES), ids=["seed778-mutant0", "seed840-mutant3"])


def test_equation1_holds_at_two_nodes(cutoff_mutants, case):
    refined, table = cutoff_mutants[case]
    report = check_simulation(AsyncSystem(refined, 2, table=table))
    assert report.ok and report.exploration.completed
    assert report.n_async_states == CASES[case][0]


def test_equation1_fails_at_three_nodes(cutoff_mutants, case):
    refined, table = cutoff_mutants[case]
    report = check_simulation(AsyncSystem(refined, 3, table=table))
    assert not report.ok and report.exploration.completed
    assert len(report.failures) == 25  # check_simulation's default cap
    assert report.n_async_states == CASES[case][1]


def test_certificate_convicts_only_statically(cutoff_mutants, case):
    refined, table = cutoff_mutants[case]
    report = check_certificate(refined, table=table)
    assert {d.code for d in report.diagnostics} == {"P4404", "P4405"}
