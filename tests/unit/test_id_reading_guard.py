"""A guard callable that reads a remote id gets a wrong any-N discharge.

Both any-N verdicts (P46xx coherence, P45xx deadlock freedom) rest on the
premise that remotes are interchangeable, and the static guard check
looks only at sender patterns and targets, never at ``cond``, ``update``
or ``payload`` callables.  The protocol here is library migratory with
one home input added first in state ``E``: a request from remote 3 is
granted (``F1``) without revoking the current owner.  It breaks
single-writer only once a remote 3 exists, i.e. at n = 4, yet both
verdicts discharge it for every node count.

This test pins that **wrong** discharge next to the n = 4 violation.  It
is the case ROADMAP item 12 turns into a refusal: when the id-opacity
probe lands, the P4601/P4505 assertions flip to the new refusal codes
and the exploration facts stay as they are.
"""

from dataclasses import replace

import pytest

from repro import RendezvousSystem, explore, refine
from repro.analysis.coherencecheck import check_coherence
from repro.analysis.paramcheck import check_parameterized
from repro.csp.ast import AnySender
from repro.csp.builder import inp
from repro.protocols.invariants import COHERENCE_SPECS, coherence_invariants


@pytest.fixture(scope="module")
def id_reading(migratory):
    """Library migratory whose home, in ``E``, grants remote 3 outright."""
    grant_r3 = inp("req", sender=AnySender(), bind_sender="j",
                   cond=lambda env, s, v: s == 3, to="F1")
    states = dict(migratory.home.states)
    states["E"] = replace(states["E"], guards=(grant_r3,)
                          + states["E"].guards)
    return replace(migratory, home=replace(migratory.home, states=states))


def codes(verdict):
    return {d.code for d in verdict.obligations}


def test_coherence_is_wrongly_discharged(id_reading):
    verdict = check_coherence(id_reading)
    assert verdict.status == "discharged"
    assert "P4601" in codes(verdict)


def test_deadlock_freedom_is_wrongly_discharged(id_reading):
    verdict = check_parameterized(id_reading)
    assert verdict.discharged
    assert "P4505" in codes(verdict)


def test_refine_accepts_it(id_reading):
    assert refine(id_reading).protocol is id_reading


@pytest.mark.parametrize("n,n_states,violated", [
    (2, 15, []),
    (3, 34, []),
    (4, 31, ["migratory: single-writer"]),
])
def test_single_writer_breaks_at_four_nodes(id_reading, n, n_states,
                                            violated):
    result = explore(RendezvousSystem(id_reading, n),
                     invariants=coherence_invariants(
                         COHERENCE_SPECS["migratory"]))
    assert result.n_states == n_states
    assert [v.property_name for v in result.violations] == violated
    assert result.completed == (not violated)
