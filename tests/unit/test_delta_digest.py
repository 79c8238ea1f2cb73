"""Every delta the step rules produce, pinned by one digest per system.

:meth:`AsyncSystem.deltas` is the one record of what a Tables 1/2 step
reads and writes.  Each case sweeps one system with
:func:`tests.conftest.reachable_states` and hashes, state by state, the
canonical encoding (:func:`repro.check.store._enc`) of every delta the
system returns there — action, new home, moved remote, channel ops,
completions and sends, in order.  A change to a rule that moves any field
of any delta, or the order of a state's deltas, moves the digest; so do
a new or a lost delta, which also move the count.

The encoding is stable across processes and ``PYTHONHASHSEED``s, so the
pins hold on any host.
"""

from _blake2 import blake2b

import pytest

from repro import AsyncSystem
from repro.check.store import _enc
from tests.conftest import reachable_states


def digest(systems):
    """``(hex digest, delta count)`` over ``systems``' reachable states,
    system by system."""
    h, count = blake2b(digest_size=16), 0
    for system in systems:
        for state in reachable_states(system):
            for delta in system.deltas(state):
                h.update(_enc(tuple(delta)))
                count += 1
    return h.hexdigest(), count


def test_library_protocols_n2(invalidate_refined, mesi_refined,
                              migratory_refined, msi_refined):
    systems = [AsyncSystem(refined, 2) for refined in (
        invalidate_refined, mesi_refined, migratory_refined, msi_refined)]
    assert digest(systems) == ("552ccf407af0d234ab4dae94e349b834", 61_610)


def test_migratory_n3(migratory_refined):
    assert digest([AsyncSystem(migratory_refined, 3)]) \
        == ("b89a12ad222c148accf519de102d7bcf", 4_344)


@pytest.mark.parametrize("case, pinned", [
    ((778, 0), ("9bab3d937d60fe661609ff18abfaf1ba", 162)),
    ((840, 3), ("7dbc12a96018052283e9a3e0deb320b1", 958)),
], ids=["seed778-mutant0", "seed840-mutant3"])
def test_cutoff_mutants_n2(cutoff_mutants, case, pinned):
    refined, table = cutoff_mutants[case]
    assert digest([AsyncSystem(refined, 2, table=table)]) == pinned
