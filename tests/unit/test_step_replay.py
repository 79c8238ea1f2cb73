"""Deltas replayed from the memo equal a fresh run of the rules.

:meth:`AsyncSystem.deltas` reads each step family from the memo, and
:meth:`AsyncSystem.apply` builds the one successor it is asked for.
:meth:`AsyncSystem.interpret` runs the same loop with an empty memo, so
the rules run afresh at every state; over every reachable state of two
small systems the comparison checks that a family memoized at one state
equals the rules' answer at any other state with the same key, field by
field (``home``, ``moved`` and ``ops`` as well as the observables).  A
family that writes a node its memo key does not hold is refused.
"""

import pytest

from repro import AsyncSystem
from repro.check.explorer import explore
from repro.errors import SemanticsError
from repro.csp.env import Env
from repro.semantics.asynchronous import RemoteC3, RemoteNode, successor
from tests.conftest import reachable_states


@pytest.fixture(scope="module",
                params=[("migratory", 3), ("invalidate", 2)],
                ids=["migratory-n3", "invalidate-n2"])
def swept(request):
    name, n = request.param
    system = AsyncSystem(request.getfixturevalue(f"{name}_refined"), n)
    return system, reachable_states(system)


def test_observables_equal_interpret(swept):
    system, states = swept
    for state in states:
        assert system.deltas(state) == system.interpret(state)


def test_apply_unchanged(swept):
    system, states = swept
    for state in states:
        expected = {}
        for d in system.interpret(state):
            expected.setdefault(d.action, successor(state, d))
        for action, nxt in expected.items():
            assert system.apply(state, action) == nxt
    with pytest.raises(SemanticsError, match="not enabled"):
        system.apply(system.initial_state(), RemoteC3(remote=0))


class HomeMovesRemote(AsyncSystem):
    """A home family that also rewrites remote 0: its owner holds only
    the home, so no memo entry may record it."""

    def _home_steps(self, home):
        moved = (0, RemoteNode(state="moved", env=Env()))
        return [delta._replace(moved=moved)
                for delta in super()._home_steps(home)]


def test_family_the_memo_cannot_express_raises(migratory_refined):
    with pytest.raises(SemanticsError, match="owner 'h'"):
        explore(HomeMovesRemote(migratory_refined, 2))
