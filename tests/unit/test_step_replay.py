"""Steps replayed from the memo equal a fresh run of the rules.

:meth:`AsyncSystem.steps` builds each step from its memoized
:class:`~repro.semantics.asynchronous.Delta`, and :meth:`AsyncSystem.apply`
builds the one successor it is asked for.  :meth:`AsyncSystem.interpret`
runs the rules afresh at every state, so over every reachable state of
two small systems the comparison checks that a family memoized at one
state equals the rules' answer at any other state with the same key.  A
family that writes a node its memo key does not hold is refused.
"""

import pytest

from repro import AsyncSystem
from repro.check.explorer import explore
from repro.errors import SemanticsError
from repro.csp.env import Env
from repro.semantics.asynchronous import RemoteC3, RemoteNode
from tests.conftest import reachable_states


@pytest.fixture(scope="module",
                params=[("migratory", 3), ("invalidate", 2)],
                ids=["migratory-n3", "invalidate-n2"])
def swept(request):
    name, n = request.param
    system = AsyncSystem(request.getfixturevalue(f"{name}_refined"), n)
    return system, reachable_states(system)


def observables(steps):
    return [(s.action, s.state, s.completes, s.sends) for s in steps]


def test_observables_equal_interpret(swept):
    system, states = swept
    for state in states:
        expected = system.interpret(state)
        assert observables(system.steps(state)) == observables(expected)
        assert system.steps(state) == expected


def test_apply_unchanged(swept):
    system, states = swept
    for state in states:
        expected = {}
        for s in system.interpret(state):
            expected.setdefault(s.action, s.state)
        for action, successor in expected.items():
            assert system.apply(state, action) == successor
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
