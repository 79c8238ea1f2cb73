"""Steps replayed from the memoized deltas equal the interpreted ones.

:meth:`AsyncSystem.steps` builds each step from its memoized
:class:`~repro.semantics.asynchronous.Delta`, and :meth:`AsyncSystem.apply`
builds the one successor it is asked for.  Over every reachable state of
two small systems both must be indistinguishable from
:meth:`AsyncSystem.interpret`'s steps, and a family no delta can express
is refused.
"""

from dataclasses import replace

import pytest

from repro import AsyncSystem
from repro.check.explorer import explore
from repro.errors import SemanticsError
from repro.semantics.asynchronous import RemoteC3
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
    """A home family that also rewrites remote 0: no delta expresses it."""

    def _home_steps(self, state):
        return [replace(step, state=step.state.with_remote(
                    0, replace(step.state.remotes[0], state="moved")))
                for step in super()._home_steps(state)]


def test_family_the_memo_cannot_express_raises(migratory_refined):
    with pytest.raises(SemanticsError, match="owner 'h'"):
        explore(HomeMovesRemote(migratory_refined, 2))
