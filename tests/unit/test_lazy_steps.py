"""A replayed :class:`Step` builds its successor when ``state`` is read.

:meth:`AsyncSystem.steps` hands back steps that hold their origin state
and memoized delta; the successor is built the first time ``state`` is
read and kept after that, so a caller that takes one step of many (the
simulator, ``apply()``, POR's ample step) builds one successor.  Over
every reachable state of two small systems such a step must be
indistinguishable from :meth:`AsyncSystem.interpret`'s eager one.
"""

from dataclasses import replace

import pytest

from repro import AsyncSystem
from repro.check.explorer import explore
from repro.errors import SemanticsError
from repro.semantics.asynchronous import RemoteC3, Step
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
        assert system.steps(state) == expected  # Step equality reads state


def built(step):
    """Whether ``step``'s ``state`` slot is filled, read past the
    ``__getattr__`` that would build it."""
    try:
        Step.state.__get__(step)
    except AttributeError:
        return False
    return True


def test_successor_built_on_first_read_only(swept):
    system, states = swept
    for state in states:
        steps = system.steps(state)
        # nothing is built before it is read ...
        assert not any(built(s) for s in steps)
        if not steps:
            continue
        first = steps[0].state
        # ... then once: the second read is the same object
        assert built(steps[0]) and steps[0].state is first
        # and reading one step builds no other
        assert not any(built(s) for s in steps[1:])


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
