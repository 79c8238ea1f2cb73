"""Differential test of ``abs``'s memo key (repro.refine.abstraction).

:class:`~repro.refine.abstraction.Abstraction` memoizes each node's image
on the node's local view and interns the composed image.  A key that
misses part of what a rule reads would hand a later state an image
computed for another one.  So every image a sweep's warm memo hands out
is compared with a cold ``Abstraction``'s on the same state: equal
images (or the same undefinedness reason and message), and one object
per distinct image.  The states are the ones the real sweeps ask about:
the four library certificates' closures, ``check_simulation`` at n = 3,
random protocols and step-table mutants, and the hand-designed protocol
whose fire-and-forget notes leave ``abs`` undefined.
"""

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import AsyncSystem, refine
from repro.analysis import simulation
from repro.analysis.simulation import check_certificate
from repro.check import simulation as equation1
from repro.check.simulation import check_simulation
from repro.gen import GeneratorParams, random_protocol
from repro.protocols.handwritten import handwritten_migratory
from repro.refine.abstraction import Abstraction, AbstractionUndefined
from repro.refine.transitions import build_step_table

SMALL = GeneratorParams(n_remote_states=3, n_home_states=3,
                        n_remote_msgs=2, n_home_msgs=2)

lenient = settings(max_examples=20, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.data_too_large,
                                          HealthCheck.filter_too_much])


@contextmanager
def warm_images():
    """``{state: image}`` for every state the Equation-1 sweeps run in
    the block ask ``abs`` about, with the certificate memo emptied so
    they do sweep.  A state asked about twice must get the same object."""
    images: dict = {}

    class Recording(Abstraction):
        def __call__(self, state):
            image = super().__call__(state)
            assert images.setdefault(state, image) is image
            return image

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "_VERDICTS", {})
        patch.setattr(equation1, "Abstraction", Recording)
        yield images


def assert_agrees_with_cold(system, images) -> tuple[int, int]:
    """Each warm image equals a cold ``Abstraction``'s; equal images are
    one object.  Returns ``(abstract states, undefined states)``."""
    interned: dict = {}
    n_undefined = 0
    for state, image in images.items():
        cold = Abstraction(system)(state)
        if isinstance(cold, AbstractionUndefined):
            assert isinstance(image, AbstractionUndefined), state.describe()
            assert (image.reason, str(image)) == (cold.reason, str(cold))
            n_undefined += 1
            continue
        assert image == cold, state.describe()
        assert interned.setdefault(image, image) is image, state.describe()
    return len(interned), n_undefined


class TestLibraryCertificates:
    @pytest.mark.parametrize("name", ["migratory", "invalidate", "msi",
                                      "mesi"])
    def test_every_closure_state(self, request, name):
        refined = request.getfixturevalue(f"{name}_refined")
        with warm_images() as images:
            report = check_certificate(refined)
        assert_agrees_with_cold(AsyncSystem(refined, 2), images)
        assert len(images) == report.closure_states
        assert report.ok and report.complete

    def test_fire_and_forget_reason_and_message(self):
        refined = handwritten_migratory()
        with warm_images() as images:
            report = check_certificate(refined)
        assert report.n_carved > 0
        _, n_undefined = assert_agrees_with_cold(AsyncSystem(refined, 2),
                                                 images)
        assert n_undefined > 0


class TestCheckSimulationAtThree:
    @pytest.mark.parametrize("name, max_states", [
        ("migratory", None), ("invalidate", 5_000)])
    def test_every_swept_state(self, request, name, max_states):
        system = AsyncSystem(request.getfixturevalue(f"{name}_refined"), 3)
        with warm_images() as images:
            report = check_simulation(system, max_states=max_states)
        n_images, _ = assert_agrees_with_cold(system, images)
        assert n_images == report.n_abstract_states
        assert report.ok == (max_states is None)  # else: truncated


class TestRandomProtocols:
    @lenient
    @given(st.integers(0, 10_000), st.data())
    def test_protocols_and_mutants(self, seed, data):
        refined = refine(random_protocol(seed, SMALL))
        table = build_step_table(refined)
        specs = list(table)
        if specs and data.draw(st.booleans(), label="mutate"):
            spec = specs[data.draw(st.integers(0, len(specs) - 1),
                                   label="row")]
            process = (refined.protocol.home if spec.role == "home"
                       else refined.protocol.remote)
            target = data.draw(st.sampled_from(sorted(process.states)),
                               label="target")
            field = data.draw(st.sampled_from(["rewind_to", "forward_to"]),
                              label="field")
            assume(getattr(spec, field) != target)
            table = table.mutate(spec.role, spec.state, spec.out_index,
                                 **{field: target})
        with warm_images() as images:
            check_certificate(refined, table=table)
        assert_agrees_with_cold(AsyncSystem(refined, 2, table=table), images)
