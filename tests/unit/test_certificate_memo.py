"""The in-process memo of the certificate verdict must be *sound*.

A hit answers for a protocol without sweeping it, so the key has to
change whenever anything the verdict depends on changes — the AST with
the behaviour of its callables, the plan, every step-table row, the
budgets — and a subject the key cannot see through must never be stored.
"""

import functools
from dataclasses import replace

import pytest

from repro.analysis import simulation
from repro.analysis.diagnostics import Severity
from repro.analysis.memokey import structural_key
from repro.analysis.simulation import check_certificate
from repro.csp.ast import Protocol, StateDef
from repro.csp.env import Env
from repro.errors import CertificateError
from repro.gen import GeneratorParams, random_protocol
from repro.protocols.invalidate import invalidate_protocol
from repro.protocols.migratory import migratory_protocol
from repro.refine.engine import _gate_on_certificate, refine
from repro.refine.plan import (
    RefinedProtocol,
    RefinementConfig,
    RefinementPlan,
)
from repro.refine.transitions import build_step_table
from repro.semantics.state import ProcState, RvState

SMALL = GeneratorParams(n_remote_states=3, n_home_states=3,
                        n_remote_msgs=2, n_home_msgs=2)


def error_codes(report):
    return {d.code for d in report.diagnostics
            if d.severity >= Severity.ERROR}


def fresh_verdict(refined, table):
    """What the checker says without the memo (today's verdict)."""
    return simulation._discharge(refined, table, build_step_table(refined),
                                 4096, 20_000, 25)


def single_target_mutants(refined):
    """Every mutant the two differential harnesses can draw: one row, one
    of ``rewind_to``/``forward_to``, any other state of its process."""
    table = build_step_table(refined)
    for spec in table:
        process = (refined.protocol.home if spec.role == "home"
                   else refined.protocol.remote)
        for field in ("rewind_to", "forward_to"):
            for target in sorted(process.states):
                if getattr(spec, field) != target:
                    yield table.mutate(spec.role, spec.state,
                                       spec.out_index, **{field: target})


def with_guard(protocol, state, index, **changes):
    """``protocol`` with one remote guard's fields replaced."""
    states = dict(protocol.remote.states)
    guards = list(states[state].guards)
    guards[index] = replace(guards[index], **changes)
    states[state] = StateDef(name=state, guards=tuple(guards))
    return Protocol(name=protocol.name, home=protocol.home,
                    remote=replace(protocol.remote, states=states))


class TestHits:
    def test_same_builder_twice_is_one_sweep(self, certificate_sweeps):
        first, second = invalidate_protocol(), invalidate_protocol()
        assert first is not second
        assert structural_key(first) == structural_key(second) is not None
        report = check_certificate(refine(first))
        assert certificate_sweeps == [1]
        # separately built, separately refined: read back, not re-swept
        assert check_certificate(refine(second)) is report
        assert certificate_sweeps == [1]
        assert len(simulation._VERDICTS) == 1

    def test_a_filled_memo_is_not_structure(self):
        # a declared memo is a dataclass field outside ``==``: a hashed
        # state and an unhashed equal one must key alike
        cold = RvState(home=ProcState("h", Env({"o": 1})),
                       remotes=(ProcState("r", Env()),) * 2)
        warm = replace(cold)
        hash(warm)
        assert warm._hash_cache is not None and cold._hash_cache is None
        assert structural_key(warm) == structural_key(cold) is not None

    def test_failing_verdict_is_remembered_and_still_raises(
            self, certificate_sweeps, migratory_refined):
        migratory = migratory_refined
        bogus = RefinedProtocol(
            protocol=migratory.protocol,
            plan=RefinementPlan(
                config=RefinementConfig(fire_and_forget=frozenset({"req"})),
                fused=migratory.plan.fused))
        sweeps = certificate_sweeps[0]
        raised = []
        for _ in range(2):
            with pytest.raises(CertificateError) as excinfo:
                _gate_on_certificate(bogus)
            raised.append(excinfo.value)
        assert certificate_sweeps == [sweeps + 1]
        assert raised[0].diagnostics == raised[1].diagnostics
        assert str(raised[0]) == str(raised[1])
        assert any(d.code == "P4401" for d in raised[1].diagnostics)

    def test_a_full_memo_evicts_its_oldest_entry(
            self, certificate_sweeps, monkeypatch, migratory_refined):
        monkeypatch.setattr(simulation, "_VERDICT_LIMIT", 2)
        # the budgets are part of the key: three keys, three sweeps
        reports = [check_certificate(migratory_refined, max_failures=cap)
                   for cap in (1, 2, 3)]
        assert certificate_sweeps == [3]
        assert [id(r) for r in simulation._VERDICTS.values()] \
            == [id(r) for r in reports[1:]]
        # the two newest still answer; the evicted one is swept again
        assert check_certificate(migratory_refined, max_failures=3) \
            is reports[2]
        assert certificate_sweeps == [3]
        assert check_certificate(migratory_refined, max_failures=1) \
            is not reports[0]
        assert certificate_sweeps == [4]
        assert len(simulation._VERDICTS) == 2


class TestMisses:
    def test_distinct_protocols_have_distinct_keys(self):
        keys = [structural_key(p) for p in (
            invalidate_protocol(), invalidate_protocol(data_values=2),
            invalidate_protocol(data_values=3),
            random_protocol(0, SMALL), random_protocol(1, SMALL),
            random_protocol(0), random_protocol(1))]
        assert None not in keys
        assert len(set(keys)) == len(keys)

    def test_a_callable_contributes_code_cells_defaults_and_globals(self):
        base = migratory_protocol()
        guard = base.remote.states["V.lr"].guards[0]

        def closing_over(value):
            return lambda env: env.set("d", value)

        variants = [
            base,
            with_guard(base, "V.lr", 0, update=closing_over(0)),
            with_guard(base, "V.lr", 0, update=closing_over(1)),      # cell
            with_guard(base, "V.lr", 0, update=lambda env: env),      # code
            with_guard(base, "V.lr", 0,
                       update=lambda env, v=0: env.set("d", v)),
            with_guard(base, "V.lr", 0,
                       update=lambda env, v=1: env.set("d", v)),   # default
            with_guard(base, "V.lr", 0, update=None),
        ]
        keys = [structural_key(p) for p in variants]
        assert None not in keys
        assert len(set(keys)) == len(keys)
        # equal code over equal cells keys equally, whoever wrote it
        assert structural_key(
            with_guard(base, "V.lr", 0, update=closing_over(1))) == keys[2]
        # a module global the code names is part of the key
        fn = eval("lambda env: env.set('d', LIMIT)", {"LIMIT": 0})
        other = eval("lambda env: env.set('d', LIMIT)", {"LIMIT": 1})
        assert (structural_key(with_guard(base, "V.lr", 0, update=fn))
                != structural_key(with_guard(base, "V.lr", 0, update=other)))
        assert guard.update is not None  # the variants did change something

    def test_every_table_mutant_misses_and_keeps_its_verdict(
            self, certificate_sweeps, migratory_refined):
        refined = migratory_refined
        clean = check_certificate(refined)
        assert clean.ok
        mutants = list(single_target_mutants(refined))
        assert len(mutants) > 50
        keys = {structural_key(refined, m.specs) for m in mutants}
        assert len(keys) == len(mutants)
        assert structural_key(refined,
                              build_step_table(refined).specs) not in keys
        for mutant in mutants:
            before = certificate_sweeps[0]
            report = check_certificate(refined, table=mutant)
            assert certificate_sweeps == [before + 1]  # a miss: it swept
            # and the remembered verdict is the same object, unswept
            assert check_certificate(refined, table=mutant) is report
            assert certificate_sweeps == [before + 1]
            assert report == fresh_verdict(refined, mutant)
            assert "P4404" in error_codes(report)

    def test_library_mutants_and_plans_miss(self, invalidate_refined):
        keys = {structural_key(invalidate_refined, m.specs)
                for m in single_target_mutants(invalidate_refined)}
        keys.add(structural_key(
            invalidate_refined,
            build_step_table(invalidate_refined).specs))
        plain = refine(invalidate_protocol(),
                       RefinementConfig(use_reqreply=False))
        keys.add(structural_key(plain, build_step_table(plain).specs))
        assert None not in keys
        assert len(keys) == 2 + sum(
            1 for _ in single_target_mutants(invalidate_refined))

    def test_budgets_are_part_of_the_key(self, certificate_sweeps,
                                         migratory_refined):
        refined = migratory_refined
        truncated = check_certificate(refined, max_states=40)
        assert not truncated.complete
        assert check_certificate(refined).complete
        assert check_certificate(refined, max_failures=1).complete
        assert certificate_sweeps == [3]


class TestUnkeyable:
    @pytest.mark.parametrize("opaque", [
        functools.partial(lambda env, value: env.set("d", value), value=0),
        dict,                                   # a builtin
        type("Callable", (), {"__call__": lambda self, env: env})(),
        (lambda cell: lambda env: env.set("d", cell[0]))([0]),  # list cell
    ], ids=["partial", "builtin", "callable-object", "unhashable-cell"])
    def test_what_cannot_be_seen_through_has_no_key(self, opaque):
        protocol = with_guard(migratory_protocol(), "V.lr", 0, update=opaque)
        assert structural_key(protocol) is None

    def test_a_partial_guard_is_never_memoized_and_still_gated(
            self, certificate_sweeps):
        base = migratory_protocol()
        update = base.remote.states["V.lr"].guards[0].update
        protocol = with_guard(base, "V.lr", 0,
                              update=functools.partial(update))
        for n in (1, 2):
            refined = refine(protocol)
            assert certificate_sweeps == [n]
        assert simulation._VERDICTS == {}
        bogus = RefinedProtocol(
            protocol=protocol,
            plan=RefinementPlan(
                config=RefinementConfig(fire_and_forget=frozenset({"req"})),
                fused=refined.plan.fused))
        for n in (3, 4):
            with pytest.raises(CertificateError):
                _gate_on_certificate(bogus)
            assert certificate_sweeps == [n]
        assert simulation._VERDICTS == {}


class TestAbortedSweeps:
    @pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
    def test_no_entry_is_left_behind(self, certificate_sweeps, monkeypatch,
                                     error, migratory_refined):
        refined = migratory_refined
        simulation._VERDICTS.clear()
        successors = simulation.StreamedSystem.successors
        calls = [0]

        def failing(self, state):
            calls[0] += 1
            if calls[0] > 10:
                raise error("mid-sweep")
            return successors(self, state)

        with monkeypatch.context() as patch:
            patch.setattr(simulation.StreamedSystem, "successors", failing)
            with pytest.raises(error):
                check_certificate(refined)
        assert simulation._VERDICTS == {}
        sweeps = certificate_sweeps[0]
        assert check_certificate(refined).ok  # swept for real this time
        assert certificate_sweeps == [sweeps + 1]
        assert len(simulation._VERDICTS) == 1
