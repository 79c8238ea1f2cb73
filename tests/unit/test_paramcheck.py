"""Unit tests for the parameterized deadlock-freedom verdict (P45xx)."""

import pytest

from repro.analysis import analyze_protocol
from repro.analysis.environment import EnvironmentSystem, other_send_table
from repro.analysis.flows import derive_flows
from repro.analysis.paramcheck import check_parameterized, paramcheck_pass
from repro.csp.ast import AnySender, VarSender, VarTarget
from repro.check.explorer import explore
from repro.csp.builder import ProcessBuilder, inp, out, protocol, tau
from repro.gen import GeneratorParams, random_protocol
from repro.protocols import mesi_protocol
from repro.refine.plan import RefinementConfig
from repro.semantics.rendezvous import RendezvousSystem
from tests.conftest import reachable_states

#: the differential suite's generator shape
SMALL = GeneratorParams(n_remote_states=3, n_home_states=3,
                        n_remote_msgs=2, n_home_msgs=2)


def deadlocker():
    """Requester must send 'b' before home grants, but only after 'c'."""
    h = ProcessBuilder.home("h", j=None)
    h.state("h0", inp("a", sender=AnySender(), bind_sender="j", to="h1"))
    h.state("h1", inp("b", sender=VarSender("j"), to="h2"))
    h.state("h2", out("c", to="h0", target=VarTarget("j")))
    r = ProcessBuilder.remote("r")
    r.state("r0", tau("go", to="r0a"))
    r.state("r0a", out("a", to="r1"))
    r.state("r1", inp("c", to="r2"))
    r.state("r2", out("b", to="r0"))
    return protocol("stuckling", h, r)


def escaper():
    """Like deadlocker, but the blocked requester can tau back home —
    only to want 'a' again, which the home (still awaiting its 'b') no
    longer accepts: a deadlock at every n >= 1."""
    h = ProcessBuilder.home("h", j=None)
    h.state("h0", inp("a", sender=AnySender(), bind_sender="j", to="h1"))
    h.state("h1", inp("b", sender=VarSender("j"), to="h2"))
    h.state("h2", out("c", to="h0", target=VarTarget("j")))
    r = ProcessBuilder.remote("r")
    r.state("r0", tau("go", to="r0a"))
    r.state("r0a", out("a", to="r1"))
    r.state("r1", out("b", to="r2"), tau("esc", to="r0"))
    r.state("r2", inp("c", to="r0"))
    return protocol("escaper", h, r)


def crosslock():
    """Two lock flows that can each wait on the other's requester."""
    h = ProcessBuilder.home("h", j=None, o=None)
    h.state("h0",
            inp("b", sender=AnySender(), bind_sender="j", to="hb"),
            inp("a", sender=AnySender(), bind_sender="j", to="ha",
                cond=lambda env, i, v: env["o"] is not None),
            inp("LR", sender=VarSender("o"), to="h0",
                update=lambda env: env.set("o", None)))
    h.state("hb", out("gb", to="h0", target=VarTarget("j"),
                      update=lambda env: env.update({"o": env["j"],
                                                     "j": None})))
    h.state("ha", inp("LR", sender=VarSender("o"), to="ha2"))
    h.state("ha2", out("ga", to="h0", target=VarTarget("j"),
                       update=lambda env: env.update({"o": env["j"],
                                                      "j": None})))
    r = ProcessBuilder.remote("r")
    r.state("r0", tau("wantB", to="r0b"), tau("wantA", to="r0a"))
    r.state("r0b", out("b", to="rb"))
    r.state("rb", inp("gb", to="owned"))
    r.state("r0a", out("a", to="ra"))
    r.state("ra", inp("ga", to="owned"))
    r.state("owned", tau("drop", to="r_lr"), tau("greedy", to="r0b"))
    r.state("r_lr", out("LR", to="r0"))
    return protocol("crosslock", h, r)


class TestLibraryDischarge:
    def test_all_four_protocols_discharge(self, migratory, invalidate, msi):
        for proto in (migratory, invalidate, msi, mesi_protocol()):
            verdict = check_parameterized(proto)
            assert verdict.discharged, [d.render()
                                        for d in verdict.obligations]
            assert verdict.verdict == "deadlock-free-any-N"
            assert verdict.graph.complete
            assert verdict.completed
            assert verdict.stuck == 0

    def test_verdict_serializes(self, migratory):
        import json

        verdict = check_parameterized(migratory)
        doc = json.loads(json.dumps(verdict.as_dict()))
        assert doc["verdict"] == "deadlock-free-any-N"
        assert doc["abstraction"] == {"concrete": 1, "states": 16,
                                      "completed": True, "stuck": 0}
        # only the P4505 discharge note, no warning-level obligations
        assert [d["code"] for d in doc["obligations"]] == ["P4505"]

    def test_witness_nodes_accepted_and_ignored(self, migratory):
        # frozen perf/ still passes it
        assert (check_parameterized(migratory, witness_nodes=3).as_dict()
                == check_parameterized(migratory).as_dict())


class TestObligations:
    def test_deadlocker_convicted(self):
        verdict = check_parameterized(deadlocker())
        assert not verdict.discharged
        codes = {d.code for d in verdict.obligations}
        assert "P4502" in codes  # the abstraction has a stuck state
        assert verdict.stuck > 0

    def test_escaper_invariants_fail_without_deadlock(self):
        # the escape leads into a deadlock, not out of one: the home at
        # h1 awaits 'b' from r0, which has gone back to offering 'a'
        proto = escaper()
        assert [explore(RendezvousSystem(proto, n)).deadlock_count
                for n in (1, 2, 3)] == [1, 2, 3]
        verdict = check_parameterized(proto)
        assert not verdict.discharged and verdict.stuck == 1
        stuck = [d for d in verdict.obligations if d.code == "P4502"]
        assert len(stuck) == 1
        assert "h:h1[j=0] r0:r0a" in stuck[0].message

    def test_crosslock_two_flow_witness(self):
        verdict = check_parameterized(crosslock())
        assert not verdict.discharged
        stuck = [d for d in verdict.obligations if d.code == "P4502"]
        assert stuck
        # the stuck home state h0 is where both lock flows start
        assert any("a@h0" in d.message and "b@h0" in d.message
                   for d in stuck)

    def test_unbounded_fire_and_forget_is_p4503(self):
        h = ProcessBuilder.home("h")
        h.state("a", inp("n", sender=AnySender(), to="a"))
        r = ProcessBuilder.remote("r")
        r.state("a", out("n", to="a"))
        config = RefinementConfig(fire_and_forget=frozenset({"n"}))
        verdict = check_parameterized(protocol("noisy", h, r), config=config)
        assert any(d.code == "P4503" for d in verdict.obligations)

    def test_dropped_reservations_are_p4503(self, migratory):
        config = RefinementConfig(reserve_progress_buffer=False)
        verdict = check_parameterized(migratory, config=config)
        assert not verdict.discharged
        assert any(d.code == "P4503" for d in verdict.obligations)

    def test_obligations_never_errors(self):
        for proto in (deadlocker(), escaper(), crosslock()):
            report = analyze_protocol(proto)
            assert not [d for d in report.errors
                        if d.code.startswith("P45")]


class TestStuckStateRule:
    """The state-level obligation: Other's offers never un-deadlock."""

    def test_parked_remotes_against_a_stable_home_are_p4502(self):
        # ROADMAP's seed 382: home h0 accepts only up0 (its dn0 nobody
        # takes), a remote at r1 offers only up1.  n = 2 never parks
        # both remotes there; n = 3 does, which no witness size showed
        proto = random_protocol(382, SMALL)
        deadlocks = {n: explore(RendezvousSystem(proto, n)).deadlock_count
                     for n in (2, 3)}
        assert deadlocks[2] == 0 and deadlocks[3] > 0
        verdict = check_parameterized(proto)
        assert not verdict.discharged and verdict.stuck == 1
        stuck = [d for d in verdict.obligations if d.code == "P4502"]
        assert len(stuck) == 1
        assert "h:h0[j=0] r0:r1" in stuck[0].message

    def test_home_waiting_on_other_alone_is_excused(self, migratory):
        table, _ = other_send_table(migratory,
                                    {migratory.remote.initial_env})
        system = EnvironmentSystem(migratory, 1, other_sends=table)
        # e.g. home at I2 awaiting LR/ID from o = Other, r0 awaiting gr
        waiting = [state for state
                   in reachable_states(system, allow_deadlock=True)
                   if state.home.state == "I2"
                   and state.home.env["o"] == system.other
                   and state.remotes[0].state == "I.gr"]
        assert waiting and all(system._excused(s) for s in waiting)
        assert system.stuck == []
        # the same wait on the concrete remote is not excused
        concrete = waiting[0].with_home(waiting[0].home.moved(
            "I2", waiting[0].home.env.set("o", 0)))
        assert not system._excused(concrete)

    @pytest.mark.parametrize("seed", (64, 157, 24, 5))
    def test_no_flow_obligation_blocks_a_deadlock_free_protocol(self,
                                                                seed):
        # refused before for what the projection argument never uses: an
        # untracked wait state (64), a fallen flow invariant (157),
        # overlapping flow interiors (24), an incomplete cover (5)
        proto = random_protocol(seed, SMALL)
        assert check_parameterized(proto).discharged
        assert not any(explore(RendezvousSystem(proto, n)).deadlock_count
                       for n in (2, 3, 4, 5))

    def test_budget_hit_is_p4507_never_a_discharge(self, msi):
        verdict = check_parameterized(msi, max_states=100)
        assert not verdict.discharged and not verdict.completed
        assert any(d.code == "P4507" and "truncated" in d.message
                   for d in verdict.obligations)


class TestManagerIntegration:
    def test_pass_reports_p4505_on_clean_protocol(self, migratory):
        report = analyze_protocol(migratory)
        assert "P4505" in report.codes()
        assert "P4506" in report.codes()

    def test_pass_reports_obligations_on_broken_protocol(self):
        report = analyze_protocol(deadlocker())
        assert {"P4502"} & report.codes()
        assert "P4505" not in report.codes()

    def test_paramcheck_pass_uses_shared_graph(self, migratory):
        graph = derive_flows(migratory)
        diags = list(paramcheck_pass(migratory, graph=graph))
        assert any(d.code == "P4505" for d in diags)


class TestCacheSharing:
    def test_explain_pair_runs_at_most_once_per_pair(self, msi, monkeypatch):
        from repro.refine import reqreply as rq

        calls: dict[tuple[str, str, str], int] = {}
        original = rq.explain_pair

        def counting(protocol, pair, **kwargs):
            key = (pair.request_msg, pair.reply_msg, pair.requester)
            calls[key] = calls.get(key, 0) + 1
            return original(protocol, pair, **kwargs)

        monkeypatch.setattr(rq, "explain_pair", counting)
        report = analyze_protocol(msi)
        assert "P4505" in report.codes()
        assert calls, "explain_pair was never consulted"
        assert max(calls.values()) == 1, calls
