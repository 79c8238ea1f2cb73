"""Unit tests for the protocol AST (repro.csp.ast)."""

import dataclasses

import pytest

from repro.csp.ast import (
    DATA,
    AnySender,
    ConstTarget,
    ExprTarget,
    Input,
    Output,
    PredSender,
    ProcessDef,
    ProcessKind,
    Protocol,
    SetSender,
    StateDef,
    Tau,
    VarSender,
    VarTarget,
)
from repro.csp.builder import ProcessBuilder, out, tau
from repro.csp.env import Env
from repro.errors import SpecError


class TestSenderPatterns:
    def test_any_sender_matches_everyone(self):
        assert AnySender().matches(Env(), 0)
        assert AnySender().matches(Env(), 17)

    def test_var_sender(self):
        env = Env({"o": 3})
        assert VarSender("o").matches(env, 3)
        assert not VarSender("o").matches(env, 2)

    def test_var_sender_none_matches_nobody(self):
        env = Env({"o": None})
        assert not VarSender("o").matches(env, 0)

    def test_set_sender(self):
        env = Env({"S": frozenset({1, 4})})
        assert SetSender("S").matches(env, 4)
        assert not SetSender("S").matches(env, 2)

    def test_set_sender_requires_frozenset(self):
        assert not SetSender("S").matches(Env({"S": None}), 0)

    def test_pred_sender(self):
        pat = PredSender(lambda env, i: i % 2 == 0, name="even")
        assert pat.matches(Env(), 2)
        assert not pat.matches(Env(), 3)
        assert "even" in pat.describe()


class TestTargets:
    def test_var_target(self):
        assert VarTarget("j").eval(Env({"j": 5})) == 5

    def test_var_target_non_int_raises(self):
        with pytest.raises(SpecError):
            VarTarget("j").eval(Env({"j": None}))

    def test_const_target(self):
        assert ConstTarget(2).eval(Env()) == 2

    def test_expr_target(self):
        target = ExprTarget(lambda env: min(env["S"]), name="minS")
        assert target.eval(Env({"S": frozenset({3, 7})})) == 3
        assert "minS" in target.describe()


class TestGuards:
    def test_output_defaults(self):
        guard = Output(msg="m", to="s")
        assert guard.enabled(Env())
        assert guard.eval_payload(Env()) is None
        env = Env({"x": 1})
        assert guard.apply_update(env) == env

    def test_output_cond_and_update(self):
        guard = Output(msg="m", to="s",
                       cond=lambda env: env["x"] > 0,
                       update=lambda env: env.set("x", 0))
        assert guard.enabled(Env({"x": 1}))
        assert not guard.enabled(Env({"x": 0}))
        assert guard.apply_update(Env({"x": 1}))["x"] == 0

    def test_input_accepts_sender_pattern(self):
        guard = Input(msg="m", to="s", sender=VarSender("o"))
        env = Env({"o": 1})
        assert guard.accepts(env, 1, None)
        assert not guard.accepts(env, 0, None)

    def test_input_cond(self):
        guard = Input(msg="m", to="s", sender=AnySender(),
                      cond=lambda env, sender, value: value == DATA)
        assert guard.accepts(Env(), 0, DATA)
        assert not guard.accepts(Env(), 0, "other")

    def test_input_complete_binds_in_order(self):
        guard = Input(msg="m", to="s", sender=AnySender(),
                      bind_sender="who", bind_value="val",
                      update=lambda env: env.set("seen", env["who"]))
        env = Env({"who": None, "val": None, "seen": None})
        done = guard.complete(env, 7, "payload")
        assert done["who"] == 7
        assert done["val"] == "payload"
        assert done["seen"] == 7

    def test_tau_enabled_and_update(self):
        guard = Tau(label="evict", to="s",
                    cond=lambda env: env["x"],
                    update=lambda env: env.set("x", False))
        assert guard.enabled(Env({"x": True}))
        assert not guard.enabled(Env({"x": False}))
        assert guard.apply_update(Env({"x": True}))["x"] is False

    def test_describe_strings(self):
        assert Output(msg="gr", to="s", target=VarTarget("j")).describe() == "r(j)!gr"
        assert Input(msg="req", to="s", sender=AnySender(),
                     bind_value="d").describe() == "r(i)?req(d)"
        assert Tau(label="rw", to="s").describe() == "τ:rw"


class TestStateDef:
    def test_classification_communication(self):
        state = StateDef("s", (Output(msg="m", to="s"),))
        assert state.is_communication
        assert not state.is_internal

    def test_classification_internal(self):
        state = StateDef("s", (Tau(label="t", to="s"),))
        assert state.is_internal
        assert not state.is_communication

    def test_classification_terminal(self):
        assert StateDef("s").is_terminal

    def test_sole_tau(self):
        only = Tau(label="t", to="s")
        assert StateDef("s", (only,)).sole_tau is only
        assert StateDef("s", (only, Tau(label="u", to="s"))).sole_tau is None
        assert StateDef("s", (Output(msg="m", to="s"),)).sole_tau is None
        assert StateDef("s").sole_tau is None

    def test_guard_partitions(self):
        guards = (Output(msg="a", to="s"), Input(msg="b", to="s"),
                  Tau(label="c", to="s"))
        state = StateDef("s", guards)
        assert [g.msg for g in state.outputs] == ["a"]
        assert [g.msg for g in state.inputs] == ["b"]
        assert [g.label for g in state.taus] == ["c"]

    def test_guard_filters_computed_once(self):
        """Each filter is computed once per state (the step rules read
        them on every memo miss), a ``replace`` that changes the guards
        computes them afresh, and ``==``, ``hash`` and ``repr`` read the
        fields alone."""
        guards = (Output(msg="a", to="s"), Input(msg="b", to="s"),
                  Tau(label="c", to="s"))
        state = StateDef("s", guards)
        assert state.outputs is state.outputs
        assert state.inputs is state.inputs and state.taus is state.taus
        assert state.is_communication
        twin = StateDef("s", guards)
        assert (state, hash(state), repr(state)) == (twin, hash(twin),
                                                     repr(twin))
        internal = dataclasses.replace(state, guards=guards[2:])
        assert internal.outputs == () and internal.inputs == ()
        assert [g.label for g in internal.taus] == ["c"]
        assert not internal.is_communication
        assert [g.msg for g in state.outputs] == ["a"]


class TestAccepting:
    def test_first_of_two_accepting_guards_wins(self):
        first = Input(msg="m", to="a")
        state = StateDef("s", (Output(msg="m", to="s"), first,
                               Input(msg="m", to="b")))
        assert state.accepting("m", Env(), -1, None) is first

    def test_message_mismatch(self):
        state = StateDef("s", (Input(msg="m", to="s"),))
        assert state.accepting("other", Env(), -1, None) is None

    def test_sender_pattern(self):
        guard = Input(msg="m", to="s", sender=VarSender("o"))
        state = StateDef("s", (guard,))
        env = Env({"o": 1})
        assert state.accepting("m", env, 1, None) is guard
        assert state.accepting("m", env, 0, None) is None

    def test_cond_sees_value(self):
        guard = Input(msg="m", to="s", cond=lambda env, i, v: v == DATA)
        state = StateDef("s", (guard,))
        assert state.accepting("m", Env(), 0, DATA) is guard
        assert state.accepting("m", Env(), 0, "other") is None

    def test_later_guard_when_first_refuses(self):
        picky = Input(msg="m", to="a", sender=VarSender("o"))
        anyone = Input(msg="m", to="b", sender=AnySender())
        state = StateDef("s", (picky, anyone))
        assert state.accepting("m", Env({"o": 1}), 2, None) is anyone


class TestProcessDef:
    def _one_state(self):
        return {"s": StateDef("s", (Tau(label="loop", to="s"),))}

    def test_requires_known_initial_state(self):
        with pytest.raises(SpecError):
            ProcessDef("p", ProcessKind.REMOTE, self._one_state(), "missing")

    def test_rejects_dangling_guard_target(self):
        states = {"s": StateDef("s", (Tau(label="t", to="nowhere"),))}
        with pytest.raises(SpecError):
            ProcessDef("p", ProcessKind.REMOTE, states, "s")

    def test_rejects_unknown_kind(self):
        with pytest.raises(SpecError):
            ProcessDef("p", "neither", self._one_state(), "s")

    def test_state_lookup_error(self):
        proc = ProcessDef("p", ProcessKind.REMOTE, self._one_state(), "s")
        with pytest.raises(SpecError):
            proc.state("zzz")

    def test_message_types(self):
        states = {
            "a": StateDef("a", (Output(msg="req", to="b"),)),
            "b": StateDef("b", (Input(msg="gr", to="a"),)),
        }
        proc = ProcessDef("p", ProcessKind.REMOTE, states, "a")
        assert proc.message_types == frozenset({"req", "gr"})

    def test_tau_closure(self):
        r = ProcessBuilder.remote("r")
        r.state("a", tau("t", to="b"))
        r.state("b", out("m", to="a"))
        proc = r.build()
        assert proc.tau_closure("a") == frozenset({"a", "b"})
        assert proc.tau_closure("b") == frozenset({"b"})

    def test_responder_chain_straight(self):
        r = ProcessBuilder.remote("r")
        r.state("a", tau("t1", to="b"))
        r.state("b", tau("t2", to="c"))
        r.state("c", out("m", to="a"))
        assert r.build().responder_chain("a") == ["a", "b", "c"]

    def test_responder_chain_stops_at_first_repeat(self):
        r = ProcessBuilder.remote("r")
        r.state("a", tau("t1", to="b"))
        r.state("b", tau("t2", to="c"))
        r.state("c", tau("t3", to="b"))
        assert r.build().responder_chain("a") == ["a", "b", "c"]

    def test_responder_chain_self_loop(self):
        proc = ProcessDef("p", ProcessKind.REMOTE, self._one_state(), "s")
        assert proc.responder_chain("s") == ["s"]

    def test_responder_chain_non_internal_start(self):
        r = ProcessBuilder.remote("r")
        r.state("a", out("m", to="b"))
        r.state("b", tau("t", to="a"))
        assert r.build().responder_chain("a") == ["a"]

    def test_responder_chain_stops_at_a_choice(self):
        r = ProcessBuilder.remote("r")
        r.state("a", tau("t1", to="b"))
        r.state("b", tau("t2", to="a"), tau("t3", to="a"))
        assert r.build().responder_chain("a") == ["a", "b"]

    def test_input_msgs(self):
        states = {
            "a": StateDef("a", (Output(msg="req", to="b"),
                                Input(msg="inv", to="a"))),
            "b": StateDef("b", (Input(msg="gr", to="a"),
                                Tau(label="t", to="a"))),
        }
        proc = ProcessDef("p", ProcessKind.REMOTE, states, "a")
        assert proc.input_msgs == frozenset({"inv", "gr"})

    def test_input_msgs_of_library_remote(self, migratory):
        assert migratory.remote.input_msgs == frozenset({"gr", "inv"})


class TestProtocol:
    def test_kind_enforcement(self, migratory):
        with pytest.raises(SpecError):
            Protocol("bad", home=migratory.remote, remote=migratory.remote)
        with pytest.raises(SpecError):
            Protocol("bad", home=migratory.home, remote=migratory.home)

    def test_message_types_union(self, migratory):
        assert migratory.message_types == frozenset(
            {"req", "gr", "LR", "inv", "ID"})
