"""Unit tests for result rendering (repro.check.stats)."""

from repro.check.stats import Counterexample, ExplorationResult


def result(**overrides):
    base = dict(system_name="sys", n_states=10, n_transitions=20,
                seconds=1.25, completed=True)
    base.update(overrides)
    return ExplorationResult(**base)


class TestCell:
    def test_completed_cell(self):
        assert result().cell() == "10/1.25"

    def test_unfinished_cell(self):
        assert result(completed=False, stop_reason="budget").cell() == \
            "Unfinished"


class TestOkFlag:
    def test_clean(self):
        assert result().ok

    def test_deadlock_not_ok(self):
        trace = Counterexample("deadlock-freedom", states=[0], steps=[])
        assert not result(deadlocks=[trace]).ok

    def test_violation_not_ok(self):
        trace = Counterexample("inv", states=[0], steps=[])
        assert not result(violations=[trace]).ok

    def test_incomplete_not_ok(self):
        assert not result(completed=False, stop_reason="x").ok


class TestDeadlockCount:
    """Count-only deadlock reporting (a run closed by an error or an
    interrupt builds no witness traces)."""

    def test_count_without_witnesses_is_not_ok(self):
        assert not result(deadlock_count=3).ok

    def test_count_synced_from_witness_list(self):
        trace = Counterexample("deadlock-freedom", states=[0], steps=[])
        assert result(deadlocks=[trace]).deadlock_count == 1

    def test_explicit_count_wins_over_shorter_list(self):
        trace = Counterexample("deadlock-freedom", states=[0], steps=[])
        assert result(deadlocks=[trace], deadlock_count=5).deadlock_count == 5

    def test_describe_uses_the_count(self):
        assert "3 deadlock state(s)" in result(deadlock_count=3).describe()


class TestDescribe:
    def test_mentions_counts_and_time(self):
        text = result().describe()
        assert "10 states" in text and "20 transitions" in text
        assert "1.25s" in text and "complete" in text

    def test_mentions_deadlocks_and_violations(self):
        trace_d = Counterexample("deadlock-freedom", states=[0], steps=[])
        trace_v = Counterexample("my-prop", states=[0], steps=[])
        text = result(deadlocks=[trace_d], violations=[trace_v]).describe()
        assert "1 deadlock state(s)" in text
        assert "my-prop" in text

    def test_unfinished_mentions_reason(self):
        text = result(completed=False,
                      stop_reason="state budget 5 exceeded").describe()
        assert "UNFINISHED" in text and "state budget 5" in text


class TestCounterexampleTrace:
    def test_step_count_rendering(self):
        trace = Counterexample("p", states=["a", "b", "c"],
                               steps=["x", "y"])
        text = trace.describe()
        assert "(2 steps)" in text
        assert text.count("--[") == 2
