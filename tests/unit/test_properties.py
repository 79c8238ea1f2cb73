"""Unit tests for safety/progress checking (repro.check.properties)."""

import pytest

from repro import cli
from repro.check.explorer import explore
from repro.check.properties import (
    ProgressReport,
    WithCompletes,
    assert_safe,
    check_progress,
    completes,
    tarjan_sccs,
)
from repro.check.response import check_response
from repro.errors import PropertyViolation
from repro.protocols import LIBRARY_PROTOCOLS
from repro.refine.engine import refine
from repro.semantics.asynchronous import AsyncSystem
from repro.semantics.rendezvous import RendezvousSystem


class GraphSystem:
    """System from an explicit labelled graph {node: [(next, progress)]}."""

    def __init__(self, graph, init=0):
        self.graph = graph
        self.init = init

    def initial_state(self):
        return self.init

    def successors(self, state):
        return [((state, nxt), nxt) for nxt, _p in self.graph[state]]

    def is_progress(self, action):
        src, dst = action
        return dict(self.graph[src]).get(dst, False)


def sccs_of(adjacency):
    """``tarjan_sccs`` of adjacency lists, as member lists in SCC order
    (each SCC's representative checked to be one of its members)."""
    comp, firsts = tarjan_sccs(len(adjacency), adjacency.__getitem__)
    sccs = [[] for _ in firsts]
    for node, number in enumerate(comp):
        sccs[number].append(node)
    assert all(first in scc for first, scc in zip(firsts, sccs))
    return sccs


class TestTarjan:
    def test_single_node_no_edge(self):
        assert sccs_of([[]]) == [[0]]

    def test_simple_cycle(self):
        sccs = sccs_of([[1], [2], [0]])
        assert sorted(sccs[0]) == [0, 1, 2]

    def test_two_components_reverse_topological(self):
        # 0 -> 1 <-> 2 ; component {1,2} must precede {0}
        sccs = sccs_of([[1], [2], [1]])
        assert sorted(map(sorted, sccs), key=len) == [[0], [1, 2]]
        assert sorted(sccs[0]) == [1, 2]

    def test_self_loop(self):
        sccs = sccs_of([[0, 1], []])
        assert [0] in sccs and [1] in sccs

    def test_large_chain_no_recursion_error(self):
        n = 50_000
        adjacency = [[i + 1] for i in range(n - 1)] + [[]]
        assert len(sccs_of(adjacency)) == n


class TestAssertSafeCountOnly:
    def test_count_only_deadlocks_still_raise(self):
        """A result may carry a deadlock count without witness traces;
        assert_safe must not mistake the empty list for safety."""
        from repro.check.stats import ExplorationResult
        result = ExplorationResult(system_name="sys", n_states=5,
                                   n_transitions=8, seconds=0.1,
                                   completed=True, deadlock_count=2)
        with pytest.raises(PropertyViolation) as excinfo:
            assert_safe(result)
        assert "no witness trace" in str(excinfo.value)

    def test_clean_result_passes_through(self):
        from repro.check.stats import ExplorationResult
        result = ExplorationResult(system_name="sys", n_states=5,
                                   n_transitions=8, seconds=0.1,
                                   completed=True)
        assert assert_safe(result) is result


class TestCheckProgress:
    def test_progress_cycle_ok(self):
        system = GraphSystem({0: [(1, False)], 1: [(0, True)]})
        report = check_progress(system)
        assert report.ok
        assert report.n_terminal_sccs == 1

    def test_livelock_detected(self):
        # progress edge leads into a progress-free terminal cycle
        system = GraphSystem({0: [(1, True)], 1: [(2, False)],
                              2: [(1, False)]})
        report = check_progress(system)
        assert not report.ok
        assert report.livelocks and report.livelocks[0][0] == 2
        assert "livelock" in report.describe().lower() or "PROGRESS FAILS" in report.describe()

    def test_deadlock_detected(self):
        system = GraphSystem({0: [(1, True)], 1: []})
        report = check_progress(system)
        assert not report.ok
        assert report.deadlocks == [1]

    def test_non_terminal_progress_free_scc_ok(self):
        # a progress-free cycle you can always leave is not a livelock
        system = GraphSystem({
            0: [(1, False), (2, True)],
            1: [(0, False)],
            2: [(0, True)],
        })
        assert check_progress(system).ok

    def test_budget(self):
        system = GraphSystem({i: [((i + 1) % 1000, True)]
                              for i in range(1000)})
        report = check_progress(system, max_states=10)
        assert not report.completed
        assert "budget" in report.describe()

    def test_deadlocks_and_livelocks_hold_states(self):
        # dead ends 4 and 1, discovered in that order; progress-free
        # terminal SCCs {3, 6}, {2, 5} and the self-looping {7}
        system = GraphSystem({
            0: [(4, True), (3, True), (1, True), (2, True), (7, True)],
            1: [], 2: [(5, False)], 3: [(6, False)],
            4: [], 5: [(2, False)], 6: [(3, False)], 7: [(7, False)],
        })
        report = check_progress(system)
        assert report.deadlocks == [4, 1]  # states, in BFS order
        assert report.livelocks == [(2, 6), (2, 5), (1, 7)]
        assert (report.n_states, report.n_sccs,
                report.n_terminal_sccs) == (8, 6, 5)

    @pytest.mark.parametrize("budget", [1, 7, 100])
    def test_truncation_is_the_explorers(self, invalidate_refined, budget):
        """The checkers go through explore(), so a budget that cuts a BFS
        level short stops all three at the same state with the same words."""
        system = AsyncSystem(invalidate_refined, 2)
        swept = explore(system, max_states=budget, allow_deadlock=True)
        assert not swept.completed
        progress = check_progress(system, max_states=budget)
        response = check_response(system, request=lambda s: True,
                                  response=lambda *edge: True,
                                  max_states=budget)
        for report in (progress, response):
            assert not report.completed
            assert (report.n_states, report.stop_reason) \
                == (swept.n_states, swept.stop_reason)

    @pytest.mark.parametrize("name, level, n, states, sccs, terminal", [
        ("invalidate", "async", 2, 5262, 156, 1),
        ("mesi", "async", 2, 13356, 179, 1),
        ("migratory", "async", 2, 127, 1, 1),
        ("msi", "async", 2, 9162, 216, 1),
        ("invalidate", "rendezvous", 3, 8597, 173, 1),
        ("migratory", "rendezvous", 3, 34, 1, 1),
    ])
    def test_library_counts_are_pinned(self, name, level, n, states, sccs,
                                       terminal):
        protocol = LIBRARY_PROTOCOLS[name]()
        system = (AsyncSystem(refine(protocol), n) if level == "async"
                  else RendezvousSystem(protocol, n))
        report = check_progress(system)
        assert report.ok
        assert (report.n_states, report.n_sccs,
                report.n_terminal_sccs) == (states, sccs, terminal)

    def test_rendezvous_system_protocol_progress(self, migratory_rv2):
        assert check_progress(migratory_rv2).ok

    def test_async_system_protocol_progress(self, migratory_async2):
        assert check_progress(migratory_async2).ok


class TestOneSweepProgress:
    """``repro verify --progress`` unreduced is one sweep: the safety
    sweep records the id graph progress is read from.  Its verdict line
    must be the one the stand-alone check prints, on every library cell
    of ``test_library_counts_are_pinned``."""

    @pytest.mark.parametrize("name, level, n", [
        ("invalidate", "async", 2), ("mesi", "async", 2),
        ("migratory", "async", 2), ("msi", "async", 2),
        ("invalidate", "rendezvous", 3), ("migratory", "rendezvous", 3),
    ])
    def test_same_line_as_check_progress(self, name, level, n, request,
                                         capsys, monkeypatch):
        sweeps = []

        def counting(*args, **kwargs):
            sweeps.append(kwargs.get("edge_label"))
            return explore(*args, **kwargs)

        monkeypatch.setattr(cli, "explore", counting)
        assert cli.main(["verify", name, "--level", level, "-n", str(n),
                         "--progress"]) == 0
        assert sweeps == [completes]  # one sweep, recording the graph
        line = capsys.readouterr().out.splitlines()[-1]
        system = (AsyncSystem(request.getfixturevalue(f"{name}_refined"), n)
                  if level == "async"
                  else RendezvousSystem(request.getfixturevalue(name), n))
        assert line == check_progress(system).describe()

    def test_counterexamples_read_the_same(self, invalidate_refined):
        """The one sweep's actions carry ``completes``; its traces must
        print exactly as the plain sweep's do."""
        from repro.gen import GeneratorParams, random_protocol
        small = GeneratorParams(n_remote_states=3, n_home_states=3,
                                n_remote_msgs=2, n_home_msgs=2)
        quiet = [("quiet", lambda s: s.channels.total_in_flight < 2)]
        for system, invariants in (
                # seed 382 deadlocks at n = 3 (test_paramcheck.py)
                (RendezvousSystem(random_protocol(382, small), 3), []),
                (AsyncSystem(invalidate_refined, 2), quiet)):
            plain = explore(system, invariants=invariants)
            labelled = explore(WithCompletes(system), invariants=invariants,
                               edge_label=completes)
            traces = [c.describe() for c in plain.violations + plain.deadlocks]
            assert traces and traces == [
                c.describe() for c in labelled.violations + labelled.deadlocks]

    def test_reduced_verify_sweeps_progress_unreduced(self, capsys):
        assert cli.main(["verify", "invalidate", "--level", "async", "-n",
                         "2", "--symmetry", "--por", "--progress"]) == 0
        out = capsys.readouterr().out
        assert "reductions: por+symmetry" in out
        assert out.splitlines()[-1] == \
            "PROGRESS GUARANTEED: 5262 states, 156 SCCs (1 terminal)"


class TestAssertSafe:
    def test_passes_through_clean_result(self, migratory_rv2):
        result = explore(migratory_rv2)
        assert assert_safe(result) is result

    def test_raises_on_deadlock(self):
        class Dead:
            def initial_state(self):
                return 0

            def successors(self, state):
                return []

        with pytest.raises(PropertyViolation, match="deadlock"):
            assert_safe(explore(Dead()))

    def test_raises_on_violation_with_witness(self):
        class Loop:
            def initial_state(self):
                return 0

            def successors(self, state):
                return [("go", 1 - state)]

        result = explore(Loop(), invariants=[("zero", lambda s: s == 0)])
        with pytest.raises(PropertyViolation) as excinfo:
            assert_safe(result)
        assert excinfo.value.witness is not None

    def test_raises_budget_exceeded_on_unfinished(self):
        from repro.errors import BudgetExceeded

        class Big:
            def initial_state(self):
                return 0

            def successors(self, state):
                return [("go", state + 1)]

        with pytest.raises(BudgetExceeded, match="incomplete") as excinfo:
            assert_safe(explore(Big(), max_states=5))
        assert excinfo.value.stats is not None


class TestProgressReportRendering:
    def test_describe_ok(self):
        report = ProgressReport(ok=True, n_states=10, n_sccs=2,
                                n_terminal_sccs=1)
        assert "PROGRESS GUARANTEED" in report.describe()

    def test_describe_incomplete(self):
        report = ProgressReport(ok=False, n_states=5, n_sccs=0,
                                n_terminal_sccs=0, completed=False,
                                stop_reason="budget")
        assert "incomplete" in report.describe()
