"""Unit tests for the explicit-state explorer (repro.check.explorer)."""

import gc
import weakref

import pytest

from repro.analysis import simulation, symbolic
from repro.analysis.paramcheck import check_parameterized
from repro.check import explorer
from repro.check import simulation as check_simulation
from repro.check.explorer import explore, replay_actions
from repro.check.spec import SystemSpec, build_system
from repro.check.store import ExactStore, FingerprintStore
from repro.errors import CheckError
from repro.protocols import LIBRARY_PROTOCOLS
from repro.protocols.invariants import COHERENCE_SPECS, coherence_invariants
from repro.refine.engine import refine


class ChainSystem:
    """0 -> 1 -> ... -> n (a deadlock at the end unless looped)."""

    def __init__(self, n, loop=False):
        self.n = n
        self.loop = loop

    def initial_state(self):
        return 0

    def successors(self, state):
        if state < self.n:
            return [(("step", state), state + 1)]
        return [(("loop", state), 0)] if self.loop else []


class DiamondSystem:
    """Branching system: 0 -> {1, 2} -> 3 -> 0."""

    def initial_state(self):
        return 0

    def successors(self, state):
        return {
            0: [("a", 1), ("b", 2)],
            1: [("c", 3)],
            2: [("d", 3)],
            3: [("e", 0)],
        }[state]


class TestBasicExploration:
    def test_counts(self):
        result = explore(ChainSystem(9, loop=True), name="chain")
        assert result.n_states == 10
        assert result.n_transitions == 10
        assert result.completed and result.ok

    def test_diamond_visits_each_state_once(self):
        result = explore(DiamondSystem())
        assert result.n_states == 4
        assert result.n_transitions == 5

    def test_deadlock_detection_with_trace(self):
        result = explore(ChainSystem(3))
        assert len(result.deadlocks) == 1
        trace = result.deadlocks[0]
        assert trace.states[-1] == 3
        assert len(trace.steps) == 3  # BFS yields the shortest witness

    def test_allow_deadlock(self):
        result = explore(ChainSystem(3), allow_deadlock=True)
        assert result.deadlocks == []
        assert result.ok


class TestBudgets:
    def test_state_budget_marks_unfinished(self):
        result = explore(ChainSystem(1000, loop=True), max_states=50)
        assert not result.completed
        assert "state budget" in result.stop_reason
        assert result.cell() == "Unfinished"

    def test_time_budget(self):
        class Slow(ChainSystem):
            def successors(self, state):
                import time
                time.sleep(0.01)
                return super().successors(state)

        result = explore(Slow(10_000, loop=True), max_seconds=0.05)
        assert not result.completed
        assert "time budget" in result.stop_reason


class TestInvariants:
    def test_violation_found_with_shortest_trace(self):
        result = explore(ChainSystem(10, loop=True),
                         invariants=[("below-5", lambda s: s < 5)])
        assert len(result.violations) == 1
        violation = result.violations[0]
        assert violation.property_name == "below-5"
        assert violation.states[-1] == 5
        assert len(violation.steps) == 5

    def test_stop_on_violation_halts_early(self):
        result = explore(ChainSystem(100, loop=True),
                         invariants=[("below-5", lambda s: s < 5)])
        assert result.n_states < 100
        assert not result.completed

    def test_collect_all_violations(self):
        result = explore(ChainSystem(10, loop=True),
                         invariants=[("below-5", lambda s: s < 5),
                                     ("below-7", lambda s: s < 7)],
                         stop_on_violation=False)
        names = {v.property_name for v in result.violations}
        assert names == {"below-5", "below-7"}
        assert result.completed

    def test_initial_state_checked(self):
        result = explore(ChainSystem(3),
                         invariants=[("never", lambda s: False)])
        assert result.violations
        assert result.violations[0].states == [0]


class GridSystem:
    """(x, y) over a w x w torus: many states, many paths to each."""

    def __init__(self, w):
        self.w = w

    def initial_state(self):
        return (0, 0)

    def successors(self, state):
        x, y = state
        return [("right", ((x + 1) % self.w, y)),
                ("up", (x, (y + 1) % self.w))]


def assert_witness_is_a_run(system, violation):
    """Either the state-only form, or a real run of ``system``."""
    if not violation.steps:
        assert len(violation.states) == 1
        return
    assert violation.note is None
    assert replay_actions(system, violation.steps) == violation.states


class TestFingerprintWitnesses:
    """A fingerprint store's witness is a replay; it must never be a
    wrong one (ISSUE 23: hash compaction can splice chains)."""

    FAR = [("near", lambda s: s[0] + s[1] < 9)]

    def test_named_store_witnesses_like_the_exact_one(self):
        system = GridSystem(12)
        exact = explore(system, invariants=self.FAR)
        compact = explore(system, invariants=self.FAR, store="fingerprint")
        assert compact.store == "fingerprint"
        assert compact.violations[0].states == exact.violations[0].states
        assert compact.violations[0].steps == exact.violations[0].steps
        assert compact.violations[0].note is None

    def test_columns_only_when_there_is_something_to_witness(self):
        # a counts-only sweep by name keeps today's 16 bytes per state
        counted = explore(GridSystem(12), store="fingerprint")
        witnessed = explore(GridSystem(12), store="fingerprint",
                            invariants=[("true", lambda s: True)])
        assert counted.n_states == witnessed.n_states == 144
        assert witnessed.approx_bytes - counted.approx_bytes >= 24 * 144
        # and a store handed over ready-made is used as it is
        plain = FingerprintStore()
        result = explore(GridSystem(12), store=plain, invariants=self.FAR)
        assert not plain.supports_traces
        assert result.violations[0].states == [result.violations[0].states[-1]]
        assert result.violations[0].note is None

    def test_forced_collisions_never_yield_a_wrong_trace(self):
        # 8-bit keys: most of the 400 states collide with an earlier one
        # and are taken for visited, so the sweep under-explores — every
        # witness it does report must still be a run of the system
        system = GridSystem(20)
        far = [("near", lambda s: s[0] + s[1] < 6)]
        result = explore(system, invariants=far, stop_on_violation=False,
                         store=FingerprintStore(bits=8, witness=True))
        assert result.fingerprint_collisions > 0 and result.violations
        for violation in result.violations:
            assert_witness_is_a_run(system, violation)
            assert not far[0][1](violation.states[-1])

    @pytest.mark.parametrize("chain", [
        ["right"] * 3,            # a run, but of another state
        ["right", "diagonal"],    # not a run at all
    ], ids=["spliced", "not-enabled"])
    def test_a_path_that_does_not_replay_degrades_to_the_state(self, chain):
        class Spliced(FingerprintStore):
            def action_trace(self, state):
                return list(chain)

        store = Spliced(witness=True)
        result = explore(GridSystem(12), invariants=self.FAR, store=store)
        violation, = result.violations
        assert violation.states == [violation.states[-1]]
        assert violation.steps == []
        assert "0 fingerprint collision(s)" in violation.note
        assert violation.note in violation.describe()

    def test_replay_of_a_disabled_action_is_a_check_error(self):
        with pytest.raises(CheckError, match="not enabled"):
            replay_actions(GridSystem(3), ["right", "diagonal"])


class TestGraphRetention:
    def test_graph_kept_on_request(self):
        # ids are discovery order: 0 -> {1, 2} -> 3 -> 0, labels b and e
        store = ExactStore()
        result = explore(DiamondSystem(), store=store,
                         edge_label=lambda _s, a, _n: a in ("b", "e"))
        graph = result.graph
        assert list(graph.offsets) == [0, 2, 3, 4, 5]
        assert list(graph.targets) == [1, 2, 3, 3, 0]
        assert list(graph.labels) == [0, 1, 0, 0, 1]
        assert [store.state_of(i) for i in range(len(graph))] == [0, 1, 2, 3]
        # the arrays are metered with the store
        assert result.approx_bytes == store.approx_bytes() + graph.nbytes()
        assert graph.nbytes() > 0

    def test_graph_absent_by_default(self):
        assert explore(DiamondSystem()).graph is None

    def test_graph_needs_a_numbering_store(self):
        with pytest.raises(ValueError, match="numbers its states"):
            explore(DiamondSystem(), store="fingerprint",
                    edge_label=lambda *_edge: True)

    def test_truncated_graph_covers_the_expanded_prefix(self):
        result = explore(ChainSystem(100, loop=True), max_states=5,
                         edge_label=lambda *_edge: False)
        assert not result.completed
        assert len(result.graph) == 5 and len(result.graph.targets) == 5


class TestResultRendering:
    def test_cell_format(self):
        result = explore(ChainSystem(3, loop=True))
        states, seconds = result.cell().split("/")
        assert int(states) == 4
        assert float(seconds) >= 0

    def test_describe_mentions_status(self):
        good = explore(ChainSystem(2, loop=True), name="tiny")
        assert "tiny" in good.describe() and "complete" in good.describe()
        bad = explore(ChainSystem(100, loop=True), max_states=5)
        assert "UNFINISHED" in bad.describe()

    def test_approx_bytes_positive(self):
        assert explore(ChainSystem(5, loop=True)).approx_bytes > 0


@pytest.fixture
def collector():
    """Whatever a test does to the cyclic collector, undone after it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class CollectorProbe(ChainSystem):
    """A looped chain recording, at each expansion, whether the cyclic
    collector is on; raises ``fail`` when it expands state 2."""

    def __init__(self, n, fail=None):
        super().__init__(n, loop=True)
        self.fail = fail
        self.collecting = []

    def successors(self, state):
        self.collecting.append(gc.isenabled())
        if self.fail is not None and state == 2:
            raise self.fail
        return super().successors(state)


class Node:
    """A state of :class:`BinaryTree` that can be weakly referenced."""

    __slots__ = ("depth", "index", "__weakref__")

    def __init__(self, depth, index):
        self.depth, self.index = depth, index

    def canonical_key(self):
        return self.depth, self.index

    def __eq__(self, other):
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())


class BinaryTree:
    """Level ``k`` holds the ``2**k`` states ``Node(k, 0..2**k - 1)``.
    When the last state of a level is expanded, records whether the
    level's first state is still alive."""

    def __init__(self, depth):
        self.depth = depth
        self.refs = {}
        self.first_alive_at_last = {}

    def node(self, depth, index):
        node = Node(depth, index)
        self.refs[depth, index] = weakref.ref(node)
        return node

    def initial_state(self):
        return self.node(0, 0)

    def successors(self, state):
        k, i = state.depth, state.index
        if i == 2 ** k - 1:
            self.first_alive_at_last[k] = self.refs[k, 0]() is not None
        if k == self.depth:
            return []
        return [(b, self.node(k + 1, 2 * i + b)) for b in (0, 1)]


class TestLevelRelease:
    """``explore()`` drops each state from its level as it expands it,
    so a store that keeps no states holds at most the level being built
    plus what is left of the level being expanded."""

    def test_expanded_states_are_freed_within_their_level(self):
        tree = BinaryTree(5)
        result = explore(tree, store=FingerprintStore(), allow_deadlock=True)
        assert result.completed and result.n_states == 2 ** 6 - 1
        # level 0's one state is its own last; every wider level's
        # first state is gone before its last is expanded
        assert tree.first_alive_at_last == {0: True, **{
            k: False for k in range(1, 6)}}


class TestCollectorPause:
    """``explore()`` runs without the cyclic collector and gives the
    caller's setting back however the sweep ends."""

    ENDINGS = {
        "complete": (lambda: CollectorProbe(5), {}),
        "state-budget": (lambda: CollectorProbe(50), {"max_states": 3}),
        "invariant": (lambda: CollectorProbe(5),
                      {"invariants": [("below-3", lambda s: s < 3)]}),
        "error": (lambda: CollectorProbe(5, RuntimeError("boom")), {}),
        "interrupt": (lambda: CollectorProbe(5, KeyboardInterrupt()), {}),
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("ending", sorted(ENDINGS))
    def test_paused_inside_and_restored_after(self, collector, ending,
                                              enabled):
        make, options = self.ENDINGS[ending]
        system = make()
        (gc.enable if enabled else gc.disable)()
        if system.fail is None:
            result = explore(system, **options)
            assert result.completed == (ending == "complete")
        else:
            with pytest.raises(type(system.fail)):
                explore(system, **options)
        assert gc.isenabled() is enabled
        assert system.collecting and not any(system.collecting)

    def test_an_inner_sweep_leaves_the_outer_pause_alone(self, collector):
        class Nested(ChainSystem):
            """Each expansion runs a whole sweep of its own."""

            inner = []

            def successors(self, state):
                result = explore(ChainSystem(3, loop=True))
                self.inner.append((result.completed, gc.isenabled()))
                return super().successors(state)

        gc.enable()
        assert explore(Nested(4, loop=True)).completed
        assert Nested.inner == [(True, False)] * 5
        assert gc.isenabled()


def assert_no_cyclic_garbage(sweeps):
    """``sweeps``, (name, collected) pairs, are non-empty, and no sweep
    left anything for the cyclic collector."""
    assert sweeps
    assert [name for name, collected in sweeps if collected] == []


@pytest.fixture
def sweeps_collected(monkeypatch):
    """Every ``explore()`` call made through the modules that sweep on
    their own, each preceded and followed by a full collection: a list of
    (sweep name, objects the second collection freed)."""
    log = []

    def collecting(system, **options):
        gc.collect()
        result = explore(system, **options)
        assert result.completed, result.stop_reason
        log.append((options.get("name", "system"), gc.collect()))
        return result

    for module in (explorer, simulation, check_simulation, symbolic):
        monkeypatch.setattr(module, "explore", collecting)
    return log


class TestNoCyclicGarbage:
    """The premise of the pause: a sweep makes no reference cycles, so a
    collection right after it finds nothing."""

    INVARIANT = coherence_invariants(COHERENCE_SPECS["invalidate"])

    @pytest.mark.parametrize("spec, options", [
        (SystemSpec("invalidate", "async", 2), {}),
        (SystemSpec("invalidate", "async", 2),
         {"store": "fingerprint", "invariants": INVARIANT}),
        (SystemSpec("msi", "async", 2, symmetry=True, por=True), {}),
        (SystemSpec("invalidate", "rendezvous", 4, symmetry=True), {}),
    ], ids=["async-exact", "async-fingerprint-witness", "msi-sym-por",
            "rendezvous-n4-sym"])
    def test_complete_sweep(self, sweeps_collected, spec, options):
        explorer.explore(build_system(spec), name=spec.protocol, **options)
        assert_no_cyclic_garbage(sweeps_collected)

    def test_certificate_gate_of_a_first_refine(self, sweeps_collected,
                                                monkeypatch):
        monkeypatch.setattr(simulation, "_VERDICTS", {})
        monkeypatch.setattr(symbolic, "_CONTEXTS", {})
        refine(LIBRARY_PROTOCOLS["msi"]())
        assert any(name.endswith("-certificate")
                   for name, _ in sweeps_collected)
        assert_no_cyclic_garbage(sweeps_collected)

    def test_paramverify_environment_sweep(self, sweeps_collected):
        check_parameterized(LIBRARY_PROTOCOLS["msi"]())
        assert_no_cyclic_garbage(sweeps_collected)
