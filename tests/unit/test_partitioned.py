"""Unit tests for the owner-computes driver (repro.check.partitioned).

The parity matrix in :mod:`tests.property.test_reduction_matrix` pins
the driver against the sequential oracle across reductions and engines;
here we cover the driver-specific machinery: partition statistics,
budget truncation, spill wiring, start methods, a worker dying
mid-level, and input validation.
"""

import multiprocessing
import os
import time

import pytest

from repro.check import partitioned
from repro.check.explorer import explore
from repro.check.partitioned import explore_partitioned
from repro.check.spec import SystemSpec, build_system
from repro.check.store import make_store
from repro.errors import CheckError

SPEC = SystemSpec("migratory", "async", 2)


def counts(result):
    return (result.n_states, result.n_transitions, result.n_enabled,
            result.deadlock_count, result.completed, result.stop_reason)


@pytest.fixture(scope="module")
def sequential():
    return explore(build_system(SPEC), name="oracle")


class TestParity:
    @pytest.mark.parametrize("store", ["exact", "fingerprint"])
    def test_counts_match_sequential(self, sequential, store):
        result = explore_partitioned(SPEC, partitions=3, store=store)
        assert counts(result) == counts(sequential)
        assert result.store == store

    def test_spawn_start_method(self, sequential):
        result = explore_partitioned(SPEC, partitions=2,
                                     start_method="spawn")
        assert counts(result) == counts(sequential)

    @pytest.mark.parametrize("budget", [1, 7, 50, 113])
    def test_truncation_hits_the_same_wall(self, budget):
        seq = explore(build_system(SPEC), name="oracle", max_states=budget)
        part = explore_partitioned(SPEC, partitions=3, max_states=budget)
        assert counts(part) == counts(seq)
        if not seq.completed:
            assert part.stop_reason == f"state budget {budget} exceeded"

    def test_single_partition_runs_in_process(self, sequential):
        # partitions=1 needs no worker fleet: the driver degenerates to
        # the sequential explorer over a partitioned store
        result = explore_partitioned(SPEC, partitions=1)
        assert counts(result) == counts(sequential)
        assert len(result.partition_stats) == 1


class TestWorkerDeath:
    def test_worker_killed_mid_level(self, monkeypatch):
        # fork workers inherit the patched module: partition 1 dies the
        # first time it has a frontier slice to expand, while its peer
        # is blocked waiting for its candidate batch
        expand_state = partitioned.expand_state

        def dying(system, state):
            if multiprocessing.current_process().name == "partition-1":
                os._exit(1)
            return expand_state(system, state)

        monkeypatch.setattr(partitioned, "expand_state", dying)
        monkeypatch.setattr(partitioned, "_POLL_SECONDS", 0.2)
        started = time.perf_counter()
        with pytest.raises(CheckError, match="partition worker died"):
            explore_partitioned(SPEC, partitions=2, start_method="fork")
        assert time.perf_counter() - started < 30
        assert not multiprocessing.active_children()


class TestStatistics:
    def test_partition_rows_cover_every_partition(self, sequential):
        result = explore_partitioned(SPEC, partitions=3)
        rows = result.partition_stats
        assert [row["partition"] for row in rows] == [0, 1, 2]
        assert sum(row["owned"] for row in rows) == sequential.n_states
        for row in rows:
            assert row["probes"] >= row["owned"]

    def test_owner_computes_rows_carry_exchange_counters(self):
        result = explore_partitioned(SPEC, partitions=2)
        for row in result.partition_stats:
            assert "exchanged_batches" in row
            assert "exchanged_states" in row
            assert "received_candidates" in row

    def test_spill_wiring(self, tmp_path):
        result = explore_partitioned(
            SPEC, partitions=2, store="fingerprint",
            spill_dir=tmp_path, spill_threshold=8)
        assert result.spill_bytes > 0
        assert any(row["spill_merges"] for row in result.partition_stats)
        spilled = list(tmp_path.rglob("*.spill"))
        assert spilled, "spill files must land under spill_dir"


class TestMemoryBudget:
    def test_memory_limit_yields_wellformed_unfinished(self):
        result = explore_partitioned(SPEC, partitions=2, max_bytes=4096)
        assert not result.completed
        assert "memory budget" in result.stop_reason
        assert result.n_states > 0  # truncated, not aborted

    def test_sequential_memory_limit_matches_shape(self):
        result = explore(build_system(SPEC), name="x", max_bytes=1024)
        assert not result.completed
        assert "memory budget" in result.stop_reason


class TestValidation:
    def test_unknown_store(self):
        with pytest.raises(ValueError, match="unknown store"):
            explore_partitioned(SPEC, partitions=2, store="bloom")

    def test_exact_rejects_spill_dir(self, tmp_path):
        with pytest.raises(ValueError, match="spill"):
            explore_partitioned(SPEC, partitions=2, store="exact",
                                spill_dir=tmp_path)


class TestInProcessPartitionedStore:
    """`explore(store=make_store(kind, P, ...))`: the sequential
    driver over a sharded store — the single-CPU configuration."""

    def test_counts_match_plain_fingerprint(self, tmp_path):
        plain = explore(build_system(SPEC), name="x", store="fingerprint")
        sharded = explore(
            build_system(SPEC), name="x",
            store=make_store("fingerprint", 4, spill_dir=tmp_path,
                             spill_threshold=16))
        assert counts(sharded) == counts(plain)
        assert len(sharded.partition_stats) == 4
        assert sharded.spill_bytes > 0

    def test_exact_partitioned_store_supports_traces(self, sequential):
        result = explore(build_system(SPEC), name="x",
                         store=make_store("exact", 2))
        assert counts(result) == counts(sequential)
