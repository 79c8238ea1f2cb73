"""Unit tests for the multi-line buffer-pool study (repro.sim.pool)."""

import pytest

from repro.sim import SyntheticWorkload
from repro.sim.pool import PoolReport, simulate_pool


def workload(line):
    return SyntheticWorkload(seed=500 + line, think_time=100.0,
                             hold_time=30.0)


class TestSimulatePool:
    def test_basic_run(self, migratory_refined):
        report = simulate_pool(migratory_refined, 3, 4, workload, until=3_000.0)
        assert report.n_lines == 4
        assert len(report.line_peaks) == 4
        assert len(report.per_line_metrics) == 4
        assert report.naive_capacity == 8

    def test_peak_bounded_by_line_peaks(self, migratory_refined):
        report = simulate_pool(migratory_refined, 3, 4, workload, until=3_000.0)
        assert report.peak_demand <= sum(report.line_peaks)
        assert report.peak_demand >= max(report.line_peaks, default=0)

    def test_mean_below_peak(self, migratory_refined):
        report = simulate_pool(migratory_refined, 3, 6, workload, until=3_000.0)
        assert 0.0 <= report.mean_demand <= report.peak_demand

    def test_multiplexing_improves_with_lines(self, migratory_refined):
        small = simulate_pool(migratory_refined, 3, 4, workload, until=5_000.0)
        large = simulate_pool(migratory_refined, 3, 32, workload, until=5_000.0)
        # aggregate peak grows sublinearly in the line count
        assert large.peak_demand < large.n_lines / small.n_lines \
            * max(1, small.peak_demand)
        assert large.multiplexing_ratio >= small.multiplexing_ratio

    def test_deterministic(self, migratory_refined):
        a = simulate_pool(migratory_refined, 3, 4, workload, until=2_000.0, seed=9)
        b = simulate_pool(migratory_refined, 3, 4, workload, until=2_000.0, seed=9)
        assert a.peak_demand == b.peak_demand
        assert a.mean_demand == b.mean_demand

    def test_describe(self, migratory_refined):
        report = simulate_pool(migratory_refined, 3, 4, workload, until=1_000.0)
        text = report.describe()
        assert "naive capacity" in text and "shared pool" in text

    def test_idle_lines_contribute_nothing(self, migratory_refined):
        class Never:
            def choose(self, now, options):
                return None

        report = simulate_pool(migratory_refined, 3, 4, lambda line: Never(),
                               until=1_000.0)
        assert report.peak_demand == 0
        assert report.multiplexing_ratio == float("inf")


class TestPoolReportArithmetic:
    def test_ratio(self):
        report = PoolReport(n_lines=10, n_remotes=4, per_line_capacity=2,
                            peak_demand=5, mean_demand=1.0,
                            line_peaks=[1] * 10)
        assert report.naive_capacity == 20
        assert report.multiplexing_ratio == 4.0
