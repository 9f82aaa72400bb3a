"""Tests for the parallel sweep runner (grid, seeding, merging, reporting)."""

from __future__ import annotations

import pytest

from repro.experiments.sweeps import (
    SweepConfig,
    SweepResult,
    build_grid,
    run_cell,
    run_sweep,
)
from repro.serving.engine import MultiTenantEngine

TINY = SweepConfig(
    workload="RM1",
    num_tables=2,
    num_nodes=4,
    base_qps=8.0,
    peak_qps=24.0,
    duration_s=90.0,
    seed=5,
)
#: Deadline-armed watchdog: crashed queries retry, then time out.
DEADLINE_SLO = (
    "p95@1.5:p99=8,availability=0.995,reject=0.02,patience=1,"
    "shed=0.0,deadline=20,timeout=2,retries=3,storm=0.5,recover=2"
)


class TestGrid:
    def test_product_order_and_indices(self):
        cells = build_grid(["constant", "diurnal"], ["least-work"], [4, 8])
        assert [(c.scenario, c.replica_budget) for c in cells] == [
            ("constant", 4), ("constant", 8), ("diurnal", 4), ("diurnal", 8),
        ]
        assert [c.index for c in cells] == [0, 1, 2, 3]

    def test_cell_seeds_are_deterministic_and_distinct(self):
        first = build_grid(["constant"], ["least-work"], [1, 2, 3], base_seed=9)
        second = build_grid(["constant"], ["least-work"], [1, 2, 3], base_seed=9)
        assert [c.seed for c in first] == [c.seed for c in second]
        assert len({c.seed for c in first}) == len(first)
        other = build_grid(["constant"], ["least-work"], [1, 2, 3], base_seed=10)
        assert [c.seed for c in first] != [c.seed for c in other]

    def test_validation(self):
        with pytest.raises(ValueError):
            build_grid(["constant"], ["least-work"], [])
        with pytest.raises(ValueError):
            build_grid(["constant"], ["least-work"], [0])


class TestRunCell:
    def test_cell_row_has_grid_coordinates_and_metrics(self):
        cells = build_grid(["constant"], ["least-work"], [8], base_seed=TINY.seed)
        row = run_cell(TINY, cells[0])
        assert row["scenario"] == "constant"
        assert row["routing"] == "least-work"
        assert row["replica_budget"] == 8
        assert row["total_queries"] > 0
        assert row["worst_p95_ms"] > 0
        assert 0.0 <= row["sla_violation_fraction"] <= 1.0

    def test_multiple_tenants_per_cell(self):
        config = SweepConfig(
            workload="RM1", num_tables=2, num_nodes=4,
            base_qps=6.0, peak_qps=18.0, duration_s=90.0, tenants=2,
        )
        cells = build_grid(["constant"], ["least-work"], [8])
        row = run_cell(config, cells[0])
        single = run_cell(TINY, build_grid(["constant"], ["least-work"], [8],
                                           base_seed=TINY.seed)[0])
        assert row["total_queries"] > 0.5 * single["total_queries"]

    def test_skewed_batched_cell_changes_the_tail_only(self):
        from dataclasses import replace

        cells = build_grid(["constant"], ["least-work"], [8], base_seed=TINY.seed)
        plain = run_cell(TINY, cells[0])
        skewed = run_cell(replace(TINY, cost_model="skewed", max_batch=4), cells[0])
        # Same arrivals (same cell seed), different service-time distribution.
        assert skewed["total_queries"] == plain["total_queries"]
        assert skewed["worst_p95_ms"] != plain["worst_p95_ms"]

    def test_availability_counts_deadline_timeouts(self, monkeypatch):
        # A query the watchdog's deadline gave up on was not served: the
        # cell's availability is the tenants' served share, timeouts included.
        from dataclasses import replace

        results = []
        run = MultiTenantEngine.run

        def recording(engine, *args, **kwargs):
            results.append(run(engine, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(MultiTenantEngine, "run", recording)
        config = replace(TINY, faults="crash-storm", slo=DEADLINE_SLO)
        cell = build_grid(["constant"], ["least-work"], [8], base_seed=TINY.seed)[0]
        row = run_cell(config, cell)
        (tenant,) = results[0].tenants.values()
        assert tenant.timeout_queries > 0
        assert row["availability"] == tenant.availability_fraction

    def test_cost_model_validated_at_config_construction(self):
        with pytest.raises(ValueError, match="cost model"):
            SweepConfig(cost_model="zipfian")
        with pytest.raises(ValueError):
            SweepConfig(max_batch=0)


class TestRunSweep:
    def test_rows_follow_grid_order(self):
        result = run_sweep(
            TINY, scenarios=["constant", "diurnal"], routings=["least-work"],
            replica_budgets=[4], workers=1,
        )
        assert [row["scenario"] for row in result.rows] == ["constant", "diurnal"]
        assert isinstance(result, SweepResult)

    def test_unknown_names_fail_fast_with_valid_choices(self):
        with pytest.raises(ValueError, match="flash-crowd"):
            run_sweep(TINY, scenarios=["bogus"], routings=["least-work"],
                      replica_budgets=[4])
        with pytest.raises(ValueError, match="least-work"):
            run_sweep(TINY, scenarios=["constant"], routings=["bogus"],
                      replica_budgets=[4])
        with pytest.raises(ValueError, match="RM1"):
            run_sweep(SweepConfig(workload="RM9"), scenarios=["constant"],
                      routings=["least-work"], replica_budgets=[4])

    def test_report_helpers(self):
        result = run_sweep(
            TINY, scenarios=["constant"], routings=["least-work", "round-robin"],
            replica_budgets=[4], workers=1,
        )
        table = result.to_table()
        assert "least-work" in table and "round-robin" in table
        assert "seed" not in table.splitlines()[1]
        best = result.best_cell()
        assert best in result.rows
        summary = result.summary()
        assert summary["cells"] == 2.0
        assert summary["digest"] == result.digest()[:16]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(tenants=0)
        with pytest.raises(ValueError):
            SweepConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            SweepConfig(base_qps=50.0, peak_qps=10.0)
        with pytest.raises(ValueError):
            SweepConfig(seed=-1)
