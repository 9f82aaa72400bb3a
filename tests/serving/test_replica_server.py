"""Tests for the per-replica FIFO batch-queue model."""

from __future__ import annotations

import math

import pytest

from repro.hardware.perf_model import BatchLatencyModel
from repro.serving.replica_server import ReplicaServer


def _sparse_server(name="r0", **kwargs) -> ReplicaServer:
    model = BatchLatencyModel(kind="embedding", batch_exponent=0.85, overhead_fraction=0.2)
    return ReplicaServer(name, batch_model=model, **kwargs)


class TestReplicaServer:
    def test_idle_server_serves_immediately(self):
        server = ReplicaServer("r0")
        completion = server.submit(arrival=10.0, service_time=0.5)
        assert completion == pytest.approx(10.5)
        assert server.completed_queries == 1
        assert server.busy_seconds_between(0.0, math.inf) == pytest.approx(0.5)

    def test_queueing_is_fifo(self):
        server = ReplicaServer("r0")
        first = server.submit(0.0, 1.0)
        second = server.submit(0.1, 1.0)
        third = server.submit(5.0, 1.0)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)  # waits for the first
        assert third == pytest.approx(6.0)  # server idle again by then

    def test_not_ready_until_startup(self):
        server = ReplicaServer("r0", ready_at=100.0)
        assert not server.is_ready(50.0)
        assert server.is_ready(100.0)
        completion = server.submit(arrival=50.0, service_time=1.0)
        assert completion == pytest.approx(101.0)

    def test_utilization(self):
        server = ReplicaServer("r0")
        server.submit(0.0, 2.0)
        assert server.utilization(4.0) == pytest.approx(0.5)
        assert server.utilization(0.0) == 0.0
        assert ReplicaServer("idle").utilization(10.0) == 0.0

    def test_utilization_window_excludes_idle_history(self):
        server = ReplicaServer("r0")
        server.submit(90.0, 5.0)
        # Whole-life utilization is diluted by the long idle prefix...
        assert server.utilization(100.0) == pytest.approx(0.05)
        # ...but a window covering only the busy tail is not.
        assert server.utilization(100.0, window_start=90.0) == pytest.approx(0.5)

    def test_utilization_window_ignores_busy_history_before_it(self):
        # Busy early, idle later: a window over the idle tail reads zero, not
        # phantom saturation from lifetime busy seconds.
        server = ReplicaServer("r0")
        server.submit(0.0, 50.0)
        assert server.utilization(100.0, window_start=90.0) == 0.0
        # A window straddling the busy run only counts the overlap.
        assert server.utilization(60.0, window_start=40.0) == pytest.approx(0.5)

    def test_busy_seconds_between_merges_fifo_runs(self):
        server = ReplicaServer("r0")
        server.submit(0.0, 1.0)
        server.submit(0.5, 1.0)  # queued: extends the first busy run to 2.0
        server.submit(5.0, 1.0)  # idle gap, new run [5, 6)
        assert server.busy_seconds_between(0.0, 10.0) == pytest.approx(3.0)
        assert server.busy_seconds_between(2.0, 5.0) == 0.0
        assert server.busy_seconds_between(1.5, 5.5) == pytest.approx(1.0)

    def test_utilization_window_starts_at_readiness(self):
        # A replica that became ready mid-window is only accountable for the
        # time it was actually up.
        server = ReplicaServer("r0", ready_at=95.0)
        server.submit(95.0, 2.5)
        assert server.utilization(100.0, window_start=80.0) == pytest.approx(0.5)
        assert server.utilization(90.0, window_start=80.0) == 0.0

    def test_service_time_must_be_positive(self):
        with pytest.raises(ValueError):
            ReplicaServer("r0").submit(0.0, 0.0)

    def test_multiplier_must_be_positive(self):
        with pytest.raises(ValueError):
            ReplicaServer("r0").submit(0.0, 1.0, multiplier=0.0)


class TestCostMultipliers:
    def test_unit_multiplier_is_bit_exact_with_plain_submit(self):
        plain = ReplicaServer("a")
        costed = _sparse_server("b")
        for arrival in (0.0, 0.3, 7.0):
            assert plain.submit(arrival, 0.7) == costed.submit(arrival, 0.7, multiplier=1.0)

    def test_expensive_query_scales_the_gather_share(self):
        server = _sparse_server()
        # f = 0.2: only the gather share (80%) scales with the multiplier.
        completion = server.submit(0.0, 1.0, multiplier=2.0)
        assert completion == pytest.approx(1.0 + 0.8 * 1.0)

    def test_no_model_scales_linearly(self):
        server = ReplicaServer("r0")
        assert server.submit(0.0, 1.0, multiplier=3.0) == pytest.approx(3.0)

    @pytest.mark.parametrize("kind", ["dense", "embedding", "monolithic"])
    def test_inlined_unit_slope_matches_factor_bit_exactly(self, kind):
        # The single-query-batch hot path prices a query with one fused
        # multiply-add off a precomputed slope instead of calling
        # factor(1, m); the inlined expression must be bit-exact with the
        # method for every model kind and any multiplier.
        model = BatchLatencyModel(kind=kind, batch_exponent=0.85, overhead_fraction=0.2)
        for multiplier in (0.25, 0.5, 1.0, 1.375, 2.0, 7.125):
            server = ReplicaServer("r0", batch_model=model)
            completion = server.submit(0.0, 0.7, multiplier=multiplier)
            assert completion == 0.7 * model.factor(1, multiplier)

    def test_no_model_unit_slope_is_the_multiplier_bit_exactly(self):
        for multiplier in (0.25, 1.0, 3.0, 7.125):
            server = ReplicaServer("r0")
            assert server.submit(0.0, 0.7, multiplier=multiplier) == 0.7 * multiplier


class TestBatching:
    def test_backlogged_queries_coalesce_into_one_batch(self):
        server = _sparse_server(max_batch=3)
        first = server.submit(0.0, 1.0)
        second = server.submit(0.5, 1.0)  # queued: opens the next batch at 1.0
        third = server.submit(0.7, 1.0)  # joins the forming batch
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)
        # The joined batch serves two queries in 1 + 0.8 service units.
        assert third == pytest.approx(1.0 + (1.0 + 0.8))
        assert server.completed_queries == 3
        assert server.completed_batches == 2

    def test_batch_seals_at_max_batch(self):
        server = _sparse_server(max_batch=2)
        server.submit(0.0, 1.0)
        server.submit(0.1, 1.0)  # batch 2 opens at 1.0
        server.submit(0.2, 1.0)  # joins batch 2 (now full)
        server.submit(0.3, 1.0)  # batch 2 sealed: opens batch 3
        assert server.completed_batches == 3

    def test_batching_window_holds_an_idle_server(self):
        server = _sparse_server(max_batch=4, batch_window_s=0.5)
        first = server.submit(0.0, 1.0)
        second = server.submit(0.3, 1.0)  # arrives inside the window: joins
        assert first == pytest.approx(1.5)  # 0.5 window + 1.0 service
        assert second == pytest.approx(0.5 + 1.8)
        assert server.completed_batches == 1

    def test_no_window_no_backlog_means_no_batching(self):
        server = _sparse_server(max_batch=8)
        server.submit(0.0, 1.0)
        server.submit(5.0, 1.0)  # idle again: nothing to coalesce with
        assert server.completed_batches == 2

    def test_dense_batches_scale_sublinearly(self):
        model = BatchLatencyModel(kind="dense", batch_exponent=0.85, overhead_fraction=0.2)
        server = ReplicaServer("r0", max_batch=2, batch_model=model)
        server.submit(0.0, 1.0)
        server.submit(0.1, 1.0)  # batch of 1 opening at 1.0
        completion = server.submit(0.2, 1.0)  # joins: batch of 2
        assert completion == pytest.approx(1.0 + 2.0**0.85)

    def test_busy_time_counts_batch_service_once(self):
        server = _sparse_server(max_batch=2)
        server.submit(0.0, 1.0)
        server.submit(0.5, 1.0)
        server.submit(0.7, 1.0)
        # Runs: [0, 1) then [1, 2.8): total busy 2.8 seconds.
        assert server.busy_seconds_between(0.0, math.inf) == pytest.approx(2.8)
        assert server.busy_seconds_between(0.0, 10.0) == pytest.approx(2.8)

    def test_invalid_batch_configuration_rejected(self):
        with pytest.raises(ValueError):
            ReplicaServer("r0", max_batch=0)
        with pytest.raises(ValueError):
            ReplicaServer("r0", batch_window_s=-1.0)


class TestPredictedCompletion:
    def test_matches_submit_without_mutation(self):
        server = _sparse_server(max_batch=3)
        server.submit(0.0, 1.0)
        server.submit(0.5, 1.0)
        predicted = server.predicted_completion(0.7, 1.0, multiplier=1.5)
        before = (server.busy_until, server.completed_queries, server.completed_batches)
        assert server.predicted_completion(0.7, 1.0, multiplier=1.5) == predicted
        assert (server.busy_until, server.completed_queries, server.completed_batches) == before
        assert server.submit(0.7, 1.0, multiplier=1.5) == pytest.approx(predicted)

    def test_idle_server_prediction(self):
        server = _sparse_server()
        assert server.predicted_completion(2.0, 0.5) == pytest.approx(2.5)

    def test_rejects_bad_inputs(self):
        server = _sparse_server()
        with pytest.raises(ValueError):
            server.predicted_completion(0.0, 0.0)
        with pytest.raises(ValueError):
            server.predicted_completion(0.0, 1.0, multiplier=-1.0)


class TestUtilizationExactBoundaries:
    """Exact window boundaries of ``utilization`` (half-open [start, now))."""

    def test_window_start_equal_to_now_is_zero(self):
        server = ReplicaServer("r0", ready_at=0.0)
        server.submit(0.0, 10.0)
        # An empty window has no elapsed time to be busy in; 0.0 by
        # convention rather than a division by zero.
        assert server.utilization(10.0, window_start=10.0) == 0.0

    def test_now_equal_to_ready_at_is_zero(self):
        server = ReplicaServer("r0", ready_at=50.0)
        assert server.utilization(50.0, window_start=0.0) == 0.0

    def test_service_ending_exactly_at_window_start_is_excluded(self):
        server = ReplicaServer("r0", ready_at=0.0)
        server.submit(0.0, 10.0)  # busy run [0, 10)
        assert server.utilization(20.0, window_start=10.0) == 0.0

    def test_service_starting_exactly_at_window_end_is_excluded(self):
        server = ReplicaServer("r0", ready_at=0.0)
        server.submit(10.0, 5.0)  # busy run [10, 15)
        assert server.busy_seconds_between(0.0, 10.0) == 0.0

    def test_fully_busy_window_is_exactly_one(self):
        server = ReplicaServer("r0", ready_at=0.0)
        server.submit(0.0, 30.0)
        assert server.utilization(30.0, window_start=0.0) == 1.0
        # Mid-service the elapsed window is fully busy too.
        assert server.utilization(15.0, window_start=0.0) == 1.0

    def test_replica_ready_mid_window_is_only_accountable_while_up(self):
        server = ReplicaServer("r0", ready_at=50.0)
        server.submit(50.0, 10.0)  # busy [50, 60)
        # Window [0, 60) but the replica existed only for [50, 60): fully busy.
        assert server.utilization(60.0, window_start=0.0) == 1.0

    def test_window_straddling_a_run_counts_the_overlap_only(self):
        server = ReplicaServer("r0", ready_at=0.0)
        server.submit(0.0, 10.0)  # busy [0, 10)
        assert server.utilization(15.0, window_start=5.0) == pytest.approx(0.5)

    def test_future_window_is_zero(self):
        server = ReplicaServer("r0", ready_at=0.0)
        server.submit(0.0, 10.0)
        assert server.utilization(5.0, window_start=8.0) == 0.0

    def test_windowed_sum_matches_a_linear_scan_over_many_runs(self):
        # The bisect-windowed implementation must agree bit-for-bit with a
        # naive full scan (the historical implementation) on a long run
        # list, for windows hitting every edge case: inside one run, inside
        # a gap, clipping the first and last runs, and spanning everything.
        server = ReplicaServer("r0", ready_at=0.0)
        for index in range(200):
            start = 2.0 * index
            server.submit(start, 1.0)  # busy runs [2i, 2i + 1), gaps between

        def naive(start_s, end_s):
            total = 0.0
            for run_start, run_end in zip(server._run_starts, server._run_ends):
                overlap_start = max(run_start, start_s)
                overlap_end = min(run_end, end_s)
                if overlap_end > overlap_start:
                    total += overlap_end - overlap_start
            return total

        windows = [
            (0.0, 400.0),
            (0.25, 0.75),
            (1.25, 1.75),
            (0.5, 399.5),
            (3.0, 3.0),
            (17.5, 120.25),
            (399.0, 1000.0),
            (-5.0, 0.5),
        ]
        for start_s, end_s in windows:
            assert server.busy_seconds_between(start_s, end_s) == naive(start_s, end_s), (
                start_s,
                end_s,
            )
