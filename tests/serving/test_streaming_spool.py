"""The on-disk series spool: round-trip exactness and crash recovery.

Two layers under test.  The low-level chunk discipline
(:mod:`repro.serving.streaming`): numbered append-only ``.npz`` chunks,
``*.tmp`` orphans invisible to readers, truncated final chunks detected and
(on request) salvaged, structural damage always fatal.  And the end-to-end
contract: a streamed run's spool, merged back through
:func:`repro.serving.sharding.merge_stream`, reproduces the unstreamed
run's results — every tenant series and the cluster series — bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.planner import ElasticRecPlanner
from repro.hardware.specs import cpu_only_cluster
from repro.model.configs import microbenchmark
from repro.serving.engine import MultiTenantEngine, TenantSpec
from repro.serving.scenarios import build_scenario
from repro.serving.sharding import merge_stream, run_sharded
from repro.serving.streaming import (
    SpoolError,
    SpoolTruncatedError,
    SpoolWriter,
    StreamConfig,
    chunk_paths,
    iter_chunks,
    read_meta,
)

# ----------------------------------------------------------------------
# Chunk-level discipline
# ----------------------------------------------------------------------


@pytest.fixture()
def spool(tmp_path):
    """Three intact ``queries`` chunks of known content."""
    writer = SpoolWriter(tmp_path)
    for index in range(3):
        writer.append(
            "queries",
            completion_times=np.arange(4, dtype=np.float64) + 10 * index,
            latencies_s=np.full(4, 0.1 * (index + 1)),
        )
    return tmp_path


class TestChunkDiscipline:
    def test_round_trip_preserves_arrays(self, spool):
        chunks = list(iter_chunks(spool, "queries"))
        assert len(chunks) == 3
        for index, chunk in enumerate(chunks):
            assert np.array_equal(
                chunk["completion_times"], np.arange(4, dtype=np.float64) + 10 * index
            )
            assert np.array_equal(chunk["latencies_s"], np.full(4, 0.1 * (index + 1)))

    def test_streams_number_independently(self, spool):
        writer = SpoolWriter(spool)
        path = writer.append("series", sample_times=np.zeros(2))
        assert path.name == "series-000000.npz"
        assert len(chunk_paths(spool, "queries")) == 3

    def test_tmp_orphan_is_invisible(self, spool):
        (spool / "queries-000003.npz.tmp").write_bytes(b"half-written garbage")
        assert len(list(iter_chunks(spool, "queries"))) == 3

    def test_truncated_final_chunk_raises_by_default(self, spool):
        last = chunk_paths(spool, "queries")[-1]
        last.write_bytes(last.read_bytes()[:20])
        with pytest.raises(SpoolTruncatedError, match="recover=True"):
            list(iter_chunks(spool, "queries"))

    def test_recover_salvages_the_intact_prefix(self, spool):
        last = chunk_paths(spool, "queries")[-1]
        last.write_bytes(last.read_bytes()[:20])
        chunks = list(iter_chunks(spool, "queries", recover=True))
        assert len(chunks) == 2
        assert np.array_equal(
            chunks[1]["completion_times"], np.arange(4, dtype=np.float64) + 10
        )

    def test_corrupt_interior_chunk_raises_even_with_recover(self, spool):
        middle = chunk_paths(spool, "queries")[1]
        middle.write_bytes(b"not a zip at all")
        with pytest.raises(SpoolTruncatedError):
            list(iter_chunks(spool, "queries", recover=True))

    def test_missing_interior_chunk_is_structural_damage(self, spool):
        chunk_paths(spool, "queries")[1].unlink()
        with pytest.raises(SpoolError, match="missing chunk"):
            chunk_paths(spool, "queries")

    def test_missing_meta_reports_incomplete_write(self, spool):
        with pytest.raises(SpoolError, match="never completed"):
            read_meta(spool, "tenant spool")

    def test_meta_round_trips(self, spool):
        SpoolWriter(spool).write_meta({"schema": 1, "status": "complete"})
        assert read_meta(spool)["status"] == "complete"

    def test_unreadable_meta_raises(self, spool):
        (spool / "meta.json").write_text("{nope")
        with pytest.raises(SpoolError, match="unreadable"):
            read_meta(spool)

    def test_empty_chunk_rejected(self, spool):
        with pytest.raises(ValueError, match="at least one array"):
            SpoolWriter(spool).append("queries")

    def test_stream_config_validates(self, tmp_path):
        with pytest.raises(ValueError):
            StreamConfig(directory=tmp_path, spill_threshold=0)
        with pytest.raises(ValueError):
            StreamConfig(directory=tmp_path, flush_series_every=0)


# ----------------------------------------------------------------------
# End-to-end: spool → merge reproduces the in-memory run
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tenants():
    cluster = cpu_only_cluster(num_nodes=16)
    plan = ElasticRecPlanner(cluster).plan(microbenchmark(num_tables=2), target_qps=30.0)
    return [
        TenantSpec(
            name=f"t{index}",
            plan=plan,
            pattern=build_scenario("flash-crowd", 8.0, 24.0, 60.0),
            seed=index,
            max_replicas=6,
            faults="crash-storm" if index == 1 else None,
        )
        for index in range(2)
    ], cluster


class TestStreamedRoundTrip:
    @pytest.fixture(scope="class")
    def serial(self, tenants):
        specs, cluster = tenants
        return MultiTenantEngine(specs, cluster_spec=cluster).run()

    @pytest.fixture(scope="class")
    def stream_dir(self, tenants, tmp_path_factory):
        specs, cluster = tenants
        stream_dir = tmp_path_factory.mktemp("spool")
        run_sharded(
            specs,
            cluster,
            workers=1,
            stream_dir=stream_dir,
            spill_threshold=64,
            flush_series_every=3,
        )
        return stream_dir

    def test_cluster_series_round_trips_exactly(self, serial, stream_dir):
        merged = merge_stream(stream_dir).cluster_series
        expected = serial.cluster_series
        for field in (
            "sample_times",
            "memory_gb",
            "memory_utilization",
            "pending_placements",
            "nodes_in_use",
        ):
            assert np.array_equal(getattr(merged, field), getattr(expected, field)), field

    def test_tenant_results_round_trip_exactly(self, serial, stream_dir):
        merged = merge_stream(stream_dir)
        assert list(merged.tenants) == list(serial.tenants)
        for name, expected in serial.tenants.items():
            actual = merged.tenants[name]
            assert actual.digest() == expected.digest(), name
            assert actual.summary() == expected.summary(), name
            assert actual.reliability_summary() == expected.reliability_summary(), name

    def test_small_thresholds_really_spooled_many_chunks(self, stream_dir):
        tenant_dir = stream_dir / "shard-000" / "tenant-000"
        assert len(chunk_paths(tenant_dir, "queries")) > 1
        assert len(chunk_paths(tenant_dir, "series")) > 1

    def test_merge_is_reproducible(self, stream_dir):
        first = merge_stream(stream_dir)
        second = merge_stream(stream_dir)
        for name in first.tenants:
            assert first.tenants[name].digest() == second.tenants[name].digest()


class TestCrashRecovery:
    def _streamed(self, tenants, tmp_path):
        specs, cluster = tenants
        stream_dir = tmp_path / "spool"
        run_sharded(
            specs,
            cluster,
            workers=1,
            stream_dir=stream_dir,
            spill_threshold=64,
            flush_series_every=3,
        )
        return stream_dir

    def test_truncated_tenant_chunk_fails_the_merge(self, tenants, tmp_path):
        stream_dir = self._streamed(tenants, tmp_path)
        tenant_dir = stream_dir / "shard-000" / "tenant-000"
        last = chunk_paths(tenant_dir, "queries")[-1]
        last.write_bytes(last.read_bytes()[:20])
        with pytest.raises(SpoolTruncatedError):
            merge_stream(stream_dir)

    def test_crashed_worker_never_commits_its_manifest(self, tenants, tmp_path):
        # A worker that dies mid-run never writes its tenant meta.json (the
        # commit marker is written last); the merge must refuse the spool.
        stream_dir = self._streamed(tenants, tmp_path)
        (stream_dir / "shard-000" / "tenant-000" / "meta.json").unlink()
        with pytest.raises(SpoolError, match="never completed"):
            merge_stream(stream_dir)

    def test_sample_count_mismatch_is_detected(self, tenants, tmp_path):
        stream_dir = self._streamed(tenants, tmp_path)
        tenant_dir = stream_dir / "shard-000" / "tenant-000"
        chunk_paths(tenant_dir, "queries")[-1].unlink()
        # Removing the FINAL chunk leaves a dense, readable stream whose
        # sample count no longer matches the manifest.
        with pytest.raises(SpoolError, match="manifest records"):
            merge_stream(stream_dir)

    def test_manifest_missing_a_result_field_is_named(self, tenants, tmp_path):
        # Every scalar result field must come from the manifest; a missing
        # one is a corrupt spool, never a silent default.
        stream_dir = self._streamed(tenants, tmp_path)
        meta_path = stream_dir / "shard-000" / "tenant-000" / "meta.json"
        meta = read_meta(meta_path.parent)
        del meta["slo_recoveries"]
        SpoolWriter(meta_path.parent).write_meta(meta)
        with pytest.raises(SpoolError, match="slo_recoveries"):
            merge_stream(stream_dir)


class TestSpoolReuse:
    """A spool directory holds one run: a non-empty one is refused up front."""

    @staticmethod
    def _fleet(duration_s):
        cluster = cpu_only_cluster(num_nodes=8)
        plan = ElasticRecPlanner(cluster).plan(microbenchmark(num_tables=2), target_qps=30.0)
        pattern = build_scenario("constant", 8.0, 8.0, duration_s)
        return [TenantSpec(name="t0", plan=plan, pattern=pattern, seed=0)], cluster

    def test_reused_spool_directory_is_refused(self, tmp_path):
        # Without the refusal the second run merged the first run's stale
        # series chunks into its own result.
        stream_dir = tmp_path / "spool"
        run_sharded(*self._fleet(1200.0), stream_dir=stream_dir, flush_series_every=4)
        with pytest.raises(SpoolError, match="not empty"):
            run_sharded(*self._fleet(300.0), stream_dir=stream_dir, flush_series_every=4)
        fresh = run_sharded(
            *self._fleet(300.0), stream_dir=tmp_path / "fresh", flush_series_every=4
        )
        serial = run_sharded(*self._fleet(300.0))
        assert fresh.tenant("t0").digest() == serial.tenant("t0").digest()
        assert fresh.tenant("t0").sample_times.size == 20

    def test_empty_directory_is_accepted(self, tmp_path):
        run_sharded(*self._fleet(60.0), stream_dir=tmp_path)
        assert read_meta(tmp_path)["status"] == "complete"

    def test_engine_refuses_a_non_empty_stream_directory(self, tmp_path):
        stale = tmp_path / "series-000000.npz"
        stale.write_bytes(b"stale")
        tenants, cluster = self._fleet(60.0)
        with pytest.raises(SpoolError, match="not empty"):
            MultiTenantEngine(
                tenants, cluster_spec=cluster, stream=StreamConfig(directory=tmp_path)
            )
        assert list(tmp_path.iterdir()) == [stale]
