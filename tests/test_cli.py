"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_arguments(self):
        args = build_parser().parse_args(
            ["plan", "RM1", "--system", "cpu-gpu", "--target-qps", "150", "--num-shards", "3"]
        )
        assert args.command == "plan"
        assert args.workload == "RM1"
        assert args.system == "cpu-gpu"
        assert args.target_qps == 150.0
        assert args.num_shards == 3

    def test_experiments_list_flag(self):
        args = build_parser().parse_args(["experiments", "--list"])
        assert args.list is True

    def test_simulate_arguments(self):
        args = build_parser().parse_args(
            ["simulate", "RM1", "--scenario", "flash-crowd", "--routing",
             "power-of-two", "--strategy", "both", "--duration-s", "300"]
        )
        assert args.command == "simulate"
        assert args.scenario == "flash-crowd"
        assert args.routing == "power-of-two"
        assert args.strategy == "both"
        assert args.duration_s == 300.0
        assert args.cost_model == "homogeneous"
        assert args.max_batch == 1

    def test_simulate_cost_model_arguments(self):
        args = build_parser().parse_args(
            ["simulate", "RM1", "--cost-model", "skewed", "--max-batch", "8"]
        )
        assert args.cost_model == "skewed"
        assert args.max_batch == 8

    def test_faults_arguments_default_to_none(self):
        simulate = build_parser().parse_args(["simulate", "RM1"])
        sweep = build_parser().parse_args(["sweep", "RM1"])
        assert simulate.faults == "none"
        assert sweep.faults == "none"
        scripted = build_parser().parse_args(
            ["simulate", "RM1", "--faults", "crash@120:policy=drop"]
        )
        assert scripted.faults == "crash@120:policy=drop"

    def test_cache_mb_defaults_to_zero(self):
        simulate = build_parser().parse_args(["simulate", "RM1"])
        sweep = build_parser().parse_args(["sweep", "RM1"])
        assert simulate.cache_mb == 0.0
        assert sweep.cache_mb == 0.0
        cached = build_parser().parse_args(
            ["simulate", "RM1", "--cost-model", "skewed", "--cache-mb", "64"]
        )
        assert cached.cache_mb == 64.0

    def test_drift_and_replan_default_to_none(self):
        simulate = build_parser().parse_args(["simulate", "RM1"])
        sweep = build_parser().parse_args(["sweep", "RM1"])
        assert simulate.drift == "none" and simulate.replan == "none"
        assert sweep.drift == "none" and sweep.replan == "none"
        armed = build_parser().parse_args(
            ["simulate", "RM1", "--cost-model", "skewed",
             "--drift", "linear@60+300:to=0.2",
             "--replan", "sla@1.5:patience=3"]
        )
        assert armed.drift == "linear@60+300:to=0.2"
        assert armed.replan == "sla@1.5:patience=3"

    def test_slo_defaults_to_none(self):
        simulate = build_parser().parse_args(["simulate", "RM1"])
        sweep = build_parser().parse_args(["sweep", "RM1"])
        assert simulate.slo == "none" and sweep.slo == "none"
        armed = build_parser().parse_args(
            ["simulate", "RM1", "--slo", "p95@1.5:p99=2.5,shed=0.1,retries=2"]
        )
        assert armed.slo == "p95@1.5:p99=2.5,shed=0.1,retries=2"

    def test_unknown_cost_model_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "RM1", "--cost-model", "zipfian"])

    def test_version_flag(self, capsys):
        from repro._version import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "RM1", "--scenarios", "constant,diurnal", "--routings", "all",
             "--replica-budgets", "2,8", "--workers", "4", "--duration-s", "120"]
        )
        assert args.command == "sweep"
        assert args.scenarios == "constant,diurnal"
        assert args.routings == "all"
        assert args.replica_budgets == "2,8"
        assert args.workers == 4


class TestCommands:
    def test_plan_command_output(self, capsys):
        assert main(["plan", "RM1", "--target-qps", "50", "--num-shards", "2"]) == 0
        output = capsys.readouterr().out
        assert "ElasticRec deployments for RM1" in output
        assert "model-wise" in output
        assert "memory reduction" in output

    def test_manifests_command_output(self, capsys):
        assert main(["manifests", "RM1", "--target-qps", "50", "--num-shards", "2"]) == 0
        output = capsys.readouterr().out
        assert "kind: Deployment" in output
        assert "kind: HorizontalPodAutoscaler" in output
        assert "queries_per_second" in output

    def test_experiments_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        output = capsys.readouterr().out
        assert "fig13" in output and "ablation" in output

    def test_experiments_single_run(self, capsys):
        assert main(["experiments", "fig5"]) == 0
        output = capsys.readouterr().out
        assert "fig5" in output

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["plan", "RM9"])

    def test_simulate_command_output(self, capsys):
        assert main(
            ["simulate", "RM1", "--num-shards", "2", "--num-nodes", "8",
             "--scenario", "ramp-and-hold", "--routing", "round-robin",
             "--base-qps", "10", "--peak-qps", "30", "--duration-s", "120"]
        ) == 0
        output = capsys.readouterr().out
        assert "'ramp-and-hold' traffic" in output
        assert "round-robin" in output
        assert "elasticrec" in output

    def test_simulate_profile_flag_prints_hot_spots(self, capsys):
        assert main(
            ["simulate", "RM1", "--num-shards", "2", "--num-nodes", "8",
             "--scenario", "constant", "--base-qps", "8", "--peak-qps", "8",
             "--duration-s", "60", "--profile"]
        ) == 0
        output = capsys.readouterr().out
        assert "top-20 hot spots by cumulative time" in output
        assert "cumulative" in output  # the pstats column header
        # The engine hot path made the table: the lane-by-lane drain kernel.
        assert "serve_chunk" in output
        # The result table still prints ahead of the profile.
        assert "'constant' traffic" in output

    def test_simulate_with_fault_scenario_output(self, capsys):
        assert main(
            ["simulate", "RM1", "--num-shards", "2", "--num-nodes", "8",
             "--faults", "single-crash", "--scenario", "constant",
             "--base-qps", "10", "--peak-qps", "30", "--duration-s", "120"]
        ) == 0
        output = capsys.readouterr().out
        assert "availability" in output

    def test_simulate_skewed_batched_output(self, capsys):
        assert main(
            ["simulate", "RM1", "--num-shards", "2", "--num-nodes", "8",
             "--cost-model", "skewed", "--max-batch", "4",
             "--base-qps", "10", "--peak-qps", "30", "--duration-s", "120"]
        ) == 0
        output = capsys.readouterr().out
        assert "skewed" in output

    def test_simulate_bad_max_batch_rejected(self, capsys):
        # Rejected at parse time (argparse usage error, exit code 2).
        for argv in (["simulate", "RM1", "--max-batch", "0"],
                     ["sweep", "RM1", "--max-batch", "-3"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "--max-batch: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "RM1", "--num-nodes", "0"],
            ["simulate", "RM1", "--num-shards", "0"],
            ["simulate", "RM1", "--base-qps", "nan"],
            ["simulate", "RM1", "--peak-qps", "-5"],
            ["simulate", "RM1", "--duration-s", "inf"],
            ["simulate", "RM1", "--cost-model", "skewed", "--cache-mb", "inf"],
            ["simulate", "RM1", "--cost-model", "skewed", "--cache-mb", "nan"],
            ["simulate", "RM1", "--cost-model", "skewed", "--cache-mb", "-1"],
            ["sweep", "RM1", "--cost-model", "skewed", "--cache-mb", "-1"],
            ["sweep", "RM1", "--tenants", "0"],
            ["plan", "RM1", "--target-qps", "nan"],
            ["plan", "RM1", "--target-qps", "0"],
            ["plan", "RM1", "--num-nodes", "0"],
            ["manifests", "RM1", "--num-shards", "0"],
            ["sweep", "RM1", "--num-nodes", "0"],
            ["sweep", "RM1", "--duration-s", "nan"],
            ["sweep", "RM1", "--num-tables", "0"],
            ["sweep", "RM1", "--workers", "0"],
            ["sweep", "RM1", "--workers", "-3"],
        ],
    )
    def test_malformed_numeric_flag_rejected(self, argv, capsys):
        # Rejected before any work, with a one-line error naming the flag.
        flag = next(arg for arg in reversed(argv) if arg.startswith("--"))
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code not in (0, None)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        message = err + str(excinfo.value.code)
        assert f"{flag}: must be" in message or f"{flag} must be" in message

    @pytest.mark.parametrize("case", ["under-a-file", "not-empty"])
    def test_unusable_stream_dir_rejected(self, case, tmp_path, capsys):
        # A spool path that cannot be created, or one holding an earlier
        # run's files, exits with a one-line error naming the path.
        (tmp_path / "file").write_text("")
        (tmp_path / "spool").mkdir()
        (tmp_path / "spool" / "meta.json").write_text("{}")
        spool = tmp_path / ("file/spool" if case == "under-a-file" else "spool")
        argv = ["simulate", "RM1", "--scenario", "constant", "--duration-s", "30",
                "--stream-dir", str(spool)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code not in (0, None)
        assert "Traceback" not in capsys.readouterr().err
        message = str(excinfo.value.code)
        assert str(spool) in message and "\n" not in message

    def test_sweep_command_output(self, capsys):
        assert main(
            ["sweep", "RM1", "--num-tables", "2", "--num-nodes", "4",
             "--scenarios", "constant", "--routings", "least-work,round-robin",
             "--replica-budgets", "4", "--base-qps", "8", "--peak-qps", "24",
             "--duration-s", "90"]
        ) == 0
        output = capsys.readouterr().out
        assert "sweep of RM1 (2 cells" in output
        assert "least-work" in output and "round-robin" in output
        assert "summary:" in output and "digest=" in output


class TestUnknownNameHints:
    """Unknown --scenario/--routing exit non-zero with a one-line hint."""

    def _exit_message(self, argv) -> str:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code not in (0, None)
        return str(excinfo.value)

    def test_simulate_unknown_scenario(self):
        message = self._exit_message(["simulate", "RM1", "--scenario", "tsunami"])
        assert "unknown scenario 'tsunami'" in message
        assert "flash-crowd" in message and "\n" not in message

    def test_simulate_unknown_routing(self):
        message = self._exit_message(["simulate", "RM1", "--routing", "random-walk"])
        assert "unknown routing policy 'random-walk'" in message
        assert "least-work" in message and "\n" not in message

    def test_sweep_unknown_scenario(self):
        message = self._exit_message(["sweep", "RM1", "--scenarios", "constant,tsunami"])
        assert "unknown scenario 'tsunami'" in message
        assert "diurnal" in message and "\n" not in message

    def test_sweep_unknown_routing(self):
        message = self._exit_message(["sweep", "RM1", "--routings", "random-walk"])
        assert "unknown routing policy 'random-walk'" in message
        assert "power-of-two" in message and "\n" not in message

    def test_sweep_bad_replica_budgets(self):
        message = self._exit_message(["sweep", "RM1", "--replica-budgets", "4,0"])
        assert "replica-budgets" in message

    def test_negative_seed_rejected_without_traceback(self):
        for argv in (["simulate", "RM1", "--seed", "-1"],
                     ["simulate", "RM1", "--tenants", "2", "--seed", "-1"],
                     ["sweep", "RM1", "--seed", "-1"]):
            message = self._exit_message(argv)
            assert "seed must be non-negative" in message

    def test_unknown_fault_scenario(self):
        for command in ("simulate", "sweep"):
            message = self._exit_message([command, "RM1", "--faults", "tsunami"])
            assert "unknown fault scenario 'tsunami'" in message
            assert "crash-storm" in message and "\n" not in message

    def test_cache_without_skewed_cost_model_hints_the_fix(self):
        for command in ("simulate", "sweep"):
            message = self._exit_message([command, "RM1", "--cache-mb", "64"])
            assert "--cost-model skewed" in message and "\n" not in message

    @pytest.mark.parametrize(
        "argv, hint",
        [
            (["sweep", "RM1", "--base-qps", "50", "--peak-qps", "10"], "base_qps <= peak_qps"),
            (["plan", "RM1", "--num-shards", "999"], "999 shards"),
            (["manifests", "RM1", "--num-shards", "999"], "999 shards"),
            (["simulate", "RM1", "--num-shards", "999"], "999 shards"),
            (["simulate", "RM1", "--strategy", "model-wise", "--replan", "sla@1.2",
              "--scenario", "constant", "--duration-s", "30"], "elasticrec"),
        ],
    )
    def test_unservable_input_exits_with_one_line(self, argv, hint):
        message = self._exit_message(argv)
        assert hint in message and "\n" not in message

    def test_malformed_fault_script(self):
        for script in ("crash@", "crash@10:policy=retry", "flood@10", "crashes@0"):
            for command in ("simulate", "sweep"):
                message = self._exit_message([command, "RM1", "--faults", script])
                assert "malformed fault spec" in message or "unknown" in message
                assert "\n" not in message

    def test_malformed_drift_spec(self):
        for spec in (
            "linear@10",            # linear needs a duration
            "linear@10+60",         # missing to=
            "warp@10+60:to=0.1",    # unknown schedule
            "step@10+60:to=0.1",    # step takes no duration
            "linear@10+60:to=2.0",  # locality out of range
            "linear@10+60:to=0.1,turbo=1",  # unknown parameter
        ):
            for command in ("simulate", "sweep"):
                message = self._exit_message(
                    [command, "RM1", "--cost-model", "skewed", "--drift", spec]
                )
                assert "malformed drift spec" in message or "unknown" in message
                assert "\n" not in message

    def test_drift_without_skewed_cost_model_hints_the_fix(self):
        for command in ("simulate", "sweep"):
            message = self._exit_message(
                [command, "RM1", "--drift", "linear@10+60:to=0.1"]
            )
            assert "--cost-model skewed" in message and "\n" not in message

    def test_malformed_replan_spec(self):
        for spec in (
            "sla",                   # missing @<threshold>
            "sla@",                  # empty threshold
            "sla@abc",               # non-numeric threshold
            "slo@1.5",               # unknown trigger
            "sla@1.5:verve=3",       # unknown parameter
            "sla@1.5:patience=0",    # out-of-range parameter
        ):
            for command in ("simulate", "sweep"):
                message = self._exit_message([command, "RM1", "--replan", spec])
                assert "malformed replan spec" in message or "unknown" in message
                assert "\n" not in message

    def test_malformed_slo_spec(self):
        for spec in (
            "p95",                   # missing @<beta>
            "p95@",                  # empty beta
            "p95@abc",               # non-numeric beta
            "p50@1.5",               # unknown metric
            "p95@1.5:tornado=1",     # unknown parameter
            "p95@1.5:shed=2.0",      # out-of-range parameter
            "p95@1.5:deadline=2,timeout=4",  # deadline below the timeout
        ):
            for command in ("simulate", "sweep"):
                message = self._exit_message([command, "RM1", "--slo", spec])
                assert "malformed slo spec" in message or "unknown" in message
                assert "\n" not in message


class TestSimulateSharded:
    """The sharded/streamed `simulate` path: flags, hints and spool layout."""

    _BASE = [
        "simulate", "RM1", "--num-shards", "2", "--num-nodes", "8",
        "--max-replicas", "4", "--scenario", "constant",
        "--base-qps", "6", "--peak-qps", "6", "--duration-s", "60",
    ]

    def test_parser_accepts_sharding_flags(self):
        args = build_parser().parse_args(
            ["simulate", "RM1", "--tenants", "4", "--shard-workers", "2",
             "--stream-dir", "/tmp/spool", "--max-replicas", "8"]
        )
        assert args.tenants == 4
        assert args.shard_workers == 2
        assert args.stream_dir == "/tmp/spool"
        assert args.max_replicas == 8

    def test_multi_tenant_run_prints_sharding_line(self, capsys):
        assert main(self._BASE + ["--tenants", "2", "--shard-workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "tenant-00" in output and "tenant-01" in output
        assert "sharding: 2 worker(s)" in output

    def test_worker_surplus_prints_hint_and_clamps(self, capsys):
        assert main(self._BASE + ["--tenants", "2", "--shard-workers", "5"]) == 0
        captured = capsys.readouterr()
        assert (
            "note: --shard-workers 5 exceeds the 2 available tenant(s); "
            "running 2 worker(s)" in captured.err
        )
        assert "sharding: 2 worker(s)" in captured.out

    def test_node_drain_faults_exit_with_one_line_hint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self._BASE + ["--tenants", "2", "--shard-workers", "2",
                               "--faults", "rolling-drain"])
        message = str(excinfo.value)
        assert "node drains" in message
        assert "--shard-workers 1" in message
        assert "\n" not in message

    def test_profile_is_rejected_for_sharded_runs(self):
        with pytest.raises(SystemExit) as excinfo:
            main(self._BASE + ["--tenants", "2", "--shard-workers", "2", "--profile"])
        assert "--profile" in str(excinfo.value)

    def test_profile_wraps_an_in_process_fleet(self, capsys):
        assert main(self._BASE + ["--tenants", "2", "--profile"]) == 0
        output = capsys.readouterr().out
        assert "tenant-01" in output and "top-20 hot spots" in output

    def test_fleet_rows_carry_availability_and_timeouts(self, capsys):
        # Two tenants share one pool through a rolling node drain under the
        # watchdog: both lose queries, and their rows say so.
        argv = self._BASE + ["--tenants", "2", "--duration-s", "240",
                             "--faults", "rolling-drain",
                             "--slo", "p95@1.5:p99=2.5,shed=0.1,retries=2"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[1].split()
        assert {"tenant", "cost_model", "availability", "timeouts", "degraded"} <= set(header)
        rows = [dict(zip(header, line.split())) for line in lines[3:5]]
        assert [row["tenant"] for row in rows] == ["tenant-00", "tenant-01"]
        assert all(float(row["availability"]) < 1.0 for row in rows)
        # One in-process worker and no spool: no wall-time line.
        assert not any(line.startswith("sharding:") for line in lines)

    def test_streamed_run_writes_a_merged_spool(self, capsys, tmp_path):
        spool = tmp_path / "spool"
        assert main(self._BASE + ["--tenants", "2", "--shard-workers", "2",
                                  "--stream-dir", str(spool)]) == 0
        output = capsys.readouterr().out
        assert f"spool at {spool}" in output
        assert (spool / "meta.json").is_file()
        shard_dirs = sorted(p.name for p in spool.iterdir() if p.is_dir())
        assert shard_dirs == ["shard-000", "shard-001"]
        for shard in shard_dirs:
            assert (spool / shard / "meta.json").is_file()
            tenant_dirs = [p for p in (spool / shard).iterdir() if p.is_dir()]
            assert tenant_dirs, shard
            for tenant_dir in tenant_dirs:
                assert (tenant_dir / "meta.json").is_file()


class TestFleetStdout:
    """A four-tenant fleet's table, pinned byte for byte.

    Tenants draw their own seeds, so their arrivals interleave; each drain
    runs past the other tenants' arrivals to the next control event, and
    each tenant's dense-replica crash requeues its in-flight queries.  CI's
    fast job diffs the same command's stdout against the same file.
    """

    ARGV = [
        "simulate", "RM1", "--tenants", "4", "--num-shards", "2", "--num-nodes", "8",
        "--max-replicas", "4", "--routing", "least-outstanding",
        "--scenario", "flash-crowd", "--base-qps", "4", "--peak-qps", "10",
        "--duration-s", "180", "--faults", "crash@90:deployment=dense,policy=requeue",
    ]
    EXPECTED = Path(__file__).with_name("simulate_fleet.stdout")

    def test_stdout_matches_the_recorded_table(self, capsys):
        assert main(self.ARGV) == 0
        assert capsys.readouterr().out == self.EXPECTED.read_text()

    def test_query_counts_print_as_integers(self, capsys):
        # A short run serves under 1,000 queries: ``376``, not ``376.0``.
        assert main(["simulate", "RM1", "--scenario", "constant", "--base-qps", "6",
                     "--peak-qps", "6", "--duration-s", "60"]) == 0
        lines = capsys.readouterr().out.splitlines()
        count = dict(zip(lines[1].split(), lines[3].split()))["queries"]
        assert count.isdigit() and 0 < int(count) < 1000


class TestSimulatePathsAgree:
    """Every `simulate` run goes through `run_sharded`: an in-memory and a
    streamed run of one tenant print the same row, column for column."""

    _ARGV = [
        "simulate", "RM1", "--scenario", "constant",
        "--base-qps", "60", "--peak-qps", "60", "--duration-s", "120",
    ]

    @staticmethod
    def _row(argv, capsys) -> dict[str, str]:
        """The result table's one row, by column."""
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        return dict(zip(lines[1].split(), lines[3].split()))

    def test_max_replicas_caps_a_single_tenant_run(self, capsys):
        capped = self._row(self._ARGV + ["--max-replicas", "2"], capsys)
        free = self._row(self._ARGV + ["--max-replicas", "256"], capsys)
        assert float(capped["peak_memory_gb"]) < float(free["peak_memory_gb"])

    def test_streaming_a_single_tenant_keeps_its_seed(self, capsys, tmp_path):
        in_memory = self._row(self._ARGV, capsys)
        streamed = self._row(self._ARGV + ["--stream-dir", str(tmp_path / "spool")], capsys)
        assert streamed == in_memory
