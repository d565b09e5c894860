"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.numerics import available_backends


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("theorem1", "density", "delay-sweep", "fairness",
                        "multihop"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_run_and_cache_subcommands_registered(self):
        parser = build_parser()
        assert parser.parse_args(["run", "--list"]).command == "run"
        assert parser.parse_args(["cache", "info"]).command == "cache"

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_common_parameters_parsed(self):
        args = build_parser().parse_args(
            ["theorem1", "--mu", "2.0", "--q-target", "5", "--c0", "0.1",
             "--c1", "0.4"])
        assert args.mu == 2.0
        assert args.q_target == 5.0
        assert args.c0 == 0.1
        assert args.c1 == 0.4

    def test_runner_options_parsed(self):
        args = build_parser().parse_args(
            ["delay-sweep", "--jobs", "4", "--no-cache",
             "--cache-dir", "/tmp/somewhere"])
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/somewhere"


class TestCommands:
    def test_theorem1_command(self, capsys):
        exit_code = main(["theorem1", "--no-cache"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "converges" in output

    def test_theorem1_with_portrait(self, capsys):
        exit_code = main(["theorem1", "--portrait"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "q = q_target" in output

    def test_density_command(self, capsys):
        exit_code = main(["density", "--sigma", "0.3", "--t-end", "30",
                          "--no-cache"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "mean_queue" in output
        assert "P(Q > 2 q_target)" in output

    def test_delay_sweep_command(self, capsys):
        exit_code = main(["delay-sweep", "--delays", "0", "4",
                          "--t-end", "300", "--no-cache"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "queue_amplitude" in output

    def test_delay_sweep_parallel_jobs(self, capsys):
        exit_code = main(["delay-sweep", "--delays", "0", "4",
                          "--t-end", "200", "--jobs", "2", "--no-cache"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "queue_amplitude" in output

    def test_fairness_command(self, capsys):
        exit_code = main(["fairness", "--sources", "3", "--t-end", "300",
                          "--no-cache"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Jain index" in output

    def test_multihop_command(self, capsys):
        exit_code = main(["multihop", "--extra-hops", "1",
                          "--duration", "100", "--no-cache"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "throughput" in output
        assert "long/short" in output

    def test_subcommand_reads_cache_on_second_run(self, capsys, tmp_path):
        args = ["density", "--sigma", "0.3", "--t-end", "20",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        info = capsys.readouterr().out
        assert "entries" in info


def _forbid_solves(monkeypatch):
    """Make any design solve, in-process theorem check or runner call fail."""
    import repro.cli
    import repro.design

    def no_solve(*args, **kwargs):
        raise AssertionError("a design solve ran")

    monkeypatch.setattr(repro.design, "design_gains", no_solve)
    monkeypatch.setattr(repro.design, "solve_stationary", no_solve)
    monkeypatch.setattr(repro.cli, "verify_theorem1", no_solve)
    monkeypatch.setattr(repro.cli, "run_jobs", no_solve)


class TestDesignActionOptions:
    """Each ``repro design`` action parses only the options it reads."""

    SWEEP = ["design", "sweep", "--n-c0", "2", "--n-c1", "2",
             "--n-q-target", "1", "--n-mu", "1", "--top-k", "2",
             "--t-end", "60"]
    STATIONARY = ["design", "stationary", "--nq", "30", "--nv", "24"]

    @pytest.mark.parametrize("flags", [
        ["--jobs", "4"], ["--no-cache"], ["--cache-dir", "elsewhere"],
        ["--progress"], ["--retries", "3"], ["--timeout", "0.001"],
        ["--delay", "5"], ["--method", "adi"], ["--nq", "200"],
        ["--nv", "20"], ["--q-max", "50"], ["--v-span", "2"],
        ["--check-marching"], ["--stepper", "adi"],
    ])
    def test_sweep_rejects_option(self, flags, capsys, monkeypatch):
        _forbid_solves(monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            main(self.SWEEP + flags)
        assert exit_info.value.code == 2
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--n-c0", "3"], ["--n-c1", "3"], ["--n-q-target", "2"],
        ["--n-mu", "2"], ["--top-k", "3"], ["--chunk-size", "7"],
        ["--retention", "moments"], ["--memmap-dir", "elsewhere"],
    ])
    def test_stationary_rejects_option(self, flags, capsys, monkeypatch):
        _forbid_solves(monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            main(self.STATIONARY + flags)
        assert exit_info.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_stationary_method_has_no_adi_alias(self, capsys, monkeypatch):
        _forbid_solves(monkeypatch)
        with pytest.raises(SystemExit) as exit_info:
            main(self.STATIONARY + ["--method", "adi"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'adi'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--stepper", "adi"],
                                       ["--t-end", "50"]])
    def test_stationary_marching_option_needs_check_marching(
            self, flags, capsys, monkeypatch):
        _forbid_solves(monkeypatch)
        assert main(self.STATIONARY + flags) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ")
        assert flags[0] in error and "--check-marching" in error

    def test_stationary_marching_options_with_check_marching(self, capsys):
        assert main(self.STATIONARY + ["--check-marching", "--stepper",
                                       "adi", "--t-end", "20"]) == 0
        assert "versus marching to t=20" in capsys.readouterr().out

    def test_sweep_help_points_at_parallel_matrix(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["design", "sweep", "--help"])
        assert exit_info.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "repro run design-gain-grid --jobs N" in help_text


class TestRunCommand:
    def test_list_matrices(self, capsys):
        exit_code = main(["run", "--list"])
        output = capsys.readouterr().out
        assert exit_code == 0
        for name in ("density-grid", "delay-grid", "ensemble-grid",
                     "theorem1-grid", "des-dumbbell", "des-parking-lot",
                     "des-chain", "des-mesh", "des-crossval"):
            assert name in output

    def test_des_scenario_matrix_runs(self, capsys):
        exit_code = main(["run", "des-dumbbell", "--t-end", "5", "--seed",
                          "3", "--no-cache"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "n_sources=64" in output
        assert "utilization" in output
        assert "failed         : 0" in output

    def test_run_without_matrix_errors(self, capsys):
        assert main(["run"]) == 2

    def test_unknown_matrix_rejected(self, capsys):
        assert main(["run", "no-such-grid", "--no-cache"]) == 2
        assert "unknown experiment matrix" in capsys.readouterr().err

    def test_matrix_parallel_then_fully_cached(self, capsys, tmp_path):
        """Acceptance: >=12 jobs in parallel, then served entirely from cache."""
        args = ["run", "density-grid", "--t-end", "15", "--jobs", "2",
                "--seed", "3", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "cache hits     : 0" in first
        assert "computed       : 12" in first

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cache hits     : 12" in second
        assert "computed       : 0" in second

        # The tabulated physics numbers are identical in both runs.
        first_rows = [line for line in first.splitlines() if "sigma=" in line]
        second_rows = [line.replace("cached", "ok    ")
                       for line in second.splitlines() if "sigma=" in line]
        assert [row.split("|")[2:] for row in first_rows] == \
            [row.split("|")[2:] for row in second_rows]

    def test_cache_list_and_clear(self, capsys, tmp_path):
        # The theorem1 matrix runs as 4 batched chunk jobs (12 grid points).
        run_args = ["run", "theorem1-grid", "--t-end", "150",
                    "--cache-dir", str(tmp_path)]
        assert main(run_args) == 0
        capsys.readouterr()
        assert main(["cache", "list", "--cache-dir", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert "theorem1_batch_point" in listing
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        cleared = capsys.readouterr().out
        assert "removed 4" in cleared


class TestErrorExitCodes:
    """A library error ends in one ``error:`` line on stderr, no traceback."""

    @pytest.mark.parametrize("command", [
        ["theorem1"],
        ["density", "--t-end", "1"],
        ["delay-sweep", "--delays", "0", "--t-end", "1"],
        ["fairness", "--t-end", "1"],
        ["multihop", "--duration", "1"],
        ["ensemble", "--n-paths", "10", "--t-end", "1"],
        ["design", "stationary"],
    ], ids=["theorem1", "density", "delay-sweep", "fairness", "multihop",
            "ensemble", "design-stationary"])
    def test_failed_job_exits_1_with_error_line(self, command, capsys,
                                                monkeypatch):
        # Every job raises an injected fault before it computes anything,
        # and no retry is allowed, so each job fails on purpose.
        monkeypatch.setenv("REPRO_FAULTS", json.dumps({"transient_every": 1}))
        assert main(command + ["--no-cache"]) == 1
        error = capsys.readouterr().err
        assert error.startswith("error: ")
        assert error.count("\n") == 1
        assert "jobs failed" in error and "InjectedTransientError" in error
        assert "Traceback" not in error

    def test_failing_job_input_exits_1(self, capsys):
        assert main(["ensemble", "--n-paths", "0", "--no-cache"]) == 1
        error = capsys.readouterr().err
        assert error.startswith("error: ")
        assert "n_paths must be at least 1" in error

    @pytest.mark.parametrize("backend", available_backends())
    def test_stationary_residual_floor_names_q_max(self, backend, capsys):
        command = ["design", "stationary", "--nq", "20", "--nv", "16",
                   "--backend", backend, "--no-cache"]
        assert main(command) == 1
        error = capsys.readouterr().err
        assert error.startswith("error: ")
        assert error.count("\n") == 1
        assert "--q-max" in error and "Traceback" not in error
        assert main(command + ["--q-max", "40"]) == 0
        assert "residual" in capsys.readouterr().out

    def test_configuration_error_keeps_exit_2(self, capsys):
        assert main(["run", "no-such-grid", "--no-cache"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestIgnoredFlagsRejected:
    """A flag that the other options would make a no-op exits 2."""

    @pytest.mark.parametrize("command", [
        ["theorem1"], ["density"], ["delay-sweep"], ["fairness"],
        ["multihop"], ["ensemble"], ["run", "density-grid"],
        ["design", "stationary"],
    ], ids=lambda command: "-".join(command))
    def test_timeout_needs_parallel_jobs(self, command, capsys, monkeypatch):
        _forbid_solves(monkeypatch)
        assert main(command + ["--timeout", "5", "--no-cache"]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ")
        assert "--timeout" in error and "--jobs" in error

    def test_timeout_with_parallel_jobs_accepted(self, capsys):
        assert main(["theorem1", "--jobs", "2", "--timeout", "60",
                     "--no-cache"]) == 0
        assert "converges" in capsys.readouterr().out

    @pytest.mark.parametrize("retention", ["moments", "none"])
    @pytest.mark.parametrize("command", [
        ["ensemble"], ["run", "ensemble-grid"], ["design", "sweep"],
    ], ids=lambda command: "-".join(command))
    def test_memmap_dir_needs_full_retention(self, command, retention,
                                             tmp_path, capsys, monkeypatch):
        _forbid_solves(monkeypatch)
        assert main(command + ["--retention", retention, "--memmap-dir",
                               str(tmp_path)]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ")
        assert "--memmap-dir" in error and "--retention full" in error

    RUNNER_FLAGS = [["--jobs", "2"], ["--timeout", "5"], ["--retries", "3"],
                    ["--no-cache"], ["--cache-dir", "elsewhere"],
                    ["--progress"]]

    @pytest.mark.parametrize("flags", RUNNER_FLAGS,
                             ids=lambda flags: flags[0])
    def test_portrait_rejects_runner_flags(self, flags, capsys, monkeypatch):
        _forbid_solves(monkeypatch)
        assert main(["theorem1", "--portrait"] + flags) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ")
        assert flags[0] in error and "--portrait" in error

    @pytest.mark.parametrize("flags", RUNNER_FLAGS,
                             ids=lambda flags: flags[0])
    def test_check_marching_rejects_runner_flags(self, flags, capsys,
                                                 monkeypatch):
        _forbid_solves(monkeypatch)
        assert main(["design", "stationary", "--check-marching", "--t-end",
                     "5"] + flags) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: ")
        assert flags[0] in error and "--check-marching" in error

    def test_in_process_error_names_the_first_runner_flag(self, capsys,
                                                          monkeypatch):
        _forbid_solves(monkeypatch)
        assert main(["theorem1", "--portrait", "--no-cache", "--retries", "3",
                     "--timeout", "5", "--jobs", "2"]) == 2
        error = capsys.readouterr().err
        assert error.startswith("error: --jobs ")
        assert error.count("\n") == 1

    def test_memmap_dir_with_full_retention_accepted(self, tmp_path, capsys):
        assert main(["ensemble", "--memmap-dir", str(tmp_path), "--n-paths",
                     "10", "--t-end", "1", "--no-cache"]) == 0
        assert "retention=full" in capsys.readouterr().out
