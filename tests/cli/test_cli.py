"""End-to-end tests for the command-line interface."""

import json

import pytest

from repro.cli.main import main
from repro.io.serialization import load_multicast, load_schedule, save_json


@pytest.fixture
def instance_file(fig1_mset, tmp_path):
    return str(save_json(fig1_mset, tmp_path / "instance.json"))


class TestGenerate:
    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "-n", "5", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro/multicast-v1"
        assert len(payload["destinations"]) == 5

    def test_generate_to_file(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["generate", "-n", "4", "-o", str(out)]) == 0
        assert load_multicast(out).n == 4

    def test_generate_two_class(self, capsys):
        assert main(["generate", "--kind", "two-class", "-n", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        sends = {d["send"] for d in payload["destinations"]}
        assert len(sends) <= 2


class TestSchedule:
    def test_schedule_default_algorithm(self, instance_file, capsys):
        assert main(["schedule", instance_file]) == 0
        out = capsys.readouterr().out
        assert "R_T=8" in out

    def test_schedule_tree_output(self, instance_file, capsys):
        assert main(["schedule", instance_file, "--algorithm", "greedy", "--tree"]) == 0
        out = capsys.readouterr().out
        assert "[source]" in out and "R_T=10" in out

    def test_schedule_exact(self, instance_file, capsys):
        assert main(["schedule", instance_file, "--algorithm", "exact"]) == 0
        assert "R_T=8" in capsys.readouterr().out

    def test_schedule_dp(self, instance_file, capsys):
        assert main(["schedule", instance_file, "--algorithm", "dp"]) == 0
        assert "R_T=8" in capsys.readouterr().out

    def test_schedule_writes_output(self, instance_file, tmp_path, capsys):
        out = tmp_path / "sched.json"
        assert main(["schedule", instance_file, "-o", str(out)]) == 0
        assert load_schedule(out).reception_completion == 8

    def test_schedule_exact_marks_optimal(self, instance_file, capsys):
        assert main(["schedule", instance_file, "--algorithm", "dp"]) == 0
        assert "optimal" in capsys.readouterr().out

    def test_schedule_bounds_report(self, instance_file, capsys):
        assert main(["schedule", instance_file, "--algorithm", "greedy",
                     "--bounds"]) == 0
        out = capsys.readouterr().out
        assert "bound report:" in out and "certified lower bound" in out

    def test_schedule_gantt(self, instance_file, capsys):
        assert main(["schedule", instance_file, "--gantt"]) == 0
        assert "S=sending" in capsys.readouterr().out


class TestSimulate:
    def test_simulate_verified(self, instance_file, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        main(["schedule", instance_file, "-o", str(sched)])
        capsys.readouterr()
        assert main(["simulate", str(sched)]) == 0
        assert "verified" in capsys.readouterr().out

    def test_simulate_with_jitter(self, instance_file, tmp_path, capsys):
        sched = tmp_path / "sched.json"
        main(["schedule", instance_file, "-o", str(sched)])
        capsys.readouterr()
        assert main(["simulate", str(sched), "--jitter", "0.2"]) == 0
        assert "jitter" in capsys.readouterr().out


class TestCompare:
    def test_compare_lists_all(self, instance_file, capsys):
        assert main(["compare", instance_file]) == 0
        out = capsys.readouterr().out
        for name in ("greedy", "binomial", "star", "dp (optimal)", "exact (optimal)"):
            assert name in out

    def test_compare_runs_are_identical(self, instance_file, capsys):
        assert main(["compare", instance_file]) == 0
        first = capsys.readouterr().out
        assert main(["compare", instance_file]) == 0
        assert capsys.readouterr().out == first


class TestPlanBatch:
    @pytest.fixture
    def sweep_files(self, tmp_path):
        from repro.core.multicast import MulticastSet

        paths = []
        for i, (fast, slow) in enumerate([(3, 1), (2, 2), (5, 3), (1, 4)]):
            mset = MulticastSet.from_overheads(
                source=(2, 3),
                destinations=[(1, 1)] * fast + [(2, 3)] * slow,
                latency=1,
            )
            paths.append(str(save_json(mset, tmp_path / f"inst{i}.json")))
        return paths

    def test_plan_batch_group_solve(self, sweep_files, capsys):
        assert main(["plan-batch", "--solver", "dp", *sweep_files]) == 0
        out = capsys.readouterr().out
        for path in sweep_files:
            assert f"{path}: R_T=" in out
        assert "group-solve" in out and "tables built=1" in out

    def test_no_group_solve_escape_hatch_matches(self, sweep_files, capsys):
        assert main(["plan-batch", "--solver", "dp", *sweep_files]) == 0
        grouped = capsys.readouterr().out.splitlines()
        args = ["plan-batch", "--solver", "dp", "--no-group-solve", *sweep_files]
        assert main(args) == 0
        direct = capsys.readouterr().out.splitlines()
        # identical per-instance results; only the summary line differs
        assert grouped[:-1] == direct[:-1]
        assert "per-instance" in direct[-1]

    def test_plan_batch_json_lines(self, sweep_files, capsys):
        assert main(["plan-batch", "--json", *sweep_files]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines[:-1]]
        assert all(r["format"] == "repro/plan-result-v1" for r in records)

    def test_missing_instance_is_usage_error(self, tmp_path, capsys):
        assert main(["plan-batch", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_instance_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json{")
        assert main(["plan-batch", str(bad)]) == 2
        assert "cannot load instance" in capsys.readouterr().err

    def test_unknown_solver_is_usage_error(self, sweep_files, capsys):
        assert main(["plan-batch", "--solver", "nope", *sweep_files]) == 2
        assert "unknown solver" in capsys.readouterr().err


class TestExperimentAndFig1:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "completes at" in out and "Figure 1(a):" in out

    def test_experiment_selection(self, capsys):
        assert main(["experiment", "E1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_experiment_markdown(self, capsys):
        assert main(["experiment", "E1", "--markdown"]) == 0
        assert "| schedule |" in capsys.readouterr().out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["experiment", "E42"]) == 2
        assert "error:" in capsys.readouterr().err


class TestServiceCommands:
    @pytest.fixture
    def populated_store(self, fig1_mset, tmp_path):
        from repro.service import InProcessClient, PlanningService

        store = tmp_path / "planstore"
        with PlanningService(store_path=store, num_shards=1) as service:
            client = InProcessClient(service)
            client.plan(fig1_mset, solver="greedy")
            client.plan(fig1_mset, solver="dp")
        return str(store)

    def test_submit_against_running_server(self, instance_file, tmp_path, capsys):
        from repro.service import PlanningService

        store = tmp_path / "planstore"
        service = PlanningService(store_path=store, num_shards=1)
        host, port = service.start_background(tcp=True)
        try:
            assert main(["submit", "--host", host, "--port", str(port),
                         instance_file, "--solver", "dp"]) == 0
            out = capsys.readouterr().out
            assert "R_T=8" in out and "tier=solve" in out and "optimal" in out
            # resubmission is served from the in-memory tier
            assert main(["submit", "--host", host, "--port", str(port),
                         instance_file, "--solver", "dp", "--metrics"]) == 0
            out = capsys.readouterr().out
            assert "tier=memory" in out and '"requests": 2' in out
        finally:
            service.stop()

    def test_submit_json_output_round_trips(self, instance_file, tmp_path, capsys):
        from repro.io.serialization import plan_result_from_dict
        from repro.service import PlanningService

        service = PlanningService(num_shards=1)
        host, port = service.start_background(tcp=True)
        try:
            assert main(["submit", "--host", host, "--port", str(port),
                         instance_file, "--json"]) == 0
            result = plan_result_from_dict(json.loads(capsys.readouterr().out))
            assert result.value == 8.0
        finally:
            service.stop()

    def test_submit_without_server_fails_cleanly(self, instance_file, capsys):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        assert main(["submit", "--port", str(free_port), instance_file]) == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_store_stats(self, populated_store, capsys):
        assert main(["store", "stats", populated_store]) == 0
        assert "2 live plans" in capsys.readouterr().out

    def test_store_verify(self, populated_store, capsys):
        assert main(["store", "verify", populated_store]) == 0
        out = capsys.readouterr().out
        assert "2 records verified" in out and "plan-result-v1" in out

    def test_store_compact(self, populated_store, capsys):
        assert main(["store", "compact", populated_store]) == 0
        assert "reclaimed 0 superseded records" in capsys.readouterr().out

    def test_store_missing_directory_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "no-store-here"
        assert main(["store", "verify", str(missing)]) == 2
        assert "not a directory" in capsys.readouterr().err
        assert not missing.exists()  # a read-only command must not mkdir


class TestConformanceCommands:
    def test_corpus_listing(self, capsys):
        assert main(["conformance", "corpus"]) == 0
        out = capsys.readouterr().out
        assert "quick" in out and "full" in out and "smoke" in out

    def test_corpus_write_then_run(self, tmp_path, capsys):
        corpus_dir = str(tmp_path / "corpus")
        assert main(["conformance", "corpus", "--suite", "smoke",
                     "-o", corpus_dir]) == 0
        assert "42 'smoke' scenarios" in capsys.readouterr().out
        assert main(["conformance", "run", "--corpus", corpus_dir,
                     "--no-service"]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out and "42 scenarios" in out

    def test_run_smoke_suite_with_service_parity(self, capsys):
        assert main(["conformance", "run", "--suite", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "service-parity" in out
        assert "0 violations" in out

    def test_run_unknown_suite_fails_cleanly(self, capsys):
        assert main(["conformance", "run", "--suite", "nope"]) == 2
        assert "unknown corpus suite" in capsys.readouterr().err

    def test_run_on_a_failure_only_directory_fails_cleanly(self, tmp_path, capsys):
        """Pointing --corpus at a failure-artifact directory must not pass
        vacuously with zero scenarios."""
        from repro.conformance import FailureRecord, ScenarioSpec, write_records

        root = str(tmp_path / "failures-only")
        write_records(root, [FailureRecord(
            ScenarioSpec("two-class", 3, 0), "scaling", "greedy", "msg")])
        assert main(["conformance", "run", "--corpus", root]) == 2
        assert "holds no scenario records" in capsys.readouterr().err

    def test_replay_malformed_record_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "missing-spec.json"
        path.write_text('{"format": "repro/conformance-v1", "kind": "scenario"}')
        assert main(["conformance", "replay", str(path)]) == 2
        assert "missing field 'spec'" in capsys.readouterr().err

    def test_fuzz_budget_and_determinism(self, capsys):
        assert main(["conformance", "fuzz", "--budget", "2s", "--seed", "5",
                     "--no-service"]) == 0
        out = capsys.readouterr().out
        assert "seed=5" in out and "0 violations" in out

    def test_fuzz_malformed_budget_fails_cleanly(self, capsys):
        assert main(["conformance", "fuzz", "--budget", "soon"]) == 2
        assert "malformed budget" in capsys.readouterr().err

    def test_replay_committed_corpus_file(self, capsys):
        import pathlib

        corpus = pathlib.Path(__file__).resolve().parents[1] / "corpus"
        case = str(corpus / "scenario-figure1.json")
        assert main(["conformance", "replay", case]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_replay_empty_path_fails_cleanly(self, tmp_path, capsys):
        assert main(["conformance", "replay", str(tmp_path / "nothing")]) == 2
        assert "no conformance records" in capsys.readouterr().err

    def test_run_catches_and_persists_failures(self, tmp_path, capsys):
        """A fraudulent solver drives exit 1, failure artifacts and the
        regression corpus; replaying the artifact reproduces bit-identically."""
        import uuid

        from repro.api import (
            SolverCapabilities,
            SolverOutput,
            register_solver,
            unregister_solver,
        )
        from repro.core.schedule import Schedule

        name = f"cli-broken-{uuid.uuid4().hex[:8]}"

        @register_solver(name, "test: chain claimed optimal",
                         capabilities=SolverCapabilities(exact=True, max_n=6))
        def _chain(mset, **options):
            return SolverOutput(
                schedule=Schedule(mset, {i: [i + 1] for i in range(mset.n)})
            )

        failures_dir = str(tmp_path / "failures")
        regression_dir = tmp_path / "regression"
        try:
            assert main(["conformance", "run", "--suite", "smoke", "--no-service",
                         "--failures", failures_dir,
                         "--regression", str(regression_dir)]) == 1
            out = capsys.readouterr().out
            assert "FAILURE" in out and "failure artifacts" in out
            cases = list(regression_dir.glob("*.json"))
            assert cases
            # while the bug is live, the artifact reproduces bit-identically
            assert main(["conformance", "replay", str(cases[0])]) == 0
            assert "reproduced bit-identically" in capsys.readouterr().out
        finally:
            unregister_solver(name)
        # after the "fix" (solver removed) the regression no longer reproduces
        assert main(["conformance", "replay", str(cases[0])]) == 1
        assert "NOT reproduced" in capsys.readouterr().out
