"""Unified solver registry: specs, capabilities, bounds, error messages."""

import pytest

from repro.api import (
    SolverCapabilities,
    available_bounds,
    available_solvers,
    bound_values,
    capable_solvers,
    get_solver,
    parse_spec,
    resolve,
    solver_items,
)
from repro.core.multicast import MulticastSet
from repro.exceptions import SolverError


class TestSpecParsing:
    def test_bare_name(self):
        assert parse_spec("greedy+reversal") == ("greedy+reversal", {})

    def test_options(self):
        name, options = parse_spec("exact(max_destinations=12, node_budget=1000)")
        assert name == "exact"
        assert options == {"max_destinations": 12, "node_budget": 1000}

    def test_non_literal_value_passes_as_string(self):
        assert parse_spec("dp(mode=fast)") == ("dp", {"mode": "fast"})

    def test_malformed_specs_raise(self):
        with pytest.raises(SolverError, match="malformed"):
            parse_spec("dp(max_states)")
        with pytest.raises(SolverError, match="spec must be a string"):
            parse_spec(42)

    def test_resolve_returns_entry_and_options(self):
        entry, options = resolve("exact(max_destinations=11)")
        assert entry.name == "exact"
        assert options == {"max_destinations": 11}


class TestRegistry:
    def test_every_scheduler_plus_exact_solvers_registered(self):
        names = available_solvers()
        for solver in (
            "greedy",
            "greedy+reversal",
            "greedy+ls",
            "fnf",
            "binomial",
            "binomial-ff",
            "postal",
            "star",
            "star-naive",
            "chain",
            "random",
            "dp",
            "exact",
        ):
            assert solver in names

    def test_unknown_solver_error_lists_available(self):
        with pytest.raises(SolverError) as exc:
            get_solver("simulated-annealing")
        message = str(exc.value)
        assert "unknown solver 'simulated-annealing'" in message
        assert "greedy+reversal" in message  # the message names alternatives

    def test_capability_metadata(self):
        dp = get_solver("dp")
        assert dp.capabilities.exact
        assert dp.capabilities.requires_k_types is not None
        assert "2k" in dp.capabilities.complexity
        exact = get_solver("exact")
        assert exact.capabilities.exact and exact.capabilities.max_n == 10
        greedy = get_solver("greedy")
        assert not greedy.capabilities.exact
        assert greedy.capabilities.complexity == "O(n log n)"

    def test_display_name_marks_exact_solvers(self):
        assert get_solver("dp").display_name == "dp (optimal)"
        assert get_solver("greedy").display_name == "greedy"

    def test_capable_solvers_excludes_exact_on_large_instances(self):
        big = MulticastSet.from_overheads((1, 1), [(1, 1)] * 20, 1)
        names = capable_solvers(big)
        assert "exact" not in names  # max_n=10
        assert "greedy+reversal" in names and "dp" in names

    def test_supports_honours_type_count(self):
        caps = SolverCapabilities(requires_k_types=1)
        two_types = MulticastSet.from_overheads((2, 3), [(1, 1), (2, 3)], 1)
        assert not caps.supports(two_types)

    def test_solver_items_sorted_and_callable(self, fig1_mset):
        entries = list(solver_items())
        assert [e.name for e in entries] == sorted(e.name for e in entries)
        out = get_solver("greedy+reversal")(fig1_mset)
        assert out.schedule.reception_completion == 8


class TestBounds:
    def test_bound_providers_registered(self):
        assert available_bounds() == ["first-hop", "homogeneous-relaxation"]

    def test_bound_values_are_valid_lower_bounds(self, fig1_mset):
        values = bound_values(fig1_mset)
        assert set(values) == {"first-hop", "homogeneous-relaxation"}
        for value in values.values():
            assert value <= 8  # the known optimum


class TestUnregisterSolver:
    def test_ad_hoc_solver_is_removed(self):
        import uuid

        from repro.api import (
            SolverCapabilities,
            SolverOutput,
            available_solvers,
            register_solver,
            unregister_solver,
        )
        from repro.core.greedy import greedy_schedule

        name = f"throwaway-{uuid.uuid4().hex[:8]}"

        @register_solver(name, "test", capabilities=SolverCapabilities(max_n=0))
        def _throwaway(mset, **options):
            return SolverOutput(schedule=greedy_schedule(mset))

        assert name in available_solvers()
        assert unregister_solver(name) is True
        assert name not in available_solvers()
        assert unregister_solver(name) is False

    @pytest.mark.parametrize("name", ["dp", "exact", "greedy"])
    def test_builtin_oracles_reappear_on_the_next_lookup(self, name):
        """Dropping a built-in must not last the rest of the process —
        conformance sweeps would silently lose their optimality checks."""
        from repro.api import available_solvers, get_solver, unregister_solver

        assert unregister_solver(name) is True
        assert name in available_solvers()
        assert get_solver(name).capabilities.exact == (name != "greedy")


class TestRemovedAliases:
    """The aliases listed in API.md "Compatibility notes" stay gone and
    their replacements give the answers the aliases gave."""

    @pytest.mark.parametrize("name", [
        "get_scheduler",
        "available_schedulers",
        "scheduler_items",
        "solve_dp",
        "solve_exact",
    ])
    def test_legacy_api_name_is_gone(self, name, fig1_mset):
        import repro
        import repro.api

        with pytest.raises(AttributeError, match=name):
            getattr(repro.api, name)
        assert name not in repro.api.__all__
        if name == "get_scheduler":
            schedule = get_solver("greedy")(fig1_mset).schedule
            assert schedule.reception_completion == 10
        elif name == "available_schedulers":
            assert "greedy+reversal" in available_solvers()
        elif name == "scheduler_items":
            assert "greedy+reversal" in {entry.name for entry in solver_items()}
        else:
            assert getattr(repro, name)(fig1_mset).value == 8

    def test_registry_module_is_gone(self, fig1_mset):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.algorithms.registry")
        schedule = get_solver("greedy+reversal")(fig1_mset).schedule
        assert schedule.reception_completion == 8

    def test_array_engine_probe_is_gone(self):
        import repro.core.dp_vector as dp_vector

        assert not hasattr(dp_vector, "vector_engine")
        assert not hasattr(dp_vector, "NO_NUMPY_ENV")
        assert hasattr(dp_vector, "numpy_available")

    @pytest.mark.parametrize("knob", [{"jobs": 2}, {"executor": "thread"}])
    def test_batch_fan_out_knobs_are_gone(self, knob, fig1_mset):
        from repro.api import MultiGroupPlanner, Planner, plan_batch
        from repro.core.contention import MultiGroupInstance

        with pytest.raises(TypeError):
            plan_batch([fig1_mset], **knob)
        with pytest.raises(TypeError):
            Planner().plan_batch([fig1_mset], **knob)
        if "jobs" in knob:
            with pytest.raises(TypeError):
                MultiGroupPlanner().plan_groups(
                    MultiGroupInstance((fig1_mset,)), **knob
                )
        # the replacement: a serial call
        assert plan_batch([fig1_mset] * 2).values() == (8.0, 8.0)

    def test_batch_result_has_no_jobs(self):
        import dataclasses

        from repro.api import BatchResult

        assert "jobs" not in {f.name for f in dataclasses.fields(BatchResult)}
        assert not hasattr(BatchResult(results=()), "jobs")

    @pytest.mark.parametrize("command", ["compare", "plan-batch", "plan-groups"])
    def test_cli_jobs_flag_is_gone(self, command, tmp_path, fig1_mset, capsys):
        from repro.cli.main import main
        from repro.io.serialization import save_json

        path = str(save_json(fig1_mset, tmp_path / "instance.json"))
        with pytest.raises(SystemExit) as exit_info:
            main([command, path, "--jobs", "4"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
