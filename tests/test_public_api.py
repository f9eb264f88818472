"""Release-quality checks: public API surface and docs/code consistency."""

import importlib
import pathlib
import re

import pytest

import repro

REPO = pathlib.Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro",
    "repro.api",
    "repro.core",
    "repro.model",
    "repro.simulation",
    "repro.algorithms",
    "repro.collectives",
    "repro.workloads",
    "repro.analysis",
    "repro.viz",
    "repro.io",
    "repro.experiments",
    "repro.cli",
    "repro.service",
    "repro.conformance",
    "repro.perf",
]


class TestApiSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_imports(self, package):
        importlib.import_module(package)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_entries_resolve(self, package):
        mod = importlib.import_module(package)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{package}.__all__ lists missing {name!r}"

    def test_version_matches_pyproject(self):
        pyproject = (REPO / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"', pyproject, re.M).group(1)
        assert repro.__version__ == declared

    def test_every_public_symbol_documented(self):
        """Everything exported at top level carries a docstring."""
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"repro.{name} lacks a docstring"

    def test_every_module_has_docstring(self):
        src = REPO / "src" / "repro"
        for path in src.rglob("*.py"):
            text = path.read_text().lstrip()
            assert text.startswith(('"""', "'''")) or path.name == "__init__.py" and not text, (
                f"{path.relative_to(REPO)} lacks a module docstring"
            )

    def test_every_package_has_nonempty_doc(self):
        """Every src/repro/* package ships a real package docstring.

        Discovered from the filesystem (not the PACKAGES list) so a new
        package cannot land undocumented by forgetting to register it.
        """
        src = REPO / "src" / "repro"
        discovered = ["repro"] + sorted(
            f"repro.{path.parent.relative_to(src).as_posix().replace('/', '.')}"
            for path in src.rglob("__init__.py")
            if path.parent != src
        )
        assert set(PACKAGES) == set(discovered), (
            "PACKAGES list out of sync with src/repro packages"
        )
        for package in discovered:
            mod = importlib.import_module(package)
            assert mod.__doc__ and mod.__doc__.strip(), (
                f"{package} has an empty package docstring"
            )

    def test_core_algorithm_modules_cite_paper_sections(self):
        """dp/layered/bounds/greedy docstrings anchor to paper sections."""
        expectations = {
            "repro.core.dp": ("Section 4", "Theorem 2"),
            "repro.core.layered": ("Section 2", "Corollary 1"),
            "repro.core.bounds": ("Section 3", "Theorem 1"),
            "repro.core.greedy": ("Section 2", "Lemma 1"),
        }
        for module_name, references in expectations.items():
            doc = importlib.import_module(module_name).__doc__ or ""
            assert "Paper reference:" in doc, (
                f"{module_name} docstring lacks a 'Paper reference:' line"
            )
            for reference in references:
                assert reference in doc, (
                    f"{module_name} docstring does not cite {reference!r}"
                )

    def test_cli_help_runs(self, capsys):
        from repro.cli.main import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        assert "multicast" in capsys.readouterr().out.lower()


class TestDocsConsistency:
    def test_design_lists_every_experiment(self):
        from repro.experiments.runner import EXPERIMENTS

        design = (REPO / "DESIGN.md").read_text()
        for name in EXPERIMENTS:
            assert f"| {name} |" in design, f"DESIGN.md experiment index missing {name}"

    def test_experiments_md_covers_every_experiment(self):
        from repro.experiments.runner import EXPERIMENTS

        record = (REPO / "EXPERIMENTS.md").read_text()
        for name in EXPERIMENTS:
            assert re.search(rf"^## {name} ", record, re.M), (
                f"EXPERIMENTS.md has no section for {name}"
            )

    def test_readme_examples_exist(self):
        readme = (REPO / "README.md").read_text()
        for match in re.finditer(r"`([a-z_]+\.py)`", readme):
            name = match.group(1)
            assert (REPO / "examples" / name).exists(), (
                f"README references examples/{name} which does not exist"
            )

    def test_readme_schedulers_match_registry(self):
        from repro.api.solvers import solver_items

        init_doc = (REPO / "src/repro/algorithms/__init__.py").read_text()
        schedulers = [
            entry.name
            for entry in solver_items()
            # built-in adapters live in repro.api.solvers; other tests
            # register throwaway solvers of their own
            if entry.fn.__module__ == "repro.api.solvers"
            and not (entry.capabilities.exact or entry.capabilities.multi_group)
        ]
        assert len(schedulers) == 11
        for name in schedulers:
            assert f"``{name}``" in init_doc, (
                f"algorithms package docstring missing scheduler {name!r}"
            )

    def test_design_substitutions_section_present(self):
        design = (REPO / "DESIGN.md").read_text()
        assert "## 2. Substitutions" in design
        assert "discrete-event" in design

    def test_service_md_linked_and_covers_protocol(self):
        from repro.service import protocol

        service_md = (REPO / "SERVICE.md").read_text()
        for message_type in (*protocol.REQUEST_TYPES, *protocol.RESPONSE_TYPES):
            assert f"`{message_type}`" in service_md, (
                f"SERVICE.md does not document wire message type {message_type!r}"
            )
        assert "repro/plan-store-v1" in service_md
        assert "SERVICE.md" in (REPO / "README.md").read_text()
        assert "SERVICE.md" in (REPO / "API.md").read_text()

    def test_design_architecture_diagram_spans_layers(self):
        """DESIGN.md §1 shows the model -> core -> api -> service data flow."""
        design = (REPO / "DESIGN.md").read_text()
        for layer in ("repro.service", "repro.api", "CORE SOLVERS", "MODEL"):
            assert layer in design, f"DESIGN.md architecture missing {layer!r}"
        assert "FairQueue" in design and "PlanStore" in design

    def test_design_verification_covers_every_invariant(self):
        """DESIGN.md §4 documents the whole invariant catalogue."""
        from repro.conformance import available_invariants

        design = (REPO / "DESIGN.md").read_text()
        assert "## 4. Verification" in design
        for name in available_invariants() + ["service-parity"]:
            assert f"`{name}`" in design, (
                f"DESIGN.md Verification section missing invariant {name!r}"
            )

    def test_api_md_documents_the_conformance_engine(self):
        api = (REPO / "API.md").read_text()
        assert "## Verification — the conformance engine" in api
        for token in ("ConformanceRunner", "conformance replay",
                      "repro/conformance-v1"):
            assert token in api, f"API.md verification section missing {token!r}"

    def test_conformance_corpus_suites_documented(self):
        """The committed regression corpus ships its README."""
        readme = (REPO / "tests" / "corpus" / "README.md").read_text()
        assert "repro/conformance-v1" in readme
        assert "conformance replay" in readme

    def test_design_performance_section_covers_every_kernel(self):
        """DESIGN.md §5 documents the perf subsystem and its kernels."""
        from repro.perf import available_kernels

        design = (REPO / "DESIGN.md").read_text()
        assert "## 5. Performance" in design
        for name in available_kernels():
            assert f"{name}" in design, (
                f"DESIGN.md Performance section missing kernel {name!r}"
            )
        assert "speedup_vs_reference" in design
        assert "repro/perf-v1" in design

    def test_design_canonicalization_section(self):
        """DESIGN.md §6 documents canonicalization + amortized batching."""
        design = (REPO / "DESIGN.md").read_text()
        assert "## 6. Canonicalization & amortized batch planning" in design
        for token in (
            "power of two",
            "network_key",
            "group_solve",
            "max_total_states",
            "extended_to",
            "batch_amortized",
            "plan-batch",
        ):
            assert token in design, (
                f"DESIGN.md canonicalization section missing {token!r}"
            )

    def test_api_md_documents_batch_planning(self):
        """API.md covers the group-solve knobs and canonical-key stats."""
        api = (REPO / "API.md").read_text()
        for token in (
            "group_solve=",
            "prewarm_tables",
            "canonical_hits",
            "max_total_states",
            "plan-batch",
            "--no-group-solve",
            "speedup_vs_per_instance",
        ):
            assert token in api, f"API.md batch-planning docs missing {token!r}"

    def test_batch_fan_out_knobs_only_in_the_compatibility_note(self):
        """The removed ``jobs``/``executor`` knobs and ``--jobs`` flag are
        named only where API.md maps them to their replacement."""
        api = (REPO / "API.md").read_text()
        note = re.search(r"^## Compatibility notes\n.*?(?=^## |\Z)", api, re.M | re.S)
        assert note is not None and "serve --workers process" in note.group(0)
        docs = {
            "README.md": (REPO / "README.md").read_text(),
            "API.md": api.replace(note.group(0), ""),
        }
        for name, text in docs.items():
            for token in ("jobs=", "executor=", "--jobs"):
                assert token not in text, f"{name} still mentions {token!r}"
        for token in ("jobs=", "executor=", "--jobs", "BatchResult.jobs"):
            assert token in note.group(0)

    def test_batch_amortized_baseline_carries_the_floor(self):
        """The committed group-solve baseline enforces the >= 3x floor."""
        from repro.perf import load_baseline

        record = load_baseline(REPO / "BENCH_batch_amortized.json")
        assert record.floors.get("speedup_vs_per_instance") == 3.0
        assert record.summary["speedup_vs_per_instance"] >= 3.0

    def test_delta_replan_baseline_carries_the_floor(self):
        """The committed session-repair baseline enforces the >= 5x floor."""
        from repro.perf import load_baseline

        record = load_baseline(REPO / "BENCH_delta_replan.json")
        assert record.floors.get("speedup_vs_full_replan") == 5.0
        assert record.summary["speedup_vs_full_replan"] >= 5.0

    def test_design_repair_section(self):
        """DESIGN.md §7 documents sessions, repair and table pinning."""
        design = (REPO / "DESIGN.md").read_text()
        assert "## 7. Online planning under churn" in design
        for token in (
            "repro/membership-delta-v1",
            "same_network",
            "materialize schedule",
            "repair-identity",
            "delta_replan",
            "pin=True",
            "speedup_vs_full_replan",
        ):
            assert token in design, f"DESIGN.md repair section missing {token!r}"
        service_md = (REPO / "SERVICE.md").read_text()
        assert "repro/membership-delta-v1" in service_md
        assert "session-resume" in service_md

    def test_design_contention_section(self):
        """DESIGN.md §8 documents multi-group planning under contention."""
        design = (REPO / "DESIGN.md").read_text()
        assert "## 8. Concurrent multi-group planning" in design
        for token in (
            "MultiGroupPlanner",
            "mg-greedy-pack",
            "mg-round-robin",
            "mg-sequential",
            "multi-group-scenario",
            "derive_contention_instance",
            "makespan_ratio_vs_sequential",
            "repro/multi-group-v1",
        ):
            assert token in design, f"DESIGN.md contention section missing {token!r}"

    def test_api_md_documents_multi_group_planning(self):
        """API.md covers the multi-group facade, capability gate and CLI."""
        from repro.api import available_multi_group_solvers

        api = (REPO / "API.md").read_text()
        assert "## Multi-group planning under shared-sender contention" in api
        for token in (
            "MultiGroupPlanner",
            "plan_groups",
            "compare_strategies",
            "multi_group",
            "plan-groups",
            "repro/multi-group-v1",
            "DEFAULT_STRATEGY",
        ):
            assert token in api, f"API.md multi-group docs missing {token!r}"
        for name in available_multi_group_solvers():
            assert f"`{name}`" in api, (
                f"API.md multi-group docs missing strategy {name!r}"
            )

    def test_multi_group_baseline_carries_the_floor(self):
        """The committed contention baseline enforces the >= 1.5x floor."""
        from repro.perf import load_baseline

        record = load_baseline(REPO / "BENCH_multi_group.json")
        assert record.floors.get("makespan_ratio_vs_sequential") == 1.5
        assert record.summary["makespan_ratio_vs_sequential"] >= 1.5

    def test_design_vector_snapshot_section(self):
        """DESIGN.md §9 documents the vector backend + table snapshots."""
        design = (REPO / "DESIGN.md").read_text()
        assert "## 9. Vectorized DP backend & table snapshots" in design
        for token in (
            "backend=vector",
            "slab",
            "bit-identical",
            "dp_vector._numpy",
            "repro/table-snapshot-v1",
            "mmap",
            "zero-copy",
            "snapshot_dir",
            "dp_vector",
            "table_snapshot",
            "speedup_vs_scalar",
            "speedup_vs_cold_build",
        ):
            assert token in design, (
                f"DESIGN.md vector/snapshot section missing {token!r}"
            )

    def test_api_md_documents_dp_backends_and_table_config(self):
        """API.md covers backend specs, TableCacheConfig and snapshots."""
        api = (REPO / "API.md").read_text()
        for token in (
            "dp(backend=vector)",
            "dp(backend=scalar)",
            "TableCacheConfig",
            "table_config",
            "snapshot_dir",
            "save_snapshot",
            "load_snapshot",
            "--table-snapshots",
            "deprecated",
        ):
            assert token in api, f"API.md backend/snapshot docs missing {token!r}"

    def test_dp_vector_baseline_carries_the_floor(self):
        """The committed vector-engine baseline enforces the >= 2x floor."""
        from repro.perf import load_baseline

        record = load_baseline(REPO / "BENCH_dp_vector.json")
        assert record.floors.get("speedup_vs_scalar") == 2.0
        assert record.summary["speedup_vs_scalar"] >= 2.0

    def test_table_snapshot_baseline_carries_the_floor(self):
        """The committed warm-attach baseline enforces the >= 5x floor."""
        from repro.perf import load_baseline

        record = load_baseline(REPO / "BENCH_table_snapshot.json")
        assert record.floors.get("speedup_vs_cold_build") == 5.0
        assert record.summary["speedup_vs_cold_build"] >= 5.0

    def test_design_resilience_section(self):
        """DESIGN.md §10 documents fault injection site by site."""
        from repro.faults import SITES

        design = (REPO / "DESIGN.md").read_text()
        assert "## 10. Fault injection & resilience" in design
        for site in SITES:
            assert f"`{site}`" in design, (
                f"DESIGN.md resilience section missing fault site {site!r}"
            )
        for token in (
            "FaultPlan",
            "inject()",
            "zero overhead",
            "chaos",
            "service_resilience",
            "recovery_throughput_ratio",
        ):
            assert token in design, (
                f"DESIGN.md resilience section missing {token!r}"
            )

    def test_service_md_documents_resilience_operations(self):
        """SERVICE.md covers retries, degradation, supervision, chaos."""
        service_md = (REPO / "SERVICE.md").read_text()
        assert "## Resilience & operations" in service_md
        for token in (
            "RetryPolicy",
            "reconnect()",
            "idempotent",
            "solve_deadline_s",
            "--deadline",
            "`degraded: true`",
            "startup_timeout_s",
            "shutdown_timeout_s",
            "worker_restarts",
            "errors_total",
            "degraded_served",
            "local_metrics",
            "hnow-multicast chaos",
            "REPRO_CHAOS_FUZZ_S",
            "recovery_throughput_ratio",
        ):
            assert token in service_md, (
                f"SERVICE.md resilience section missing {token!r}"
            )

    def test_service_resilience_baseline_carries_the_floor(self):
        """The committed recovery baseline enforces the >= 0.5x floor."""
        from repro.perf import load_baseline

        record = load_baseline(REPO / "BENCH_service_resilience.json")
        assert record.floors.get("recovery_throughput_ratio") == 0.5
        assert record.summary["recovery_throughput_ratio"] >= 0.5

    def test_api_md_documents_performance_tracking(self):
        api = (REPO / "API.md").read_text()
        assert "## Performance tracking" in api
        for token in ("PerfRunner", "perf compare", "repro/perf-v1",
                      "BENCH_"):
            assert token in api, f"API.md perf section missing {token!r}"

    def test_readme_documents_performance_tracking(self):
        readme = (REPO / "README.md").read_text()
        assert "Performance tracking" in readme
        assert "perf compare" in readme
        assert "repro/perf" in readme

    def test_committed_baselines_load_and_carry_the_floors(self):
        """The acceptance baselines exist, verify by digest, and commit
        the DP/greedy speedup floors the perf gate enforces."""
        from repro.perf import load_baseline

        dp = load_baseline(REPO / "BENCH_dp_scaling.json")
        greedy = load_baseline(REPO / "BENCH_greedy_scaling.json")
        assert dp.floors.get("speedup_vs_reference") == 3.0
        assert greedy.floors.get("speedup_vs_reference") == 2.0
        # the committed runs themselves must honor their own floors
        assert dp.summary["speedup_vs_reference"] >= 3.0
        assert greedy.summary["speedup_vs_reference"] >= 2.0

    def test_bench_file_per_experiment(self):
        """Every experiment id maps to at least one bench module."""
        mapping = {
            "E1": "bench_fig1.py",
            "E2": "bench_ratio.py",
            "E3": "bench_greedy_scaling.py",
            "E4": "bench_dp_scaling.py",
            "E5": "bench_leaf_reversal.py",
            "E6": "bench_bound_tightness.py",
            "E7": "bench_baselines.py",
            "E8": "bench_table_precompute.py",
            "E9": "bench_layered.py",
            "E10": "bench_ablation.py",
        }
        from repro.experiments.runner import EXPERIMENTS

        assert set(mapping) == set(EXPERIMENTS)
        for bench in mapping.values():
            assert (REPO / "benchmarks" / bench).exists(), bench
