"""Smoke + verdict tests for the experiment harness (fast parameterizations).

Each experiment runs with shrunken parameters so the whole file stays quick;
the assertions check the *claims*, not just that code executes: Theorem 1
holds, reversal never regresses, DP == exact, Corollary 1 equality, etc.
"""

import math

import pytest

from repro.analysis.tables import Table
from repro.experiments import (
    bound_tightness,
    dp_scaling,
    layered_optimality,
    leaf_reversal,
    model_comparison,
    ratio_bound,
    scaling,
    table_precompute,
)
from repro.experiments.runner import (
    DESCRIPTIONS,
    EXPERIMENTS,
    render_report,
    run_all,
    run_experiment,
)
from repro.exceptions import ReproError


class TestRatioBound:
    def test_theorem1_never_violated(self):
        tables = ratio_bound.run(suites=("bounded-ratio",), exact_max_n=6)
        verdict = tables[-1]
        assert verdict.column("violations") == ["0"]

    def test_holds_column_all_yes_for_exact(self):
        (table, _verdict) = ratio_bound.run(suites=("uniform-ratio",), exact_max_n=6)
        kinds = table.column("opt kind")
        holds = table.column("holds")
        for kind, h in zip(kinds, holds):
            if kind == "exact":
                assert h == "yes"


class _CountingHeapq:
    """A stand-in for ``heapq`` that counts operations and comparisons.

    The sift routines mirror the standard library's pure-Python heap, with
    every ``<`` routed through a counter, so the greedy's heap work is
    measured exactly — the same on every machine and every run.
    """

    def __init__(self):
        self.ops = 0
        self.comparisons = 0

    def _less(self, a, b):
        self.comparisons += 1
        return a < b

    def heappush(self, heap, item):
        self.ops += 1
        heap.append(item)
        self._sift_toward_root(heap, len(heap) - 1)

    def heapreplace(self, heap, item):
        self.ops += 1
        top, heap[0] = heap[0], item
        self._sift_to_leaf(heap)
        return top

    def _sift_toward_root(self, heap, pos):
        item = heap[pos]
        while pos > 0:
            parent = (pos - 1) >> 1
            if not self._less(item, heap[parent]):
                break
            heap[pos] = heap[parent]
            pos = parent
        heap[pos] = item

    def _sift_to_leaf(self, heap):
        end, pos, item = len(heap), 0, heap[0]
        child = 1
        while child < end:
            right = child + 1
            if right < end and not self._less(heap[child], heap[right]):
                child = right
            heap[pos] = heap[child]
            pos, child = child, 2 * child + 1
        heap[pos] = item
        self._sift_toward_root(heap, pos)


class TestScalingExperiments:
    def test_greedy_scaling_fits_nlogn(self, monkeypatch):
        """Lemma 1 on a deterministic signal: heap comparisons, not time.

        The greedy binds ``heapq.heappush``/``heapreplace`` per call, so a
        counting shim swapped in for the module's ``heapq`` sees all of
        its priority-queue work.  Every bound below is exact and
        machine-independent.
        """
        import repro.core.greedy as greedy
        from repro.analysis.complexity import best_model, fit_nlogn
        from repro.workloads.clusters import bounded_ratio_cluster
        from repro.workloads.generator import multicast_from_cluster

        sizes = (512, 1024, 2048, 4096, 8192)
        comparisons = []
        for n in sizes:
            nodes = bounded_ratio_cluster(n + 1, 0)
            mset = multicast_from_cluster(nodes, latency=2, source="slowest")
            expected = greedy.greedy_schedule(mset)
            shim = _CountingHeapq()
            with monkeypatch.context() as patch:
                patch.setattr(greedy, "heapq", shim)
                counted = greedy.greedy_schedule(mset)
            # the shim is a faithful heap: the schedule does not change
            assert counted == expected
            assert counted.reception_times == expected.reception_times
            # one heap operation per inserted destination ...
            assert shim.ops == n
            # ... each costing at most 2 log2(heap size) comparisons
            assert shim.comparisons <= 2 * n * math.log2(n)
            comparisons.append(shim.comparisons)
        assert fit_nlogn(sizes, comparisons).r_squared > 0.99
        assert best_model(sizes, comparisons).model == "nlogn"
        # the wall-clock experiment itself still runs and reports its fit
        tables = scaling.run(sizes=(256, 512), repeats=1)
        assert "R^2" in tables[0].notes[0]

    def test_dp_optimality_table_all_equal(self):
        opt_table, _scale = dp_scaling.run(
            optimality_suites=("two-type",),
            optimality_max_n=6,
            sizes_by_k={1: (4, 8, 16)},
            repeats=1,
        )
        assert set(opt_table.column("equal")) == {"yes"}


class TestLeafReversalExperiment:
    def test_zero_regressions(self):
        (table,) = leaf_reversal.run(suites=("two-class", "uniform-ratio"))
        assert set(table.column("regressions")) == {"0"}

    def test_improvements_exist_somewhere(self):
        (table,) = leaf_reversal.run(suites=("two-class",))
        assert int(table.column("improved")[0]) > 0


class TestBoundTightness:
    def test_residual_zero(self):
        (table,) = bound_tightness.run(suites=("uniform-ratio",), exact_max_n=6)
        assert all(float(r) == 0.0 for r in table.column("mean additive residual"))

    def test_factor_exceeds_measured(self):
        (table,) = bound_tightness.run(suites=("bounded-ratio",), exact_max_n=6)
        factors = [float(x) for x in table.column("mean factor")]
        measured = [float(x) for x in table.column("mean measured ratio")]
        assert all(f > m for f, m in zip(factors, measured))


class TestModelComparison:
    def test_reference_loses_only_to_local_search(self):
        # every *baseline* sits at >= 1.0; our own local-search extension
        # is allowed to (and does) dip below the reference
        tables = model_comparison.run(suites=("two-class",))
        for table in tables:
            for name in table.headers[1:]:
                for cell in table.column(name):
                    if name == "greedy+ls":
                        assert float(cell) <= 1.0 + 1e-9
                    else:
                        assert float(cell) >= 1.0 - 1e-9


class TestTablePrecompute:
    def test_speedup_reported(self):
        (table,) = table_precompute.run(fresh_solve_samples=2)
        assert len(table.rows) == 2
        for cell in table.column("mean query (us)"):
            assert float(cell) >= 0


class TestLayeredOptimality:
    def test_no_mismatches(self):
        (table,) = layered_optimality.run(suites=("uniform-ratio",), max_n=4)
        assert set(table.column("equal")) == {"yes"}


class TestRunner:
    def test_every_experiment_registered_and_described(self):
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 11)}
        assert set(DESCRIPTIONS) == set(EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ReproError):
            run_experiment("E99")

    def test_run_all_selected(self):
        results = run_all(["e1"])
        assert list(results) == ["E1"]
        assert all(isinstance(t, Table) for t in results["E1"])

    def test_render_report_text_and_markdown(self):
        results = run_all(["E1"])
        text = render_report(results)
        assert "E1:" in text and "==" in text
        md = render_report(results, markdown=True)
        assert md.startswith("## E1")
