"""Unit tests for the local-search improver."""

import pytest

from repro.algorithms.local_search import improve_schedule, local_search_schedule
from repro.core.brute_force import solve_exact
from repro.core.greedy import greedy_schedule
from repro.core.leaf_reversal import greedy_with_reversal
from repro.core.multicast import MulticastSet
from repro.core.schedule import Schedule
from repro.workloads.clusters import bounded_ratio_cluster
from repro.workloads.generator import multicast_from_cluster


class TestImproveSchedule:
    def test_never_worse_than_seed(self, small_random_msets):
        for m in small_random_msets:
            seed = greedy_with_reversal(m)
            result = improve_schedule(seed)
            assert (
                result.schedule.reception_completion
                <= seed.reception_completion + 1e-9
            )

    def test_improvement_property_consistent(self, fig1_mset):
        seed = greedy_schedule(fig1_mset)
        result = improve_schedule(seed)
        assert result.improvement == pytest.approx(
            result.seed_value - result.schedule.reception_completion
        )
        assert result.improvement >= 0

    def test_reaches_optimum_on_figure1(self, fig1_mset):
        # from the *unreversed* greedy (value 10) local search must find 8
        result = improve_schedule(greedy_schedule(fig1_mset))
        assert result.schedule.reception_completion == 8

    def test_improves_bad_seed_substantially(self):
        m = MulticastSet.from_overheads((2, 3), [(1, 1)] * 5 + [(2, 3)] * 2, 1)
        star = Schedule(m, {0: list(range(1, 8))})  # bad seed
        result = improve_schedule(star)
        assert result.schedule.reception_completion < star.reception_completion
        assert result.moves_applied > 0

    def test_local_optimum_for_small_instances(self, small_random_msets):
        # local search from greedy closes most of the gap; it must never
        # beat the true optimum, and stay within 10% of it on these sizes
        for m in small_random_msets:
            opt = solve_exact(m).value
            value = improve_schedule(greedy_with_reversal(m)).schedule.reception_completion
            assert opt <= value + 1e-9
            assert value <= 1.10 * opt

    def test_slotted_seed_compacted(self, fig1_mset):
        gapped = Schedule(fig1_mset, {0: [(1, 2), (2, 4), (3, 5), (4, 7)]})
        result = improve_schedule(gapped)
        assert result.schedule.is_canonical()
        assert (
            result.schedule.reception_completion
            <= gapped.reception_completion + 1e-9
        )

    def test_max_rounds_respected(self, two_class_mset):
        result = improve_schedule(
            greedy_schedule(two_class_mset), max_rounds=1
        )
        assert result.rounds <= 1

    def test_without_reversal(self, fig1_mset):
        result = improve_schedule(greedy_schedule(fig1_mset), apply_reversal=False)
        assert result.schedule.reception_completion <= 10


class TestRegisteredScheduler:
    def test_registered(self, fig1_mset):
        from repro.api.solvers import get_solver

        s = get_solver("greedy+ls")(fig1_mset).schedule
        assert s.reception_completion == 8

    def test_never_above_greedy_reversal(self):
        for seed in range(4):
            nodes = bounded_ratio_cluster(12, seed)
            m = multicast_from_cluster(nodes, latency=2)
            assert (
                local_search_schedule(m).reception_completion
                <= greedy_with_reversal(m).reception_completion + 1e-9
            )
