"""Unit tests for the exact branch-and-bound solver."""

import pytest

from repro.core.brute_force import optimal_completion_exact, solve_exact
from repro.core.greedy import greedy_schedule
from repro.core.layered import _enumerate_trees
from repro.core.leaf_reversal import reverse_leaves
from repro.core.multicast import MulticastSet
from repro.exceptions import SolverError


class TestExactValues:
    def test_figure1_optimum(self, fig1_mset):
        sol = solve_exact(fig1_mset)
        assert sol.value == 8
        assert sol.schedule.reception_completion == 8

    def test_single_destination(self):
        m = MulticastSet.from_overheads((3, 4), [(1, 2)], 2)
        assert solve_exact(m).value == 3 + 2 + 2

    def test_never_above_any_heuristic(self, small_random_msets):
        from repro.api.solvers import capable_solvers, get_solver

        for m in small_random_msets:
            opt = solve_exact(m).value
            for name in capable_solvers(m):
                assert opt <= get_solver(name)(m).schedule.reception_completion + 1e-9

    def test_never_above_enumerated_insertion_trees(self):
        # cross-check against a full (unpruned) enumeration of canonical
        # insertion-order trees on a tiny instance
        m = MulticastSet.from_overheads((2, 3), [(1, 1), (2, 3), (3, 4)], 1)
        best = min(s.reception_completion for s in _enumerate_trees(m))
        assert solve_exact(m).value <= best + 1e-9

    def test_seeded_with_reversal_upper_bound(self, small_random_msets):
        for m in small_random_msets:
            seed = reverse_leaves(greedy_schedule(m)).reception_completion
            assert solve_exact(m).value <= seed

    def test_wrapper(self, fig1_mset):
        assert optimal_completion_exact(fig1_mset) == 8


class TestExactGuardRails:
    def test_size_guard(self):
        m = MulticastSet.from_overheads((1, 1), [(1, 1)] * 11, 1)
        with pytest.raises(SolverError, match="limited to"):
            solve_exact(m)

    def test_size_guard_override(self):
        m = MulticastSet.from_overheads((1, 1), [(1, 1)] * 11, 1)
        sol = solve_exact(m, max_destinations=11)
        assert sol.value > 0

    def test_node_budget_enforced(self):
        # heterogeneous 8-destination instance with a hopeless budget
        m = MulticastSet.from_overheads(
            (5, 9), [(1, 2), (2, 3), (3, 5), (4, 7), (5, 9), (6, 10), (7, 12), (8, 13)], 1
        )
        with pytest.raises(SolverError, match="node budget"):
            solve_exact(m, node_budget=3)


class TestExactSolutionShape:
    def test_nodes_expanded_reported(self, fig1_mset):
        assert solve_exact(fig1_mset).nodes_expanded >= 1

    def test_schedule_is_canonical(self, small_random_msets):
        for m in small_random_msets:
            assert solve_exact(m).schedule.is_canonical()

    def test_symmetry_pruning_preserves_optimality(self):
        # many identical nodes: pruning collapses receiver symmetry; the
        # value must match the k=1 DP exactly
        from repro.core.dp import solve_dp

        m = MulticastSet.from_overheads((2, 2), [(2, 2)] * 7, 1)
        assert solve_exact(m).value == pytest.approx(solve_dp(m).value)
