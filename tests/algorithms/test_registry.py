"""The schedulers of repro.algorithms resolve through the one solver registry."""

import pytest

from repro.api.solvers import available_solvers, get_solver, register_solver, solver_items
from repro.exceptions import SolverError

SCHEDULERS = (
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
)


class TestRegistry:
    def test_known_names_present(self):
        names = available_solvers()
        for expected in SCHEDULERS:
            assert expected in names

    def test_get_scheduler_returns_callable(self, fig1_mset):
        assert get_solver("greedy")(fig1_mset).schedule.reception_completion == 10

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(SolverError, match="available"):
            get_solver("quantum")

    def test_double_registration_rejected(self):
        with pytest.raises(SolverError, match="twice"):
            register_solver("greedy", "dupe")(lambda m: None)

    def test_items_sorted_with_descriptions(self):
        items = list(solver_items())
        names = [entry.name for entry in items]
        assert names == sorted(names)
        assert all(entry.description for entry in items)

    def test_every_scheduler_produces_valid_schedule(self, fig1_mset):
        for name in SCHEDULERS:
            s = get_solver(name)(fig1_mset).schedule
            assert sorted(s.descendants(0)) == [1, 2, 3, 4], name
