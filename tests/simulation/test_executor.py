"""Unit tests for schedule execution on the simulated HNOW."""

import pytest

from repro.core.greedy import greedy_schedule
from repro.core.leaf_reversal import reverse_leaves
from repro.core.schedule import Schedule
from repro.exceptions import SimulationError
from repro.simulation.executor import simulate_schedule
from repro.simulation.jitter import proportional_jitter, uniform_jitter


class TestExactExecution:
    def test_figure1_greedy_verified(self, fig1_mset):
        result = simulate_schedule(greedy_schedule(fig1_mset))
        assert result.reception_completion == 10

    def test_all_schedulers_verify(self, small_random_msets):
        from repro.api.solvers import capable_solvers, get_solver

        for m in small_random_msets:
            for name in capable_solvers(m):
                schedule = get_solver(name)(m).schedule
                result = simulate_schedule(schedule)  # raises on divergence
                assert result.reception_completion == pytest.approx(
                    schedule.reception_completion
                )

    def test_slotted_schedule_with_idle(self, fig1_mset):
        gapped = Schedule(fig1_mset, {0: [(1, 1), (2, 3)], 1: [(3, 2), (4, 5)]})
        result = simulate_schedule(gapped)
        assert result.reception_completion == pytest.approx(
            gapped.reception_completion
        )

    def test_trace_has_n_sends_and_receives(self, fig1_mset):
        result = simulate_schedule(greedy_schedule(fig1_mset))
        sends = [iv for iv in result.trace.intervals if iv.kind == "send"]
        recvs = [iv for iv in result.trace.intervals if iv.kind == "receive"]
        assert len(sends) == fig1_mset.n
        assert len(recvs) == fig1_mset.n

    def test_flights_have_latency(self, fig1_mset):
        result = simulate_schedule(greedy_schedule(fig1_mset))
        for flight in result.trace.flights:
            assert flight.arrival - flight.departure == pytest.approx(
                fig1_mset.latency
            )

    def test_busy_durations_match_overheads(self, fig1_mset):
        result = simulate_schedule(greedy_schedule(fig1_mset))
        for iv in result.trace.intervals:
            expected = (
                fig1_mset.send(iv.node)
                if iv.kind == "send"
                else fig1_mset.receive(iv.node)
            )
            assert iv.end - iv.start == pytest.approx(expected)

    def test_delivery_completion_property(self, fig1_mset):
        s = reverse_leaves(greedy_schedule(fig1_mset))
        result = simulate_schedule(s)
        assert result.delivery_completion == pytest.approx(s.delivery_completion)

    def test_events_counted(self, fig1_mset):
        result = simulate_schedule(greedy_schedule(fig1_mset))
        assert result.events_processed > 0


class TestJitteredExecution:
    def test_jitter_with_verify_rejected(self, fig1_mset):
        with pytest.raises(SimulationError, match="jitter"):
            simulate_schedule(
                greedy_schedule(fig1_mset), jitter=uniform_jitter(0.1), verify=True
            )

    def test_jitter_changes_times_deterministically(self, fig1_mset):
        s = greedy_schedule(fig1_mset)
        a = simulate_schedule(s, jitter=uniform_jitter(0.3, seed=1), verify=False)
        b = simulate_schedule(s, jitter=uniform_jitter(0.3, seed=1), verify=False)
        c = simulate_schedule(s, jitter=uniform_jitter(0.3, seed=2), verify=False)
        assert a.reception_times == b.reception_times
        assert a.reception_times != c.reception_times

    def test_jitter_bounded_effect(self, fig1_mset):
        # total shift is at most amplitude * tree depth on any path
        s = greedy_schedule(fig1_mset)
        amp = 0.25
        result = simulate_schedule(s, jitter=uniform_jitter(amp, seed=3), verify=False)
        for v in range(1, fig1_mset.n + 1):
            depth = 0
            w = v
            while w != 0:
                w = s.parent_of(w)
                depth += 1
            assert abs(result.reception_times[v] - s.reception_time(v)) <= amp * depth + 1e-9

    def test_proportional_jitter_fraction_validated(self):
        with pytest.raises(ValueError):
            proportional_jitter(1.0, 1.5)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            uniform_jitter(-0.1)

    def test_no_overlap_even_under_jitter(self, small_random_msets):
        for m in small_random_msets:
            s = greedy_schedule(m)
            result = simulate_schedule(
                s, jitter=proportional_jitter(m.latency, 0.2, seed=5), verify=False
            )
            result.trace.assert_no_overlap()
