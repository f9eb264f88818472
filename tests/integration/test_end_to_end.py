"""Integration: the full user pipeline, generate -> schedule -> run -> save."""

import json

import pytest

from repro.api.solvers import get_solver
from repro.analysis.metrics import critical_path
from repro.collectives.broadcast import broadcast_schedule
from repro.core.dp import solve_dp
from repro.io.serialization import load_schedule, save_json
from repro.model.linear import instantiate
from repro.model.machines import lan_network
from repro.simulation.executor import simulate_schedule
from repro.viz.ascii_tree import render_tree
from repro.viz.gantt import gantt_for_schedule
from repro.workloads.clusters import bounded_ratio_cluster
from repro.workloads.generator import multicast_from_cluster


class TestPipelineSynthetic:
    def test_generate_schedule_simulate_save_load(self, tmp_path):
        nodes = bounded_ratio_cluster(14, seed=11)
        mset = multicast_from_cluster(nodes, latency=3, source="slowest")
        schedule = get_solver("greedy+reversal")(mset).schedule
        result = simulate_schedule(schedule)
        assert result.reception_completion == schedule.reception_completion
        path = save_json(schedule, tmp_path / "schedule.json")
        loaded = load_schedule(path)
        assert loaded == schedule
        rerun = simulate_schedule(loaded)
        assert rerun.reception_times == result.reception_times

    def test_visualizations_render(self):
        nodes = bounded_ratio_cluster(8, seed=4)
        mset = multicast_from_cluster(nodes, latency=2)
        schedule = get_solver("greedy")(mset).schedule
        tree = render_tree(schedule)
        chart = gantt_for_schedule(schedule)
        assert all(nd.name in tree for nd in mset.nodes)
        assert "S" in chart and "R" in chart

    def test_critical_path_explains_completion(self):
        nodes = bounded_ratio_cluster(10, seed=2)
        mset = multicast_from_cluster(nodes, latency=2)
        schedule = get_solver("greedy+reversal")(mset).schedule
        path = critical_path(schedule)
        # recompute the completion along the critical path by hand
        t = 0.0
        for parent, child in zip(path, path[1:]):
            slot = schedule.slot_of(child)
            t = (
                schedule.reception_time(parent)
                + slot * mset.send(parent)
                + mset.latency
                + mset.receive(child)
            )
        assert t == pytest.approx(schedule.reception_completion)


class TestPipelineProfiledMachines:
    """The 'realistic cluster' path through the affine machine model."""

    def test_lan_broadcast_full_stack(self):
        net = lan_network({"ultra": 4, "pentium_ii": 3, "sparc5": 2, "sparc1": 2})
        mset = instantiate(net, "sparc10", message_length=4096)
        assert mset.correlated
        schedule = get_solver("greedy+reversal")(mset).schedule
        result = simulate_schedule(schedule)
        assert result.reception_completion == schedule.reception_completion
        # limited heterogeneity: 4 machine generations => k <= 4, DP feasible
        assert mset.num_types <= 4
        opt = solve_dp(mset)
        assert opt.value <= schedule.reception_completion + 1e-9

    def test_latency_regime_decides_star_vs_tree(self):
        from repro.model.linear import LinearCost, MachineSpec, NetworkSpec

        machines = tuple(
            MachineSpec(f"m{i}", LinearCost(20, 0.02), LinearCost(24, 0.024))
            for i in range(8)
        )
        # overhead-dominated network: recruiting helpers must pay off
        lan = NetworkSpec(machines=machines, latency=LinearCost(1, 0.0001))
        mset = instantiate(lan, "m0", message_length=1024)
        greedy = get_solver("greedy+reversal")(mset).schedule.reception_completion
        star = get_solver("star")(mset).schedule.reception_completion
        assert greedy < star
        # latency-dominated network (long-haul): the star is unbeatable and
        # greedy should find it
        wan = NetworkSpec(machines=machines, latency=LinearCost(5000, 0.1))
        mset = instantiate(wan, "m0", message_length=1024)
        greedy = get_solver("greedy+reversal")(mset).schedule.reception_completion
        star = get_solver("star")(mset).schedule.reception_completion
        assert greedy == star

    def test_cluster_broadcast_helper(self):
        nodes = bounded_ratio_cluster(9, seed=8)
        s = broadcast_schedule(nodes, nodes[3].name, latency=2)
        assert s.multicast.n == 8
        assert s.multicast.source.name == nodes[3].name
