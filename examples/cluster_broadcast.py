#!/usr/bin/env python3
"""Broadcast on a realistic mixed-generation NOW (the paper's motivation).

Section 1 motivates HNOW multicast with clusters that accumulate machine
generations.  This example builds a LAN of profiled workstations (four
generations spanning the published receive-send ratio range 1.05-1.85),
folds the affine costs at several message sizes (paper footnote 1), and
compares every scheduler in the library under the receive-send model.

It then replays the winning request through the planning service
(:mod:`repro.service`, SERVICE.md) with a persistent plan store,
asserting the served plan is identical to the direct ``Planner`` one and
showing the store answering after a simulated restart.

Run:  python examples/cluster_broadcast.py
"""

import tempfile

from repro.analysis import Table
from repro.api import Planner, PlanRequest, capable_solvers
from repro.model import instantiate, lan_network
from repro.service import InProcessClient, PlanningService
from repro.viz import render_tree


def main() -> None:
    # a 12-machine cluster: 4 new, 4 mid-generation, 4 old
    network = lan_network(
        {"ultra": 4, "pentium_ii": 3, "sparc5": 3, "sparc1": 2}
    )
    print(f"cluster of {len(network.machines)} machines; broadcast from the "
          f"oldest machine (sparc10)\n")

    planner = Planner()
    for message_length in (256, 4096, 65536):
        mset = instantiate(network, "sparc10", message_length)
        table = Table(
            f"broadcast completion, message = {message_length} bytes "
            f"(L = {mset.latency:g}, ratios in "
            f"[{mset.alpha_min:.2f}, {mset.alpha_max:.2f}])",
            ["algorithm", "completion", "vs best"],
        )
        # every capable solver, in one batch
        batch = planner.plan_batch(
            [PlanRequest(instance=mset, solver=name)
             for name in capable_solvers(mset)],
            on_error="skip",
        )
        results = {result.solver: result.value for result in batch}
        best = min(results.values())
        for name, value in sorted(results.items(), key=lambda kv: kv[1]):
            table.add_row([name, value, f"{value / best:.3f}x"])
        print(table.render())
        print()

    # show the winning tree for the mid-size message
    mset = instantiate(network, "sparc10", 4096)
    winner = planner.plan(mset, "greedy+reversal")
    print("greedy+reversal schedule at 4096 bytes:")
    print(render_tree(winner.schedule))

    # --- the same plan through the planning service -----------------------
    # a persistent store makes the plan survive service restarts: the
    # second service never solves, it warm-starts from disk
    with tempfile.TemporaryDirectory() as store_dir:
        with PlanningService(store_path=store_dir, num_shards=2) as service:
            served = InProcessClient(service).plan(mset, "greedy+reversal")
            assert served.result.value == winner.value
            assert served.result.schedule == winner.schedule
            print(f"\nservice plan identical to direct Planner plan "
                  f"(tier={served.tier!r})")
        with PlanningService(store_path=store_dir, num_shards=2) as service:
            replayed = InProcessClient(service).plan(mset, "greedy+reversal")
            assert replayed.result.schedule == winner.schedule
            print(f"after service restart: identical plan from "
                  f"tier={replayed.tier!r} (no solver ran)")


if __name__ == "__main__":
    main()
