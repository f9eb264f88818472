#!/usr/bin/env python3
"""Quickstart: plan the paper's Figure 1 multicast through the unified API.

Builds the exact instance from Figure 1 of the paper (a slow source, three
fast destinations, one slow destination, network latency 1) and plans it
with :class:`repro.api.Planner` — the single entry point to every solver in
the library:

* the greedy schedule (ties Figure 1(a) at completion 10),
* greedy + leaf reversal (completion 8),
* the Section 4 dynamic program's optimum (8 — so greedy+reversal is
  optimal here), resolved from the same spec string as any scheduler,

and then plans the same instance through the **planning service**
(:mod:`repro.service`, SERVICE.md) — same requests, same results, but
served by a long-running control plane with cache tiers.

Run:  python examples/quickstart.py
"""

from repro import MulticastSet
from repro.api import Planner, PlanRequest
from repro.service import InProcessClient, PlanningService
from repro.simulation import simulate_schedule
from repro.viz import gantt_for_schedule, render_tree


def main() -> None:
    # --- the Figure 1 instance -------------------------------------------
    # fast workstations: o_send = 1, o_receive = 1
    # slow workstations: o_send = 2, o_receive = 3
    mset = MulticastSet.from_overheads(
        source=(2, 3),
        destinations=[(1, 1), (1, 1), (1, 1), (2, 3)],
        latency=1,
    )
    print(f"instance: {mset}\n")
    planner = Planner()

    # --- the paper's greedy (Section 2) ----------------------------------
    greedy = planner.plan(mset, solver="greedy")
    print(f"greedy schedule   R_T = {greedy.value:g} "
          f"(layered: {greedy.schedule.is_layered()})")
    print(render_tree(greedy.schedule), "\n")

    # --- leaf reversal (Section 3) ----------------------------------------
    refined = planner.plan(mset, solver="greedy+reversal")
    print(f"greedy + reversal R_T = {refined.value:g}")
    print(render_tree(refined.schedule), "\n")

    # --- exact optimum via limited-heterogeneity DP (Section 4) -----------
    # same entry point, no special case: "dp" is just another solver spec
    optimum = planner.plan(PlanRequest(instance=mset, solver="dp"))
    print(f"DP optimum (k = {mset.num_types} types): {optimum.value:g} "
          f"[exact={optimum.exact}, "
          f"{optimum.provenance['states_computed']} DP states]")
    assert refined.value == optimum.value

    # --- batch the whole comparison in one call ---------------------------
    batch = planner.plan_batch(
        [PlanRequest(instance=mset, solver=s, tag=s)
         for s in ("greedy", "greedy+reversal", "dp")]
    )
    print("\nbatched:", {r.tag: r.value for r in batch},
          f"({batch.cache_hits} served from cache)")

    # --- the same plans through the planning service ----------------------
    # an embedded PlanningService: same Planner engine behind a fair
    # admission queue and sharded workers (add store_path=... to persist)
    with PlanningService(num_shards=2) as service:
        client = InProcessClient(service, client_id="quickstart")
        for direct in (greedy, refined, optimum):
            served = client.plan(mset, solver=direct.solver)
            assert served.result.value == direct.value
            assert served.result.schedule == direct.schedule
        again = client.plan(mset, solver="dp")
        print(f"service: {client.metrics()['requests']} requests, identical "
              f"plans; repeated dp request served from tier={again.tier!r}")

    # --- execute on the simulated HNOW ------------------------------------
    result = simulate_schedule(refined.schedule)
    print(f"\nsimulated reception completion: {result.reception_completion:g} "
          f"({result.events_processed} events, matches the analytic model)\n")
    print(gantt_for_schedule(refined.schedule, width=64))


if __name__ == "__main__":
    main()
