"""Command-line interface: ``hnow-multicast`` / ``python -m repro``.

Subcommands
-----------
``generate``    write a random instance to JSON
``schedule``    schedule an instance with any registered solver
``simulate``    execute a schedule on the discrete-event simulator
``compare``     run every capable solver on one instance (optionally parallel)
``plan-batch``  plan many instances in one amortized group-solve batch
``plan-groups`` compose concurrent groups under shared-sender contention
``experiment``  run the E1..E10 reproduction experiments
``fig1``        pretty-print the Figure 1 reproduction
``serve``       run the long-lived planning service (TCP JSON-lines)
``submit``      plan instances through a running service
``store``       inspect/verify/compact a persistent plan store
``conformance`` differential cross-solver verification (run/fuzz/corpus/replay)
``perf``        benchmark baselines: run kernels, compare, refresh (run/compare/baseline)

Every solver — the paper's greedy family, the baselines, the Section 4
``dp`` and the branch-and-bound ``exact`` oracle — is resolved through the
unified :mod:`repro.api` registry, so there are no per-solver special cases
here.  The service commands are documented operator-side in SERVICE.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import available_solvers
from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnow-multicast",
        description=(
            "Multicast scheduling for heterogeneous networks of workstations "
            "(reproduction of Libeskind-Hadas & Hartline, ICPP 2000)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random instance (JSON to stdout/file)")
    gen.add_argument("--kind", default="bounded-ratio",
                     choices=["bounded-ratio", "two-class", "pareto"], help="cluster family")
    gen.add_argument("-n", type=int, default=8, help="number of destinations")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--latency", type=float, default=1.0)
    gen.add_argument("--source", default="slowest",
                     choices=["fastest", "slowest", "median", "random", "first"])
    gen.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    sch = sub.add_parser("schedule", help="schedule an instance from JSON")
    sch.add_argument("instance", help="instance JSON path")
    sch.add_argument("--algorithm", default="greedy+reversal",
                     choices=available_solvers())
    sch.add_argument("--bounds", action="store_true",
                     help="print the Theorem 1 bound report")
    sch.add_argument("--tree", action="store_true", help="print the schedule tree")
    sch.add_argument("--gantt", action="store_true", help="print a Gantt chart")
    sch.add_argument("-o", "--output", default=None, help="write the schedule JSON here")

    sim = sub.add_parser("simulate", help="execute a schedule JSON on the simulator")
    sim.add_argument("schedule", help="schedule JSON path")
    sim.add_argument("--jitter", type=float, default=0.0,
                     help="latency jitter amplitude (0 = exact model)")
    sim.add_argument("--seed", type=int, default=0, help="jitter seed")

    cmp_ = sub.add_parser("compare", help="run every capable solver on an instance")
    cmp_.add_argument("instance", help="instance JSON path")

    pba = sub.add_parser(
        "plan-batch",
        help="plan many instance JSONs in one amortized batch (group-solve)")
    pba.add_argument("instances", nargs="+", help="instance JSON paths")
    pba.add_argument("--solver", default=None,
                     help="solver spec for every instance (default: "
                          "the planner's default)")
    pba.add_argument("--no-group-solve", action="store_true",
                     help="escape hatch: plan instance-by-instance instead "
                          "of bucketing by canonical type system")
    pba.add_argument("--json", action="store_true",
                     help="emit results as repro/plan-result-v1 JSON lines")

    pgr = sub.add_parser(
        "plan-groups",
        help="plan concurrent multicast groups under shared-sender "
             "contention (DESIGN.md, Contention)")
    pgr.add_argument("groups", nargs="+",
                     help="per-group instance JSON paths, or a single "
                          "repro/multi-group-v1 bundle")
    pgr.add_argument("--strategy", default=None,
                     help="multi-group composition solver (default "
                          "mg-greedy-pack; see 'compare' for the catalogue)")
    pgr.add_argument("--solver", default=None,
                     help="inner single-group solver spec (default: the "
                          "planner's default)")
    pgr.add_argument("--compare", action="store_true",
                     help="run every registered mg-* strategy (inner solves "
                          "are shared through the planner cache)")
    pgr.add_argument("--json", action="store_true",
                     help="emit one JSON object per strategy")

    exp = sub.add_parser("experiment", help="run reproduction experiments")
    exp.add_argument("names", nargs="*", default=[],
                     help="experiment ids (E1..E10); default: all")
    exp.add_argument("--markdown", action="store_true", help="emit markdown")

    sub.add_parser("fig1", help="print the Figure 1 reproduction")

    srv = sub.add_parser("serve", help="run the planning service (see SERVICE.md)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7421,
                     help="TCP port (0 picks a free one)")
    srv.add_argument("--store", default=None,
                     help="persistent plan store directory (warm-starts if present)")
    srv.add_argument("--shards", type=int, default=4,
                     help="solver worker shards (fingerprint-routed)")
    srv.add_argument("--workers", default="thread",
                     choices=["thread", "process", "inline"],
                     help="worker executor kind per shard")
    srv.add_argument("--cache-size", type=int, default=1024,
                     help="in-memory LRU entries")
    srv.add_argument("--max-pending", type=int, default=1024,
                     help="admission queue cap across all clients")
    srv.add_argument("--segment-records", type=int, default=512,
                     help="records per store segment before rotation")
    srv.add_argument("--table-snapshots", default=None, metavar="DIR",
                     help="directory of mmap table snapshots: optimal tables "
                          "warm-start from it and are saved back write-through")
    srv.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                     help="per-request solve budget; a solve past it answers "
                          "with a greedy plan + bounds, marked degraded "
                          "(default: no deadline)")

    sbm = sub.add_parser("submit", help="plan instances through a running service")
    sbm.add_argument("instances", nargs="+", help="instance JSON paths")
    sbm.add_argument("--host", default="127.0.0.1")
    sbm.add_argument("--port", type=int, default=7421)
    sbm.add_argument("--solver", default=None,
                     help="solver spec (default: the service's default)")
    sbm.add_argument("--bounds", action="store_true",
                     help="request Theorem 1 bound reports")
    sbm.add_argument("--client", default=None,
                     help="client id for fair-queue accounting")
    sbm.add_argument("--timeout", type=float, default=300.0,
                     help="seconds to wait per response (long exact/dp "
                          "solves may need more)")
    sbm.add_argument("--metrics", action="store_true",
                     help="print the service metrics snapshot afterwards")
    sbm.add_argument("--json", action="store_true",
                     help="emit results as repro/plan-result-v1 JSON lines")

    sto = sub.add_parser("store", help="inspect a persistent plan store")
    sto.add_argument("action", choices=["stats", "verify", "compact"],
                     help="compact only while no server is writing the store")
    sto.add_argument("path", help="plan store directory")

    conf = sub.add_parser(
        "conformance",
        help="differential cross-solver verification (see DESIGN.md)")
    conf_sub = conf.add_subparsers(dest="conformance_command", required=True)

    crun = conf_sub.add_parser("run", help="sweep a generated or stored corpus")
    crun.add_argument("--suite", default="quick",
                      help="corpus suite name (default quick; see corpus list)")
    crun.add_argument("--corpus", default=None,
                      help="run a persisted corpus directory instead of --suite")
    crun.add_argument("--failures", default=None,
                      help="write failure artifacts to this records directory")
    crun.add_argument("--regression", default=None,
                      help="also write each shrunk failure as a standalone "
                           "JSON file here (e.g. tests/corpus/)")
    crun.add_argument("--no-service", action="store_true",
                      help="skip the planner/service bit-parity check")
    crun.add_argument("--no-shrink", action="store_true",
                      help="report failures without shrinking them")

    cfuzz = conf_sub.add_parser("fuzz", help="seeded random sweep under a budget")
    cfuzz.add_argument("--budget", default="60s",
                       help="wall-clock budget, e.g. 45, 90s, 5m (default 60s)")
    cfuzz.add_argument("--seed", type=int, default=0,
                       help="master seed; the spec stream is fully determined by it")
    cfuzz.add_argument("--max-n", type=int, default=10,
                       help="largest destination count drawn")
    cfuzz.add_argument("--failures", default=None,
                       help="write failure artifacts to this records directory")
    cfuzz.add_argument("--regression", default=None,
                       help="also write shrunk failures as JSON files here")
    cfuzz.add_argument("--no-service", action="store_true",
                       help="skip the planner/service bit-parity check")

    ccorp = conf_sub.add_parser("corpus", help="materialize a corpus to records")
    ccorp.add_argument("--suite", default="quick", help="corpus suite name")
    ccorp.add_argument("-o", "--output", default=None,
                       help="records directory to write (omit to list suites)")

    crep = conf_sub.add_parser(
        "replay", help="re-run persisted records; failures must reproduce "
                       "bit-identically")
    crep.add_argument("path",
                      help="a records directory or a single JSON record file")

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection sweep: seeded fault plans over the corpus "
             "(see SERVICE.md, Resilience & operations)")
    chaos.add_argument("--suite", default="smoke",
                       help="corpus suite name (default smoke)")
    chaos.add_argument("--plans", type=int, default=5,
                       help="number of seeded fault plans (default 5)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed for the fault-plan battery")
    chaos.add_argument("--deadline", type=float, default=0.2,
                       help="solve deadline on the service under test "
                            "(default 0.2s)")
    chaos.add_argument("--call-timeout", type=float, default=2.0,
                       help="client socket timeout per call (default 2s)")
    chaos.add_argument("--budget", default=None,
                       help="overall wall-clock budget, e.g. 90s or 5m "
                            "(default: sweep everything)")

    perf = sub.add_parser(
        "perf", help="benchmark baselines (see DESIGN.md, Performance)")
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    prun = perf_sub.add_parser(
        "run", help="run perf kernels; exit 1 if a committed floor is missed")
    prun.add_argument("--mode", default="quick", choices=["quick", "full"],
                      help="workload size (quick = CI gate, full = baseline)")
    prun.add_argument("--kernel", action="append", default=None,
                      help="kernel name (repeatable; default: all; "
                           "pass 'list' to print the catalogue)")
    prun.add_argument("--repeats", type=int, default=5,
                      help="timed repetitions per case")
    prun.add_argument("-o", "--output", default=None,
                      help="write BENCH_<kernel>.json records here")

    pcmp = perf_sub.add_parser(
        "compare", help="run kernels and compare against committed baselines; "
                        "exit 1 on regression or floor violation")
    pcmp.add_argument("--baseline", action="append", nargs="+", required=True,
                      help="BENCH_<kernel>.json files or directories of them "
                           "(repeatable; shell globs like BENCH_*.json work)")
    pcmp.add_argument("--tolerance", default="25%",
                      help="allowed slowdown vs baseline, e.g. 25%% or 0.25 "
                           "(timings are advisory when the environment "
                           "fingerprint differs; floors always enforce)")
    pcmp.add_argument("--mode", default="quick", choices=["quick", "full"],
                      help="workload size for the comparison run")
    pcmp.add_argument("--repeats", type=int, default=5,
                      help="timed repetitions per case")
    pcmp.add_argument("-o", "--output", default=None,
                      help="also write the current run's records here "
                           "(the CI artifact)")

    pbase = perf_sub.add_parser(
        "baseline", help="run kernels and (re)write the committed baselines")
    pbase.add_argument("--mode", default="quick", choices=["quick", "full"],
                       help="workload size recorded in the baselines")
    pbase.add_argument("--kernel", action="append", default=None,
                       help="kernel name (repeatable; default: all)")
    pbase.add_argument("--repeats", type=int, default=5,
                       help="timed repetitions per case")
    pbase.add_argument("-o", "--output", default=".",
                       help="directory for BENCH_<kernel>.json (default: .)")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    import json

    from repro.io.serialization import multicast_to_dict
    from repro.workloads.clusters import bounded_ratio_cluster, pareto_cluster, two_class_cluster
    from repro.workloads.generator import multicast_from_cluster

    if args.kind == "bounded-ratio":
        nodes = bounded_ratio_cluster(args.n + 1, args.seed)
    elif args.kind == "two-class":
        n_slow = max(1, (args.n + 1) // 3)
        nodes = two_class_cluster(args.n + 1 - n_slow, n_slow)
    else:
        nodes = pareto_cluster(args.n + 1, args.seed)
    mset = multicast_from_cluster(
        nodes, latency=args.latency, source=args.source, seed=args.seed
    )
    payload = json.dumps(multicast_to_dict(mset), indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.output}")
    else:
        print(payload)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    from repro.api import PlanRequest, plan
    from repro.io.serialization import load_multicast, save_json
    from repro.viz.ascii_tree import render_tree
    from repro.viz.gantt import gantt_for_schedule

    mset = load_multicast(args.instance)
    result = plan(
        PlanRequest(instance=mset, solver=args.algorithm, include_bounds=args.bounds)
    )
    schedule = result.schedule
    print(
        f"algorithm={args.algorithm} n={mset.n} R_T={schedule.reception_completion:g} "
        f"D_T={schedule.delivery_completion:g} layered={schedule.is_layered()}"
        + (" optimal" if result.exact else "")
    )
    if args.bounds and result.bounds is not None:
        rep = result.bounds
        kind = "exact optimum" if rep.opt_is_exact else "certified lower bound"
        print(
            f"bound report: value={rep.greedy_value:g} vs {kind} {rep.opt_value:g} "
            f"(ratio <= {rep.measured_ratio:.3f}, Theorem 1 factor {rep.factor:g}, "
            f"beta {rep.beta:g})"
        )
    if args.tree:
        print(render_tree(schedule))
    if args.gantt:
        print(gantt_for_schedule(schedule))
    if args.output:
        save_json(schedule, args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.io.serialization import load_schedule
    from repro.simulation.executor import simulate_schedule
    from repro.simulation.jitter import uniform_jitter

    schedule = load_schedule(args.schedule)
    if args.jitter > 0:
        result = simulate_schedule(
            schedule, jitter=uniform_jitter(args.jitter, args.seed), verify=False
        )
        print(
            f"simulated R_T={result.reception_completion:g} "
            f"(analytic {schedule.reception_completion:g}, jitter ±{args.jitter:g})"
        )
    else:
        result = simulate_schedule(schedule)
        print(
            f"simulated R_T={result.reception_completion:g} == analytic "
            f"{schedule.reception_completion:g} "
            f"({result.events_processed} events, verified)"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.tables import Table
    from repro.api import PlanRequest, capable_solvers, get_solver, plan_batch
    from repro.io.serialization import load_multicast

    mset = load_multicast(args.instance)
    requests = [
        PlanRequest(instance=mset, solver=name)
        for name in capable_solvers(mset)
    ]
    batch = plan_batch(requests, on_error="skip")
    table = Table(f"solvers on {args.instance} (n={mset.n})",
                  ["algorithm", "R_T", "vs best"])
    values = {}
    for result in batch:
        values[get_solver(result.solver).display_name] = result.value
    best = min(values.values())
    for name, value in sorted(values.items(), key=lambda kv: (kv[1], kv[0])):
        table.add_row([name, value, f"{value / best:.3f}x"])
    print(table.render())
    return 0


def _cmd_plan_batch(args: argparse.Namespace) -> int:
    import json

    from repro.api import Planner, PlanRequest
    from repro.io.serialization import load_multicast, plan_result_to_dict

    requests = []
    for path in args.instances:
        try:
            mset = load_multicast(path)
        except (OSError, ValueError) as exc:
            raise ReproError(f"cannot load instance {path}: {exc}") from exc
        requests.append(
            PlanRequest(
                instance=mset,
                **({"solver": args.solver} if args.solver else {}),
                tag=path,
            )
        )
    planner = Planner()
    batch = planner.plan_batch(requests, group_solve=not args.no_group_solve)
    for result in batch:
        if args.json:
            print(json.dumps(plan_result_to_dict(result), sort_keys=True))
        else:
            print(
                f"{result.tag}: R_T={result.value:g} solver={result.solver}"
                + (" optimal" if result.exact else "")
            )
    tables = planner.table_cache
    mode = "per-instance" if args.no_group_solve else "group-solve"
    stats = tables.stats() if tables is not None else {}
    print(
        f"planned {len(batch)} instances in {batch.elapsed_s * 1e3:.1f} ms "
        f"({mode}; tables built={stats.get('builds', 0)} "
        f"extended={stats.get('extensions', 0)} hits={stats.get('hits', 0)} "
        f"states={stats.get('states_held', 0)})"
    )
    return 0


def _load_multi_group(paths: List[str]):
    """Build a MultiGroupInstance from CLI paths.

    A single path may be a ``repro/multi-group-v1`` bundle; otherwise every
    path is one per-group ``repro/multicast-v1`` instance.
    """
    import json
    from pathlib import Path

    from repro.core.contention import MultiGroupInstance
    from repro.io.serialization import (
        MULTI_GROUP_FORMAT,
        load_multicast,
        multi_group_from_dict,
    )

    if len(paths) == 1:
        try:
            data = json.loads(Path(paths[0]).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ReproError(f"cannot load {paths[0]}: {exc}") from exc
        if isinstance(data, dict) and data.get("format") == MULTI_GROUP_FORMAT:
            return multi_group_from_dict(data)
        raise ReproError(
            f"{paths[0]} is not a {MULTI_GROUP_FORMAT} bundle; pass one "
            "instance path per group to compose an ad-hoc multi-group plan"
        )
    groups = []
    for path in paths:
        try:
            groups.append(load_multicast(path))
        except (OSError, ValueError) as exc:
            raise ReproError(f"cannot load instance {path}: {exc}") from exc
    return MultiGroupInstance(tuple(groups))


def _cmd_plan_groups(args: argparse.Namespace) -> int:
    import json

    from repro.api import DEFAULT_STRATEGY, MultiGroupPlanner

    instance = _load_multi_group(args.groups)
    planner = MultiGroupPlanner()
    if args.compare:
        if args.strategy is not None:
            raise ReproError("--compare runs every strategy; drop --strategy")
        results = planner.compare_strategies(instance, solver=args.solver)
    else:
        strategy = args.strategy or DEFAULT_STRATEGY
        results = {
            strategy: planner.plan_groups(instance, strategy, solver=args.solver)
        }
    shared = ", ".join(instance.shared_nodes()) or "(none)"
    if not args.json:
        print(
            f"{instance.n_groups} groups, shared nodes: {shared}"
        )
    for name, result in sorted(results.items()):
        if args.json:
            payload = {
                "strategy": result.strategy,
                "solver": result.solver,
                "offsets": list(result.offsets),
                "completions": list(result.schedule.completions),
                "max_makespan": result.max_makespan,
                "weighted_sum": result.weighted_sum,
            }
            print(json.dumps(payload, sort_keys=True))
        else:
            offsets = ", ".join(f"{t:g}" for t in result.offsets)
            print(
                f"{name}: max_makespan={result.max_makespan:g} "
                f"weighted_sum={result.weighted_sum:g} "
                f"offsets=[{offsets}] (inner solver {result.solver})"
            )
    if not args.json:
        cache = planner.planner.cache_info()
        tables = planner.planner.table_cache
        stats = tables.stats() if tables is not None else {}
        print(
            f"inner solves: cache hits={cache.hits} "
            f"canonical={cache.canonical_hits} "
            f"tables built={stats.get('builds', 0)} "
            f"reused={stats.get('hits', 0)}"
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.runner import render_report, run_all

    names = args.names or None
    print(render_report(run_all(names), markdown=args.markdown))
    return 0


def _cmd_fig1(_args: argparse.Namespace) -> int:
    from repro.experiments.fig1 import (
        figure1_instance,
        figure1_schedule_a,
        figure1_schedule_b,
        run,
    )
    from repro.viz.ascii_tree import render_tree

    for table in run():
        print(table.render())
        print()
    mset = figure1_instance()
    print("Figure 1(a):")
    print(render_tree(figure1_schedule_a(mset)))
    print()
    print("Figure 1(b) reconstruction:")
    print(render_tree(figure1_schedule_b(mset)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import PlanningService

    table_config = None
    if args.table_snapshots:
        from repro.api.tables import TableCacheConfig

        table_config = TableCacheConfig(snapshot_dir=args.table_snapshots)
    service = PlanningService(
        store_path=args.store,
        num_shards=args.shards,
        worker_mode=args.workers,
        max_pending=args.max_pending,
        cache_size=args.cache_size,
        segment_max_records=args.segment_records,
        table_config=table_config,
        solve_deadline_s=args.deadline,
    )
    if args.store and service.store is not None:
        warm = len(service.store)
        print(f"plan store {args.store}: {warm} plans warm-started", flush=True)
    if args.table_snapshots:
        from pathlib import Path

        count = len(list(Path(args.table_snapshots).glob("table-*.snap")))
        print(f"table snapshots {args.table_snapshots}: "
              f"{count} tables attachable", flush=True)

    def ready(address) -> None:
        print(f"planning service listening on {address[0]}:{address[1]} "
              f"({args.shards} {args.workers} shards)", flush=True)

    try:
        service.run(args.host, args.port, ready=ready)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.api import PlanRequest
    from repro.io.serialization import load_multicast, plan_result_to_dict
    from repro.service import ServiceClient

    with ServiceClient(
        args.host, args.port, client_id=args.client, timeout=args.timeout
    ) as client:
        for path in args.instances:
            mset = load_multicast(path)
            request = PlanRequest(
                instance=mset,
                **({"solver": args.solver} if args.solver else {}),
                include_bounds=args.bounds,
                tag=path,
            )
            served = client.plan(request)
            result = served.result
            if args.json:
                print(json.dumps(plan_result_to_dict(result), sort_keys=True))
            else:
                print(
                    f"{path}: R_T={result.value:g} solver={result.solver} "
                    f"tier={served.tier}"
                    + (" optimal" if result.exact else "")
                )
        if args.metrics:
            print(json.dumps(client.metrics(), indent=2, sort_keys=True))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service import PlanStore

    if not Path(args.path).is_dir():
        raise ReproError(f"no plan store at {args.path}: not a directory")
    store = PlanStore(args.path)
    if args.action == "verify":
        checked = store.verify()
        print(f"{args.path}: {checked} records verified "
              f"(all round-trip through repro/plan-result-v1)")
    elif args.action == "compact":
        before = store.stats()
        reclaimed = store.compact()
        after = store.stats()
        print(f"{args.path}: reclaimed {reclaimed} superseded records "
              f"({before.segments} -> {after.segments} segments, "
              f"{after.live_keys} live plans)")
    else:
        stats = store.stats()
        print(f"{args.path}: {stats.live_keys} live plans, "
              f"{stats.total_records} records in {stats.segments} segments "
              f"({stats.dead_records} reclaimable)")
    return 0


def _parse_budget(text: str) -> float:
    """``45`` / ``90s`` / ``5m`` / ``1h`` -> seconds."""
    text = text.strip().lower()
    units = {"s": 1.0, "m": 60.0, "h": 3600.0}
    factor = units.get(text[-1:], None)
    digits = text[:-1] if factor is not None else text
    try:
        seconds = float(digits) * (factor if factor is not None else 1.0)
    except ValueError:
        raise ReproError(
            f"malformed budget {text!r}; use e.g. 45, 90s or 5m"
        ) from None
    if seconds <= 0:
        raise ReproError(f"budget must be positive, got {text!r}")
    return seconds


def _write_failure_artifacts(args: argparse.Namespace, report) -> None:
    """Persist a report's failures: records directory and/or JSON files."""
    import json
    from pathlib import Path

    from repro.conformance import write_records

    if getattr(args, "failures", None) and report.failures:
        written = write_records(args.failures, report.failures)
        print(f"wrote {written} failure artifacts to {args.failures}")
    if getattr(args, "regression", None) and report.failures:
        root = Path(args.regression)
        root.mkdir(parents=True, exist_ok=True)
        for failure in report.failures:
            path = root / f"{failure.invariant}-{failure.digest[:12]}.json"
            path.write_text(
                json.dumps(failure.to_dict(), indent=2, sort_keys=True) + "\n"
            )
            print(f"wrote regression case {path}")


def _report_and_exit(args: argparse.Namespace, report) -> int:
    print(report.summary())
    _write_failure_artifacts(args, report)
    return 0 if report.ok else 1


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.conformance import (
        CORPUS_SUITES,
        ConformanceRunner,
        FailureRecord,
        MultiGroupScenarioSpec,
        ScenarioSpec,
        check_multi_group,
        generate_corpus,
        fuzz_specs,
        load_records,
        write_records,
    )
    from repro.conformance.records import load_record_file

    command = args.conformance_command
    if command == "corpus":
        if args.output is None:
            for name, suite in sorted(CORPUS_SUITES.items()):
                print(f"{name:<8} {len(suite.specs()):>4} scenarios  "
                      f"{suite.description}")
            return 0
        specs = generate_corpus(args.suite)
        written = write_records(args.output, specs)
        print(f"wrote {written} {args.suite!r} scenarios to {args.output}")
        return 0

    if command == "run":
        if args.corpus is not None:
            records = load_records(args.corpus)
            specs = [r for r in records if isinstance(r, ScenarioSpec)]
            if not specs:
                # a failure-artifact directory shares the segment layout;
                # running it as a corpus would pass vacuously forever
                raise ReproError(
                    f"{args.corpus} holds no scenario records "
                    f"({len(records)} failure records; use 'conformance "
                    f"replay' for those)"
                )
            skipped = len(records) - len(specs)
            origin = f"{len(specs)} scenarios from {args.corpus}" + (
                f" ({skipped} non-scenario records skipped; use 'replay' "
                "for failures and multi-group scenarios)" if skipped else ""
            )
        else:
            specs = generate_corpus(args.suite)
            origin = f"suite {args.suite!r} ({len(specs)} scenarios)"
        runner = ConformanceRunner(
            service_every=0 if args.no_service else 8,
            shrink=not args.no_shrink,
        )
        print(f"conformance run: {origin}")
        return _report_and_exit(args, runner.run(specs))

    if command == "fuzz":
        budget = _parse_budget(args.budget)
        runner = ConformanceRunner(service_every=0 if args.no_service else 8)
        print(f"conformance fuzz: seed={args.seed} budget={budget:g}s "
              f"max_n={args.max_n}")
        report = runner.run(
            fuzz_specs(args.seed, max_n=args.max_n), deadline_s=budget
        )
        return _report_and_exit(args, report)

    # replay: every failure record must reproduce bit-identically; scenario
    # records re-run the full invariant suite (a corpus replay); multi-group
    # scenarios re-run the cross-group checks and re-verify their digests
    from pathlib import Path

    path = Path(args.path)
    records = [load_record_file(path)] if path.is_file() else load_records(path)
    failures = [r for r in records if isinstance(r, FailureRecord)]
    scenarios = [r for r in records if isinstance(r, ScenarioSpec)]
    multi_groups = [r for r in records if isinstance(r, MultiGroupScenarioSpec)]
    exit_code = 0
    runner = ConformanceRunner(service_every=0)
    for failure in failures:
        outcome = runner.replay(failure)
        if outcome.bit_identical:
            print(f"reproduced bit-identically: {failure.invariant} "
                  f"solver={failure.solver} on {failure.spec.key} "
                  f"(digest {failure.digest})")
        else:
            exit_code = 1
            print(f"NOT reproduced: {failure.invariant} solver={failure.solver} "
                  f"on {failure.spec.key}: {outcome.detail}")
    for spec in multi_groups:
        violations = check_multi_group(spec)
        if not violations:
            stamp = f" (digest {spec.digest})" if spec.digest else ""
            print(f"multi-group replay ok: {spec.key}{stamp}")
        else:
            exit_code = 1
            for violation in violations:
                where = f" [{violation.solver}]" if violation.solver else ""
                print(f"multi-group replay FAILED on {spec.key}:{where} "
                      f"{violation.message}")
    if scenarios:
        report = runner.run(scenarios)
        print(report.summary())
        if not report.ok:
            exit_code = 1
    if not failures and not scenarios and not multi_groups:
        raise ReproError(f"no conformance records found at {args.path}")
    return exit_code


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.conformance import default_fault_plans, generate_corpus, run_chaos

    specs = generate_corpus(args.suite)
    plans = default_fault_plans(args.plans, seed=args.seed)
    budget = _parse_budget(args.budget) if args.budget else None
    print(f"chaos sweep: suite {args.suite!r} ({len(specs)} scenarios) x "
          f"{len(plans)} fault plans, deadline {args.deadline:g}s")
    report = run_chaos(
        specs,
        plans,
        suite=args.suite,
        solve_deadline_s=args.deadline,
        call_timeout_s=args.call_timeout,
        budget_s=budget,
        progress=print,
    )
    print(report.summary())
    for violation in report.violations:
        print(f"VIOLATION {violation}")
    return 0 if report.ok else 1


def _parse_tolerance(text: str) -> float:
    """``25%`` / ``0.25`` -> 0.25."""
    text = text.strip()
    try:
        if text.endswith("%"):
            return float(text[:-1]) / 100.0
        return float(text)
    except ValueError:
        raise ReproError(
            f"malformed tolerance {text!r}; use e.g. 25% or 0.25"
        ) from None


def _print_perf_records(records) -> None:
    for record in records:
        floors = (
            "  floors: "
            + ", ".join(f"{k} >= {v:g}" for k, v in sorted(record.floors.items()))
            if record.floors
            else ""
        )
        summary = (
            "  summary: "
            + ", ".join(f"{k}={v:g}" for k, v in sorted(record.summary.items()))
            if record.summary
            else ""
        )
        print(f"{record.name} [{record.mode}] digest={record.digest}")
        for case in record.results:
            timing = case.timing
            print(
                f"  {case.case}: min={timing.min_s * 1e3:.3f} ms "
                f"mean={timing.mean_s * 1e3:.3f} ms ({timing.repeats} repeats)"
            )
        if summary:
            print(summary)
        if floors:
            print(floors)


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf import (
        KERNELS,
        PerfRunner,
        compare_records,
        load_baselines,
        write_baseline,
    )

    command = args.perf_command
    if command in ("run", "baseline") and args.kernel == ["list"]:
        for name, kernel in sorted(KERNELS.items()):
            floors = (
                "  [floors: "
                + ", ".join(f"{k} >= {v:g}" for k, v in sorted(kernel.floors.items()))
                + "]"
                if kernel.floors
                else ""
            )
            print(f"{name:<20} {kernel.description}{floors}")
        return 0

    if command == "run":
        runner = PerfRunner(
            mode=args.mode, kernels=args.kernel, repeats=args.repeats
        )
        records = runner.run(progress=lambda line: print(f"ran {line}"))
        _print_perf_records(records)
        if args.output:
            for record in records:
                path = write_baseline(args.output, record)
                print(f"wrote {path}")
        # self-gate: a run whose own floors are unmet is a failed run
        # (each record doubles as its own baseline for the floor check)
        report = compare_records(records, records, tolerance=0.0)
        failed = [floor for floor in report.floors if floor.failed]
        for floor in failed:
            print(floor.describe())
        return 1 if failed else 0

    if command == "compare":
        tolerance = _parse_tolerance(args.tolerance)
        paths = [path for group in args.baseline for path in group]
        baselines = load_baselines(paths)
        known = [b.name for b in baselines if b.name in KERNELS]
        for baseline in baselines:
            if baseline.name not in KERNELS:
                print(f"warning: baseline kernel {baseline.name!r} is not "
                      "registered; skipping")
        if not known:
            raise ReproError("no baseline matches a registered perf kernel")
        runner = PerfRunner(mode=args.mode, kernels=known, repeats=args.repeats)
        currents = runner.run(progress=lambda line: print(f"ran {line}"))
        if args.output:
            for record in currents:
                path = write_baseline(args.output, record)
                print(f"wrote {path}")
        report = compare_records(
            [b for b in baselines if b.name in KERNELS],
            currents,
            tolerance=tolerance,
        )
        print(report.summary())
        return 0 if report.ok else 1

    # baseline: run and (re)write the committed records
    runner = PerfRunner(mode=args.mode, kernels=args.kernel, repeats=args.repeats)
    written = runner.run_and_write(
        args.output, progress=lambda line: print(f"ran {line}")
    )
    for name in sorted(written):
        print(f"wrote {written[name]}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "schedule": _cmd_schedule,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "plan-batch": _cmd_plan_batch,
    "plan-groups": _cmd_plan_groups,
    "experiment": _cmd_experiment,
    "fig1": _cmd_fig1,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "store": _cmd_store,
    "conformance": _cmd_conformance,
    "chaos": _cmd_chaos,
    "perf": _cmd_perf,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
