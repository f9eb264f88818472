"""Benchmark entry point: one workload, one seed, one mode.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hot_hits --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes the same real run for the server and client counters
and then replays the stream in-process with spans around every layer
call, reporting the per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Exits non-zero, printing no result, when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Server starts per run whose median is ``setup_s`` (the last one is used).
SETUP_REPEATS = 5

#: Timed ops generated per second of measurement (more than any run serves).
BUDGET_PER_SECOND = {"hot_hits": 1000, "cold_misses": 500, "session_churn": 2000}

UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_rps": "1/s",
    "success_ratio": "ratio",
    "makespan_over_lb": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot_hits", "cold_misses", "session_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    """The run's stamp: what the numbers were measured on."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": importlib.util.find_spec("numpy") is not None,
    }


def real_run(workload, seconds: float, setup_repeats: int, workdir: Path, log, probe):
    """Start the server, run populate/warm-up/timed phases, stop it.

    ``probe`` samples the CPU's speed before every server start and
    between ops.

    Returns ``(set-ups as (CPU s, wall s, start), untimed answers,
    LoadResult, server counters)``.
    """
    from perfbench.loadgen import run_ops, server_metrics
    from perfbench.service_proc import ServerProcess
    from perfbench.workloads import Op

    store_dir = workdir / "store" if workload.use_store else None

    def server() -> ServerProcess:
        return ServerProcess(
            ROOT, cache_size=workload.cache_size, store_dir=store_dir, log=log
        )

    untimed = []
    if workload.populate:
        first = server()
        first.start()
        try:
            ops = [Op("plan", request) for request in workload.populate]
            populated = run_ops(
                first.address, ops, seconds=None, server_cpu=first.cpu_time, probe=probe
            )
        finally:
            first.stop()
        untimed.append((workload.populate, populated))
    setups = []
    current = None
    try:
        for _ in range(setup_repeats):
            if current is not None:
                current.stop()
            current = server()
            probe.sample()
            started = time.perf_counter()
            setups.append((*current.start(), started))
        if workload.populate and current.warm_plans != len(workload.populate):
            raise RuntimeError(
                f"server warm-started {current.warm_plans} plans, "
                f"expected {len(workload.populate)}"
            )
        if workload.warmup:
            warmed = run_ops(
                current.address, workload.warmup, seconds=None,
                server_cpu=current.cpu_time, probe=probe,
            )
            untimed.append(([op.request for op in workload.warmup], warmed))
        load = run_ops(
            current.address, workload.stream, seconds=seconds,
            server_cpu=current.cpu_time, probe=probe,
        )
        counters = server_metrics(current.address)
    finally:
        if current is not None:
            current.stop()
    return setups, untimed, load, counters


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated or interrupted run still stops its servers (the finally
    # blocks run); a run started with SIGINT ignored (a background job)
    # would pass that on to the servers, which could then not be stopped
    # gracefully, so interrupts are handled here instead
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # the client and the servers it spawns share one CPU, so every hand-off
    # between them (and between the server's threads) stays on it whether
    # or not the other CPUs are busy
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from perfbench import stats, verify
    from perfbench.calibrate import SpeedProbe
    from perfbench.loadgen import OP_TIMEOUT_S
    from perfbench.workloads import WHY, build

    env = environment()
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {WHY[args.workload]}")
    budget = int(BUDGET_PER_SECOND[args.workload] * args.seconds)
    workload = build(args.workload, args.seed, budget)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        with SpeedProbe() as probe, open(workdir / "server.log", "w") as log:
            setups, untimed, load, counters = real_run(
                workload, args.seconds,
                SETUP_REPEATS if args.trace == 0 else 1, workdir, log, probe,
            )
        if not load.records:
            raise RuntimeError("the timed phase attempted no operation")
        if len(load.served) == len(workload.stream):
            print(f"warning: the {len(workload.stream)}-op stream ran out "
                  f"before {args.seconds:g}s")

        checker = verify.Checker()
        requests = verify.expected_requests(workload, load.records[-1][0] + 1)
        mismatches = verify.check_answers(requests, load.served, checker)
        attempted, failures = load.attempted, Counter(load.failures)
        for untimed_requests, result in untimed:
            mismatches += verify.check_answers(untimed_requests, result.served, checker)
            attempted += result.attempted
            failures.update(result.failures)
        failures["mismatch"] = mismatches
        failed = sum(failures.values())
        print(f"checked {checker.checked} answers against direct solves; "
              f"{attempted} ops attempted, failed by class {dict(failures)}")
        print(f"server counters {json.dumps(counters, sort_keys=True)}")

        if args.trace == 0:
            # CPU times are reported at the reference speed (calibrate.py)
            unscaled_s = [cpu for _start, cpu in load.cpu_latencies_s]
            scaled_s = [cpu * probe.scale_at(start) for start, cpu in load.cpu_latencies_s]
            scale = sum(scaled_s) / sum(unscaled_s) if unscaled_s else 1.0
            # a failed op counts as the client's whole timeout: it missed
            # any latency limit, and the result stays finite JSON
            p50_ms, tail_ms, tail_pct, samples = stats.latency_summary(
                scaled_s, load.failed, OP_TIMEOUT_S
            )
            raw_p50_ms, raw_tail_ms, _, _ = stats.latency_summary(
                unscaled_s, load.failed, OP_TIMEOUT_S
            )
            wall_p50_ms, wall_tail_ms, _, _ = stats.latency_summary(
                load.latencies_s, load.failed, OP_TIMEOUT_S
            )
            completed = load.attempted - load.failed
            setup_s = statistics.median(
                [cpu * probe.scale_at(started) for cpu, _wall, started in setups]
            )
            quality, used = verify.makespan_over_lb(requests, load.served)
            print(f"latency over {samples} timed ops: p50 {p50_ms:.3f} ms, "
                  f"p{tail_pct:g} {tail_ms:.3f} ms (reported as latency_p99_ms)")
            print(f"CPU speed: {len(probe.samples)} reference round trips, median "
                  f"{statistics.median(probe.samples) * 1e3:.3f} ms, "
                  f"mean scale of the timed ops {scale:.4f}")
            print(f"unscaled CPU latency: p50 {raw_p50_ms:.3f} ms, "
                  f"p{tail_pct:g} {raw_tail_ms:.3f} ms; "
                  f"{completed / load.cpu_s:.1f} ops per CPU second")
            print(f"wall-clock latency: p50 {wall_p50_ms:.3f} ms, "
                  f"p{tail_pct:g} {wall_tail_ms:.3f} ms; "
                  f"{completed / load.elapsed_s:.1f} ops per wall second")
            print(f"makespan_over_lb over {used} distinct instances; "
                  f"set-ups (CPU s, wall s) "
                  f"{[(round(cpu, 4), round(wall, 4)) for cpu, wall, _ in setups]}")
            values = {
                "setup_s": setup_s,
                "latency_p50_ms": p50_ms,
                "latency_p99_ms": tail_ms,
                "throughput_rps": completed / (load.cpu_s * scale),
                "success_ratio": 1.0 - failed / attempted,
                "makespan_over_lb": quality,
            }
            metrics = {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in values.items()
            }
        else:
            from perfbench import replay

            spans = work_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = replay.per_layer_metrics(
                workload, load, counters, workdir, args.seed, spans
            )
        for name, metric in metrics.items():
            print(f"metric {name} = {metric['value']} {metric['unit']}")
        print(json.dumps({
            "correct": mismatches == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
