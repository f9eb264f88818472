"""End-to-end and per-layer benchmark of the multicast planning service.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` starts the planning service in a child process, drives it
over TCP with :class:`repro.service.ServiceClient` (closed loop, no retry
policy), checks every answer against a direct solve and prints the
metrics named in ``BENCHMARK.json``.  With ``--trace 1`` it also replays
the same seeded stream in-process with spans around every layer call and
prints the per-layer metrics instead.  See :mod:`perfbench.workloads`
for the three workloads and why each was chosen.
"""
