"""How fast the CPU runs right now, from a fixed reference service.

On a shared host the speed of one CPU second is not fixed: a neighbour on
the other hyperthread of the core, or in the shared cache, can slow every
instruction by half or more for minutes at a time, and process CPU time
grows with it.  The benchmark therefore times round trips to a reference
service (``perfbench/refserver.py``) between operations, on the CPU the
client and the planning service share, and scales its CPU times by
``REFERENCE_S / median round-trip time``: a time is reported as it would
read on that CPU running at its reference speed.  Each time is scaled by
the samples taken within :data:`WINDOW_S` of it, as the host's load
changes within a run too.  The reference service never calls the
program, so a change to the program does not move the scale.

The reference service has the planning service's shape - a second
process on the same CPU, a loopback TCP connection, an asyncio loop
handing each request to a worker thread, JSON both ways, dict, sort,
heap and arithmetic work - because a busy host does not slow every kind
of work alike: against served ops, a reference doing only arithmetic
under-corrected ``hot_hits`` and one doing only the object work
under-corrected ``session_churn`` (``perfbench/README.md``).
"""

from __future__ import annotations

import bisect
import gc
import json
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

#: CPU seconds of one reference round trip at the reference speed.  It
#: only sets the unit, as every run scales by the same constant: about
#: the round trip on a quiet 2.0 GHz Intel Xeon virtual CPU under Python
#: 3.11, where scaled times read about two thirds of unscaled ones.
REFERENCE_S = 0.00061

#: Seconds of operations between two samples.
SAMPLE_EVERY_S = 0.2

#: Round trips per sample; the sample is the fastest.
TRIPS_PER_SAMPLE = 2

#: A time is scaled by the median of the samples taken this many seconds
#: before or after it.
WINDOW_S = 0.5

#: Seconds the reference service may take to start or to stop.
START_TIMEOUT_S = 60.0

#: The request: about the size of a plan request.
_REQUEST = json.dumps(
    {"instance": [[f"d{i}", i % 37 + 1, i % 53 + 2] for i in range(48)]}
).encode() + b"\n"


def cpu_clock(pid: int) -> float:
    """CPU seconds process ``pid`` has used so far."""
    # the process's CPU-time clock id, as clock_getcpuclockid(3) makes it
    return time.clock_gettime(((~pid) << 3) | 2)


class SpeedProbe:
    """Round trips to the reference service, sampled through a run.

    A context manager: entering starts the reference service, leaving
    stops it and waits for it to end.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._next = 0.0
        self._proc: Optional[subprocess.Popen] = None
        self._sock: Optional[socket.socket] = None
        self._reader = None

    def __enter__(self) -> "SpeedProbe":
        script = Path(__file__).with_name("refserver.py")
        self._proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert self._proc.stdout is not None
            line = self._proc.stdout.readline()
            if not line.startswith("port "):
                raise RuntimeError("the reference service did not start")
            self._sock = socket.create_connection(
                ("127.0.0.1", int(line.split()[1])), timeout=START_TIMEOUT_S
            )
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._reader = self._sock.makefile("rb")
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        if self._reader is not None:
            self._reader.close()
        if self._sock is not None:
            self._sock.close()  # the reference service exits on EOF
        if self._proc is not None:
            try:
                self._proc.wait(timeout=START_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            if self._proc.stdout is not None:
                self._proc.stdout.close()
        self._reader = self._sock = self._proc = None

    def round_trip(self) -> float:
        """CPU seconds, client's and reference service's, of one round trip.

        The garbage collector is off meanwhile: a collection would walk
        every object the caller holds, which would tie the time to the
        caller's heap.
        """
        assert self._proc is not None and self._sock is not None, "not started"
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.process_time() + cpu_clock(self._proc.pid)
            self._sock.sendall(_REQUEST)
            json.loads(self._reader.readline())
            return time.process_time() + cpu_clock(self._proc.pid) - started
        finally:
            if enabled:
                gc.enable()

    def sample(self) -> None:
        """Take one sample; the client's CPU it costs is kept in ``spent_s``."""
        started = time.process_time()
        self.samples.append(min(self.round_trip() for _ in range(TRIPS_PER_SAMPLE)))
        self.times.append(time.perf_counter())
        self.spent_s += time.process_time() - started

    def sample_due(self) -> None:
        """Sample if :data:`SAMPLE_EVERY_S` passed since the last one."""
        now = time.perf_counter()
        if now >= self._next:
            self._next = now + SAMPLE_EVERY_S
            self.sample()

    def scale_at(self, when: float) -> float:
        """What to multiply a CPU time measured at ``when`` by.

        ``REFERENCE_S`` over the median of the samples taken within
        :data:`WINDOW_S` of ``when`` (``perf_counter`` seconds), or over
        the nearest sample when none was.
        """
        if not self.samples:
            raise ValueError("the speed probe took no sample")
        lo = bisect.bisect_left(self.times, when - WINDOW_S)
        hi = bisect.bisect_right(self.times, when + WINDOW_S)
        window = self.samples[lo:hi]
        if not window:
            nearest = min(range(len(self.times)), key=lambda i: abs(self.times[i] - when))
            window = [self.samples[nearest]]
        return REFERENCE_S / statistics.median(window)
