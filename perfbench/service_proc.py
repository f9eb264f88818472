"""The planning service as a child process: start, time the set-up, stop.

The server is the repository's own ``serve`` command
(``python -m repro serve --port 0``) run from the checkout's ``src``
tree.  Set-up time runs from spawning the process until its first
``ping`` is answered over TCP, so it covers interpreter start, imports,
the plan store's warm-start replay and the listener.  It is taken as CPU
time - the server's and the launcher's - so that it does not grow when
the host lends the CPUs to someone else (see :func:`perfbench.loadgen.run_ops`);
the caller scales it to the reference speed (``perfbench/calibrate.py``).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import IO, Optional, Tuple

from repro.service import ServiceClient

from perfbench.calibrate import cpu_clock

_LISTENING = re.compile(r"listening on (\S+):(\d+)")
_WARM = re.compile(r": (\d+) plans warm-started")

#: Seconds a server may take to come up or to shut down before it is killed.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class ServerProcess:
    """One ``repro serve`` child process."""

    def __init__(
        self,
        root: Path,
        *,
        cache_size: int,
        store_dir: Optional[Path],
        log: IO[str],
    ) -> None:
        self.root = root
        self.cache_size = cache_size
        self.store_dir = store_dir
        self.log = log
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self.warm_plans = 0

    def cpu_time(self) -> float:
        """CPU seconds the running server process has used so far."""
        assert self.proc is not None, "the server is not running"
        return cpu_clock(self.proc.pid)

    def start(self) -> Tuple[float, float]:
        """Spawn the server; return its set-up time as ``(CPU s, wall s)``."""
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--cache-size", str(self.cache_size),
        ]
        if self.store_dir is not None:
            command += ["--store", str(self.store_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts every run
        started, cpu_started = time.perf_counter(), time.process_time()
        self.proc = subprocess.Popen(
            command,
            cwd=self.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        # a server that never prints its address is killed, which ends the
        # readline loop below with EOF
        watchdog = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            assert self.proc.stdout is not None
            for line in self.proc.stdout:
                warm = _WARM.search(line)
                if warm:
                    self.warm_plans = int(warm.group(1))
                listening = _LISTENING.search(line)
                if listening:
                    self.address = (listening.group(1), int(listening.group(2)))
                    break
        finally:
            watchdog.cancel()
        if self.address is None:
            self.stop()
            raise RuntimeError("planning service exited before it listened")
        with ServiceClient(*self.address, timeout=START_TIMEOUT_S) as client:
            if not client.ping():
                raise RuntimeError("planning service did not answer ping")
        wall = time.perf_counter() - started
        return self.cpu_time() + time.process_time() - cpu_started, wall

    def stop(self) -> None:
        """Interrupt the server (clean shutdown), kill it if it hangs, reap it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
