"""Child processes with their own limits and resource usage.

Each child gets an address-space cap and a CPU-time backstop through
`resource.setrlimit` in the child alone, and a wall-clock deadline enforced
by the parent with SIGKILL.  CPU time and peak RSS come from `os.wait4`, so
they belong to that child only.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import time
from dataclasses import dataclass

MEM_CAP_BYTES = 2 << 30


@dataclass
class ChildResult:
    start: float  # perf_counter just before the child was started
    exit_code: int
    timed_out: bool
    wall: float
    cpu: float
    rss_mb: float


def run_child(argv: list[str], env: dict, stdout_path: str, stderr_path: str,
              timeout: float) -> ChildResult:
    cpu_cap = int(timeout) + 5

    def limits() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_cap, cpu_cap))

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env, preexec_fn=limits)
        state = {"reaped": False, "killed": False}

        def expire(signum, frame) -> None:
            if not state["reaped"]:
                state["killed"] = True
                os.kill(proc.pid, signal.SIGKILL)

        old = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            state["reaped"] = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(t0, proc.returncode, state["killed"], wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
