"""Timing statistics and process measurements shared by the workloads."""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
from time import perf_counter

MIN_BEYOND = 10

# Times of reference_time() and child_reference_time() at the speed all
# reported times are scaled to: their typical times on the machine the
# benchmark was defined on.
REFERENCE_S = 0.0045
CHILD_REFERENCE_S = 0.25


class TooFewSamples(Exception):
    pass


def percentile(samples, q):
    """Nearest-rank percentile q (0 < q < 1), reported only when at least
    MIN_BEYOND samples lie beyond it; otherwise the run fails loudly."""
    n = len(samples)
    rank = max(1, math.ceil(q * n - 1e-9))   # q * n may carry float noise
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {n - rank}")
    return sorted(samples)[rank - 1]


def reference_loop():
    """Fixed pure-Python work (integer arithmetic and dict stores, like the
    pure kernel's inner loops) whose time tracks the machine's speed."""
    acc = 0
    seen = {}
    for i in range(20000):
        acc ^= (i * 2654435761) & 0xFFFF
        seen[i & 255] = acc
    return acc


def reference_time():
    """Mean time of reference_loop() over 8 runs in this process."""
    t0 = perf_counter()
    for _ in range(8):
        reference_loop()
    return (perf_counter() - t0) / 8


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child_reference_time(env):
    """Spawn-to-exit time of a Python child running reference_loop() 40
    times.  It follows the speed of a CLI child better than the loop timed
    in this process does."""
    t0 = perf_counter()
    subprocess.run([sys.executable, __file__, "40"], env=env, check=True)
    return perf_counter() - t0


def run_child(cmd, env, stdin_data, stderr_path):
    """Run one child to completion; the caller starts no other meanwhile.

    Returns (exit code, [(arrival time, stdout line)], spawn time, exit
    time, peak RSS in MB).  The child is reaped with wait4, so the peak RSS
    is its own: the figure RUSAGE_CHILDREN gives for a lone child.
    """
    with open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err)
        try:
            # The program reads all of stdin before it writes a report,
            # so writing every input line first cannot deadlock.
            if stdin_data is not None:
                proc.stdin.write(stdin_data)
            proc.stdin.close()
            lines = [(perf_counter(), line) for line in proc.stdout]
            proc.stdout.close()
            _pid, status, usage = os.wait4(proc.pid, 0)
            t1 = perf_counter()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, lines, t0, t1, usage.ru_maxrss / 1024


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        reference_loop()
