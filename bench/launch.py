"""Run one command; print its wall time, exit code, output and peak RSS as JSON.

    python3 bench/launch.py <program> [args...]

The CLI workload starts each invocation through this small process so that
the child's peak RSS is its own: a child forked from the large benchmark
process holds that process's resident pages until it execs, and the kernel
counts them in the child's peak.
"""

import json
import resource
import subprocess
import sys
import time

TIMEOUT_S = 60

if __name__ == "__main__":
    t0 = time.perf_counter()
    proc = subprocess.run(sys.argv[1:], capture_output=True, text=True, timeout=TIMEOUT_S)
    wall = time.perf_counter() - t0
    json.dump({"wall_s": wall, "returncode": proc.returncode, "stdout": proc.stdout,
               "stderr": proc.stderr,
               "peak_rss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss},
              sys.stdout)
