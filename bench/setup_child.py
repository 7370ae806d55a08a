"""Fresh-process set-up of one workload, timed from outside by bench/run.py.

    python3 bench/setup_child.py <workload> <seed> <workdir>

Imports the package, generates the workload's inputs from the seed and
validates them through make_measure; cli-large-n also writes its CSVs.
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
