"""Set-up cost of one benchmark process, measured in a fresh interpreter.

Times importing NumPy, SciPy and borrowoc and generating and writing one
workload's configs, then prints the seconds taken.  ``run.py`` starts
several of these and reports their median as ``setup_s``.

    python3 bench/setup_probe.py <workload> <seed> <scratch dir>
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401
import borrowoc.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.write_configs(workloads.generate(sys.argv[1], int(sys.argv[2])),
                        Path(sys.argv[3]))
print(repr(time.perf_counter() - t0))
