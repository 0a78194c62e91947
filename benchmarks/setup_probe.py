"""Time one set-up in a fresh interpreter and print it in seconds.

Set-up is what a user pays before the first solve: importing numpy and
nptsub, then building the workload's subspaces, projectors, rotations,
round-trip states and fixture input.

    python3 benchmarks/setup_probe.py WORKLOAD SEED
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is part of what is timed)

workloads.build_inputs(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
