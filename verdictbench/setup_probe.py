"""Time what a fresh interpreter pays before its first frobex job.

Usage: python3 setup_probe.py SRC WORKLOAD SEED

Imports frobex from the sources under SRC and builds the set-up fixtures of
WORKLOAD for SEED, then prints the elapsed seconds.  The benchmark's own
modules import only the standard library and are loaded before the clock
starts, so every import frobex causes is counted and nothing else is.
"""

import sys
import time

from workloads import WORKLOADS, frobex_env


def main() -> None:
    src, name, seed = sys.argv[1:]
    workload = WORKLOADS[name](int(seed))
    start = time.perf_counter()
    workload.build(frobex_env(src))
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
