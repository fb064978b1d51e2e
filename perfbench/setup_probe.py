"""One set-up sample: a fresh interpreter imports quatsvd and runs the
first job of a workload once, untimed and unchecked.

    python3 setup_probe.py <workload> <seed> <workdir>

run.py starts it with ``PYTHONPATH`` pointing at the checkout's ``src``
and takes its wall time, from spawn to exit, as one ``setup_s`` sample.
"""

import sys
from pathlib import Path


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    import quatsvd
    from workloads import WORKLOADS, cycles, warm_up

    workload = WORKLOADS[name]
    warm_up(quatsvd, workload, next(cycles(workload, seed))[0], workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
