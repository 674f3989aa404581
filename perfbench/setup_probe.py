"""Time one fresh interpreter's set-up for a workload.

    python3 perfbench/setup_probe.py <workload> <seed>

prints the seconds from ``import gradedkernel`` until the workload's inputs
are built.  ``run.py`` starts this script several times and reports the
median as ``setup_s``.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import gradedkernel  # noqa: F401  (the import is what is timed)
    import workloads
    workloads.WORKLOADS[name].build(seed)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
