"""One timed set-up: a fresh process imports avcil and makes a workload's inputs.

    python3 benchmarks/prepare.py <workload> <seed> <work_dir> [--quick]

`run.py` starts this several times and reports the median wall time as
`setup_s`. It exits 0 once the dataset is generated (and, for file-backed
workloads, written and read back).
"""

import bootstrap  # first: it sets the BLAS threads before numpy loads

import sys
from pathlib import Path

import workloads


def main(argv):
    name, seed, work_dir = argv[0], int(argv[1]), Path(argv[2])
    w = workloads.get(name, quick_mode="--quick" in argv[3:])
    bootstrap.import_avcil()
    import avcil.harness  # noqa: F401  (the import `avcil run` pays)
    workloads.prepare_inputs(w, seed, work_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
