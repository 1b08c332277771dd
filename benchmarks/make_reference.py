"""Record the reference mean accuracies that run.py checks each job against.

    python3 benchmarks/make_reference.py [--seeds N]

Runs one untimed pass of every workload for workload seeds 0 .. N-1 and
writes benchmarks/reference.json. Rerun it, and say so in CHANGES.md, when a
change to the program moves results on purpose.
"""

import bootstrap  # first: it sets the BLAS threads before numpy loads

import argparse
import json
import logging
import os
import shutil
import sys

import run
import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=20)
    args = p.parse_args(argv)
    bootstrap.import_avcil()
    logging.getLogger("avcil").addHandler(logging.NullHandler())
    table = {}
    for name, w in workloads.WORKLOADS.items():
        for seed in range(args.seeds):
            work = run.WORK_ROOT / f"reference-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                workloads.prepare_inputs(w, seed, work)
                opts = argparse.Namespace(seed=seed, quick=False)
                one = run.Runner(w, opts, work, reference=None).one_pass("reference")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            bad = [j for j in one.jobs if not j.ok]
            if bad:
                print(f"{name} seed {seed}: {bad[0].key}: {bad[0].problem}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = {j.key: j.mean_accuracy for j in one.jobs}
            print(f"{name} seed {seed}: {one.wall:.2f} s", flush=True)
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
