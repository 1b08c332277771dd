"""End-to-end benchmark of avcil's training entry point.

    python3 benchmarks/run.py --workload desk --seed 0 --seconds 35 --trace 0

Runs from the root of a checkout and benchmarks the sources under its `src`.
Each pass calls `harness.cli_run` (the code path of `avcil run` with one
worker) once per strategy of the workload, then checks every result file.
One discarded warm-up pass of the workload's quick version (every code path
of the workload, at small shapes) runs first; timed passes then repeat until
`--seconds` is used up. `wall_s` is the sum over the pass's jobs of each
job's fastest time in the run (see `fastest_pass`); the per-layer metrics are
medians over passes. With
`--trace 0` the last line of stdout carries the end-to-end metrics. With
`--trace 1` the passes alternate untraced and traced, and the last line
carries the per-layer metrics of the traced passes, their coverage and the
tracing overhead. `--quick` shrinks every workload to a few seconds
for schema tests; its numbers mean nothing.

Exit status is 0 once a result is printed, even if a check failed (that shows
as `correct: false` and in `failed`); 2 when there is nothing to benchmark.
"""

import bootstrap  # first: it sets the BLAS threads before numpy loads

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import outputs
import tracer as tr
import workloads

WORK_ROOT = bootstrap.ROOT / ".bench_work"
REFERENCE = bootstrap.BENCH_DIR / "reference.json"

END_TO_END = {
    "wall_s": "s",
    "train_samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "mean_accuracy": "%",
}

OPS = ("matmul", "tanh", "softmax", "kl_rows", "take", "slice_axis", "exp", "log")
LAYERS = ("diffmath", "model", "objectives", "protocol", "datasets", "metrics", "harness")

# spans whose inclusive seconds are reported as "<span>_s"
TIMED_SPANS = (
    "diffmath.backward", "diffmath.adam_step", *(f"diffmath.{op}" for op in OPS),
    "model.forward", "model.teacher_forward", "model.eval_forward",
    "objectives.compose",
    *(f"objectives.{t}" for t in ("ss_ce", "i_avss", "c_avss", "vad", "tkd")),
    "protocol.train_step", "protocol.update_memory",
    "datasets.generate", "datasets.load", "datasets.of_class",
    "metrics.evaluate", "metrics.nme",
    "harness.run_one_seed", "harness.write",
)
# spans whose call counts are reported as "<span>_calls"
COUNTED_SPANS = (*(f"diffmath.{op}" for op in OPS), "model.forward",
                 "model.teacher_forward", "datasets.of_class")

PER_LAYER = {
    **{f"{span}_s": "s" for span in TIMED_SPANS},
    **{f"{span}_calls": "count" for span in COUNTED_SPANS},
    "protocol.batches": "count",
    "diffmath.graph_nodes_per_batch": "count",
    "protocol.batch_assembly_s": "s",
    "protocol.memory_fill_ratio": "ratio",
    "protocol.memory_shortfall_classes": "count",
    "metrics.eval_samples": "count",
    "harness.bytes_written": "bytes",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


@dataclass
class Pass:
    wall: float
    jobs: List[outputs.Job]
    config_walls: List[float]
    tracer: Optional[tr.Tracer] = None

    @property
    def sample_epochs(self) -> int:
        return sum(j.sample_epochs for j in self.jobs)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in bootstrap.BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def fastest_pass(passes: List[Pass]) -> float:
    """A pass's wall time at the machine's unloaded speed.

    The sum over the pass's jobs (one `cli_run` each) of each job's fastest
    time across the passes. On a shared host the CPU alternates for seconds at
    a time between a fast and a roughly 1.5x slower speed, so a median over
    passes reads whichever speed held for most of the run: on a 2-core VM,
    medians of a fixed numpy loop moved 25% between 20-s runs while the
    minimum moved 2%. Contention only adds time, so the fastest run of a job
    is the steadiest estimate of its own cost.
    """
    return sum(min(walls) for walls in zip(*(p.config_walls for p in passes)))


def quartiles(values: List[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def time_setups(w, args, work: Path) -> List[float]:
    """Wall time of fresh processes that import avcil and make the inputs."""
    cmd = [sys.executable, str(bootstrap.BENCH_DIR / "prepare.py"), w.name,
           str(args.seed), str(work)] + (["--quick"] if args.quick else [])
    times = []
    for _ in range(w.setup_reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    def __init__(self, w, args, work: Path, reference: Optional[Dict[str, float]]):
        from avcil import harness
        from avcil.baselines import get_strategy
        self.w, self.args, self.work = w, args, work
        self.harness = harness
        self.configs = workloads.write_configs(w, args.seed, work)
        self.retrains = {s: get_strategy(s).retrains_on_all for s in w.strategies}
        self.uses_memory = {s: get_strategy(s).uses_memory for s in w.strategies}
        self.reference = reference
        self.baseline: Dict[str, str] = {}      # job key -> content hash in the first pass
        self.errors: List[str] = []

    def one_pass(self, tag: str, tracer: Optional[tr.Tracer] = None) -> Pass:
        out_root = self.work / f"pass-{tag}"
        os.environ[self.harness.OUTPUT_ROOT_ENV] = str(out_root)
        raised: Dict[str, str] = {}
        undo = tr.instrument(tracer) if tracer is not None else None
        config_walls = []
        t0 = time.perf_counter()
        try:
            for path in self.configs:
                tc = time.perf_counter()
                try:
                    self.harness.cli_run(path, workers=1)
                except Exception as err:    # a failing job is counted, not fatal
                    raised[path.stem] = f"{type(err).__name__}: {err}"
                    self.errors.append(traceback.format_exc())
                config_walls.append(time.perf_counter() - tc)
        finally:
            wall = time.perf_counter() - t0
            if undo is not None:
                undo()
        jobs = outputs.check_outputs(self.w, self.args.seed, out_root, raised, self.retrains)
        shutil.rmtree(out_root, ignore_errors=True)
        outputs.compare_reference(jobs, self.reference)
        for job in jobs:
            if not job.ok:
                continue
            first = self.baseline.setdefault(job.key, job.content_hash)
            if first != job.content_hash:
                job.problem = "result.json differs from the first pass of the same job"
        return Pass(wall, jobs, config_walls, tracer)

    def warm_up(self) -> Pass:
        """Lazy set-up (BLAS, allocator, interpreter caches) happens here, untimed.

        On a 2-core x86-64 machine (OpenBLAS, one thread) the first and the
        later `cli_run` calls of one full-size job took the same time within
        1%, so a full-size warm-up pass would only cost run time.
        """
        small = workloads.quick(self.w)
        work = self.work / "warmup"
        work.mkdir()
        workloads.prepare_inputs(small, self.args.seed, work)
        return Runner(small, self.args, work, reference=None).one_pass("warmup")

    def layer_metrics(self, p: Pass) -> Dict[str, float]:
        t = p.tracer
        m = {f"{span}_s": t.total.get(span, 0.0) for span in TIMED_SPANS}
        m.update({f"{span}_calls": t.calls.get(span, 0) for span in COUNTED_SPANS})
        m["protocol.batches"] = t.calls.get("objectives.compose", 0)
        backward_calls = t.calls.get("diffmath.backward", 0)
        m["diffmath.graph_nodes_per_batch"] = \
            t.counts["diffmath.graph_nodes"] / backward_calls if backward_calls else 0.0
        m["protocol.batch_assembly_s"] = t.self_time.get("protocol.train_step", 0.0)
        fills = [j.final_memory / self.w.memory_capacity for j in p.jobs
                 if j.ok and self.uses_memory[j.strategy]]
        m["protocol.memory_fill_ratio"] = statistics.mean(fills) if fills else 0.0
        for name in ("protocol.memory_shortfall_classes", "metrics.eval_samples",
                     "harness.bytes_written"):
            m[name] = t.counts[name]
        layer_self = t.layer_self_times()
        for layer in LAYERS:
            m[f"self.{layer}_s"] = layer_self.get(layer, 0.0)
        # the tracer's own graph walks are not program time
        program_wall = p.wall - t.total.get(tr.OWN_SPAN, 0.0)
        m["trace.coverage"] = sum(layer_self.values()) / program_wall
        return m

    def run(self) -> int:
        w, args = self.w, self.args
        env = environment()
        setup_times = time_setups(w, args, self.work)
        warmup = self.warm_up()
        plain: List[Pass] = []
        traced: List[Pass] = []
        start = time.perf_counter()
        while True:
            unit_start = time.perf_counter()
            plain.append(self.one_pass(f"plain{len(plain)}"))
            if args.trace:
                traced.append(self.one_pass(f"traced{len(traced)}", tr.Tracer()))
            now = time.perf_counter()
            # start another pass only if it is expected to end by the deadline
            # plus half a pass, so the pass count stays steady from run to run
            if now - start + (now - unit_start) / 2 >= args.seconds:
                break

        all_jobs = [j for p in [warmup] + plain + traced for j in p.jobs]
        failed = [j for j in all_jobs if not j.ok]
        walls = [p.wall for p in plain]
        ok_first = [j for j in plain[0].jobs if j.ok]
        if args.trace:
            per_pass = [self.layer_metrics(p) for p in traced]
            metrics = {name: statistics.median(pm[name] for pm in per_pass)
                       for name in per_pass[0]}
            metrics["trace.wall_s"] = fastest_pass(traced)
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - fastest_pass(plain)
            units = PER_LAYER
        else:
            wall = fastest_pass(plain)
            metrics = {
                "wall_s": wall,
                "train_samples_per_s": plain[0].sample_epochs / wall,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "mean_accuracy": (statistics.mean(j.mean_accuracy for j in ok_first)
                                  if ok_first else 0.0),
            }
            units = END_TO_END

        report = {
            "workload": w.name, "seed": args.seed, "quick": args.quick,
            "trace": args.trace, "environment": env,
            "jobs_per_pass": len(plain[0].jobs),
            "pass_wall_s": quartiles(walls),
            "fastest_pass_s": fastest_pass(plain),
            "setup_s": quartiles(setup_times),
            "train_sample_epochs_per_pass": plain[0].sample_epochs,
            "config_wall_s": {path.stem: [p.config_walls[i] for p in plain]
                              for i, path in enumerate(self.configs)},
            "error_rate": len(failed) / len(all_jobs),
            "reference": ("not recorded for this seed" if self.reference is None
                          else f"within {outputs.REFERENCE_TOLERANCE} points per job"),
            "job_mean_accuracy": {j.key: j.mean_accuracy for j in plain[0].jobs},
            "problems": sorted({f"{j.key}: {j.problem}" for j in failed})[:20],
            "tracebacks": self.errors[:3],
        }
        if args.trace:
            report["traced_pass_wall_s"] = quartiles([p.wall for p in traced])
            report["spans"] = span_table(traced[-1].tracer)
        print(json.dumps(report, indent=1))
        result = {
            "correct": not failed,
            "attempted": len(all_jobs),
            "failed": len(failed),
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units.items()},
        }
        print(json.dumps(result), flush=True)
        return 0


def span_table(t: tr.Tracer) -> dict:
    """The last traced pass: per-span totals and the parent -> child call counts."""
    names = sorted(t.total, key=lambda n: -t.total[n])
    return {
        "by_name": {n: {"total_s": t.total[n], "self_s": t.self_time[n],
                        "calls": t.calls[n]} for n in names},
        "edges": {f"{parent or 'root'} -> {child}": calls
                  for (parent, child), calls in sorted(t.edges.items(),
                                                       key=lambda kv: str(kv[0]))},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    w = workloads.get(args.workload, args.quick)
    try:
        bootstrap.import_avcil()
    except bootstrap.SourceMissing as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 2
    # shortfall warnings are counted by the tracer, not printed
    logging.getLogger("avcil").addHandler(logging.NullHandler())
    work = WORK_ROOT / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True)
    reference = None if args.quick else outputs.load_reference(REFERENCE, w.name, args.seed)
    try:
        return Runner(w, args, work, reference).run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
