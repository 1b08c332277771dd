"""Checks on what `avcil run` wrote, and the counts read back from it.

The checks use only the files and the workload definition: each result's
content hash is recomputed here, its mean accuracy is recomputed from the
per-step accuracies, and the run log must show every step and epoch.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

# A job's mean accuracy may move this many percentage points from the
# recorded reference: later changes may alter result bytes (and must say so),
# but not what the run learns.
REFERENCE_TOLERANCE = 10.0


@dataclass
class Job:
    key: str                        # "<strategy>/seed_<n>"
    strategy: str
    seed: int
    problem: Optional[str] = None   # None when every check passed
    content_hash: str = ""
    mean_accuracy: float = math.nan
    final_memory: int = 0
    sample_epochs: int = 0

    @property
    def ok(self) -> bool:
        return self.problem is None


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _hash_matches(payload: dict) -> bool:
    body = {k: v for k, v in payload.items() if k != "content_hash"}
    return hashlib.sha256(_canonical(body).encode()).hexdigest() == payload.get("content_hash")


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _check_result(w, job: Job, result: dict) -> None:
    _require(_hash_matches(result), "result.json content_hash does not match its content")
    _require(result.get("kind") == "result" and result.get("seed") == job.seed,
             "result.json kind or seed is wrong")
    _require(result["config"]["strategy"] == job.strategy, "result.json strategy is wrong")
    tasks = result["tasks"]
    _require(len(tasks) == w.steps and all(len(t) == w.classes_per_step for t in tasks),
             "task sequence does not match the workload")
    flat = [c for t in tasks for c in t]
    _require(len(set(flat)) == len(flat) and all(0 <= c < w.spec["num_classes"] for c in flat),
             "tasks are not disjoint classes of the dataset")
    matrix = result["accuracy_matrix"]
    _require([len(row) for row in matrix] == list(range(1, w.steps + 1)),
             "accuracy matrix is not a lower triangle over the steps")
    overall = result["overall_accuracy"]
    _require(len(overall) == w.steps, "one overall accuracy per step required")
    values = overall + [v for row in matrix for v in row]
    _require(all(0.0 <= v <= 100.0 for v in values), "an accuracy lies outside [0, 100]")
    mean = result["mean_accuracy"]
    _require(abs(mean - sum(overall) / len(overall)) <= 1e-9,
             "mean_accuracy is not the mean of the per-step accuracies")
    _require(0 <= result["final_memory_size"] <= w.memory_capacity,
             "final memory exceeds its capacity")


def _sample_epochs(w, events: List[dict], retrains_on_all: bool) -> int:
    """Training sample-epochs of one job, from the definition and the log's memory sizes."""
    kinds = [e["event"] for e in events]
    _require(kinds[0] == "log_opened", "run log does not start with log_opened")
    _require(kinds.count("step_evaluated") == w.steps, "run log misses a step evaluation")
    _require(kinds.count("epoch_loss") == w.steps * w.epochs, "run log misses an epoch")
    memory_after = {e["step"]: e["memory_size"] for e in events
                    if e["event"] == "memory_updated"}
    total = 0
    for step in range(1, w.steps + 1):
        pool = w.train_samples_in_step(step, memory_after.get(step - 1, 0), retrains_on_all)
        total += pool * w.epochs
    return total


def check_outputs(w, seed: int, out_root: Path, raised: Dict[str, str],
                  retrains_on_all: Dict[str, bool]) -> List[Job]:
    """One Job per (strategy, job seed); `raised` maps config names to errors."""
    jobs: List[Job] = []
    for strategy in w.strategies:
        name = f"{w.name}-{strategy}"
        run_dir = out_root / name
        per_seed: Dict[str, float] = {}
        for job_seed in w.job_seeds(seed):
            job = Job(f"{strategy}/seed_{job_seed}", strategy, job_seed)
            jobs.append(job)
            if name in raised:
                job.problem = f"avcil run raised {raised[name]}"
                continue
            seed_dir = run_dir / f"seed_{job_seed}"
            try:
                result = json.loads((seed_dir / "result.json").read_text())
                _check_result(w, job, result)
                events = [json.loads(line) for line in
                          (seed_dir / "run.log.jsonl").read_text().splitlines()]
                job.sample_epochs = _sample_epochs(w, events, retrains_on_all[strategy])
            except (OSError, ValueError, KeyError, TypeError, CheckFailed) as err:
                job.problem = f"{type(err).__name__}: {err}"
                continue
            job.content_hash = result["content_hash"]
            job.mean_accuracy = result["mean_accuracy"]
            job.final_memory = result["final_memory_size"]
            per_seed[str(job_seed)] = job.mean_accuracy
        if name in raised:
            continue
        try:
            agg = json.loads((run_dir / "aggregate.json").read_text())
            _require(_hash_matches(agg), "aggregate.json content_hash does not match")
            _require(all(agg["per_seed"][k]["mean_accuracy"] == v
                         for k, v in per_seed.items()),
                     "aggregate.json disagrees with the per-seed results")
        except (OSError, ValueError, KeyError, TypeError, CheckFailed) as err:
            for job in jobs[-w.seeds_per_strategy:]:
                job.problem = job.problem or f"aggregate: {type(err).__name__}: {err}"
    return jobs


def compare_reference(jobs: List[Job], reference: Optional[Dict[str, float]]) -> None:
    """Mark jobs whose mean accuracy left the recorded reference's tolerance."""
    if reference is None:
        return
    for job in jobs:
        if not job.ok:
            continue
        expected = reference.get(job.key)
        if expected is None:
            job.problem = "no reference mean_accuracy recorded for this job"
        elif abs(job.mean_accuracy - expected) > REFERENCE_TOLERANCE:
            job.problem = (f"mean_accuracy {job.mean_accuracy:.3f} is more than "
                           f"{REFERENCE_TOLERANCE} points from the reference {expected:.3f}")


def load_reference(path: Path, workload: str, seed: int) -> Optional[Dict[str, float]]:
    """Reference mean accuracies of one workload seed, or None if none was recorded."""
    try:
        table = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))
