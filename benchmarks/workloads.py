"""Workload definitions for the avcil benchmark.

A workload is a dataset generator spec plus the run configs that train on it.
Everything the program sees is derived from the workload seed: the generator
seed is the workload seed, and the job seeds of workload seed n are
n*k .. n*k + k - 1 for k job seeds per strategy.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

ALL_STRATEGIES = ("finetune", "lwf", "icarl_fc", "icarl_nme", "ssil", "avcil", "oracle")


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict                  # GeneratorSpec fields, without the seed
    steps: int
    classes_per_step: int
    epochs: int
    batch_size: int
    lr: float
    memory_capacity: int
    strategies: Tuple[str, ...]
    seeds_per_strategy: int
    from_file: bool             # dataset written once to a file, read via dataset_path
    setup_reps: int = 5         # set-up is timed this many times; the median is reported

    def job_seeds(self, seed: int) -> List[int]:
        k = self.seeds_per_strategy
        return [seed * k + i for i in range(k)]

    def generator_spec(self, seed: int) -> dict:
        return dict(self.spec, seed=seed)

    def dataset_file(self, work_dir: Path) -> Path:
        return work_dir / f"{self.name}.avcf"

    def configs(self, seed: int, work_dir: Path) -> List[dict]:
        """One `avcil run` config per strategy; results go to AVCIL_OUTPUT_ROOT."""
        out = []
        for strategy in self.strategies:
            cfg = {
                "format_version": 1,
                "name": f"{self.name}-{strategy}",
                "steps": self.steps,
                "classes_per_step": self.classes_per_step,
                "strategy": strategy,
                "epochs": self.epochs,
                "batch_size": self.batch_size,
                "lr": self.lr,
                "memory_capacity": self.memory_capacity,
                "seeds": self.job_seeds(seed),
            }
            if self.from_file:
                cfg["dataset_path"] = str(self.dataset_file(work_dir))
            else:
                cfg["dataset"] = self.generator_spec(seed)
            out.append(cfg)
        return out

    def train_samples_in_step(self, step: int, memory_before: int,
                              retrains_on_all: bool) -> int:
        """Training pool size of step `step` (1-based), from the definition."""
        per_class = self.spec["train_per_class"]
        if retrains_on_all:
            return step * self.classes_per_step * per_class
        return self.classes_per_step * per_class + memory_before


_DESK_SHAPE = dict(mode="aligned", num_classes=16, d=16, frames=4, cells=4,
                   train_per_class=12, test_per_class=6, separation=4.0,
                   noise_sigma=0.8)

# Tiny tensors: time goes to graph bookkeeping and the composite losses, and
# every loss term and the teacher path run.
DESK = Workload(
    name="desk", spec=_DESK_SHAPE, steps=4, classes_per_step=4, epochs=25,
    batch_size=32, lr=3e-3, memory_capacity=64, strategies=ALL_STRATEGIES,
    seeds_per_strategy=3, from_file=False)

# (N, L, S, d) attention tensors: the model's numpy kernels and their VJPs
# dominate, and peak memory is large.
ATTENTION_LARGE = Workload(
    name="attention_large",
    spec=dict(_DESK_SHAPE, num_classes=8, d=128, frames=8, cells=49),
    steps=2, classes_per_step=4, epochs=3, batch_size=32, lr=3e-3,
    memory_capacity=32, strategies=("avcil",), seeds_per_strategy=2,
    from_file=False)

# Few epochs over many steps: per-step work (class scans, evaluation and NME
# on a growing test set, memory rebalancing, the per-old-task distillation
# loop, log writing) outweighs per-batch training.
MANY_TASKS = Workload(
    name="many_tasks",
    spec=dict(_DESK_SHAPE, num_classes=100, train_per_class=20, test_per_class=20),
    steps=10, classes_per_step=10, epochs=2, batch_size=32, lr=3e-3,
    memory_capacity=500, strategies=("icarl_nme", "avcil"), seeds_per_strategy=1,
    from_file=True)

WORKLOADS = {w.name: w for w in (DESK, ATTENTION_LARGE, MANY_TASKS)}


def quick(w: Workload) -> Workload:
    """A seconds-long version of a workload with the same code paths."""
    spec = dict(w.spec, num_classes=4, train_per_class=4, test_per_class=2)
    if w.spec["d"] > 16:
        spec.update(d=16, frames=4, cells=4)
    return dataclasses.replace(w, spec=spec, steps=2, classes_per_step=2,
                               epochs=1, memory_capacity=8,
                               seeds_per_strategy=1, setup_reps=1)


def get(name: str, quick_mode: bool = False) -> Workload:
    w = WORKLOADS[name]
    return quick(w) if quick_mode else w


def prepare_inputs(w: Workload, seed: int, work_dir: Path):
    """Make the program's inputs: generate the dataset and, for file-backed
    workloads, write it and read it back as `avcil run` will.

    Imports avcil, so call it only once `src` is on the path.
    """
    from avcil.datasets import (GeneratorSpec, generate_synthetic, load_dataset,
                                save_dataset)

    ds = generate_synthetic(GeneratorSpec(**w.generator_spec(seed)))
    if w.from_file:
        path = w.dataset_file(work_dir)
        tmp = path.with_name(path.name + ".tmp")
        save_dataset(ds, tmp)
        tmp.replace(path)
        ds = load_dataset(path)
    return ds


def write_configs(w: Workload, seed: int, work_dir: Path) -> List[Path]:
    paths = []
    for cfg in w.configs(seed, work_dir):
        path = work_dir / f"{cfg['name']}.json"
        path.write_text(json.dumps(cfg, sort_keys=True))
        paths.append(path)
    return paths
