"""Acceptance suite: the exact oracles, gradient gate, and desk-scale
orderings the package exists to demonstrate.

One test per criterion, so ``pytest -v tests/test_acceptance.py`` prints a
single pass/fail line for each. The benchmark configurations and seeds are
pinned; every numeric claim below is reproducible bit for bit.
"""
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import avcil.diffmath as dm
import avcil.model as mdl
import avcil.objectives as obj
from avcil import harness
from avcil.baselines import get_strategy
from avcil.datasets import GeneratorSpec, generate_synthetic
from avcil.metrics import AccuracyMatrix, average_forgetting, mean_accuracy
from avcil.objectives import LossWeights, TaskLayout
from avcil.protocol import (ExemplarMemory, StepState, TrainConfig,
                            build_task_sequence, label_map_for,
                            run_incremental, train_step, update_memory)

# The shared desk-scale benchmark: 16 well-separated audio-visual classes,
# split 4 tasks x 4 classes, trained 25 epochs per step with a 64-sample
# exemplar budget, averaged over three fixed seeds.
BENCH_SPEC = GeneratorSpec(mode="aligned", num_classes=16, d=16, frames=4,
                           cells=4, train_per_class=12, test_per_class=6,
                           separation=4.0, noise_sigma=0.8, seed=0)
BENCH_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def bench():
    ds = generate_synthetic(BENCH_SPEC)
    return ds, np.unique(ds.labels).tolist()


def bench_train(strategy, seed, **kw):
    return TrainConfig(strategy=strategy, epochs=25, batch_size=32, lr=3e-3,
                       memory_capacity=64, seed=seed, **kw)


def bench_run(ds, classes, strategy, seed, steps=4, per_step=4, **kw):
    seq = build_task_sequence(classes, steps, per_step, seed)
    return run_incremental(ds, seq, bench_train(strategy, seed, **kw)).matrix


def bench_config(tmp_path, name, **kw):
    cfg = {"format_version": 1, "name": name,
           "dataset": dataclasses.asdict(BENCH_SPEC),
           "steps": 4, "classes_per_step": 4,
           "epochs": 25, "batch_size": 32, "lr": 3e-3, "memory_capacity": 64,
           "seeds": list(BENCH_SEEDS),
           "output_root": str(tmp_path / "out")}
    cfg.update(kw)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_criterion_01_gradient_suite_across_seeds():
    t0 = time.perf_counter()
    worst = {}
    for seed in range(20):
        report = harness.gradcheck_report(seed=seed, n=6, d=8, ell=3,
                                          s_cells=4, classes=5)
        for name, err in report.items():
            worst[name] = max(worst.get(name, 0.0), err)
    elapsed = time.perf_counter() - t0
    bad = {name: err for name, err in worst.items() if not err < 1e-5}
    assert not bad, f"gradient checks over threshold: {bad}"
    assert elapsed < 60.0


def test_criterion_02_mean_accuracy_oracle():
    assert abs(mean_accuracy([79.81, 77.14, 71.43, 67.77]) - 74.04) <= 0.005


def test_criterion_03_loss_reduction_identities():
    rng = np.random.default_rng(3)
    n = 6
    f_a = dm.constant(rng.normal(size=(n, 5)))
    f_v = dm.constant(rng.normal(size=(n, 5)))

    # all labels distinct: the class-aware pairing collapses to the
    # instance-aware one
    distinct = np.arange(n)
    class_aware = float(obj.c_avss(f_a, f_v, distinct, tau=0.5, normalize=True).data)
    instance = float(obj.i_avss(f_a, f_v, tau=0.5, normalize=True).data)
    assert abs(class_aware - instance) <= 1e-9

    # all labels equal: every column is a positive, so the loss is ln N
    # regardless of the features
    equal = np.full(n, 2)
    all_pos = float(obj.c_avss(f_a, f_v, equal, tau=0.5, normalize=True).data)
    assert abs(all_pos - math.log(n)) <= 1e-9

    # attention distillation vanishes when teacher == student and when the
    # batch holds no exemplars
    spec = GeneratorSpec(mode="aligned", num_classes=4, d=6, frames=3, cells=4,
                         train_per_class=3, test_per_class=2, seed=9)
    ds = generate_synthetic(spec)
    batch = ds.audio[:5], ds.visual[:5]
    maps = mdl.forward(mdl.init_params(6, 4, seed=1), *batch, "audiovisual").maps
    other = mdl.forward(mdl.init_params(6, 4, seed=2), *batch, "audiovisual").maps
    assert abs(float(obj.vad(maps, maps, np.ones(5, bool), 0.5).data)) <= 1e-9
    assert float(obj.vad(maps, other, np.zeros(5, bool), 0.5).data) == 0.0

    # with a single task the separated softmax is plain cross-entropy
    logits = dm.constant(rng.normal(size=(n, 5)))
    labels = rng.integers(0, 5, size=n)
    sep = float(obj.ss_ce(logits, labels, TaskLayout((5,))).data)
    plain = float(obj.cross_entropy(logits, labels).data)
    assert abs(sep - plain) <= 1e-9

    # task-wise distillation vanishes when teacher == student on the shared
    # old-class block
    teacher = dm.slice_axis(logits, 1, 0, 3)
    assert abs(float(obj.tkd(logits, teacher, TaskLayout((3, 2))).data)) <= 1e-9


def test_criterion_04_memory_invariants_randomized():
    rng = np.random.default_rng(404)
    for case in range(200):
        capacity = int(rng.integers(1, 121))
        n_classes = int(rng.integers(1, 13))
        counts = [int(c) for c in rng.integers(1, 16, size=n_classes)]
        pools, base = {}, 0
        for c, count in enumerate(counts):
            pools[c] = list(range(base, base + count))
            base += count

        def build(seed):
            mem = ExemplarMemory(capacity, seed)
            assert mem.total() == 0  # a store that saw no task holds nothing
            split = n_classes // 2 or n_classes
            mem = update_memory(mem, {c: pools[c] for c in range(split)})
            rest = {c: pools[c] for c in range(split, n_classes)}
            return update_memory(mem, rest) if rest else mem

        mem = build(seed=case)
        quota = capacity // n_classes
        for c, count in enumerate(counts):
            assert len(mem.store[c]) == min(quota, count), (case, c)
        assert mem.total() <= capacity, case
        assert {c: r.tolist() for c, r in build(seed=case).store.items()} == \
            {c: r.tolist() for c, r in mem.store.items()}, case


def test_criterion_05_average_forgetting_oracle():
    # by hand: step 2 drops task 1 by 10; step 3 drops task 1 by 20 from its
    # best and task 2 by 10 -> mean(10, mean(20, 10)) = 12.5
    matrix = AccuracyMatrix.from_rows([[90.0], [80.0, 85.0], [70.0, 75.0, 99.0]],
                                      overall=[90.0, 82.5, 81.0])
    assert average_forgetting(matrix) == 12.5


def test_criterion_06_strategy_ordering_on_benchmark(bench):
    ds, classes = bench
    t0 = time.perf_counter()
    acc, forget = {}, {}
    for strategy in ("finetune", "lwf", "icarl_fc", "icarl_nme", "ssil",
                     "avcil", "oracle"):
        mats = [bench_run(ds, classes, strategy, s) for s in BENCH_SEEDS]
        acc[strategy] = float(np.mean([mean_accuracy(m) for m in mats]))
        forget[strategy] = float(np.mean([average_forgetting(m) for m in mats]))
    elapsed = time.perf_counter() - t0

    assert acc["avcil"] >= acc["finetune"] + 10.0, acc
    assert forget["avcil"] < forget["finetune"], forget
    for strategy in ("finetune", "lwf", "icarl_fc", "icarl_nme", "ssil", "avcil"):
        assert acc["oracle"] >= acc[strategy], (strategy, acc)
    assert elapsed < 300.0


def test_criterion_07_joint_beats_unimodal_on_pair_grid():
    # labels are (a, b) pairs; audio carries only a, visual only b, so either
    # modality alone tops out at 25% while the fused model can reach 100%
    spec = GeneratorSpec(mode="xor_pairs", num_classes=16, d=16, frames=2,
                         cells=2, train_per_class=12, test_per_class=6,
                         separation=4.0, noise_sigma=0.5, seed=0)
    ds = generate_synthetic(spec)
    classes = np.unique(ds.labels).tolist()
    final = {}
    for modality in ("audiovisual", "audio", "visual"):
        accs = []
        for seed in BENCH_SEEDS:
            cfg = TrainConfig(strategy="finetune", modality=modality, epochs=40,
                              batch_size=32, lr=3e-3, memory_capacity=0,
                              seed=seed)
            seq = build_task_sequence(classes, 1, 16, seed)
            accs.append(run_incremental(ds, seq, cfg).matrix.overall[0])
        final[modality] = float(np.mean(accs))
    assert final["audiovisual"] >= 80.0, final
    assert final["audio"] <= 35.0, final
    assert final["visual"] <= 35.0, final


def test_criterion_08_component_ablation_structure(tmp_path):
    ablate_dir = harness.cli_ablate(bench_config(tmp_path, "bench"))
    text = (ablate_dir / "ablate.csv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    comp = [r for r in rows if r["sweep"] == "components"]
    assert len(comp) == 8
    assert len({(r["i_avss"], r["c_avss"], r["vad"]) for r in comp}) == 8
    by_variant = {r["variant"]: r for r in comp}

    # the all-off variant must reproduce the separated-softmax replay
    # baseline exactly, seed by seed
    harness.cli_run(bench_config(tmp_path, "bench_ssil", strategy="ssil"))
    ssil_root = tmp_path / "out" / "bench_ssil"
    for seed in BENCH_SEEDS:
        off = json.loads((ablate_dir / "components" / "none"
                          / f"seed_{seed}" / "result.json").read_text())
        ssil = json.loads((ssil_root / f"seed_{seed}" / "result.json").read_text())
        assert off["accuracy_matrix"] == ssil["accuracy_matrix"], seed
        assert off["mean_accuracy"] == ssil["mean_accuracy"], seed
    ssil_agg = json.loads((ssil_root / "aggregate.json").read_text())
    assert float(by_variant["none"]["mean_acc"]) == ssil_agg["mean_accuracy"]["mean"]

    full = float(by_variant["i+c+vad"]["mean_acc"])
    for r in comp:
        assert full >= float(r["mean_acc"]), r["variant"]
    assert full > float(by_variant["none"]["mean_acc"])


def test_criterion_09_attention_distillation_reduces_drift(bench):
    ds, classes = bench

    def drift(seed, use_vad):
        cfg = bench_train("avcil", seed, use_vad=use_vad)
        seq = build_task_sequence(classes, 2, 8, seed)
        lmap = label_map_for(seq)
        strat = get_strategy("avcil")
        state = StepState(step=0,
                          params=mdl.init_params(ds.d, 8, seed=seed * 7 + 1),
                          memory=ExemplarMemory(64, seed), boundaries=())
        state, _ = train_step(state, seq.tasks[0], ds, cfg, strat, lmap)
        rows = state.memory.rows()
        exemplars = ds.audio[rows], ds.visual[rows]
        state, _ = train_step(state, seq.tasks[1], ds, cfg, strat, lmap)
        cur = mdl.forward(state.params, *exemplars, "audiovisual").maps
        old = mdl.forward(state.teacher, *exemplars, "audiovisual").maps
        deltas = [np.abs(cur.spatial.data - old.spatial.data).ravel(),
                  np.abs(cur.temporal.data - old.temporal.data).ravel()]
        return float(np.concatenate(deltas).mean())

    for seed in BENCH_SEEDS:
        assert drift(seed, True) < drift(seed, False), seed


def test_criterion_10_rerun_writes_byte_identical_results(tmp_path):
    cfg = {"format_version": 1, "name": "twice",
           "dataset": {"mode": "aligned", "num_classes": 6, "d": 8, "frames": 2,
                        "cells": 2, "train_per_class": 5, "test_per_class": 3,
                        "seed": 4},
           "steps": 3, "classes_per_step": 2,
           "epochs": 3, "batch_size": 8, "lr": 3e-3, "memory_capacity": 12,
           "seeds": [0, 1],
           "output_root": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))

    out = harness.cli_run(path)
    first = {p.relative_to(out): p.read_bytes()
             for p in sorted(out.rglob("*.json"))}
    assert harness.cli_run(path) == out
    for rel, data in first.items():
        assert (out / rel).read_bytes() == data, rel


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def test_result_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the attention-sized shape, where the float32 grid matmuls are large
    # enough for a threaded BLAS to split them
    cfg = {"format_version": 1, "name": "threads",
           "dataset": {"mode": "aligned", "num_classes": 4, "d": 128, "frames": 8,
                        "cells": 49, "train_per_class": 6, "test_per_class": 2,
                        "seed": 3},
           "steps": 2, "classes_per_step": 2,
           "epochs": 2, "batch_size": 8, "lr": 3e-3, "memory_capacity": 4,
           "seeds": [0]}
    src = str(Path(harness.__file__).resolve().parents[1])
    results = {}
    for threads in ("1", "2"):
        root = tmp_path / f"threads_{threads}"
        path = tmp_path / f"threads_{threads}.json"
        path.write_text(json.dumps(dict(cfg, output_root=str(root))))
        env = dict(os.environ, PYTHONPATH=src, **{v: threads for v in BLAS_THREAD_VARS})
        subprocess.run([sys.executable, "-m", "avcil", "run", str(path)], env=env,
                       check=True, capture_output=True, timeout=300)
        results[threads] = (root / "threads" / "seed_0" / "result.json").read_bytes()
    assert results["1"] == results["2"]
