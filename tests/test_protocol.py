import logging
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import avcil.diffmath as dm
import avcil.model as mdl
import avcil.objectives as obj
from avcil.baselines import STRATEGY_TAGS, Strategy, get_strategy
from avcil.datasets import GeneratorSpec, generate_synthetic
from avcil.errors import ConfigError, ContractError, TrainingDiverged
from avcil.metrics import mean_accuracy
from avcil.objectives import LossWeights
from avcil.protocol import (ExemplarMemory, StepState, TrainConfig, TaskSequence,
                            _teacher_outputs, build_task_sequence, run_incremental,
                            train_step, update_memory)


def make_dataset(num_classes=6, seed=0, train=6, test=3, d=6):
    spec = GeneratorSpec(mode="aligned", num_classes=num_classes, d=d, frames=2,
                        cells=3, train_per_class=train, test_per_class=test,
                        seed=seed)
    return generate_synthetic(spec)


def quick_config(**kw):
    base = dict(strategy="finetune", epochs=2, batch_size=8, lr=1e-3,
                memory_capacity=12, seed=5, use_vad=True)
    base.update(kw)
    return TrainConfig(**base)


# --- task sequences -------------------------------------------------------

def test_task_sequence_partitions_classes():
    seq = build_task_sequence(range(10), steps=3, classes_per_step=3, seed=1)
    flat = [c for task in seq.tasks for c in task]
    assert seq.steps == 3
    assert all(len(t) == 3 for t in seq.tasks)
    assert len(set(flat)) == 9
    assert set(flat) <= set(range(10))


def test_task_sequence_is_seed_deterministic():
    a = build_task_sequence(range(12), 4, 3, seed=9)
    b = build_task_sequence(range(12), 4, 3, seed=9)
    c = build_task_sequence(range(12), 4, 3, seed=10)
    assert a.tasks == b.tasks
    assert a.tasks != c.tasks


def test_task_sequence_rejects_bad_input():
    with pytest.raises(ContractError):
        build_task_sequence([1, 1, 2], 1, 2, seed=0)
    with pytest.raises(ContractError):
        build_task_sequence(range(5), 3, 2, seed=0)
    with pytest.raises(ContractError):
        build_task_sequence(range(5), 0, 2, seed=0)


def test_model_labels_and_layout_follow_appearance_order():
    seq = TaskSequence(((7, 3), (1, 9)))
    assert seq.model_labels(np.array([9, 7, 1, 3, 7])).tolist() == [3, 0, 2, 1, 0]
    assert seq.layout(1).boundaries == (2,) and seq.layout(2).boundaries == (2, 2)
    assert seq.seen_classes(1) == (7, 3)
    assert seq.seen_classes(2) == (7, 3, 1, 9)


# --- exemplar memory ------------------------------------------------------

def test_memory_quota_is_floor_of_capacity_over_classes():
    mem = ExemplarMemory(capacity=10, seed=0)
    mem = update_memory(mem, {0: range(20), 1: range(20, 40), 2: range(40, 60)})
    assert {len(v) for v in mem.store.values()} == {3}   # floor(10/3)
    assert mem.total() == 9 <= mem.capacity


def test_memory_shrinks_old_classes_to_the_new_quota():
    mem = ExemplarMemory(capacity=12, seed=3)
    mem = update_memory(mem, {0: range(30), 1: range(30, 60)})
    first = {c: set(ids) for c, ids in mem.store.items()}
    assert all(len(v) == 6 for v in first.values())
    mem = update_memory(mem, {2: range(60, 90), 3: range(90, 120)})
    assert all(len(v) == 3 for v in mem.store.values())
    # survivors must come from what was already stored, not the full class
    for c in (0, 1):
        assert set(mem.store[c]) <= first[c]


def test_memory_keeps_short_classes_and_warns(caplog):
    mem = ExemplarMemory(capacity=40, seed=0)
    with caplog.at_level(logging.WARNING, logger="avcil.protocol"):
        mem = update_memory(mem, {0: range(3), 1: range(100, 130)})
    assert set(mem.store[0]) == {0, 1, 2}
    assert len(mem.store[1]) == 20
    assert any("quota" in r.message for r in caplog.records)


def test_memory_is_deterministic_in_its_seed():
    def build(seed):
        mem = ExemplarMemory(capacity=9, seed=seed)
        mem = update_memory(mem, {0: range(50), 1: range(50, 100)})
        return update_memory(mem, {2: range(100, 150)})
    def stored(seed):
        return {c: rows.tolist() for c, rows in build(seed).store.items()}
    assert stored(4) == stored(4)
    assert stored(4) != stored(5)


def test_memory_rejects_repeated_classes():
    mem = update_memory(ExemplarMemory(capacity=8, seed=0), {0: range(10)})
    with pytest.raises(ContractError):
        update_memory(mem, {0: range(10, 20)})


def test_memory_capacity_zero_stores_nothing():
    mem = update_memory(ExemplarMemory(capacity=0, seed=0), {0: range(5), 1: range(5, 9)})
    assert mem.total() == 0
    assert tuple(sorted(mem.store)) == (0, 1)


def test_memory_quota_below_class_count_empties_some_only_never_overflows():
    mem = update_memory(ExemplarMemory(capacity=2, seed=1),
                        {0: range(9), 1: range(9, 18), 2: range(18, 27)})
    assert mem.total() == 0    # floor(2/3) = 0
    mem2 = update_memory(ExemplarMemory(capacity=5, seed=1),
                         {0: range(9), 1: range(9, 18)})
    assert mem2.total() == 4


# --- config ---------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        quick_config(epochs=0)
    with pytest.raises(ConfigError):
        quick_config(batch_size=0)
    with pytest.raises(ConfigError):
        quick_config(lr=0.0)
    with pytest.raises(ConfigError):
        quick_config(memory_capacity=-1)
    with pytest.raises(ConfigError):
        quick_config(modality="text")


def test_replay_strategy_needs_capacity():
    ds = make_dataset()
    seq = build_task_sequence(range(6), 2, 3, seed=0)
    with pytest.raises(ConfigError):
        run_incremental(ds, seq, quick_config(strategy="avcil", memory_capacity=0))


# --- single steps ---------------------------------------------------------

def _record_snapshots(monkeypatch):
    """Every teacher `mdl.snapshot` returns from here on, in order."""
    snapshots = []
    real_snapshot = mdl.snapshot

    def recording_snapshot(params):
        snapshots.append(real_snapshot(params))
        return snapshots[-1]

    monkeypatch.setattr(mdl, "snapshot", recording_snapshot)
    return snapshots


def test_teacher_is_snapshotted_before_expansion(monkeypatch):
    ds = make_dataset()
    seq = build_task_sequence(range(6), 2, 3, seed=2)
    config = quick_config(strategy="avcil")
    strategy = get_strategy("avcil")
    params = mdl.init_params(ds.d, 3, seed=11)
    state = StepState(step=0, params=params,
                      memory=ExemplarMemory(config.memory_capacity, config.seed))
    state = train_step(state, seq, ds, config, strategy)
    end_of_step1 = {name: getattr(state.params, name).data.copy()
                    for name in ("w_audio", "cls_weight", "cls_bias")}
    snapshots = _record_snapshots(monkeypatch)
    state = train_step(state, seq, ds, config, strategy)
    [teacher] = snapshots
    assert teacher.cls_weight.shape == (3, ds.d)      # pre-expansion width
    assert np.array_equal(teacher.cls_weight.data, end_of_step1["cls_weight"])
    assert np.array_equal(teacher.w_audio.data, end_of_step1["w_audio"])
    assert not teacher.cls_weight.requires_grad
    assert state.params.num_classes == 6


def _second_step(**kw):
    """A dataset, a sequence, an avcil config and strategy, and the state after step 1."""
    ds = make_dataset()
    seq = build_task_sequence(range(6), 2, 3, seed=2)
    config = quick_config(strategy="avcil", memory_capacity=6, **kw)
    strategy = get_strategy("avcil")
    state = StepState(step=0, params=mdl.init_params(ds.d, 3, seed=11),
                      memory=ExemplarMemory(6, config.seed))
    return ds, seq, config, strategy, train_step(state, seq, ds, config, strategy)


def test_teacher_runs_once_per_step_in_chunks_of_the_batch_size(monkeypatch):
    ds, seq, config, strategy, state = _second_step(batch_size=7)
    calls = []
    real_forward = mdl.forward

    def recording_forward(params, *args):
        calls.append(params.w_audio.requires_grad)
        return real_forward(params, *args)

    monkeypatch.setattr(mdl, "forward", recording_forward)
    train_step(state, seq, ds, config, strategy)
    # 3 new classes x 6 train samples + 6 exemplars: ceil(24 / 7) chunks, then
    # 4 student batches in each of 2 epochs
    assert calls == [False] * 4 + [True] * 4 * 2


def test_cached_teacher_outputs_equal_a_teacher_forward_on_each_batch_bitwise(monkeypatch):
    ds, seq, config, strategy, state = _second_step()
    batches, cached = [], []
    real_forward = mdl.forward

    def recording_forward(params, audio, visual, modality="audiovisual", map_rows=None,
                          rows=None, distill=None):
        if params.w_audio.requires_grad:
            batches.append((rows, map_rows, distill))
        return real_forward(params, audio, visual, modality, map_rows, rows, distill)

    def recording_compose(trace, teacher_logits, labels, layout, weights):
        cached.append(teacher_logits)
        return obj.total_loss(trace, teacher_logits, labels, layout, weights)

    monkeypatch.setattr(mdl, "forward", recording_forward)
    snapshots = _record_snapshots(monkeypatch)
    train_step(state, seq, ds, config, replace(strategy, compose=recording_compose))
    assert len(batches) == len(cached) == 3 * 2
    exemplars_read = 0
    [snapshot] = snapshots
    for (rows, map_rows, distill), teacher_logits in zip(batches, cached):
        teacher_maps, teacher_rows, lam = distill
        fresh = real_forward(snapshot, ds.audio[rows], ds.visual[rows])
        assert teacher_logits.tobytes() == fresh.logits.data.tobytes()
        for kept, batch_map in zip(teacher_maps, fresh.maps):
            assert kept[teacher_rows].tobytes() == batch_map[map_rows].tobytes()
        assert lam == config.weights.lambda_vad
        exemplars_read += len(teacher_rows)
    assert exemplars_read == 6 * 2      # every exemplar, once per epoch


def test_teacher_pass_holds_the_cache_and_one_chunk_of_maps():
    # each chunk's maps are freed before the next chunk is built, so the pass
    # peaks at the cache plus one chunk's maps and the attention's work on a
    # row or two, well under half a chunk's maps at attention_large's shape
    n, ell, cells, d, chunk, replay_from = 64, 8, 49, 128, 24, 16
    rng = np.random.default_rng(3)
    dataset = SimpleNamespace(audio=rng.normal(size=(n, d)),
                              visual=rng.standard_normal((n, ell, cells, d), np.float32))
    teacher = mdl.snapshot(mdl.init_params(d, 4, seed=1))
    tracemalloc.start()
    try:
        _, maps = _teacher_outputs(teacher, dataset, rng.permutation(n), replay_from,
                                   quick_config(batch_size=chunk), keep_maps=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cache = sum(m.nbytes for m in maps)
    assert peak < cache + 1.5 * cache * chunk / (n - replay_from)


@pytest.mark.parametrize("tag", ["avcil", "icarl_nme"])
def test_every_forward_reads_the_dataset_arrays_in_place(monkeypatch, tag):
    ds = make_dataset()
    seq = build_task_sequence(range(6), 2, 3, seed=2)
    calls = []
    real_forward = mdl.forward

    def recording_forward(params, audio, visual, modality="audiovisual", map_rows=None,
                          rows=None, distill=None):
        calls.append((params.w_audio.requires_grad, audio is ds.audio, visual is ds.visual,
                      rows))
        return real_forward(params, audio, visual, modality, map_rows, rows, distill)

    monkeypatch.setattr(mdl, "forward", recording_forward)
    run_incremental(ds, seq, quick_config(strategy=tag, memory_capacity=6))
    # the batch loop (trainable parameters), the teacher pass and evaluation
    # (frozen ones) each hand over the dataset's own arrays and batch rows
    for _, own_audio, own_visual, rows in calls:
        assert own_audio and own_visual
        assert rows.ndim == 1 and rows.dtype.kind == "i" and rows.size
    student = sum(trains for trains, *_ in calls)
    assert student == 2 * 2 * 3         # 2 steps x 2 epochs x 3 batches of 8
    # the teacher's 3 chunks of 8 over step 2's pool, and one evaluation
    # chunk per step, or two with nearest-mean (exemplars, then queries)
    assert len(calls) - student == 3 + (4 if tag == "icarl_nme" else 2)


@pytest.mark.parametrize("tag", ["avcil", "icarl_fc"])
def test_student_forward_keeps_maps_only_of_the_rows_vad_reads(monkeypatch, tag):
    ds, seq, config, _, state = _second_step()
    held = []
    real_forward = mdl.forward

    def recording_forward(params, audio, visual, modality="audiovisual", map_rows=None,
                          rows=None, distill=None):
        trace = real_forward(params, audio, visual, modality, map_rows, rows, distill)
        if params.w_audio.requires_grad:
            held.append(len(map_rows))
            # avcil distills its map rows and keeps no map array; icarl_fc reads none
            assert (trace.maps is None) == (distill is not None) == (tag == "avcil")
            assert tag == "avcil" or len(trace.maps[0]) == 0
        return trace

    def recording_compose(trace, teacher_logits, labels, layout, weights):
        replayed = np.count_nonzero(labels < 3)     # step 1's classes come from memory
        assert held[-1] == (replayed if tag == "avcil" else 0)
        assert (trace.vad is not None) == (tag == "avcil")
        return obj.total_loss(trace, teacher_logits, labels, layout, weights)

    monkeypatch.setattr(mdl, "forward", recording_forward)
    strategy = replace(get_strategy(tag), compose=recording_compose)
    train_step(state, seq, ds, replace(config, strategy=tag), strategy)
    assert sum(held) == (6 * 2 if tag == "avcil" else 0)   # 6 exemplars, 2 epochs


def test_step_grows_boundaries_and_replays_memory():
    ds = make_dataset()
    seq = build_task_sequence(range(6), 3, 2, seed=2)
    config = quick_config(strategy="ssil", memory_capacity=6)
    strategy = get_strategy("ssil")
    state = StepState(step=0, params=mdl.init_params(ds.d, 2, seed=11),
                      memory=ExemplarMemory(6, config.seed))
    for t in range(3):
        state = train_step(state, seq, ds, config, strategy)
        assert len(state.loss_curves[-1]) == config.epochs
    assert state.params.num_classes == 6 and len(state.loss_curves) == 3
    assert tuple(sorted(state.memory.store)) == tuple(sorted(seq.seen_classes(3)))
    assert state.memory.total() == 6


def test_divergence_raises_with_location():
    ds = make_dataset(num_classes=2)
    seq = TaskSequence(((0, 1),))
    exploder = Strategy("exploder", uses_memory=False, uses_teacher=False,
                        retrains_on_all=False, nme_eval=False,
                        compose=lambda *a: dm.parameter(np.float64("inf")))
    state = StepState(step=0, params=mdl.init_params(ds.d, 2, seed=0),
                      memory=ExemplarMemory(0, 0))
    with pytest.raises(TrainingDiverged) as err:
        train_step(state, seq, ds, quick_config(), exploder)
    assert err.value.step == 1 and err.value.epoch == 0 and err.value.batch == 0


# --- full runs ------------------------------------------------------------

def test_run_shapes_and_determinism():
    ds = make_dataset()
    seq = build_task_sequence(range(6), 3, 2, seed=7)
    config = quick_config(strategy="finetune", epochs=2)
    a = run_incremental(ds, seq, config)
    b = run_incremental(ds, seq, config)
    assert [len(row) for row in a.rows] == [1, 2, 3]
    assert a.rows == b.rows
    assert a.overall == b.overall
    for pa, pb in zip(a.params.parameters(), b.params.parameters()):
        assert np.array_equal(pa.data, pb.data)
    assert 0.0 <= mean_accuracy(a.overall) <= 100.0


def test_run_log_structure():
    ds = make_dataset()
    seq = build_task_sequence(range(6), 2, 3, seed=7)
    config = quick_config(strategy="ssil", epochs=3)
    events: list = []
    out = run_incremental(ds, seq, config, events=events)
    kinds = [e["event"] for e in events]
    assert kinds[0] == "run_started"
    assert kinds.count("step_started") == 2
    assert kinds.count("epoch_loss") == 2 * 3
    assert kinds.count("memory_updated") == 2
    assert kinds.count("step_evaluated") == 2
    evaluated = [e for e in events if e["event"] == "step_evaluated"]
    assert all("wall_time_s" in e and "overall_accuracy" in e for e in evaluated)
    assert len(out.loss_curves) == 2 and all(len(c) == 3 for c in out.loss_curves)


def test_returned_state_agrees_with_the_run_log():
    ds = make_dataset()
    seq = build_task_sequence(range(6), 3, 2, seed=7)
    events: list = []
    out = run_incremental(ds, seq, quick_config(strategy="ssil", epochs=3), events=events)
    evaluated = [e for e in events if e["event"] == "step_evaluated"]
    losses = [e for e in events if e["event"] == "epoch_loss"]
    assert out.step == 3
    assert out.rows == [e["per_task"] for e in evaluated]
    assert out.overall == [e["overall_accuracy"] for e in evaluated]
    assert out.loss_curves == [[e["loss"] for e in losses if e["step"] == t]
                               for t in (1, 2, 3)]


def test_finetune_ignores_memory_capacity():
    ds = make_dataset()
    seq = build_task_sequence(range(6), 2, 3, seed=3)
    a = run_incremental(ds, seq, quick_config(memory_capacity=0))
    b = run_incremental(ds, seq, quick_config(memory_capacity=600))
    for pa, pb in zip(a.params.parameters(), b.params.parameters()):
        assert np.array_equal(pa.data, pb.data)
    assert a.overall == b.overall


def test_ssil_is_bitwise_avcil_with_everything_off():
    ds = make_dataset()
    seq = build_task_sequence(range(6), 3, 2, seed=1)
    off = LossWeights(lambda_i=0.0, lambda_c=0.0)
    a = run_incremental(ds, seq, quick_config(strategy="ssil"))
    b = run_incremental(ds, seq, quick_config(strategy="avcil", use_vad=False,
                                              weights=off))
    for pa, pb in zip(a.params.parameters(), b.params.parameters()):
        assert np.array_equal(pa.data, pb.data)
    assert a.rows == b.rows


def test_single_task_finetune_and_stripped_avcil_coincide():
    # with one task there is no teacher, no replay, and no old block: the
    # composite objective with the contrastive and attention terms disabled
    # must follow the exact same update trajectory as plain fine-tuning
    ds = make_dataset(num_classes=4)
    seq = build_task_sequence(range(4), 1, 4, seed=0)
    off = LossWeights(lambda_i=0.0, lambda_c=0.0)
    a = run_incremental(ds, seq, quick_config(strategy="finetune", epochs=3))
    b = run_incremental(ds, seq, quick_config(strategy="avcil", use_vad=False,
                                              weights=off, epochs=3))
    for pa, pb in zip(a.params.parameters(), b.params.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_nme_strategy_runs_and_uses_memory():
    ds = make_dataset()
    seq = build_task_sequence(range(6), 2, 3, seed=4)
    out = run_incremental(ds, seq, quick_config(strategy="icarl_nme",
                                                memory_capacity=18))
    assert [len(row) for row in out.rows] == [1, 2]
    assert out.memory.total() > 0


def test_oracle_trains_on_everything_each_step():
    ds = make_dataset()
    seq = build_task_sequence(range(6), 2, 3, seed=4)
    out = run_incremental(ds, seq, quick_config(strategy="oracle", epochs=2))
    assert [len(row) for row in out.rows] == [1, 2]
    # the oracle re-initializes its head, so the second step's classifier must
    # not contain the warm rows an expanding strategy would keep
    warm = run_incremental(ds, seq, quick_config(strategy="finetune", epochs=2))
    assert not np.array_equal(out.params.cls_weight.data[:3],
                              warm.params.cls_weight.data[:3])


def test_modalities_run_end_to_end():
    ds = make_dataset(num_classes=4)
    seq = build_task_sequence(range(4), 2, 2, seed=6)
    for modality in ("audio", "visual", "audiovisual"):
        out = run_incremental(ds, seq, quick_config(strategy="avcil",
                                                    modality=modality))
        assert len(out.overall) == 2


def test_every_tracked_node_is_float64_in_every_strategy_and_modality(monkeypatch):
    ds = make_dataset(num_classes=4)
    assert ds.visual.dtype == np.float32
    seq = build_task_sequence(range(4), 2, 2, seed=6)
    made = []     # (tracked, dtype, op, ndim) of every node any primitive builds
    node = dm._node

    def recording(data, parents, vjp, op):
        out = node(data, parents, vjp, op)
        made.append((out.requires_grad, out.data.dtype, op, out.data.ndim))
        return out

    monkeypatch.setattr(dm, "_node", recording)
    jobs = [(tag, "audiovisual") for tag in STRATEGY_TAGS] + [("avcil", "audio"),
                                                              ("avcil", "visual")]
    for tag, modality in jobs:
        made.clear()
        run_incremental(ds, seq, quick_config(strategy=tag, modality=modality, epochs=1))
        assert any(tracked for tracked, *_ in made)
        assert all(dtype == np.float64 for tracked, dtype, *_ in made if tracked), tag
        # float32 stays inside attend, but for the visual mode's untracked
        # grid view and its sum over cells
        others = {(tracked, op, ndim) for tracked, dtype, op, ndim in made
                  if dtype != np.float64}
        assert others == ({(False, "leaf", 4), (False, "sum", 3)} if modality == "visual"
                          else set()), (tag, modality)


def test_training_actually_learns():
    ds = make_dataset(num_classes=4, train=10, test=5, d=8)
    seq = build_task_sequence(range(4), 1, 4, seed=0)
    config = quick_config(strategy="finetune", epochs=30, batch_size=16, lr=0.01)
    out = run_incremental(ds, seq, config)
    assert out.overall[0] >= 80.0
    assert out.loss_curves[0][-1] < out.loss_curves[0][0]
