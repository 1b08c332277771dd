"""Class-incremental training protocol.

Owns everything that makes an incremental run a *run*: the task sequence,
which alone fixes the class order, classifier growth, the teacher snapshot,
the replay memory, per-step optimizer state, and the evaluation loop that
records each step's accuracies in the run's `StepState`. All randomness
flows through purpose-keyed child seeds of the run seed, so two runs with
the same config are bit-identical and strategies that ignore a random
stream cannot perturb the streams used by others.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import diffmath as dm
from . import model as mdl
from .baselines import Strategy, get_strategy
from .datasets import FeatureDataset
from .errors import ConfigError, ContractError, NumericDomainError, TrainingDiverged
from .metrics import evaluate, forward_chunks
from .objectives import LossWeights, TaskLayout

logger = logging.getLogger("avcil.protocol")

# purpose codes for child-seed derivation; never reuse across call sites
_P_INIT = 101
_P_EXPAND = 102
_P_SHUFFLE = 103
_P_MEMORY = 104
_P_REINIT = 105
_P_TASKS = 106

# numpy's overflow warnings while diverging; the finiteness checks report it
_DIVERGING = {"over": "ignore", "invalid": "ignore"}


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def _child_seed(seed: int, *key: int) -> int:
    """Integer seed for APIs that take one, derived from the same key space."""
    return int(np.random.SeedSequence([int(seed), *map(int, key)]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# task sequence


@dataclass(frozen=True)
class TaskSequence:
    """Disjoint class groups, one per incremental step, in training order."""

    tasks: Tuple[Tuple[int, ...], ...]

    @property
    def steps(self) -> int:
        return len(self.tasks)

    def seen_classes(self, upto: int) -> Tuple[int, ...]:
        """All class ids in the first `upto` tasks, in arrival order."""
        return tuple(c for task in self.tasks[:upto] for c in task)

    def layout(self, upto: int) -> TaskLayout:
        """Class-axis layout of the first `upto` tasks."""
        return TaskLayout(tuple(len(task) for task in self.tasks[:upto]))

    def model_labels(self, class_ids: np.ndarray) -> np.ndarray:
        """Model output index (arrival index) of each run class in `class_ids`;
        the table holds one entry per run class, whatever the ids."""
        order = self.seen_classes(self.steps)
        # sorted in Python: numpy's first sort call adds about 0.4 MiB to peak RSS
        by_id = np.array(sorted(range(len(order)), key=order.__getitem__), dtype=np.int64)
        return by_id[np.searchsorted(np.array(order, dtype=np.int64), class_ids, sorter=by_id)]


def build_task_sequence(class_ids: Sequence[int], steps: int,
                        classes_per_step: int, seed: int) -> TaskSequence:
    """Shuffle the classes with the run seed, then chunk into equal tasks.

    Classes beyond steps*classes_per_step are left out of the sequence.
    """
    ids = [int(c) for c in class_ids]
    if len(set(ids)) != len(ids):
        raise ContractError("class_ids contains duplicates")
    if steps < 1 or classes_per_step < 1:
        raise ContractError("steps and classes_per_step must be positive")
    need = steps * classes_per_step
    if need > len(ids):
        raise ContractError(
            f"need {need} classes for {steps} steps of {classes_per_step}, "
            f"got {len(ids)}")
    order = [ids[i] for i in _rng(seed, _P_TASKS).permutation(len(ids))]
    tasks = tuple(tuple(order[i * classes_per_step:(i + 1) * classes_per_step])
                  for i in range(steps))
    return TaskSequence(tasks)


# ---------------------------------------------------------------------------
# exemplar memory


@dataclass(frozen=True)
class ExemplarMemory:
    """Fixed-capacity replay store: class id -> int64 array of dataset rows."""

    capacity: int
    seed: int
    store: Dict[int, np.ndarray] = field(default_factory=dict)

    def total(self) -> int:
        return sum(len(v) for v in self.store.values())

    def rows(self) -> np.ndarray:
        """All stored rows, classes in sorted order."""
        return np.concatenate([np.zeros(0, np.int64), *(self.store[c] for c in sorted(self.store))])


def update_memory(memory: ExemplarMemory,
                  new_candidates: Dict[int, Sequence[int]]) -> ExemplarMemory:
    """Rebalance to an equal per-class quota after new classes arrive.

    The quota is floor(capacity / total classes stored). Old classes are cut
    down by uniform random choice without replacement; new classes are filled
    the same way from their candidate rows. A class with fewer candidates than
    the quota keeps what it has (with a warning) — capacity is an upper
    bound, not a promise.
    """
    for c in new_candidates:
        if c in memory.store:
            raise ContractError(f"class {c} is already stored; tasks must be disjoint")
    num_classes = len(memory.store) + len(new_candidates)
    if num_classes == 0:
        return memory
    quota = memory.capacity // num_classes
    rng = _rng(memory.seed, _P_MEMORY, num_classes)
    store: Dict[int, np.ndarray] = {}
    for c in sorted(memory.store):
        rows = memory.store[c]
        store[c] = rng.choice(rows, size=quota, replace=False) if len(rows) > quota else rows
    for c in sorted(new_candidates):
        rows = np.array(new_candidates[c], dtype=np.int64)
        if len(rows) < quota:
            logger.warning("class %d has %d candidates for a quota of %d; keeping all",
                           c, len(rows), quota)
            store[c] = rows
        else:
            store[c] = rng.choice(rows, size=quota, replace=False)
    return ExemplarMemory(memory.capacity, memory.seed, store)


# ---------------------------------------------------------------------------
# configuration and run state


@dataclass(frozen=True)
class TrainConfig:
    strategy: str = "avcil"
    modality: str = "audiovisual"
    epochs: int = 200
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 1e-4
    memory_capacity: int = 340
    seed: int = 0
    use_vad: bool = True
    weights: LossWeights = LossWeights()

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (self.lr > 0.0):
            raise ConfigError("lr must be positive")
        if self.weight_decay < 0.0:
            raise ConfigError("weight_decay must be >= 0")
        if self.memory_capacity < 0:
            raise ConfigError("memory_capacity must be >= 0")
        if self.modality not in mdl.MODALITIES:
            raise ConfigError(f"modality must be one of {mdl.MODALITIES}")


@dataclass
class StepState:
    """Everything carried from one incremental step to the next; the state
    after the last step is the run's result."""

    step: int                       # number of completed steps
    params: mdl.ModelParams
    memory: ExemplarMemory
    loss_curves: List[List[float]] = field(default_factory=list)   # per step, per epoch
    rows: List[List[float]] = field(default_factory=list)   # rows[t][i]: task i after step t
    overall: List[float] = field(default_factory=list)      # per step, every seen test sample


# ---------------------------------------------------------------------------
# one incremental step


def _teacher_outputs(teacher: mdl.ModelParams, dataset: FeatureDataset, pool: np.ndarray,
                     replay_from: int, config: TrainConfig, keep_maps: bool
                     ) -> tuple[np.ndarray, Optional[tuple[np.ndarray, np.ndarray]]]:
    """The frozen teacher's logits for every pool row and, if `keep_maps`,
    its `(spatial, temporal)` attention map arrays for the pool rows from
    `replay_from` on (the replay rows), run with no graph
    `config.batch_size` rows at a time, reading the dataset's arrays in
    place.

    A row's outputs do not depend on the other rows of its batch, so these
    are the bytes a forward on each training batch would give. The maps are
    checked to be distributions here, once, so the attention node that
    distills toward them need not check them in every batch.
    """
    logits, maps = [], None
    for lo, trace in forward_chunks(teacher, dataset.audio, dataset.visual, config.modality,
                                    pool, config.batch_size,
                                    replay_from if keep_maps else None):
        logits.append(trace.logits.data)
        if trace.maps is not None and len(trace.maps[0]):
            if maps is None:    # filled in place: no second copy of the replay maps
                maps = tuple(np.empty((len(pool) - replay_from, *m.shape[1:]), m.dtype)
                             for m in trace.maps)
            first = max(lo, replay_from) - replay_from
            for kept, m, axis in zip(maps, trace.maps, (2, 1)):
                dm.check_distributions(m, axis, "teacher attention maps")
                kept[first:first + len(m)] = m
        del trace   # so the next chunk is built while this one's maps are already freed
    return np.concatenate(logits), maps


def train_step(state: StepState, sequence: TaskSequence,
               dataset: FeatureDataset, config: TrainConfig,
               strategy: Strategy, events: Optional[List[dict]] = None) -> StepState:
    """Train on the sequence's next task and return the advanced state, its
    loss curve appended.

    Order of operations matters and is part of the contract: snapshot the
    teacher from the incoming parameters, then grow the classifier, then
    run the teacher once over the pool, then train with a fresh optimizer,
    then update the replay memory. The step's
    run-log events are appended to `events`, or to a throwaway list.
    """
    if events is None:
        events = []
    t = state.step + 1
    new_classes = [int(c) for c in sequence.tasks[state.step]]
    events.append({"event": "step_started", "step": t, "classes": new_classes})
    teacher = mdl.snapshot(state.params) if (strategy.uses_teacher and t > 1) else None

    params = state.params
    if t > 1:
        params = mdl.expand_classifier(params, len(new_classes),
                                       _child_seed(config.seed, _P_EXPAND, t))
    if strategy.retrains_on_all and t > 1:
        params = mdl.reinit_classifier(params, params.num_classes,
                                       _child_seed(config.seed, _P_REINIT, t))
    layout = sequence.layout(t)
    if layout.total_classes != params.num_classes:
        raise ContractError("classifier width does not match the task layout")

    if strategy.retrains_on_all:
        fresh = [dataset.of_class(c, "train") for c in sequence.seen_classes(t)]
        replay = np.zeros(0, dtype=np.int64)
    else:
        fresh = [dataset.of_class(c, "train") for c in new_classes]
        replay = state.memory.rows()
    pool = np.concatenate(fresh + [replay])
    if len(pool) == 0:
        raise ContractError(f"no training samples for step {t}")
    labels = sequence.model_labels(dataset.labels[pool])

    opt = dm.AdamState(params.flat.size, lr=config.lr, weight_decay=config.weight_decay)
    curve: List[float] = []
    n = len(pool)
    replay_from = n - len(replay)
    with np.errstate(**_DIVERGING):
        if teacher is not None:
            try:
                teacher_logits, teacher_maps = _teacher_outputs(
                    teacher, dataset, pool, replay_from, config,
                    keep_maps=config.use_vad and strategy.distills_attention)
            except NumericDomainError as err:
                # reported at the first batch, the first to need the teacher
                raise TrainingDiverged(t, 0, 0, reason=str(err)) from err
        for epoch in range(config.epochs):
            perm = _rng(config.seed, _P_SHUFFLE, t, epoch).permutation(n)
            total = 0.0
            for start in range(0, n, config.batch_size):
                idx = perm[start:start + config.batch_size]
                rows = pool[idx]
                batch_logits, map_rows, distill = None, (), None
                if teacher is not None:
                    batch_logits = teacher_logits[idx]
                    if teacher_maps is not None:
                        map_rows = np.flatnonzero(idx >= replay_from)   # the rows vad reads
                        distill = (teacher_maps, idx[map_rows] - replay_from,
                                   config.weights.lambda_vad)
                batch = start // config.batch_size
                try:
                    trace = mdl.forward(params, dataset.audio, dataset.visual,
                                        config.modality, map_rows, rows, distill)
                    loss = strategy.compose(trace, batch_logits, labels[idx], layout,
                                            config.weights)
                except NumericDomainError as err:
                    # parameters an Adam step left non-finite trip a check before the loss
                    raise TrainingDiverged(t, epoch, batch, reason=str(err)) from err
                value = float(loss.data)
                if not np.isfinite(value):
                    raise TrainingDiverged(t, epoch, batch, value)
                params.grad.fill(0.0)
                dm.backward(loss)
                dm.adam_step(params.flat, params.grad, opt)
                # free this batch's graph before the next forward builds its own
                del trace, loss
                total += value * len(rows)
            curve.append(total / n)
            events.append({"event": "epoch_loss", "step": t, "epoch": epoch,
                           "loss": curve[-1]})

    memory = state.memory
    if strategy.uses_memory:
        candidates = {c: dataset.of_class(c, "train") for c in new_classes}
        memory = update_memory(memory, candidates)
        events.append({"event": "memory_updated", "step": t,
                       "memory_size": memory.total(),
                       "classes_stored": len(memory.store)})
    return replace(state, step=t, params=params, memory=memory,
                   loss_curves=state.loss_curves + [curve])


# ---------------------------------------------------------------------------
# full run


def run_incremental(dataset: FeatureDataset, sequence: TaskSequence,
                    config: TrainConfig,
                    events: Optional[List[dict]] = None) -> StepState:
    """Run every step of the sequence, evaluating after each one, and return
    the last step's state.

    The run log is appended to `events`, or to a throwaway list: pass one
    to read it, and on divergence it still holds everything logged up to
    the failing batch.
    """
    strategy = get_strategy(config.strategy)
    if strategy.uses_memory and config.memory_capacity < 1:
        raise ConfigError(
            f"strategy {strategy.tag!r} replays from memory; memory_capacity "
            "must be >= 1")
    run_classes = sequence.seen_classes(sequence.steps)
    if strategy.nme_eval and config.memory_capacity < len(run_classes):
        raise ConfigError(
            f"strategy {strategy.tag!r} classifies by exemplar means; memory_capacity "
            f"must be >= {len(run_classes)}, one exemplar per class of the run")
    for c in run_classes:
        if not (dataset.of_class(c, "train").size and dataset.of_class(c, "test").size):
            raise ConfigError(f"class {c} lacks train or test samples")

    if events is None:
        events = []
    events.append({"event": "run_started", "strategy": strategy.tag,
                   "modality": config.modality, "seed": config.seed,
                   "steps": sequence.steps,
                   "classes": [list(t) for t in sequence.tasks]})
    params = mdl.init_params(dataset.d, len(sequence.tasks[0]),
                             _child_seed(config.seed, _P_INIT))
    state = StepState(step=0, params=params,
                      memory=ExemplarMemory(config.memory_capacity, config.seed))
    for t in range(1, sequence.steps + 1):
        t0 = time.perf_counter()
        state = train_step(state, sequence, dataset, config, strategy, events)
        test = np.concatenate([dataset.of_class(c, "test")
                               for c in sequence.seen_classes(t)])
        nme = None
        if strategy.nme_eval:
            exemplars = state.memory.rows()
            nme = (exemplars, sequence.model_labels(dataset.labels[exemplars]))
        try:
            with np.errstate(**_DIVERGING):
                overall, per_task = evaluate(state.params, test, dataset.audio, dataset.visual,
                                             sequence.model_labels(dataset.labels[test]),
                                             sequence.layout(t), config.modality, nme)
        except NumericDomainError as err:
            raise TrainingDiverged(t, None, None, reason=str(err)) from err
        state = replace(state, rows=state.rows + [per_task],
                        overall=state.overall + [overall])
        events.append({"event": "step_evaluated", "step": t,
                       "overall_accuracy": overall, "per_task": per_task,
                       "memory_size": state.memory.total(),
                       "wall_time_s": time.perf_counter() - t0})
    return state
