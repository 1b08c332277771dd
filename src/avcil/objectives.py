"""Training objectives: contrastive alignment, attention and logit distillation,
separated-softmax classification, and their weighted total.

All losses are scalar DiffTensors built from the primitives in `diffmath`, so
a single backward pass yields gradients through every active term. Terms with
a zero weight are skipped rather than multiplied by zero, which keeps a run
with disabled components bit-identical to one that never constructs them.
The four softmax heads are one `dm.nll` node each, told apart by their masks.
`tkd` is one `dm.block_kl` node. `vad` builds nothing: the attention node
`dm.attend` computes the distillation while it builds the maps, and `vad`
reads that output of the forward trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffmath as dm
from .diffmath import DiffTensor
from .errors import ContractError, NumericDomainError
from .model import ForwardTrace


@dataclass(frozen=True)
class LossWeights:
    """Loss hyperparameters. `normalize` L2-normalizes both feature sets
    before the contrastive similarity matrix."""

    lambda_i: float = 0.5
    lambda_c: float = 1.0
    lambda_vad: float = 0.5
    tau: float = 0.05
    normalize: bool = True

    def __post_init__(self):
        # each message starts with the field it names, which config errors rely on
        for name in ("lambda_i", "lambda_c"):
            if getattr(self, name) < 0.0:
                raise ContractError(f"{name} must be >= 0")
        if not 0.0 <= self.lambda_vad <= 1.0:
            raise ContractError("lambda_vad must lie in [0, 1]")
        if self.tau <= 0.0:
            raise ContractError("tau must be positive")


@dataclass(frozen=True)
class TaskLayout:
    """Class-axis bookkeeping: `boundaries[i]` is the class count of task i.

    Classifier rows are grouped by task in arrival order, so the current
    step's classes occupy the last `boundaries[-1]` columns.
    """

    boundaries: tuple[int, ...]

    def __post_init__(self):
        if len(self.boundaries) == 0 or any(b < 1 for b in self.boundaries):
            raise ContractError("layout needs one positive class count per task")
        object.__setattr__(self, "boundaries", tuple(int(b) for b in self.boundaries))

    @property
    def step(self) -> int:
        return len(self.boundaries)

    @property
    def old_count(self) -> int:
        return sum(self.boundaries[:-1])

    @property
    def total_classes(self) -> int:
        return sum(self.boundaries)

    def block_bounds(self, task: int) -> tuple[int, int]:
        if not 0 <= task < self.step:
            raise ContractError(f"task {task} outside layout of {self.step} steps")
        lo = sum(self.boundaries[:task])
        return lo, lo + self.boundaries[task]


def l2_normalize_rows(x: DiffTensor) -> DiffTensor:
    sq = (x * x).sum(axis=1, keepdims=True)
    if (sq.data == 0.0).any():
        raise NumericDomainError("cannot L2-normalize a zero row")
    return x / dm.sqrt(sq)


def _similarity(f_audio: DiffTensor, f_visual: DiffTensor, tau: float,
                normalize: bool) -> DiffTensor:
    if f_audio.ndim != 2 or f_audio.shape != f_visual.shape:
        raise ContractError("contrastive losses need matching (N, d) feature batches")
    a = l2_normalize_rows(f_audio) if normalize else f_audio
    v = l2_normalize_rows(f_visual) if normalize else f_visual
    return (a @ v.t()) / tau


def i_avss(f_audio: DiffTensor, f_visual: DiffTensor, tau: float,
           normalize: bool = True) -> DiffTensor:
    """Instance-level cross-modal alignment.

    The i-th audio row should be most similar to the i-th attended-visual
    row: mean over i of -log softmax_j(s_ij) at j = i.
    """
    sim = _similarity(f_audio, f_visual, tau, normalize)
    n = sim.shape[0]
    return dm.nll(sim, np.eye(n, dtype=bool)) / float(n)


def c_avss(f_audio: DiffTensor, f_visual: DiffTensor, labels, tau: float,
           normalize: bool = True) -> DiffTensor:
    """Class-level cross-modal alignment.

    All pairs sharing a label count as positives (self-pairs included); the
    positive mass is averaged, so a batch with every label equal scores
    exactly ln N, and all-distinct labels reduce to the instance loss.
    """
    sim = _similarity(f_audio, f_visual, tau, normalize)
    n = sim.shape[0]
    labels = _check_labels(labels, n)
    return dm.nll(sim, labels[:, None] == labels[None, :]) / float(n)


def d_avsc(f_audio: DiffTensor, f_visual: DiffTensor, labels,
           weights: LossWeights) -> DiffTensor:
    """Weighted sum of the instance and class alignment terms.

    Terms with zero weight are not constructed at all.
    """
    parts: list[DiffTensor] = []
    if weights.lambda_i != 0.0:
        parts.append(i_avss(f_audio, f_visual, weights.tau, weights.normalize) * weights.lambda_i)
    if weights.lambda_c != 0.0:
        parts.append(c_avss(f_audio, f_visual, labels, weights.tau, weights.normalize) * weights.lambda_c)
    return _chain_sum(parts)


def vad(trace: ForwardTrace) -> DiffTensor:
    """Visual attention distillation on replayed samples only.

    KL from the current model's attention to the frozen teacher's, spatial
    and temporal maps mixed by `lambda_vad`: the VAD output of the trace's
    attention node, which training asks for by handing `forward` the
    teacher's maps of the replayed rows (see `dm.attend`).
    """
    if trace.vad is None:
        raise ContractError("attention distillation needs a forward given the teacher's maps")
    return trace.vad


def cross_entropy(logits: DiffTensor, labels) -> DiffTensor:
    """Mean negative log-likelihood over the full class axis."""
    labels = _check_labels(labels, logits.shape[0], logits.shape[1])
    positives = labels[:, None] == np.arange(logits.shape[1])
    return dm.nll(logits, positives) / float(labels.size)


def ss_ce(logits: DiffTensor, labels, layout: TaskLayout) -> DiffTensor:
    """Separated-softmax cross-entropy.

    New-class samples normalize only over the current task's columns; old
    ones only over all previous columns: one `nll` whose support, per row, is
    its label's block. At step 1 this is plain CE.
    """
    n = logits.shape[0]
    labels = _check_labels(labels, n, layout.total_classes)
    if logits.shape[1] != layout.total_classes:
        raise ContractError("logit width does not match the layout")
    old = layout.old_count
    cols = np.arange(layout.total_classes)
    support = (cols >= old) == (labels[:, None] >= old)
    return dm.nll(logits, labels[:, None] == cols, support) / float(n)


def tkd(logits: DiffTensor, teacher_logits: np.ndarray, layout: TaskLayout) -> DiffTensor:
    """Task-wise knowledge distillation.

    Per previous task block, softmax both models within the block; the
    batch-mean KLs from current to teacher sum in one `block_kl` node. The
    teacher's logits are an array and get no gradient.
    """
    if layout.step < 2:
        raise ContractError("distillation needs at least one previous task")
    if not isinstance(teacher_logits, np.ndarray) \
            or teacher_logits.shape != (logits.shape[0], layout.old_count):
        raise ContractError("teacher logits must be an array covering exactly the previous tasks")
    if logits.shape[1] != layout.total_classes:
        raise ContractError("logit width does not match the layout")
    return dm.block_kl(logits, teacher_logits,
                       [layout.block_bounds(task) for task in range(layout.step - 1)])


def total_loss(trace: ForwardTrace, teacher_logits: np.ndarray | None, labels,
               layout: TaskLayout, weights: LossWeights) -> DiffTensor:
    """Classification plus the three regularizers, in a fixed order.

    `teacher_logits`, the frozen teacher's logits of the batch, must be
    present exactly when the layout has previous tasks. Attention
    distillation runs exactly when the trace carries it. Contrastive terms
    need both modal features and apply at every step; distillation terms
    only from step 2.
    """
    if (layout.step > 1) != (teacher_logits is not None):
        raise ContractError("teacher outputs must be present exactly for steps after the first")
    parts = [ss_ce(trace.logits, labels, layout)]
    if teacher_logits is not None:
        parts.append(tkd(trace.logits, teacher_logits, layout))
    # the attention ran (the audiovisual mode) when it left maps or a distillation
    if trace.attended_visual is not None and (trace.maps is not None or trace.vad is not None) \
            and (weights.lambda_i != 0.0 or weights.lambda_c != 0.0):
        parts.append(d_avsc(trace.audio, trace.attended_visual, labels, weights))
    if trace.vad is not None:
        parts.append(vad(trace))
    return _chain_sum(parts)


def _chain_sum(parts: list[DiffTensor]) -> DiffTensor:
    if not parts:
        return dm.constant(0.0)
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def _check_labels(labels, n: int, num_classes: int | None = None) -> np.ndarray:
    arr = np.asarray(labels, dtype=np.int64)
    if arr.shape != (n,):
        raise ContractError(f"labels must be a length-{n} vector")
    if num_classes is not None and arr.size and (arr.min() < 0 or arr.max() >= num_classes):
        raise ContractError("a label falls outside the class range")
    return arr
