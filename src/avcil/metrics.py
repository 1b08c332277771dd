"""Evaluation: mean accuracy, forgetting, and the two predictors.

Accuracies are sample-weighted percentages. A run's per-task accuracies are
a lower triangle of rows: row t holds the accuracy on each task seen so far,
measured after training step t; its last entry is the task just learned.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import model as mdl
from .errors import ContractError, NumericDomainError
from .objectives import TaskLayout

EVAL_CHUNK = 256


def mean_accuracy(overall: Sequence[float]) -> float:
    """Mean of the per-step all-seen accuracies."""
    if len(overall) == 0:
        raise ContractError("mean accuracy of an empty run")
    return float(np.mean(overall))


def average_forgetting(rows: Sequence[Sequence[float]]) -> float | None:
    """Mean over steps 2..T of the mean peak-to-current accuracy drop on past tasks.

    `rows` is the triangle: `rows[t][i]` is the accuracy on task i after step
    t, for i <= t. None for a single-step run, where forgetting is undefined.
    """
    if len(rows) < 2:
        return None
    per_step = []
    for t in range(1, len(rows)):
        drops = [np.max([row[i] for row in rows[i:t]]) - rows[t][i] for i in range(t)]
        per_step.append(float(np.mean(drops)))
    return float(np.mean(per_step))


def forward_chunks(params: mdl.ModelParams, audio: np.ndarray, visual: np.ndarray,
                   modality: str, rows: np.ndarray, chunk: int = EVAL_CHUNK,
                   maps_from: int | None = None):
    """Yield (first row, trace) over the `rows` of `audio` and `visual`,
    `chunk` rows at a time; the arrays are read in place (see
    `model.forward`), and frozen parameters build no graph. Each trace's
    attention maps hold the rows from `maps_from` on (in the order read),
    or none."""
    for lo in range(0, len(rows), chunk):
        at = rows[lo:lo + chunk]
        first = len(at) if maps_from is None else min(max(maps_from - lo, 0), len(at))
        yield lo, mdl.forward(params, audio, visual, modality,
                              np.arange(first, len(at)), at)


def _forward_rows(params: mdl.ModelParams, rows: np.ndarray, audio: np.ndarray,
                  visual: np.ndarray, modality: str, output: str) -> np.ndarray:
    """One trace field ("logits" or "fused") for each of `rows`, run EVAL_CHUNK rows at a time."""
    out = np.concatenate([getattr(trace, output).data
                          for _, trace in forward_chunks(params, audio, visual, modality, rows)])
    if not np.isfinite(out).all():     # a forward without a softmax lets NaN through
        raise NumericDomainError(f"non-finite {output} in evaluation")
    return out


def _predict_head(params: mdl.ModelParams, rows: np.ndarray, audio: np.ndarray,
                  visual: np.ndarray, modality: str) -> np.ndarray:
    logits = _forward_rows(params, rows, audio, visual, modality, "logits")
    return np.argmax(logits, axis=1)  # ties -> lowest index


def nme_classify(params: mdl.ModelParams, ex_rows: np.ndarray, exemplar_labels,
                 rows: np.ndarray, audio: np.ndarray, visual: np.ndarray,
                 num_classes: int, modality: str = "audiovisual") -> np.ndarray:
    """Nearest class mean in the normalized fused space, Euclidean distance.

    Class means come from the exemplars, the rows `ex_rows` of `audio` and
    `visual`; every class below `num_classes` needs at least one. The
    queries are the rows `rows`. Distance ties resolve to the lowest class
    index. It runs the parameters it is given; `evaluate` hands it a frozen
    snapshot.
    """
    labels = np.asarray(exemplar_labels, dtype=np.int64)
    if len(ex_rows) != labels.size:
        raise ContractError("one label per exemplar required")
    feats = _forward_rows(params, ex_rows, audio, visual, modality, "fused")
    means = np.empty((num_classes, feats.shape[1]))
    for c in range(num_classes):
        of_c = feats[labels == c]
        if of_c.size == 0:
            raise ContractError(f"class {c} has no exemplar for nearest-mean evaluation")
        means[c] = of_c.mean(axis=0)
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ContractError("a class mean has zero norm")
    means /= norms
    q = _forward_rows(params, rows, audio, visual, modality, "fused")
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    if np.any(qn == 0.0):
        raise ContractError("a query feature has zero norm")
    q /= qn
    # EVAL_CHUNK queries at a time bounds the (queries, classes, d) difference
    # tensor; each row's distances are their own reduction, so chunking
    # changes no prediction
    return np.concatenate([
        np.argmin(np.linalg.norm(q[lo:lo + EVAL_CHUNK, None, :] - means[None, :, :], axis=2),
                  axis=1)  # ties -> lowest index
        for lo in range(0, len(q), EVAL_CHUNK)])


def evaluate(params: mdl.ModelParams, rows: np.ndarray, audio: np.ndarray,
             visual: np.ndarray, labels, layout: TaskLayout, modality: str = "audiovisual",
             nme_exemplars: tuple[np.ndarray, np.ndarray] | None = None
             ) -> tuple[float, list[float]]:
    """Accuracy over the samples at `rows` of `audio` and `visual`, overall
    and broken down by task.

    The arrays are read in place. Labels are model class indices, one per
    row. With `nme_exemplars=(exemplar rows, their labels)`, rows of the
    same arrays, predictions come from nearest class means instead of the
    linear head.
    """
    rows = np.asarray(rows, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if rows.size == 0:
        raise ContractError("evaluate needs at least one sample")
    if rows.ndim != 1 or labels.shape != rows.shape:
        raise ContractError("one label per evaluated sample required")
    if labels.min() < 0 or labels.max() >= layout.total_classes:
        raise ContractError("an evaluation label falls outside the layout")
    frozen = mdl.snapshot(params)
    if nme_exemplars is None:
        preds = _predict_head(frozen, rows, audio, visual, modality)
    else:
        ex_rows, ex_labels = nme_exemplars
        preds = nme_classify(frozen, ex_rows, ex_labels, rows, audio, visual,
                             layout.total_classes, modality)
    correct = preds == labels
    tasks = np.searchsorted(np.cumsum(layout.boundaries), labels, side="right")
    per_task = []
    for t in range(layout.step):
        hits = correct[tasks == t]
        if hits.size == 0:
            raise ContractError(f"no test samples for task {t}")
        per_task.append(100.0 * float(np.mean(hits)))
    return 100.0 * float(np.mean(correct)), per_task
