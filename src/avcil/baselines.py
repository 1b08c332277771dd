"""Strategy registry: one loss composer per training regime, shared backbone.

Every composer has the same signature over a forward trace, an optional
teacher trace, integer labels, an optional exemplar mask, the class layout,
and the loss weights; the protocol stays strategy-agnostic. Flags tell the
protocol what the strategy consumes (replay memory, a teacher snapshot),
how the oracle retrains, and which predictor evaluates it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import objectives as obj
from .diffmath import DiffTensor
from .errors import ConfigError
from .model import ForwardTrace

Composer = Callable[[ForwardTrace, Optional[ForwardTrace], np.ndarray,
                     Optional[np.ndarray], obj.TaskLayout, obj.LossWeights],
                    DiffTensor]


@dataclass(frozen=True)
class Strategy:
    tag: str
    uses_memory: bool
    uses_teacher: bool
    retrains_on_all: bool
    nme_eval: bool
    compose: Composer


def finetune_loss(trace, teacher_trace, labels, exemplar_mask, layout, weights):
    """Plain cross-entropy over the full head; no replay, no teacher."""
    return obj.cross_entropy(trace.logits, labels)


def lwf_loss(trace, teacher_trace, labels, exemplar_mask, layout, weights):
    """CE plus KL from the current old-class softmax to the teacher's.

    One softmax over all previous classes together, unlike the task-wise
    variant: task-wise distillation over a layout whose only previous task
    holds every old class. Reduces to plain CE at the first step.
    """
    ce = obj.cross_entropy(trace.logits, labels)
    if teacher_trace is None:
        return ce
    old = layout.old_count
    one_block = obj.TaskLayout((old, layout.total_classes - old))
    return ce + obj.tkd(trace.logits, teacher_trace.logits, one_block)


# replay variants distill exactly like lwf; they differ in memory use and,
# for the nearest-mean variant, at evaluation time only
icarl_loss = lwf_loss


def ssil_loss(trace, teacher_trace, labels, exemplar_mask, layout, weights):
    """Separated softmax plus task-wise distillation, nothing else."""
    zeroed = replace(weights, lambda_i=0.0, lambda_c=0.0)
    return obj.total_loss(trace, teacher_trace, labels, None, layout, zeroed)


def avcil_loss(trace, teacher_trace, labels, exemplar_mask, layout, weights):
    return obj.total_loss(trace, teacher_trace, labels, exemplar_mask, layout, weights)


_STRATEGIES = {
    "finetune": Strategy("finetune", uses_memory=False, uses_teacher=False,
                         retrains_on_all=False, nme_eval=False, compose=finetune_loss),
    "lwf": Strategy("lwf", uses_memory=False, uses_teacher=True,
                    retrains_on_all=False, nme_eval=False, compose=lwf_loss),
    "icarl_fc": Strategy("icarl_fc", uses_memory=True, uses_teacher=True,
                         retrains_on_all=False, nme_eval=False, compose=icarl_loss),
    "icarl_nme": Strategy("icarl_nme", uses_memory=True, uses_teacher=True,
                          retrains_on_all=False, nme_eval=True, compose=icarl_loss),
    "ssil": Strategy("ssil", uses_memory=True, uses_teacher=True,
                     retrains_on_all=False, nme_eval=False, compose=ssil_loss),
    "avcil": Strategy("avcil", uses_memory=True, uses_teacher=True,
                      retrains_on_all=False, nme_eval=False, compose=avcil_loss),
    "oracle": Strategy("oracle", uses_memory=False, uses_teacher=False,
                       retrains_on_all=True, nme_eval=False, compose=finetune_loss),
}

STRATEGY_TAGS = tuple(_STRATEGIES)


def get_strategy(tag: str) -> Strategy:
    try:
        return _STRATEGIES[tag]
    except KeyError:
        raise ConfigError(f"unknown strategy {tag!r}; choose from {STRATEGY_TAGS}") from None
