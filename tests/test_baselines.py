import numpy as np
import pytest

import avcil.diffmath as dm
import avcil.model as mdl
import avcil.objectives as obj
from avcil.baselines import (STRATEGY_TAGS, finetune_loss, get_strategy, icarl_loss,
                             lwf_loss, ssil_loss)
from avcil.datasets import SPLIT_TRAIN, GeneratorSpec, generate_synthetic
from avcil.errors import ConfigError
from avcil.objectives import LossWeights, TaskLayout


def tiny_batch(num_classes=4, d=6, n=8, seed=0):
    spec = GeneratorSpec(mode="aligned", num_classes=num_classes, d=d, frames=2,
                        cells=3, train_per_class=4, test_per_class=2, seed=seed)
    ds = generate_synthetic(spec)
    rows = np.flatnonzero(ds.splits == SPLIT_TRAIN)[:n]
    return (ds.audio[rows], ds.visual[rows]), ds.labels[rows]


def teacher_outputs(teacher, batch, mask=None):
    """The frozen `teacher`'s outputs on `batch` as training hands them over:
    its logits, for the loss, and, given a mask, the `distill` argument of a
    student forward that distills the masked rows toward its maps."""
    trace = mdl.forward(teacher, *batch)
    if mask is None:
        return trace.logits.data, None
    return trace.logits.data, (trace.maps, np.flatnonzero(mask), LossWeights().lambda_vad)


def softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def brute_kl(p_logits, q_logits):
    p, q = softmax_rows(p_logits), softmax_rows(q_logits)
    qc = np.maximum(q, 1e-12)
    terms = np.where(p > 0, p * (np.log(p) - np.log(qc)), 0.0)
    return float(terms.sum(axis=1).mean())


def test_registry_tags():
    assert STRATEGY_TAGS == ("finetune", "lwf", "icarl_fc", "icarl_nme",
                             "ssil", "avcil", "oracle")
    for tag in STRATEGY_TAGS:
        assert get_strategy(tag).tag == tag


def test_unknown_tag_raises():
    with pytest.raises(ConfigError):
        get_strategy("gdumb")


def test_flags():
    rows = {
        # tag: (memory, teacher, retrain_all, nme)
        "finetune": (False, False, False, False),
        "lwf": (False, True, False, False),
        "icarl_fc": (True, True, False, False),
        "icarl_nme": (True, True, False, True),
        "ssil": (True, True, False, False),
        "avcil": (True, True, False, False),
        "oracle": (False, False, True, False),
    }
    for tag, (mem, tea, alld, nme) in rows.items():
        s = get_strategy(tag)
        assert (s.uses_memory, s.uses_teacher, s.retrains_on_all, s.nme_eval) == \
            (mem, tea, alld, nme)


def test_replay_variants_share_the_lwf_composer():
    assert icarl_loss is lwf_loss
    assert get_strategy("icarl_fc").compose is get_strategy("icarl_nme").compose
    assert get_strategy("icarl_fc").compose is get_strategy("lwf").compose


def test_finetune_is_cross_entropy():
    batch, labels = tiny_batch()
    params = mdl.init_params(6, 4, seed=3)
    trace = mdl.forward(params, *batch)
    layout = TaskLayout((2, 2))
    loss = finetune_loss(trace, None, labels, layout, LossWeights())
    assert loss.data == obj.cross_entropy(trace.logits, labels).data


def test_lwf_without_teacher_is_plain_ce():
    batch, labels = tiny_batch()
    params = mdl.init_params(6, 4, seed=3)
    trace = mdl.forward(params, *batch)
    loss = lwf_loss(trace, None, labels, TaskLayout((4,)), LossWeights())
    assert loss.data == obj.cross_entropy(trace.logits, labels).data


def test_lwf_distillation_matches_brute_force():
    batch, labels = tiny_batch()
    student = mdl.init_params(6, 4, seed=3)
    teacher = mdl.snapshot(mdl.init_params(6, 2, seed=7))
    # the teacher only knows the first two classes; wire its projections to the
    # student's shapes by reusing the same d
    trace = mdl.forward(student, *batch)
    cached, _ = teacher_outputs(teacher, batch)
    loss = lwf_loss(trace, cached, labels, TaskLayout((2, 2)), LossWeights())
    ce = float(obj.cross_entropy(trace.logits, labels).data)
    kd = brute_kl(trace.logits.data[:, :2], cached)
    assert loss.data == pytest.approx(ce + kd, abs=1e-12)


def test_lwf_gradient_reaches_the_old_columns_only_through_kd():
    # KD term alone: equal labels contribute through CE as well, so isolate by
    # comparing gradients with and without the teacher
    batch, labels = tiny_batch()
    student = mdl.init_params(6, 4, seed=3)
    teacher = mdl.snapshot(mdl.init_params(6, 2, seed=7))
    trace = mdl.forward(student, *batch)
    loss = lwf_loss(trace, teacher_outputs(teacher, batch)[0], labels, TaskLayout((2, 2)),
                    LossWeights())
    dm.backward(loss)
    assert student.cls_weight.grad is not None
    assert np.all(np.isfinite(student.cls_weight.grad))


def test_ssil_is_separated_ce_plus_task_distillation():
    batch, labels = tiny_batch()
    student = mdl.init_params(6, 4, seed=3)
    teacher = mdl.snapshot(mdl.init_params(6, 2, seed=7))
    layout = TaskLayout((2, 2))
    trace = mdl.forward(student, *batch)
    cached, _ = teacher_outputs(teacher, batch)
    loss = ssil_loss(trace, cached, labels, layout, LossWeights())
    want = (obj.ss_ce(trace.logits, labels, layout)
            + obj.tkd(trace.logits, cached, layout))
    assert loss.data == want.data


def test_ssil_ignores_contrastive_weights_and_mask():
    batch, labels = tiny_batch()
    student = mdl.init_params(6, 4, seed=3)
    teacher = mdl.snapshot(mdl.init_params(6, 2, seed=7))
    layout = TaskLayout((2, 2))
    mask = np.array([True, False] * 4)
    cached, distill = teacher_outputs(teacher, batch, mask)
    trace = mdl.forward(student, *batch, map_rows=np.flatnonzero(mask), distill=distill)
    heavy = LossWeights(lambda_i=3.0, lambda_c=2.0, lambda_vad=0.9)
    a = ssil_loss(trace, cached, labels, layout, heavy)
    b = ssil_loss(mdl.forward(student, *batch), cached, labels, layout, LossWeights())
    assert a.data == b.data


def test_avcil_all_off_is_bitwise_ssil():
    batch, labels = tiny_batch()
    student = mdl.init_params(6, 4, seed=3)
    teacher = mdl.snapshot(mdl.init_params(6, 2, seed=7))
    layout = TaskLayout((2, 2))
    off = LossWeights(lambda_i=0.0, lambda_c=0.0)
    trace = mdl.forward(student, *batch)
    cached, _ = teacher_outputs(teacher, batch)
    a = get_strategy("avcil").compose(trace, cached, labels, layout, off)
    b = ssil_loss(trace, cached, labels, layout, LossWeights())
    assert a.data == b.data


def test_avcil_equals_total_loss():
    batch, labels = tiny_batch()
    student = mdl.init_params(6, 4, seed=3)
    teacher = mdl.snapshot(mdl.init_params(6, 2, seed=7))
    layout = TaskLayout((2, 2))
    mask = np.zeros(8, dtype=bool)
    mask[:2] = True
    cached, distill = teacher_outputs(teacher, batch, mask)
    trace = mdl.forward(student, *batch, map_rows=np.flatnonzero(mask), distill=distill)
    assert trace.vad is not None
    a = get_strategy("avcil").compose(trace, cached, labels, layout, LossWeights())
    b = obj.total_loss(trace, cached, labels, layout, LossWeights())
    assert a.data == b.data


def test_every_composer_backpropagates_finite_gradients():
    batch, labels = tiny_batch()
    teacher = mdl.snapshot(mdl.init_params(6, 2, seed=7))
    layout = TaskLayout((2, 2))
    mask = np.array([True] * 4 + [False] * 4)
    for tag in STRATEGY_TAGS:
        student = mdl.init_params(6, 4, seed=3)
        s = get_strategy(tag)
        cached, distill = (teacher_outputs(teacher, batch, mask) if s.uses_teacher
                           else (None, None))
        trace = mdl.forward(student, *batch, map_rows=np.flatnonzero(mask), distill=distill)
        loss = s.compose(trace, cached, labels, layout, LossWeights())
        dm.backward(loss)
        for p in student.parameters():
            if p.grad is not None:
                assert np.all(np.isfinite(p.grad)), tag
        assert student.cls_weight.grad is not None, tag
