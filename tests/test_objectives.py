import math

import numpy as np
import pytest

from avcil import diffmath as dm
from avcil import objectives as obj
from avcil.errors import ContractError, NumericDomainError
from avcil.model import AttentionMaps, ForwardTrace


def normalize(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def brute_i_avss(a, v, tau):
    a, v = normalize(a), normalize(v)
    s = a @ v.T / tau
    n = len(a)
    total = 0.0
    for i in range(n):
        total += -math.log(math.exp(s[i, i]) / np.exp(s[i]).sum())
    return total / n


def brute_c_avss(a, v, labels, tau):
    a, v = normalize(a), normalize(v)
    s = a @ v.T / tau
    n = len(a)
    total = 0.0
    for i in range(n):
        pos = labels == labels[i]
        num = np.exp(s[i])[pos].sum()
        den = pos.sum() * np.exp(s[i]).sum()
        total += -math.log(num / den)
    return total / n


def brute_ss_ce(logits, labels, old):
    total = 0.0
    for row, y in zip(logits, labels):
        block, target = (row[old:], y - old) if y >= old else (row[:old], y)
        p = np.exp(block - block.max())
        p /= p.sum()
        total += -math.log(p[target])
    return total / len(labels)


def brute_tkd(logits, teacher, boundaries):
    total = 0.0
    lo = 0
    for width in boundaries[:-1]:
        hi = lo + width
        for_block = 0.0
        for cur_row, tea_row in zip(logits[:, lo:hi], teacher[:, lo:hi]):
            p = np.exp(cur_row - cur_row.max()); p /= p.sum()
            q = np.exp(tea_row - tea_row.max()); q /= q.sum()
            for_block += (p * np.log(p / q)).sum()
        total += for_block / len(logits)
        lo = hi
    return total


def brute_vad(cur_spa, tea_spa, cur_tem, tea_tem, mask, lam):
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return 0.0

    def mean_kl(p, q, axis):
        moved_p = np.moveaxis(p, axis, -1).reshape(-1, p.shape[axis])
        moved_q = np.moveaxis(q, axis, -1).reshape(-1, q.shape[axis])
        vals = [(pr * np.log(pr / qr)).sum() for pr, qr in zip(moved_p, moved_q)]
        return float(np.mean(vals))

    return lam * mean_kl(cur_spa[idx], tea_spa[idx], 2) \
        + (1 - lam) * mean_kl(cur_tem[idx], tea_tem[idx], 1)


def random_features(seed, n=6, d=5):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng


def random_maps(rng, n=5, l=3, s=4, d=2):
    def soft(x, axis):
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        return e / e.sum(axis=axis, keepdims=True)

    spa = soft(rng.normal(size=(n, l, s, d)), 2)
    tem = soft(rng.normal(size=(n, l, d)), 1)
    return spa, tem


# --- instance alignment ---------------------------------------------------


def test_i_avss_single_sample_is_zero():
    a = dm.constant([[1.0, 2.0, 3.0]])
    v = dm.constant([[0.5, -1.0, 2.0]])
    assert obj.i_avss(a, v, tau=0.05).item() == 0.0


def test_i_avss_orthonormal_pair():
    a = dm.constant(np.eye(2))
    v = dm.constant(np.eye(2))
    expected = math.log(1.0 + math.exp(-1.0))
    assert abs(obj.i_avss(a, v, tau=1.0).item() - expected) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_i_avss_matches_brute_force(seed):
    a, v, _ = random_features(seed)
    ours = obj.i_avss(dm.constant(a), dm.constant(v), tau=0.05).item()
    assert abs(ours - brute_i_avss(a, v, 0.05)) < 1e-9


def test_i_avss_normalization_flag():
    a, v, _ = random_features(42)
    on = obj.i_avss(dm.constant(a), dm.constant(v), tau=0.5, normalize=True).item()
    on_scaled = obj.i_avss(dm.constant(3.0 * a), dm.constant(v), tau=0.5, normalize=True).item()
    off = obj.i_avss(dm.constant(a), dm.constant(v), tau=0.5, normalize=False).item()
    off_scaled = obj.i_avss(dm.constant(3.0 * a), dm.constant(v), tau=0.5, normalize=False).item()
    assert abs(on - on_scaled) < 1e-9
    assert abs(off - off_scaled) > 1e-6


def test_i_avss_rejects_zero_row_under_normalization():
    a = np.ones((2, 3))
    a[1] = 0.0
    with pytest.raises(NumericDomainError):
        obj.i_avss(dm.constant(a), dm.constant(np.ones((2, 3))), tau=1.0)


# --- class alignment ------------------------------------------------------


def test_c_avss_all_labels_equal_is_log_n():
    a, v, _ = random_features(1, n=5)
    loss = obj.c_avss(dm.constant(a), dm.constant(v), np.zeros(5, dtype=int), tau=0.05)
    assert abs(loss.item() - math.log(5.0)) < 1e-12


def test_c_avss_distinct_labels_reduce_to_instance_loss():
    a, v, _ = random_features(2)
    labels = np.arange(6)
    c = obj.c_avss(dm.constant(a), dm.constant(v), labels, tau=0.05).item()
    i = obj.i_avss(dm.constant(a), dm.constant(v), tau=0.05).item()
    assert abs(c - i) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_c_avss_matches_brute_force(seed):
    a, v, rng = random_features(seed)
    labels = rng.integers(0, 3, size=6)
    ours = obj.c_avss(dm.constant(a), dm.constant(v), labels, tau=0.05).item()
    assert abs(ours - brute_c_avss(a, v, labels, 0.05)) < 1e-9


def test_d_avsc_is_the_weighted_sum():
    a, v, rng = random_features(3)
    labels = rng.integers(0, 2, size=6)
    w = obj.LossWeights(lambda_i=0.7, lambda_c=0.3, tau=0.1)
    total = obj.d_avsc(dm.constant(a), dm.constant(v), labels, w).item()
    i = obj.i_avss(dm.constant(a), dm.constant(v), 0.1).item()
    c = obj.c_avss(dm.constant(a), dm.constant(v), labels, 0.1).item()
    assert abs(total - (0.7 * i + 0.3 * c)) < 1e-12
    both_off = obj.d_avsc(dm.constant(a), dm.constant(v), labels,
                          obj.LossWeights(lambda_i=0.0, lambda_c=0.0))
    assert both_off.item() == 0.0


# --- attention distillation -----------------------------------------------


def test_vad_identical_maps_is_exactly_zero():
    rng = np.random.default_rng(4)
    spa, tem = random_maps(rng)
    cur = AttentionMaps(dm.constant(spa), dm.constant(tem))
    tea = AttentionMaps(dm.constant(spa.copy()), dm.constant(tem.copy()))
    assert obj.vad(cur, tea, np.ones(5, dtype=bool), 0.5).item() == 0.0


def test_vad_empty_mask_is_exactly_zero():
    rng = np.random.default_rng(5)
    spa, tem = random_maps(rng)
    spa2, tem2 = random_maps(rng)
    cur = AttentionMaps(dm.constant(spa), dm.constant(tem))
    tea = AttentionMaps(dm.constant(spa2), dm.constant(tem2))
    assert obj.vad(cur, tea, np.zeros(5, dtype=bool), 0.5).item() == 0.0


def test_vad_single_cell_analytic_value():
    cur = AttentionMaps(dm.constant([[[[0.5], [0.5]]]]), dm.constant([[[1.0]]]))
    tea = AttentionMaps(dm.constant([[[[0.25], [0.75]]]]), dm.constant([[[1.0]]]))
    got = obj.vad(cur, tea, np.array([True]), 1.0).item()
    assert abs(got - 0.5 * math.log(4.0 / 3.0)) < 1e-12
    assert abs(got - 0.143841) < 5e-7


def test_vad_only_masked_samples_count():
    rng = np.random.default_rng(6)
    spa_c, tem_c = random_maps(rng)
    spa_t, tem_t = random_maps(rng)
    spa_c2 = spa_c.copy()
    spa_c2[0] = rng.dirichlet(np.ones(4), size=(3, 2)).transpose(0, 2, 1)
    mask = np.array([False, True, True, True, True])
    a = obj.vad(AttentionMaps(dm.constant(spa_c), dm.constant(tem_c)),
                AttentionMaps(dm.constant(spa_t), dm.constant(tem_t)), mask, 0.5).item()
    b = obj.vad(AttentionMaps(dm.constant(spa_c2), dm.constant(tem_c)),
                AttentionMaps(dm.constant(spa_t), dm.constant(tem_t)), mask, 0.5).item()
    assert a == b


@pytest.mark.parametrize("seed", range(4))
def test_vad_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    spa_c, tem_c = random_maps(rng)
    spa_t, tem_t = random_maps(rng)
    mask = rng.random(5) < 0.6
    lam = 0.3
    ours = obj.vad(AttentionMaps(dm.constant(spa_c), dm.constant(tem_c)),
                   AttentionMaps(dm.constant(spa_t), dm.constant(tem_t)), mask, lam).item()
    assert abs(ours - brute_vad(spa_c, spa_t, tem_c, tem_t, mask, lam)) < 1e-9


def test_vad_rejects_shape_mismatch_and_bad_lambda():
    rng = np.random.default_rng(7)
    spa, tem = random_maps(rng)
    cur = AttentionMaps(dm.constant(spa), dm.constant(tem))
    small = AttentionMaps(dm.constant(spa[:, :2]), dm.constant(tem[:, :2]))
    with pytest.raises(ContractError):
        obj.vad(cur, small, np.ones(5, dtype=bool), 0.5)
    with pytest.raises(ContractError):
        obj.vad(cur, cur, np.ones(5, dtype=bool), 1.5)


# --- separated softmax ----------------------------------------------------


def test_cross_entropy_two_equal_logits_is_log_two():
    loss = obj.cross_entropy(dm.constant([[0.0, 0.0]]), [0])
    assert abs(loss.item() - math.log(2.0)) < 1e-15


def test_ss_ce_first_step_equals_plain_ce():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(7, 4))
    labels = rng.integers(0, 4, size=7)
    layout = obj.TaskLayout((4,))
    a = obj.ss_ce(dm.constant(logits), labels, layout).item()
    b = obj.cross_entropy(dm.constant(logits), labels).item()
    assert a == b


def test_ss_ce_blocks_are_isolated():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(4, 6))
    labels = np.array([0, 1, 2, 3])  # all old under layout (4, 2)
    layout = obj.TaskLayout((4, 2))
    base = obj.ss_ce(dm.constant(logits), labels, layout).item()
    bumped = logits.copy()
    bumped[:, 4:] += 100.0
    assert obj.ss_ce(dm.constant(bumped), labels, layout).item() == base


def test_ss_ce_two_block_analytic():
    logits = np.array([[0.0, 0.0, 5.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
    labels = np.array([2, 0])
    layout = obj.TaskLayout((2, 2))
    got = obj.ss_ce(dm.constant(logits), labels, layout).item()
    new_term = -math.log(math.exp(5.0) / (math.exp(5.0) + math.exp(1.0)))
    old_term = math.log(2.0)
    assert abs(got - (new_term + old_term) / 2.0) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_ss_ce_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    layout = obj.TaskLayout((3, 2, 3))
    logits = rng.normal(size=(9, 8))
    labels = rng.integers(0, 8, size=9)
    ours = obj.ss_ce(dm.constant(logits), labels, layout).item()
    assert abs(ours - brute_ss_ce(logits, labels, layout.old_count)) < 1e-9


def test_ss_ce_rejects_out_of_range_label():
    layout = obj.TaskLayout((2, 2))
    with pytest.raises(ContractError):
        obj.ss_ce(dm.constant(np.zeros((1, 4))), [4], layout)


def _tracked_ops(loss):
    """op name of every tracked node the loss reaches, one entry per node."""
    ops, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen and node.requires_grad:
            seen.add(id(node))
            ops.append(node._op)
            stack.extend(node._parents)
    return ops


def test_each_softmax_head_is_one_nll_node():
    a, v, rng = random_features(20)
    labels = rng.integers(0, 5, size=6)
    logits = dm.parameter(rng.normal(size=(6, 5)))
    heads = {
        "cross_entropy": obj.cross_entropy(logits, labels),
        "ss_ce": obj.ss_ce(logits, labels, obj.TaskLayout((3, 2))),
        "i_avss": obj.i_avss(dm.parameter(a), dm.parameter(v), 0.1),
        "c_avss": obj.c_avss(dm.parameter(a), dm.parameter(v), labels, 0.1),
    }
    for name, loss in heads.items():
        ops = _tracked_ops(loss)
        assert ops.count("nll") == 1, (name, ops)
        assert not {"take", "slice", "exp", "log"} & set(ops), (name, ops)


# --- task-wise distillation ----------------------------------------------


def test_tkd_identical_teacher_is_exactly_zero():
    rng = np.random.default_rng(10)
    layout = obj.TaskLayout((3, 2, 2))
    logits = rng.normal(size=(5, 7))
    teacher = logits[:, :5].copy()
    assert obj.tkd(dm.constant(logits), dm.constant(teacher), layout).item() == 0.0


def test_tkd_block_shift_invariance():
    rng = np.random.default_rng(11)
    layout = obj.TaskLayout((3, 2, 2))
    logits = rng.normal(size=(5, 7))
    teacher = rng.normal(size=(5, 5))
    base = obj.tkd(dm.constant(logits), dm.constant(teacher), layout).item()
    shifted = logits.copy()
    shifted[:, 0:3] += 7.0      # constant shift inside one block
    got = obj.tkd(dm.constant(shifted), dm.constant(teacher), layout).item()
    assert abs(got - base) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_tkd_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    layout = obj.TaskLayout((2, 3, 2))
    logits = rng.normal(size=(6, 7))
    teacher = rng.normal(size=(6, 5))
    ours = obj.tkd(dm.constant(logits), dm.constant(teacher), layout).item()
    assert abs(ours - brute_tkd(logits, teacher, layout.boundaries)) < 1e-9


def test_tkd_rejects_wrong_teacher_width():
    layout = obj.TaskLayout((2, 2))
    with pytest.raises(ContractError):
        obj.tkd(dm.constant(np.zeros((3, 4))), dm.constant(np.zeros((3, 3))), layout)
    with pytest.raises(ContractError):
        obj.tkd(dm.constant(np.zeros((3, 4))), dm.constant(np.zeros((3, 2))), obj.TaskLayout((4,)))


def _reference_tkd(logits, teacher, layout):
    """tkd as it was composed per block: softmax of each block's slice, one
    single-pair kl_rows node per block, and a chain of adds."""
    total = None
    for task in range(layout.step - 1):
        lo, hi = layout.block_bounds(task)
        cur = dm.softmax(dm.slice_axis(logits, 1, lo, hi), axis=1)
        tea = dm.softmax(dm.slice_axis(teacher, 1, lo, hi), axis=1)
        part = dm.kl_rows(((cur, tea, 1),), (1.0,))
        total = part if total is None else total + part
    return total


@pytest.mark.parametrize("boundaries", [(2, 3), (2, 3, 2), (2, 3, 1, 2)])
def test_tkd_is_one_kl_node_bitwise_equal_to_the_per_block_composite(boundaries):
    rng = np.random.default_rng(21)
    layout = obj.TaskLayout(boundaries)
    logits = rng.normal(size=(6, layout.total_classes))
    teacher = rng.normal(size=(6, layout.old_count))

    def run(loss):
        x = dm.parameter(logits)
        out = loss(x, dm.constant(teacher), layout)
        dm.backward(out)
        return out, x.grad

    merged, merged_grad = run(obj.tkd)
    reference, reference_grad = run(_reference_tkd)
    assert merged.data.tobytes() == reference.data.tobytes()
    assert np.array_equal(merged_grad, reference_grad)
    nodes, stack, seen = [], [merged], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    assert [node._op for node in nodes].count("block_kl") == 1


# --- total ----------------------------------------------------------------


def make_trace(rng, n, layout_total, l=2, s=2, d=4, with_maps=True):
    def soft(x, axis):
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        return e / e.sum(axis=axis, keepdims=True)

    maps = None
    if with_maps:
        maps = AttentionMaps(dm.constant(soft(rng.normal(size=(n, l, s, d)), 2)),
                             dm.constant(soft(rng.normal(size=(n, l, d)), 1)))
    return ForwardTrace(audio=dm.constant(rng.normal(size=(n, d))),
                        attended_visual=dm.constant(rng.normal(size=(n, d))),
                        fused=dm.constant(rng.normal(size=(n, d))),
                        logits=dm.constant(rng.normal(size=(n, layout_total))),
                        maps=maps)


def test_total_loss_first_step_is_ce_plus_contrastive():
    rng = np.random.default_rng(12)
    layout = obj.TaskLayout((4,))
    trace = make_trace(rng, 5, 4)
    labels = rng.integers(0, 4, size=5)
    w = obj.LossWeights(lambda_i=0.5, lambda_c=1.0, tau=0.1)
    total = obj.total_loss(trace, None, labels, None, layout, w).item()
    expected = obj.ss_ce(trace.logits, labels, layout).item() \
        + obj.d_avsc(trace.audio, trace.attended_visual, labels, w).item()
    assert abs(total - expected) < 1e-12


def test_total_loss_composes_all_four_terms():
    rng = np.random.default_rng(13)
    layout = obj.TaskLayout((3, 2))
    trace = make_trace(rng, 6, 5)
    teacher = make_trace(rng, 6, 3)
    labels = rng.integers(0, 5, size=6)
    mask = np.array([True, False, True, False, False, True])
    w = obj.LossWeights(lambda_i=0.4, lambda_c=0.8, lambda_vad=0.6, tau=0.2)
    total = obj.total_loss(trace, teacher, labels, mask, layout, w).item()
    expected = obj.ss_ce(trace.logits, labels, layout).item() \
        + obj.tkd(trace.logits, teacher.logits, layout).item() \
        + obj.d_avsc(trace.audio, trace.attended_visual, labels, w).item() \
        + obj.vad(trace.maps, teacher.maps, mask, 0.6).item()
    assert abs(total - expected) < 1e-12


def test_total_loss_mask_none_skips_attention_distillation():
    rng = np.random.default_rng(14)
    layout = obj.TaskLayout((3, 2))
    trace = make_trace(rng, 4, 5)
    teacher = make_trace(rng, 4, 3)
    labels = rng.integers(0, 5, size=4)
    w = obj.LossWeights(lambda_i=0.0, lambda_c=0.0)
    skipped = obj.total_loss(trace, teacher, labels, None, layout, w).item()
    expected = obj.ss_ce(trace.logits, labels, layout).item() \
        + obj.tkd(trace.logits, teacher.logits, layout).item()
    assert skipped == expected


def test_total_loss_teacher_presence_contract():
    rng = np.random.default_rng(15)
    trace = make_trace(rng, 3, 4)
    teacher = make_trace(rng, 3, 2)
    labels = np.zeros(3, dtype=int)
    with pytest.raises(ContractError):
        obj.total_loss(trace, teacher, labels, None, obj.TaskLayout((4,)), obj.LossWeights())
    with pytest.raises(ContractError):
        obj.total_loss(trace, None, labels, None, obj.TaskLayout((2, 2)), obj.LossWeights())


# --- batch-order invariance and gradients --------------------------------


def test_losses_are_permutation_invariant():
    rng = np.random.default_rng(16)
    a, v, _ = random_features(16, n=8, d=4)
    labels = rng.integers(0, 3, size=8)
    perm = rng.permutation(8)
    i1 = obj.i_avss(dm.constant(a), dm.constant(v), 0.1).item()
    i2 = obj.i_avss(dm.constant(a[perm]), dm.constant(v[perm]), 0.1).item()
    c1 = obj.c_avss(dm.constant(a), dm.constant(v), labels, 0.1).item()
    c2 = obj.c_avss(dm.constant(a[perm]), dm.constant(v[perm]), labels[perm], 0.1).item()
    logits = rng.normal(size=(8, 5))
    layout = obj.TaskLayout((3, 2))
    s1 = obj.ss_ce(dm.constant(logits), rng.integers(0, 5, size=8), layout)
    assert abs(i1 - i2) < 1e-12
    assert abs(c1 - c2) < 1e-12
    assert s1.item() == s1.item()


def test_contrastive_gradients_pass_finite_differences():
    a, v, rng = random_features(17, n=4, d=3)
    labels = rng.integers(0, 2, size=4)

    def fi(t):
        return obj.i_avss(t, dm.constant(v), tau=0.5)

    def fc(t):
        return obj.c_avss(dm.constant(a), t, labels, tau=0.5)

    assert dm.grad_check(fi, dm.constant(a), h=1e-5) < 1e-6
    assert dm.grad_check(fc, dm.constant(v), h=1e-5) < 1e-6


def test_ss_ce_and_tkd_gradients_pass_finite_differences():
    rng = np.random.default_rng(18)
    layout = obj.TaskLayout((2, 2))
    logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    teacher = rng.normal(size=(5, 2))

    def fs(t):
        return obj.ss_ce(t, labels, layout)

    def fk(t):
        return obj.tkd(t, dm.constant(teacher), layout)

    assert dm.grad_check(fs, dm.constant(logits), h=1e-5) < 1e-6
    assert dm.grad_check(fk, dm.constant(logits), h=1e-5) < 1e-6


def test_vad_gradients_pass_finite_differences():
    rng = np.random.default_rng(19)
    n, l, s, d = 3, 2, 3, 2
    raw = rng.normal(size=(n, l, s, d))
    raw_tem = rng.normal(size=(n, l, d))
    tea_spa, tea_tem = random_maps(rng, n, l, s, d)
    tea = AttentionMaps(dm.constant(tea_spa), dm.constant(tea_tem))
    mask = np.array([True, True, False])

    def f(t):
        maps = AttentionMaps(dm.softmax(t, axis=2),
                             dm.softmax(dm.constant(raw_tem), axis=1))
        return obj.vad(maps, tea, mask, 0.4)

    assert dm.grad_check(f, dm.constant(raw), h=1e-5) < 1e-6
