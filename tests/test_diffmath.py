import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcil import diffmath as dm
from avcil import model as mdl
from avcil import objectives as obj
from avcil.errors import ContractError, NumericDomainError


def test_add_mul_forward():
    a = dm.constant([1.0, 2.0])
    b = dm.constant([3.0, 4.0])
    assert np.array_equal((a + b).data, [4.0, 6.0])
    assert np.array_equal((a * b).data, [3.0, 8.0])
    assert np.array_equal((a / b).data, [1.0 / 3.0, 0.5])


def test_matmul_forward_and_backward():
    a = dm.parameter([[1.0, 2.0], [3.0, 4.0]])
    b = dm.parameter([[5.0, 6.0], [7.0, 8.0]])
    out = (a @ b).sum()
    dm.backward(out)
    # d sum(AB)/dA = 1 B^T, d/dB = A^T 1
    assert np.allclose(a.grad, np.ones((2, 2)) @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ np.ones((2, 2)))


def test_matmul_broadcast_leading_axes():
    rng = np.random.default_rng(0)
    x = dm.parameter(rng.normal(size=(2, 3, 4)))
    w = dm.parameter(rng.normal(size=(4, 5)))
    out = (x @ w).sum()
    dm.backward(out)
    assert x.grad.shape == (2, 3, 4)
    assert w.grad.shape == (4, 5)
    g = np.ones((2, 3, 5))
    assert np.allclose(w.grad, np.tensordot(x.data, g, axes=([0, 1], [0, 1])))


def test_matmul_shape_mismatch():
    with pytest.raises(ContractError):
        dm.matmul(dm.constant(np.ones((2, 3))), dm.constant(np.ones((2, 3))))


def test_tanh_gradient_at_zero_is_one():
    x = dm.parameter(np.zeros(4))
    dm.backward(dm.tanh(x).sum())
    assert np.array_equal(x.grad, np.ones(4))


def test_log_rejects_nonpositive():
    with pytest.raises(NumericDomainError):
        dm.log(dm.constant([1.0, 0.0]))


def test_softmax_uniform_and_ratio():
    out = dm.softmax(dm.constant([0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-12)
    out = dm.softmax(dm.constant([0.0, math.log(3.0)]), axis=0)
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_shift_invariance():
    x = np.array([1.0, -2.0, 0.5])
    a = dm.softmax(dm.constant(x), axis=0).data
    b = dm.softmax(dm.constant(x + 100.0), axis=0).data
    assert np.allclose(a, b, atol=1e-12)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericDomainError):
        dm.softmax(dm.constant([np.inf, 0.0]), axis=0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_rows_are_distributions(xs):
    out = dm.softmax(dm.constant(xs), axis=0).data
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out > 0.0)


def test_kl_rows_identical_is_zero():
    p = dm.constant([[0.25, 0.75], [0.5, 0.5]])
    rows = np.arange(2)
    assert dm.kl_rows(((p, p.data.copy(), 1),), (1.0,), rows).item() == 0.0


def test_kl_rows_point_mass_vs_uniform():
    p = dm.constant([[1.0, 0.0]])
    q = np.array([[0.5, 0.5]])
    assert abs(dm.kl_rows(((p, q, 1),), (1.0,), [0]).item() - math.log(2.0)) < 1e-12


def test_kl_rows_half_vs_quarter():
    p = dm.constant([[0.5, 0.5]])
    q = np.array([[0.25, 0.75]])
    assert abs(dm.kl_rows(((p, q, 1),), (1.0,), [0]).item()
               - 0.5 * math.log(4.0 / 3.0)) < 1e-12


def test_kl_rows_means_over_slices():
    p = dm.constant([[1.0, 0.0], [0.5, 0.5]])
    q = np.array([[0.5, 0.5], [0.5, 0.5]])
    expected = 0.5 * (math.log(2.0) + 0.0)
    rows = np.arange(2)
    assert abs(dm.kl_rows(((p, q, 1),), (1.0,), rows).item() - expected) < 1e-12


def test_kl_rows_rejects_non_distribution():
    with pytest.raises(ContractError):
        dm.kl_rows(((dm.constant([[0.7, 0.7]]), np.array([[0.5, 0.5]]), 1),), (1.0,), [0])
    with pytest.raises(ContractError):
        dm.kl_rows(((dm.constant([[1.5, -0.5]]), np.array([[0.5, 0.5]]), 1),), (1.0,), [0])
    # NaN fails every comparison, so it must fail the checks rather than pass them
    with pytest.raises(ContractError):
        dm.kl_rows(((dm.constant([[np.nan, 1.0]]), np.array([[0.5, 0.5]]), 1),), (1.0,), [0])
    with pytest.raises(ContractError):
        dm.check_distributions(np.array([[np.nan, 0.5]]), 1, "p")


def test_kl_rows_rejects_distributions_along_the_row_axis():
    for p in ([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]]):
        t = dm.constant(p)
        for axis in (0, -t.ndim):
            with pytest.raises(ContractError, match="non-row axis"):
                dm.kl_rows(((t, t.data, axis),), (1.0,), [0])


def test_backward_requires_scalar():
    x = dm.parameter([1.0, 2.0])
    with pytest.raises(ContractError):
        dm.backward(x + 0.0)


def test_backward_twice_raises():
    x = dm.parameter([1.0])
    loss = (x * x).sum()
    dm.backward(loss)
    with pytest.raises(ContractError):
        dm.backward(loss)


def test_unused_input_gets_no_gradient():
    x = dm.parameter([1.0, 2.0])
    y = dm.parameter([3.0])
    dm.backward((y * y).sum())
    assert x.grad is None


def test_shared_subexpression_accumulates():
    x = dm.parameter([2.0])
    y = dm.tanh(x)
    loss = (y * y).sum() + y.sum()
    dm.backward(loss)
    t = math.tanh(2.0)
    expected = (2.0 * t + 1.0) * (1.0 - t * t)
    assert np.allclose(x.grad, [expected], atol=1e-12)


def test_take_and_slice_backward():
    x = dm.parameter(np.arange(12.0).reshape(4, 3))
    out = dm.take(x, [2, 0, 2]).sum()
    dm.backward(out)
    assert np.array_equal(x.grad, [[1, 1, 1], [0, 0, 0], [2, 2, 2], [0, 0, 0]])
    y = dm.parameter(np.arange(12.0).reshape(4, 3))
    dm.backward(dm.slice_axis(y, 1, 1, 3).sum())
    assert np.array_equal(y.grad, [[0, 1, 1]] * 4)


def test_grad_check_quadratic_is_tight():
    x = dm.constant([3.0])
    err = dm.grad_check(lambda t: (t * t).sum(), x, h=1e-5)
    assert err < 1e-8


def test_grad_check_linear_is_tighter():
    x = dm.constant([1.0, -2.0, 0.5])
    err = dm.grad_check(lambda t: (t * dm.constant([2.0, 3.0, -1.0])).sum(), x, h=1e-5)
    assert err < 1e-10


def test_grad_check_rejects_bad_step():
    with pytest.raises(ContractError):
        dm.grad_check(lambda t: t.sum(), dm.constant([1.0]), h=0.1)


def test_grad_check_softmax_composite():
    rng = np.random.default_rng(7)
    x = dm.constant(rng.normal(size=(3, 4)))
    w = rng.normal(size=4)

    def f(t):
        return (dm.softmax(t, axis=1) * dm.constant(np.tile(w, (3, 1)))).sum()

    assert dm.grad_check(f, x, h=1e-5) < 1e-6


def test_grad_check_kl_rows_through_softmax():
    rng = np.random.default_rng(11)
    raw_q = dm.constant(rng.normal(size=(2, 5)))
    q = dm.softmax(raw_q, axis=1)

    def f(t):
        return dm.kl_rows(((dm.softmax(t, axis=1), q.data, 1),), (1.0,), np.arange(2))

    x = dm.constant(rng.normal(size=(2, 5)))
    assert dm.grad_check(f, x, h=1e-5) < 1e-6


def test_grad_check_kl_rows_direct_small_step():
    rng = np.random.default_rng(13)
    p = rng.dirichlet(np.ones(4), size=2)
    q = rng.dirichlet(np.ones(4), size=2)

    def in_p(t):
        return dm.kl_rows(((t, q, 1),), (1.0,), np.arange(2))

    assert dm.grad_check(in_p, dm.constant(p), h=1e-7) < 1e-5


# --- nll -----------------------------------------------------------------


def log_softmax_reference(z, support):
    """The log-softmax composite `nll` replaced, z - (log(sum exp(z - m)) + m),
    taken over each row's support; -inf outside it."""
    out = np.full(z.shape, -np.inf)
    for i, row in enumerate(z):
        kept = row[support[i]]
        m = kept.max()
        out[i, support[i]] = kept - (np.log(np.exp(kept - m).sum()) + m)
    return out


def nll_reference(z, positives, support):
    """Sum over rows of -log of the mean log-softmax probability of the positives."""
    logp = log_softmax_reference(z, support)
    return sum(-np.log(np.exp(logp[i, positives[i]]).mean()) for i in range(len(z)))


@st.composite
def nll_cases(draw):
    n, c = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    z = np.array(draw(st.lists(st.floats(-20, 20), min_size=n * c, max_size=n * c)),
                 dtype=np.float64).reshape(n, c)
    targets = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
    positives = targets[:, None] == np.arange(c)
    if not draw(st.booleans()):             # several positives per row
        extra = draw(st.lists(st.booleans(), min_size=n * c, max_size=n * c))
        positives |= np.array(extra).reshape(n, c)
    support = None
    if draw(st.booleans()):
        extra = draw(st.lists(st.booleans(), min_size=n * c, max_size=n * c))
        support = positives | np.array(extra).reshape(n, c)
    return z, positives, support


@settings(max_examples=150, deadline=None)
@given(nll_cases())
def test_nll_matches_the_log_softmax_reference(case):
    z, positives, support = case
    full = np.ones(z.shape, dtype=bool) if support is None else support
    x = dm.parameter(z)
    out = dm.nll(x, positives, support)
    dm.backward(out)
    assert math.isclose(out.item(), nll_reference(z, positives, full),
                        rel_tol=1e-11, abs_tol=1e-11)
    h = 1e-6
    numeric = np.empty_like(z)
    for idx in np.ndindex(*z.shape):
        hi, lo = z.copy(), z.copy()
        hi[idx] += h
        lo[idx] -= h
        numeric[idx] = (nll_reference(hi, positives, full)
                        - nll_reference(lo, positives, full)) / (2 * h)
    assert np.allclose(x.grad, numeric, rtol=0.0, atol=1e-6)


def test_nll_positive_far_below_the_row_max_stays_finite():
    z = np.array([[0.0, -2000.0, 1.0, -3.0], [2.0, 0.5, -1.0, 0.0]])
    positives = np.array([[False, True, False, False], [True, False, False, False]])
    x = dm.parameter(z)
    out = dm.nll(x, positives)
    dm.backward(out)
    m = z.max(axis=1)
    lse = np.log(np.exp(z - m[:, None]).sum(axis=1)) + m
    expected = (lse[0] - z[0, 1]) + (lse[1] - z[1, 0])
    assert np.isfinite(out.item())
    assert math.isclose(out.item(), expected, rel_tol=1e-12)
    assert np.all(np.isfinite(x.grad))
    assert math.isclose(x.grad[0, 1], -1.0, rel_tol=1e-12)


@pytest.mark.parametrize("make,error", [
    (lambda z, p: dm.nll(z, p[1:]), ContractError),                      # shape mismatch
    (lambda z, p: dm.nll(z, p, p[:, :2]), ContractError),
    (lambda z, p: dm.nll(z, p.astype(np.float64)), ContractError),       # not a boolean mask
    (lambda z, p: dm.nll(dm.constant(z.data[0]), p[0]), ContractError),  # not (N, C)
    (lambda z, p: dm.nll(z, p & np.array([[True], [False]])), ContractError),  # no positive
    (lambda z, p: dm.nll(z, p, np.zeros(p.shape, dtype=bool)), ContractError),  # outside support
    (lambda z, p: dm.nll(dm.constant(np.where(p, np.nan, z.data)), p), NumericDomainError),
    (lambda z, p: dm.nll(dm.constant(np.where(p, -np.inf, z.data)), p), NumericDomainError),
])
def test_nll_rejects(make, error):
    z = dm.constant(np.arange(6.0).reshape(2, 3))
    positives = np.array([[True, False, False], [False, True, True]])
    with pytest.raises(error):
        make(z, positives)


def test_forward_is_bit_deterministic():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 8))
    w = rng.normal(size=(8, 8))

    def run():
        xt = dm.parameter(x.copy())
        out = dm.softmax(dm.tanh(xt @ dm.constant(w.copy())), axis=1).sum()
        dm.backward(out)
        return out.item(), xt.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    assert np.array_equal(g1, g2)


# --- Adam ----------------------------------------------------------------


def test_adam_zero_grad_zero_decay_is_noop():
    p = dm.parameter([1.0, -2.0])
    st_ = dm.AdamState(p.data.size, lr=0.1, weight_decay=0.0)
    dm.adam_step(p.data, np.zeros(2), st_)
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_single_step_hand_trace():
    p = dm.parameter([0.5])
    p.grad = np.array([0.2])
    st_ = dm.AdamState(p.data.size, lr=0.1, weight_decay=0.0)
    dm.adam_step(p.data, p.grad, st_)
    m = 0.1 * 0.2
    v = 0.001 * 0.2 ** 2
    mh = m / (1 - 0.9)
    vh = v / (1 - 0.999)
    expected = 0.5 - 0.1 * mh / (math.sqrt(vh) + 1e-8)
    assert abs(p.data[0] - expected) < 1e-15
    assert st_.step_count == 1


def test_adam_weight_decay_couples_into_gradient():
    p = dm.parameter([2.0])
    p.grad = np.array([0.0])
    st_ = dm.AdamState(p.data.size, lr=0.1, weight_decay=0.5)
    dm.adam_step(p.data, p.grad, st_)
    g = 0.5 * 2.0
    mh = (0.1 * g) / (1 - 0.9)
    vh = (0.001 * g * g) / (1 - 0.999)
    expected = 2.0 - 0.1 * mh / (math.sqrt(vh) + 1e-8)
    assert abs(p.data[0] - expected) < 1e-15


def test_adam_two_step_recursion():
    p = dm.parameter([1.0])
    st_ = dm.AdamState(p.data.size, lr=0.01, weight_decay=0.0)
    m = v = 0.0
    x = 1.0
    for step in (1, 2):
        p.grad = np.array([2.0 * p.data[0]])
        g = 2.0 * x
        dm.adam_step(p.data, p.grad, st_)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x = x - 0.01 * (m / (1 - 0.9 ** step)) / (math.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
        assert abs(p.data[0] - x) < 1e-14


def test_adam_state_mismatch_raises():
    p = dm.parameter([1.0])
    q = dm.parameter([2.0])
    st_ = dm.AdamState(p.data.size)
    with pytest.raises(ContractError):
        dm.adam_step(np.concatenate([p.data, q.data]), np.zeros(2), st_)


def test_adam_is_deterministic():
    def run():
        rng = np.random.default_rng(9)
        p = dm.parameter(rng.normal(size=(3, 3)))
        st_ = dm.AdamState(p.data.size, lr=0.05, weight_decay=0.01)
        for _ in range(5):
            loss = dm.tanh(p).sum()
            dm.backward(loss)
            dm.adam_step(p.data.reshape(-1), p.grad.reshape(-1), st_)
            p.grad.fill(0.0)
        return p.data.copy()

    assert np.array_equal(run(), run())


def _adam_per_tensor(tensors, grads, m, v, step, lr, weight_decay):
    """The per-tensor Adam loop, kept as the reference for the flat update."""
    bc1 = 1.0 - 0.9 ** step
    bc2 = 1.0 - 0.999 ** step
    for p, g, mt, vt in zip(tensors, grads, m, v):
        if weight_decay:
            g = g + weight_decay * p
        mt *= 0.9
        mt += (1.0 - 0.9) * g
        vt *= 0.999
        vt += (1.0 - 0.999) * (g * g)
        p -= lr * (mt / bc1) / (np.sqrt(vt / bc2) + 1e-8)


def test_adam_on_the_flat_vector_equals_the_per_tensor_loop_bitwise():
    rng = np.random.default_rng(10)
    shapes = [(4, 4)] * 4 + [(3, 4), (3,)]
    sizes = [math.prod(s) for s in shapes]
    flat = rng.uniform(-0.5, 0.5, size=sum(sizes))
    grad = np.zeros_like(flat)
    ends = np.cumsum(sizes)[:-1]
    tensors = [t.reshape(s).copy() for t, s in zip(np.split(flat, ends), shapes)]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    st_ = dm.AdamState(flat.size, lr=0.01, weight_decay=1e-4)
    for step in range(1, 6):
        grad[:] = rng.normal(size=flat.size) * 10.0 ** rng.integers(-6, 3)
        dm.adam_step(flat, grad, st_)
        _adam_per_tensor(tensors, [g.reshape(s) for g, s in zip(np.split(grad, ends), shapes)],
                         m, v, step, 0.01, 1e-4)
        for t, s, piece in zip(tensors, shapes, np.split(flat, ends)):
            assert np.array_equal(piece.reshape(s), t)
    for mt, vt, mp, vp in zip(m, v, np.split(st_.m, ends), np.split(st_.v, ends)):
        assert np.array_equal(mp, mt.reshape(-1)) and np.array_equal(vp, vt.reshape(-1))


def test_adam_state_holds_two_vectors_and_no_lists():
    st_ = dm.AdamState(7, lr=0.1, weight_decay=0.0)
    assert not any(isinstance(value, list) for value in vars(st_).values())
    for moment in (st_.m, st_.v):
        assert isinstance(moment, np.ndarray) and moment.shape == (7,)
        assert moment.dtype == np.float64 and not moment.any()


# --- fused primitives against the composites they replace -----------------


@st.composite
def broadcast_operands(draw):
    """Two broadcast-compatible shapes, a reduction axis of their product,
    and which operands track gradients."""
    ndim = draw(st.integers(1, 4))
    full = draw(st.lists(st.integers(1, 4), min_size=ndim, max_size=ndim))

    def operand():
        lead = draw(st.integers(0, ndim - 1))
        return tuple(1 if draw(st.booleans()) else n for n in full[lead:])

    a_shape, b_shape = operand(), operand()
    out_ndim = max(len(a_shape), len(b_shape))
    axis = draw(st.integers(-out_ndim, out_ndim - 1))
    tracked = draw(st.sampled_from([(True, True), (True, False), (False, True),
                                    (False, False)]))
    return a_shape, b_shape, axis, tracked, draw(st.integers(0, 2**32 - 1))


def _through(fn, a_data, b_data, tracked, probe_seed):
    """Value of fn(a, b) and both operand gradients of sum(fn(a, b) * probe)."""
    a = dm.DiffTensor(a_data.copy(), requires_grad=tracked[0])
    b = dm.DiffTensor(b_data.copy(), requires_grad=tracked[1])
    out = fn(a, b)
    if any(tracked):
        probe = np.random.default_rng(probe_seed).normal(size=out.shape)
        dm.backward((out * dm.constant(probe)).sum())
    return out.data, a.grad, b.grad


def _assert_same_bits(fused, composite):
    value, *grads = fused
    ref_value, *ref_grads = composite
    assert np.array_equal(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert (g is None) == (ref is None)
        if g is not None:
            assert g.shape == ref.shape
            assert np.array_equal(g, ref)


@settings(max_examples=60, deadline=None)
@given(broadcast_operands())
def test_product_sum_matches_composite_bitwise(case):
    a_shape, b_shape, axis, tracked, seed = case
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
    _assert_same_bits(
        _through(lambda x, y: dm.product_sum(x, y, axis), a, b, tracked, seed),
        _through(lambda x, y: (x * y).sum(axis=axis), a, b, tracked, seed))


def _cast(t, dtype):
    """A node rounding `t` to `dtype`, whose VJP rounds the gradient back to
    `t`'s dtype: the casts `attend` makes at its edges."""
    return dm._node(t.data.astype(dtype), (t,), lambda g: (g.astype(t.data.dtype),), "cast")


def _attention_block(score_audio, visual, w_visual, map_rows, fused, distill=None):
    """The pooled vector, and the maps of `map_rows` or, given `distill`, their
    VAD, from `attend` or from the elementary composite it replaces (whose
    maps then hold every row, and whose VAD is a `kl_rows` of their rows).
    `visual` is a `view`, so the composite runs in the grid's own dtype."""
    if fused:
        pooled, maps, vad = dm.attend(score_audio, visual.data, w_visual, map_rows,
                                      distill=distill)
        return (pooled, vad) if distill is not None else (pooled, *maps)
    n, d = score_audio.shape
    dt = visual.data.dtype
    scores = dm.tanh(dm.matmul(visual, _cast(w_visual, dt)))
    spatial = dm.softmax(_cast(score_audio, dt).reshape((n, 1, 1, d)) * scores, axis=2)
    temporal = dm.softmax((spatial * scores).sum(axis=2), axis=1)
    pooled = (temporal * (visual * spatial).sum(axis=2)).sum(axis=1)
    pooled = _cast(pooled, np.float64)
    if distill is None:
        return pooled, spatial, temporal
    return pooled, _composite_vad(spatial, temporal, map_rows, distill)


def _composite_vad(spatial, temporal, map_rows, distill):
    """The composite's VAD: one `kl_rows` node over the map rows of its maps."""
    (q_spatial, q_temporal), q_rows, lam = distill
    return dm.kl_rows(((dm.take(spatial, map_rows), q_spatial, 2),
                       (dm.take(temporal, map_rows), q_temporal, 1)), (lam, 1.0 - lam), q_rows)


def _stack(parts):
    """Tensors stacked along axis 0, as one node."""
    ends = np.cumsum([p.shape[0] for p in parts])[:-1]
    return dm._node(np.concatenate([p.data for p in parts]), tuple(parts),
                    lambda g: tuple(np.split(g, ends)), "stack")


def _composite_by_row(score_audio, visual, w_visual):
    """The elementary composite run on each row by itself, its outputs
    stacked. Each row casts `w_visual` itself, so `w_visual`'s gradient is
    the float64 sum of one product per row, added in reverse row order."""
    outputs = [_attention_block(dm.slice_axis(score_audio, 0, r, r + 1),
                                dm.view(visual.data[r:r + 1]), w_visual, None, False)
               for r in range(score_audio.shape[0])]
    return tuple(_stack(parts) for parts in zip(*outputs))


def _attend_run(data, map_rows, block):
    """Loss, pooled vector, maps of `map_rows` and both operand gradients of
    a loss that reads the pooled vector and, as training does, the VAD of
    the map rows toward the teacher's maps at other rows; the block is
    `attend` ("fused"), the composite ("composite") or the composite run row
    by row ("by_row")."""
    audio, visual, w, probe, q_spatial, q_temporal = data
    score_audio, w_visual = dm.parameter(audio), dm.parameter(w)
    distill = ((q_spatial, q_temporal), (map_rows + 2) % len(audio), 0.3)
    if block == "by_row":
        pooled, spatial, temporal = _composite_by_row(score_audio, dm.view(visual),
                                                      w_visual)
        vad = _composite_vad(spatial, temporal, map_rows, distill) if map_rows.size else None
    elif map_rows.size:
        pooled, vad = _attention_block(score_audio, dm.view(visual), w_visual, map_rows,
                                       block == "fused", distill)
    else:
        pooled = _attention_block(score_audio, dm.view(visual), w_visual, map_rows,
                                  block == "fused")[0]
    loss = (pooled * dm.constant(probe)).sum()
    if map_rows.size:
        loss = loss + vad
    dm.backward(loss)
    maps = _attention_block(dm.constant(audio), dm.view(visual), dm.constant(w), map_rows,
                            block == "fused")[1:]
    if block != "fused":
        maps = tuple(m.data[map_rows] for m in maps)
    assert all(m.dtype == visual.dtype for m in maps)    # the block ran in the grid's dtype
    return (loss.data, pooled.data, *maps, score_audio.grad, w_visual.grad)


def test_attend_matches_composite_bitwise(monkeypatch):
    rng = np.random.default_rng(11)
    n, ell, cells, d = 5, 3, 4, 6
    data = [np.tanh(rng.normal(size=(n, d))), rng.normal(size=(n, ell, cells, d)),
            rng.normal(size=(d, d)) / np.sqrt(d), rng.normal(size=(n, d)),
            _dists(rng, (n, ell, cells, d), 2), _dists(rng, (n, ell, d), 1)]
    for dtype in (np.float32, np.float64):
        data[1] = data[1].astype(dtype)
        for chunk in (1, n * ell * cells * d):     # one row per chunk, the whole batch in one
            # kl_rows sums its rows in the same chunks as the attention
            monkeypatch.setattr(dm, "ATTEND_CHUNK_ENTRIES", chunk)
            monkeypatch.setattr(dm, "KL_CHUNK_ENTRIES", chunk)
            for map_rows in ([], [1, 4], range(n)):
                map_rows = np.array(map_rows, dtype=np.int64)
                fused = _attend_run(data, map_rows, "fused")
                composite = _attend_run(data, map_rows, "composite")
                if chunk == 1:      # w_visual's gradient: one product per chunk, summed
                    composite = (*composite[:-1], _attend_run(data, map_rows, "by_row")[-1])
                for got, want in zip(fused, composite, strict=True):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_attend_reads_its_rows_of_the_grid_in_place(monkeypatch):
    rng = np.random.default_rng(17)
    m, ell, cells, d = 9, 3, 4, 5
    rows = np.array([7, 2, 2, 0, 5, 8])    # any order, a row twice
    audio, w = rng.normal(size=(rows.size, d)), rng.normal(size=(d, d)) / np.sqrt(d)
    probe = rng.normal(size=(rows.size, d))
    teacher = (_dists(rng, (3, ell, cells, d), 2), _dists(rng, (3, ell, d), 1))
    for dtype in (np.float32, np.float64):
        source = rng.normal(size=(m, ell, cells, d)).astype(dtype)
        for chunk in (ell * cells * d * 2, rows.size * ell * cells * d):   # 3 chunks, or 1
            monkeypatch.setattr(dm, "ATTEND_CHUNK_ENTRIES", chunk)
            runs = []
            for grid, at in ((source, rows), (source[rows], None)):
                score_audio, w_visual = dm.parameter(audio), dm.parameter(w)
                _, maps, _ = dm.attend(dm.constant(audio), grid, dm.constant(w), [1, 4], at)
                pooled, _, vad = dm.attend(score_audio, grid, w_visual, [1, 4], at,
                                           distill=(teacher, [2, 0], 0.4))
                dm.backward((pooled * dm.constant(probe)).sum() + vad)
                runs.append([t.tobytes() for t in (*maps, pooled.data, vad.data)]
                            + [score_audio.grad.tobytes(), w_visual.grad.tobytes()])
            assert runs[0] == runs[1]


def test_attend_gradients_in_many_chunks_pass_the_gradient_check(monkeypatch):
    n, ell, cells, d = 5, 3, 4, 6
    monkeypatch.setattr(dm, "ATTEND_CHUNK_ENTRIES", 2 * ell * cells * d)    # chunks of 2, 2, 1
    for seed in range(5):
        rng = np.random.default_rng(seed)
        source = rng.normal(size=(n + 3, ell, cells, d))
        rows = rng.permutation(n + 3)[:n]
        a, b = rng.normal(size=(n, d)), rng.normal(size=(d, d))
        probe = rng.normal(size=(n, d))
        # map rows 0 | 2 | n - 1 in three chunks, the teacher's read out of order, row 1 twice
        teacher = (_dists(rng, (3, ell, cells, d), 2), _dists(rng, (3, ell, d), 1))

        def loss(score_audio, w_visual):
            pooled, _, vad = dm.attend(score_audio, source, w_visual, [0, 2, n - 1], rows,
                                       distill=(teacher, [1, 2, 1], 0.6))
            return (pooled * dm.constant(probe)).sum() + vad * 10.0

        assert dm.grad_check(lambda x: loss(x, dm.constant(b)), dm.parameter(a), 1e-5) < 1e-5
        assert dm.grad_check(lambda x: loss(dm.constant(a), x), dm.parameter(b), 1e-5) < 1e-5


def test_attend_takes_in_the_vad_gradient_with_or_without_the_pooled_vector():
    rng = np.random.default_rng(13)
    audio, visual, w = rng.normal(size=(3, 4)), rng.normal(size=(3, 2, 3, 4)), rng.normal(size=(4, 4))
    probe = rng.normal(size=(3, 4))
    rows = np.array([0, 2])
    distill = ((_dists(rng, (2, 2, 3, 4), 2), _dists(rng, (2, 2, 4), 1)), [1, 0], 0.7)
    # which of the pooled vector (0) and the VAD (1) the loss reads
    for reads in ((0, 1), (1,), (0,)):
        grads = []
        for fused in (True, False):
            score_audio, w_visual = dm.parameter(audio), dm.parameter(w)
            pooled, vad = _attention_block(score_audio, dm.view(visual), w_visual, rows,
                                           fused, distill)
            parts = [(pooled * dm.constant(probe)).sum(), vad * 3.0]
            loss = None
            for i in reads:
                loss = parts[i] if loss is None else loss + parts[i]
            dm.backward(loss)
            grads.append((score_audio.grad.tobytes(), w_visual.grad.tobytes()))
        assert grads[0] == grads[1]


def test_attend_rejects_nonfinite_scores_and_bad_map_rows():
    audio, w = dm.parameter([[np.nan, 1.0]]), dm.parameter(np.eye(2))
    with pytest.raises(NumericDomainError):
        dm.attend(audio, np.ones((1, 2, 3, 2)), w)
    audio = dm.parameter(np.ones((3, 2)))
    for rows in ([1, 1], [2, 0], [-1], [3], [[0]]):
        with pytest.raises(ContractError):
            dm.attend(audio, np.ones((3, 2, 3, 2)), w, rows)
    with pytest.raises(ContractError):     # the grid is an array, never a tensor
        dm.attend(audio, dm.parameter(np.ones((3, 2, 3, 2))), w)
    with pytest.raises(ContractError):
        dm.attend(audio, np.ones((3, 2, 3, 4)), w)
    maps = np.full((2, 2, 3, 2), 1.0 / 3.0), np.full((2, 2, 2), 0.5)
    for bad in ((maps, [0], 0.5),                          # one teacher row per map row
                (maps, [0, 2], 0.5), (maps, [-1, 0], 0.5),  # teacher rows inside its maps
                (maps, [0, 1], 1.5),                        # lambda_vad in [0, 1]
                ((maps[0][:, :1], maps[1]), [0, 1], 0.5),   # the batch's map shapes
                ((dm.constant(maps[0]), maps[1]), [0, 1], 0.5)):    # arrays only
        with pytest.raises(ContractError):
            dm.attend(audio, np.ones((3, 2, 3, 2)), w, [0, 2], distill=bad)


def _lanes(monkeypatch, cores):
    """attend's lanes, `cores` of them whatever the machine has, for one test."""
    lanes = dm._Lanes()
    lanes.cores = cores
    monkeypatch.setattr(dm, "_LANES", lanes)
    return lanes


def _attend_on_lanes(monkeypatch, cores, data, distilled):
    """Every output and gradient of a forward and backward through attend on
    `cores` lanes, as bytes, and the maps written into arrays handed in."""
    audio, source, rows, w, probe, teacher = data
    lanes = _lanes(monkeypatch, cores)
    score_audio, w_visual = dm.parameter(audio), dm.parameter(w)
    kept = np.array([0, 3, 4, 9])
    try:
        _, ell, cells, d = source.shape
        out = np.empty((4, ell, cells, d), np.float32), np.empty((4, ell, d), np.float32)
        _, maps, _ = dm.attend(dm.constant(audio), source, dm.constant(w), kept, rows,
                               maps_out=out)
        assert maps is out
        pooled, _, vad = dm.attend(score_audio, source, w_visual, kept, rows,
                                   distill=(teacher, [2, 0, 2, 1], 0.4) if distilled else None)
        loss = (pooled * dm.constant(probe)).sum()
        dm.backward(loss + vad * 3.0 if distilled else loss)
    finally:
        if lanes.pool is not None:
            lanes.pool.shutdown()
    return [t.tobytes() for t in (*maps, pooled.data, score_audio.grad, w_visual.grad)
            + ((vad.data,) if distilled else ())]


def _lane_data(rng, n=12, ell=2, cells=3, d=4):
    source = rng.normal(size=(n + 3, ell, cells, d)).astype(np.float32)
    return [rng.normal(size=(n, d)), source, rng.permutation(n + 3)[:n],
            rng.normal(size=(d, d)), rng.normal(size=(n, d)),
            (_dists(rng, (3, ell, cells, d), 2).astype(np.float32),
             _dists(rng, (3, ell, d), 1).astype(np.float32))]


def test_attend_on_more_lanes_than_cores_equals_one_lane_bitwise(monkeypatch):
    # one row per chunk, so every sum across chunks (the spatial VAD, w_visual's
    # gradient) is folded from parts that up to five lanes finish in any order
    monkeypatch.setattr(dm, "ATTEND_CHUNK_ENTRIES", 1)
    data = _lane_data(np.random.default_rng(23))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for distilled in (False, True):
            one = _attend_on_lanes(monkeypatch, 1, data, distilled)
            for cores in (2, 5):
                for _ in range(5):
                    assert _attend_on_lanes(monkeypatch, cores, data, distilled) == one
    finally:
        sys.setswitchinterval(interval)


def test_attend_runs_every_lane_under_the_callers_error_state(monkeypatch):
    # a pool thread starts with numpy's default error state, not the caller's
    monkeypatch.setattr(dm, "ATTEND_CHUNK_ENTRIES", 1)
    data = _lane_data(np.random.default_rng(29))
    real_softmax = dm._softmax_data
    seen = []

    def recording_softmax(x, ax, out=None):
        if x.ndim == 4:     # a chunk's spatial map, built on a lane
            seen.append((threading.get_ident(), np.geterr()))
        return real_softmax(x, ax, out)

    monkeypatch.setattr(dm, "_softmax_data", recording_softmax)
    with np.errstate(over="ignore", under="raise", divide="warn", invalid="raise"):
        state = np.geterr()
        _attend_on_lanes(monkeypatch, 2, data, distilled=True)
    assert seen and threading.get_ident() not in {ident for ident, _ in seen}
    assert all(each == state for _, each in seen)


def test_lanes_stop_at_two_whatever_the_core_count(monkeypatch):
    # so the lanes' workspaces, allocated per call, take the same memory on any machine
    monkeypatch.setattr(dm.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    lanes = dm._Lanes()
    assert [lanes.width(chunks) for chunks in (1, 2, 8)] == [1, 2, 2]
    monkeypatch.setattr(dm.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert dm._Lanes().width(8) == 1


@pytest.mark.parametrize("cores, chunk_entries", [(1, 1 << 16), (2, 1)])
def test_attend_backward_runs_again_for_a_second_loss_on_the_same_output(
        monkeypatch, cores, chunk_entries):
    # the first backward overwrites the last chunk's arrays the forward kept,
    # so the second one gathers and recomputes that chunk
    monkeypatch.setattr(dm, "ATTEND_CHUNK_ENTRIES", chunk_entries)
    lanes = _lanes(monkeypatch, cores)
    audio, source, rows, w, probe, _ = _lane_data(np.random.default_rng(37))
    score_audio, w_visual = dm.parameter(audio), dm.parameter(w)
    try:
        pooled, _, _ = dm.attend(score_audio, source, w_visual, rows=rows)
        grads = []
        for _ in range(2):
            dm.backward((pooled * dm.constant(probe)).sum())
            grads.append((score_audio.grad.copy(), w_visual.grad.copy()))
    finally:
        if lanes.pool is not None:
            lanes.pool.shutdown()
    for first, second in zip(*grads):
        assert second.tobytes() == (first * 2).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_attend_raises_the_one_lane_error_from_any_lane(monkeypatch):
    monkeypatch.setattr(dm, "ATTEND_CHUNK_ENTRIES", 1)
    data = _lane_data(np.random.default_rng(31))
    nan_grid = data[1].copy()
    nan_grid[data[2][7], 1, 2, 0] = np.nan     # batch row 7, one row per chunk
    loud = data[0].copy()
    loud[9] *= 1e4                              # row 9's spatial softmax underflows
    for case, under, error in (([data[0], nan_grid, *data[2:]], "ignore", NumericDomainError),
                               ([loud, *data[1:]], "raise", FloatingPointError)):
        messages = []
        for cores in (1, 2, 5):
            with np.errstate(under=under), pytest.raises(error) as caught:
                _attend_on_lanes(monkeypatch, cores, case, distilled=True)
            messages.append(str(caught.value))
        assert messages == [messages[0]] * 3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.integers(1, 5),
       st.sampled_from([(True, True), (True, False), (False, True), (False, False)]),
       st.integers(0, 2**32 - 1))
def test_tanh_matmul_matches_composite_bitwise(x_shape, m, tracked, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=(x_shape[-1], m))
    _assert_same_bits(
        _through(dm.tanh_matmul, x, w, tracked, seed),
        _through(lambda a, b: dm.tanh(a @ b), x, w, tracked, seed))


def test_fused_primitives_keep_one_node():
    x = dm.parameter(np.ones((2, 3)))
    y = dm.parameter(np.ones((2, 3)))
    w = dm.parameter(np.ones((3, 3)))
    for out, parents in ((dm.tanh_matmul(x, w), (x, w)),
                         (dm.attend(x, np.ones((2, 4, 5, 3)), w)[0], (x, w)),
                         (dm.product_sum(x, y, axis=1), (x, y))):
        assert out._parents == parents


# --- what backward computes and keeps -------------------------------------


BINARY_OPS = {
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "matmul": dm.matmul,
    "tanh_matmul": dm.tanh_matmul,
    "attend": lambda a, b: dm.attend(a, np.ones((3, 2, 4, 3)), b)[0],
    "product_sum": lambda a, b: dm.product_sum(a, b, axis=1),
}


@pytest.mark.parametrize("op", sorted(BINARY_OPS))
@pytest.mark.parametrize("constant_side", [0, 1])
def test_vjp_skips_constant_operands(op, constant_side):
    rng = np.random.default_rng(1)
    operands = [rng.uniform(1.0, 2.0, size=(3, 3)) for _ in range(2)]
    a, b = (dm.constant(x) if i == constant_side else dm.parameter(x)
            for i, x in enumerate(operands))
    out = BINARY_OPS[op](a, b)
    grads = out._vjp(np.ones(out.shape))
    assert grads[constant_side] is None
    assert grads[1 - constant_side].shape == (3, 3)


@pytest.mark.parametrize("constant_side", [0, 1])
def test_kl_rows_vjp_skips_a_constant_side(constant_side):
    # q never takes a gradient, so the sides are the p of each of two pairs
    dists = np.random.default_rng(4).dirichlet(np.ones(3), size=(2, 2))
    ps = [dm.constant(x) if i == constant_side else dm.parameter(x)
          for i, x in enumerate(dists)]
    grads = dm.kl_rows(tuple((p, dists[0], 1) for p in ps), (1.0, 1.0),
                       np.arange(2))._vjp(np.ones(()))
    assert grads[constant_side] is None
    assert grads[1 - constant_side].shape == (2, 3)


def _graph(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def assert_gradient_memory_rule(loss):
    """After backward: only tracked leaves hold a gradient, each its own
    writable array shared with no other tensor."""
    nodes = _graph(loss)
    dm.backward(loss)
    leaf_grads = []
    for node in nodes:
        if node._vjp is not None or not node.requires_grad:
            assert node.grad is None, node
        elif node.grad is not None:
            assert isinstance(node.grad, np.ndarray) and node.grad.flags.writeable
            assert node.grad.shape == node.data.shape
            leaf_grads.append(node.grad)
    assert leaf_grads
    for i, g in enumerate(leaf_grads):
        for other in leaf_grads[i + 1:]:
            assert not np.shares_memory(g, other)
        for node in nodes:
            assert not np.shares_memory(g, node.data)
    return nodes


def test_backward_keeps_gradients_only_on_leaves():
    rng = np.random.default_rng(2)
    x = dm.parameter(rng.normal(size=(2, 3)))
    y = dm.parameter(rng.normal(size=(2, 3)))
    w = dm.parameter(rng.normal(size=(3, 3)))
    h = dm.tanh_matmul(x, w)
    teacher = (_dists(rng, (1, 2, 4, 3), 2), _dists(rng, (1, 2, 3), 1))
    s, _, vad = dm.attend(h, rng.normal(size=(2, 2, 4, 3)), w, [1], distill=(teacher, [0], 0.5))
    loss = (dm.product_sum(s, y, axis=1).sum() + (x + y).sum() + vad
            + (h * h).sum() + (x + x).sum())
    assert_gradient_memory_rule(loss)


def test_leaf_gradients_are_independent_copies():
    # `add` hands the same array to both operands; each leaf must get its own
    x = dm.parameter([1.0, 2.0])
    y = dm.parameter([3.0, 4.0])
    loss = (x + y).sum() + (x * 2.0).sum()
    dm.backward(loss)
    assert np.array_equal(x.grad, [3.0, 3.0])
    assert np.array_equal(y.grad, [1.0, 1.0])
    assert not np.shares_memory(x.grad, y.grad)


class CountingConstant(dm.DiffTensor):
    """A constant that counts how often a graph walk expands it."""

    __slots__ = ("expanded",)

    @property
    def _parents(self):
        self.expanded += 1
        return ()

    @_parents.setter
    def _parents(self, value):
        self.expanded = 0


def test_backward_never_visits_constants():
    c = CountingConstant([1.0, 2.0])
    x = dm.parameter([3.0, 4.0])
    dm.backward((x * c).sum())
    assert c.expanded == 0 and c.grad is None
    assert np.array_equal(x.grad, [1.0, 2.0])


def test_model_loss_backward_keeps_gradients_only_on_parameters():
    rng = np.random.default_rng(3)
    params = mdl.init_params(4, 4, seed=3)
    teacher = mdl.snapshot(mdl.init_params(4, 2, seed=4))
    audio = rng.normal(size=(5, 4))
    visual = rng.normal(size=(5, 2, 3, 4))
    labels = np.array([0, 1, 2, 3, 2])
    replay = np.array([0, 1])
    cached = mdl.forward(teacher, audio, visual)
    trace = mdl.forward(params, audio, visual, map_rows=replay,
                        distill=(cached.maps, replay, 0.5))
    loss = obj.total_loss(trace, cached.logits.data, labels, obj.TaskLayout((2, 2)),
                          obj.LossWeights())
    assert_gradient_memory_rule(loss)
    assert all(p.grad is not None for p in params.parameters())
    assert trace.audio.grad is None
    assert all(p.grad is None for p in teacher.parameters())


# --- dtypes: float64 tensors, float32 only inside attend ------------------


def test_constructor_copies_to_float64_and_view_keeps_the_array():
    for data in (np.ones((2, 3, 4), np.float32), np.ones((2, 3), np.float32),
                 np.ones((2, 3, 4), np.int64), [1.0, 2.0]):
        made = dm.constant(data)
        assert made.data.dtype == np.float64
        assert not np.shares_memory(made.data, data)
    source = np.ones((2, 2, 2), np.float32)
    assert dm.view(source).data is source


def test_float64_inputs_meet_no_cast():
    rng = np.random.default_rng(6)
    grid = dm.parameter(rng.normal(size=(2, 3, 5, 4)))
    w = dm.parameter(rng.normal(size=(4, 4)))
    out = dm.tanh_matmul(grid, w)
    pooled, maps, _ = dm.attend(dm.constant(rng.normal(size=(2, 4))),
                                rng.normal(size=(2, 3, 5, 4)), w)
    summed = dm.product_sum(grid, out, axis=2)
    assert all(t.data.dtype == np.float64 for t in (out, pooled, summed))
    assert all(m.dtype == np.float64 for m in maps)
    dm.backward(pooled.sum() + summed.sum())
    assert grid.grad.dtype == np.float64 and w.grad.dtype == np.float64


# --- kl_rows with q at given rows: the KL behind vad ----------------------


def _dists(rng, shape, axis):
    return dm.softmax(dm.constant(rng.normal(size=shape)), axis=axis).data


def test_kl_rows_at_matches_the_take_composite_bitwise():
    rng = np.random.default_rng(7)
    spa = [_dists(rng, (5, 2, 3, 4), 2) for _ in range(2)]
    tem = [_dists(rng, (5, 2, 4), 1) for _ in range(2)]
    rows = np.array([1, 3, 4])
    lam = 0.3

    def run(fused):
        cur_spa, cur_tem = dm.parameter(spa[0]), dm.parameter(tem[0])
        if fused:
            out = dm.kl_rows(((dm.take(cur_spa, rows), spa[1], 2),
                              (dm.take(cur_tem, rows), tem[1], 1)), (lam, 1.0 - lam), rows)
        else:
            taken = np.arange(rows.size)
            out = (dm.kl_rows(((dm.take(cur_spa, rows), spa[1][rows], 2),), (1.0,), taken)
                   * lam
                   + dm.kl_rows(((dm.take(cur_tem, rows), tem[1][rows], 1),), (1.0,), taken)
                   * (1.0 - lam))
        dm.backward(out)
        return out.data, cur_spa.grad, cur_tem.grad

    for got, want in zip(run(True), run(False)):
        assert np.array_equal(got, want)


def test_kl_rows_at_chunks_change_no_gradient_bit(monkeypatch):
    rng = np.random.default_rng(10)
    spa = [_dists(rng, (6, 2, 3, 4), 2) for _ in range(2)]
    rows = np.array([0, 2, 3, 5])

    def run():
        cur = dm.parameter(spa[0][rows])
        out = dm.kl_rows(((cur, spa[1], 2),), (1.0,), rows)
        dm.backward(out)
        return out.item(), cur.grad

    whole = run()
    monkeypatch.setattr(dm, "KL_CHUNK_ENTRIES", 30)     # one 24-entry row per chunk
    chunked = run()
    assert abs(chunked[0] - whole[0]) <= 1e-15 * max(1.0, abs(whole[0]))
    assert np.array_equal(chunked[1], whole[1])


def test_kl_rows_at_reads_and_writes_only_its_rows():
    rng = np.random.default_rng(8)
    p = _dists(rng, (4, 3, 2), 1)
    q = _dists(rng, (4, 3, 2), 1)
    q[0] = np.nan                  # never read: no value leaks
    tp = dm.parameter(p[[1, 3]])
    out = dm.kl_rows(((tp, q, 1),), (1.0,), [1, 3])
    assert np.isfinite(out.item())
    assert out.item() == dm.kl_rows(((dm.constant(p[[1, 3]]), q[[1, 3]], 1),),
                                    (1.0,), [0, 1]).item()
    dm.backward(out)
    assert np.all(np.isfinite(tp.grad)) and np.all(tp.grad != 0.0)


def test_kl_rows_reads_q_at_its_own_rows_bitwise_as_a_gathered_q():
    rng = np.random.default_rng(12)
    p = _dists(rng, (4, 3, 2), 1)
    q = _dists(rng, (6, 3, 2), 1)
    q_rows = [5, 0, 3]             # any order: p's i-th row pairs with q_rows[i]
    tp = dm.parameter(p[[0, 2, 3]])
    out = dm.kl_rows(((tp, q, 1),), (1.0,), q_rows)
    ref_p = dm.parameter(p[[0, 2, 3]])
    ref = dm.kl_rows(((ref_p, q[q_rows], 1),), (1.0,), [0, 1, 2])
    assert out.data.tobytes() == ref.data.tobytes()
    dm.backward(out)
    dm.backward(ref)
    assert tp.grad.tobytes() == ref_p.grad.tobytes()
    for bad in ([5, 0], [6, 0, 3], [-1, 0, 3]):
        with pytest.raises(ContractError):
            dm.kl_rows(((tp, q, 1),), (1.0,), bad)
    for tensor_q in (dm.constant(q), dm.parameter(q)):     # a q tensor, tracked or not
        with pytest.raises(ContractError, match="q as an array"):
            dm.kl_rows(((dm.constant(p[[0, 2, 3]]), tensor_q, 1),), (1.0,), q_rows)


def test_block_kl_rejects_blocks_outside_either_width():
    z = dm.parameter(np.zeros((3, 5)))
    for bounds in ([], [(0, 0)], [(2, 1)], [(0, 4)], [(-1, 2)]):
        with pytest.raises(ContractError):
            dm.block_kl(z, np.zeros((3, 3)), bounds)
    with pytest.raises(ContractError):
        dm.block_kl(z, np.zeros((2, 3)), [(0, 2)])
    with pytest.raises(NumericDomainError):
        dm.block_kl(z, np.full((3, 3), np.nan), [(0, 2)])


def test_float32_softmax_slices_sum_to_one_within_float32_rounding():
    rng = np.random.default_rng(9)
    _, (p, _), _ = dm.attend(dm.constant(rng.normal(size=(6, 32))),
                             rng.normal(size=(6, 8, 49, 32)).astype(np.float32),
                             dm.constant(rng.normal(size=(32, 32))))
    t = dm.softmax(dm.view(rng.normal(size=(6, 49, 32)).astype(np.float32) * 4.0), axis=1)
    for maps, ax in ((p, 2), (t.data, 1)):
        # two float32 roundings, of the normalizer and of each entry
        assert maps.dtype == np.float32
        assert np.abs(maps.sum(axis=ax, dtype=np.float64) - 1.0).max() < 2e-7
    # the KL reads them in float64, so its 1e-6 sum check holds with room
    out = dm.kl_rows(((dm.constant(p), p, 2),), (1.0,), np.arange(6))
    assert out.data.dtype == np.float64 and abs(out.item()) < 1e-12


def test_kl_rows_at_rejects_bad_rows_and_weights():
    t = dm.constant(np.full((3, 2), 0.5))
    for rows in ([], [0, 1], [-1, 0, 1], [0, 1, 3], [[0, 1, 2]]):
        with pytest.raises(ContractError):
            dm.kl_rows(((t, t.data, 1),), (1.0,), rows)
    with pytest.raises(ContractError):     # no rows at all
        dm.kl_rows(((dm.constant(np.zeros((0, 2))), t.data, 1),), (1.0,), [])
    with pytest.raises(ContractError):     # distributions across rows
        dm.kl_rows(((t, t.data, 0),), (1.0,), [0, 1, 2])
    with pytest.raises(ContractError):
        dm.kl_rows(((t, t.data, 1),), (1.0, 0.0), [0, 1, 2])
    with pytest.raises(ContractError):
        dm.kl_rows(((t, np.full((3, 4), 0.25), 1),), (1.0,), [0, 1, 2])
