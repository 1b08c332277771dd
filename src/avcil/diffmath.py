"""Dense tensors with reverse-mode gradients.

Everything the attention model and its losses need numerically lives here: a
small computation-graph tensor, the primitive operations with analytic
gradients, numerically stable softmax / NLL / KL helpers, a central-difference
gradient checker, and an Adam optimizer. All operations are deterministic;
identical inputs produce bit-identical outputs because every reduction runs
in a fixed order on contiguous buffers.

Dtype policy: a tensor of three or more axes built from float32 data stays
float32 (the model's (N, L, S, d) visual grid and its (N, L, d) poolings);
everything else, every tensor of (N, d) or fewer axes included, is float64.
The fused primitives `tanh_matmul`, `softmax_of_product` and `product_sum`
compute in float32 when either operand is float32, return a result of two or
fewer axes as float64, and hand each operand its gradient in its own dtype.
`kl_rows` and `block_kl` always compute in float64. Float64 inputs never meet
a cast, so an all-float64 graph runs exactly the float64 arithmetic.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericDomainError

Array = np.ndarray

# every tensor takes the next creation index; a node's parents always hold
# smaller ones, so descending index order is a topological order for backward
_creation = itertools.count()

__all__ = [
    "DiffTensor",
    "constant",
    "parameter",
    "view",
    "backward",
    "tanh",
    "exp",
    "log",
    "sqrt",
    "take",
    "slice_axis",
    "softmax",
    "tanh_matmul",
    "softmax_of_product",
    "product_sum",
    "nll",
    "kl_rows",
    "block_kl",
    "grad_check",
    "AdamState",
    "adam_step",
]


def _as_f64(values) -> Array:
    return np.array(values, dtype=np.float64)


def _policy_dtype(arr: Array) -> type:
    """float32 for float32 data of three or more axes, float64 otherwise."""
    return np.float32 if arr.dtype == np.float32 and arr.ndim > 2 else np.float64


def _as_policy(values) -> Array:
    """A fresh array of `values` in the dtype the policy gives it."""
    arr = np.asarray(values)
    return np.array(arr, dtype=_policy_dtype(arr))


def _compute_dtype(a: "DiffTensor", b: "DiffTensor") -> type:
    """A fused primitive runs in float32 when either operand is float32."""
    return np.float32 if np.float32 in (a.data.dtype, b.data.dtype) else np.float64


def _in_dtype(grad: Array | None, t: "DiffTensor") -> Array | None:
    """`grad` in the dtype of the tensor it belongs to (no copy when it already is)."""
    return None if grad is None else grad.astype(t.data.dtype, copy=False)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class DiffTensor:
    """An array that remembers how it was produced.

    `data` is the value, `grad` (same shape and dtype) is filled in by
    :func:`backward`. A new tensor copies its input: float32 data of three or
    more axes stays float32, anything else becomes float64 (see the module
    docstring). Tensors returned by primitives hold references to their
    inputs, so a forward pass builds an acyclic graph; leaves are constants
    or parameters.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_op", "_done", "_index")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_policy(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[DiffTensor, ...] = ()
        self._vjp: Callable[[Array], tuple[Array | None, ...]] | None = None
        self._op = "leaf"
        self._done = False
        self._index = next(_creation)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"DiffTensor(op={self._op}, shape={self.shape}, requires_grad={self.requires_grad})"

    # --- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return _broadcast_op(self, _coerce(other), np.add, "add",
                             lambda a, b, g: g, lambda a, b, g: g)

    __radd__ = __add__

    def __mul__(self, other):
        return _broadcast_op(self, _coerce(other), np.multiply, "mul",
                             lambda a, b, g: g * b.data, lambda a, b, g: g * a.data)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = _coerce(other)
        return _broadcast_op(self, b, np.divide, "div",
                             lambda a, b, g: g / b.data,
                             lambda a, b, g: -g * a.data / (b.data * b.data))

    def __matmul__(self, other):
        return matmul(self, _coerce(other))

    # --- shape ------------------------------------------------------------

    def reshape(self, shape) -> "DiffTensor":
        shape = tuple(shape)
        old = self.data.shape
        out = np.ascontiguousarray(self.data).reshape(shape)
        return _node(out, (self,), lambda g: (g.reshape(old),), "reshape")

    def t(self) -> "DiffTensor":
        if self.ndim != 2:
            raise ContractError("t() expects a 2-d tensor")
        return _node(np.ascontiguousarray(self.data.T), (self,),
                     lambda g: (np.ascontiguousarray(g.T),), "transpose")

    # --- reductions -------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "DiffTensor":
        if axis is None:
            out = self.data.sum()
            shape = self.data.shape
            return _node(_as_f64(out), (self,),
                         lambda g: (np.broadcast_to(g, shape).copy(),), "sum")
        ax = _check_axis(axis, self.ndim)
        out = self.data.sum(axis=ax, keepdims=keepdims)

        def vjp(g: Array):
            gg = g if keepdims else np.expand_dims(g, ax)
            return (np.broadcast_to(gg, self.data.shape).copy(),)

        return _node(out, (self,), vjp, "sum")

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "DiffTensor":
        n = self.data.size if axis is None else self.data.shape[_check_axis(axis, self.ndim)]
        if n == 0:
            raise ContractError("mean over an empty axis")
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def constant(data) -> DiffTensor:
    return DiffTensor(data, requires_grad=False)


def parameter(data) -> DiffTensor:
    return DiffTensor(data, requires_grad=True)


def view(data: Array, grad: Array | None = None) -> DiffTensor:
    """A leaf over `data` itself, not a copy. Given `grad`, an array of the
    same shape, the leaf tracks gradients and `backward` adds them into it."""
    out = _node(data, (), None, "leaf")
    out.grad = grad
    out.requires_grad = grad is not None
    return out


def _coerce(value) -> DiffTensor:
    if isinstance(value, DiffTensor):
        return value
    return DiffTensor(value)


def _check_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise ContractError(f"axis {axis} out of range for {ndim}-d tensor")
    return axis % ndim


def _node(data: Array, parents: tuple[DiffTensor, ...], vjp, op: str) -> DiffTensor:
    out = DiffTensor.__new__(DiffTensor)
    out.data = data
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    out._parents = tuple(parents) if out.requires_grad else ()
    out._vjp = vjp if out.requires_grad else None
    out._op = op
    out._done = False
    out._index = next(_creation)
    return out


def _broadcast_op(a: DiffTensor, b: DiffTensor, fn, op, da, db) -> DiffTensor:
    out = fn(a.data, b.data)

    def vjp(g: Array):
        return (_unbroadcast(da(a, b, g), a.data.shape) if a.requires_grad else None,
                _unbroadcast(db(a, b, g), b.data.shape) if b.requires_grad else None)

    return _node(out, (a, b), vjp, op)


def _product_vjp(a: DiffTensor, b: DiffTensor, ad: Array, bd: Array, g: Array):
    """Gradients of a * b (broadcast) for the operands that track them, from
    the operand values `ad`, `bd` in the compute dtype of `g`."""
    return (_in_dtype(_unbroadcast(g * bd, ad.shape), a) if a.requires_grad else None,
            _in_dtype(_unbroadcast(g * ad, bd.shape), b) if b.requires_grad else None)


# --- primitives -----------------------------------------------------------


def _check_matmul(a: DiffTensor, b: DiffTensor) -> None:
    if b.ndim != 2:
        raise ContractError("matmul right operand must be 2-d")
    if a.ndim < 1 or a.data.shape[-1] != b.data.shape[0]:
        raise ContractError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")


def _matmul_vjp(a: DiffTensor, b: DiffTensor, ad: Array, bd: Array, g: Array):
    """Gradients of ad @ bd for the operands that track them, each in its own dtype."""
    ga = _in_dtype(g @ bd.T, a) if a.requires_grad else None
    gb = None
    if b.requires_grad:
        if ad.ndim == 1:
            gb = np.outer(ad, g)
        else:
            # np.tensordot over the leading axes, without its per-call Python:
            # the same transposed view of ad and the same np.dot
            last = ad.ndim - 1
            gb = np.dot(ad.transpose((last, *range(last))).reshape(ad.shape[-1], -1),
                        g.reshape(-1, g.shape[-1]))
        gb = _in_dtype(gb, b)
    return ga, gb


def matmul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Contract the last axis of `a` with the first of a 2-d `b`."""
    _check_matmul(a, b)
    return _node(a.data @ b.data, (a, b), lambda g: _matmul_vjp(a, b, a.data, b.data, g),
                 "matmul")


def tanh_matmul(x: DiffTensor, w: DiffTensor) -> DiffTensor:
    """tanh(x @ w) as one node; only the tanh output is kept for the VJP."""
    _check_matmul(x, w)
    dt = _compute_dtype(x, w)
    xd, wd = x.data.astype(dt, copy=False), w.data.astype(dt, copy=False)
    out = xd @ wd
    np.tanh(out, out=out)

    def vjp(g: Array):
        return _matmul_vjp(x, w, xd, wd, g.astype(dt, copy=False) * (1.0 - out * out))

    return _node(out.astype(_policy_dtype(out), copy=False), (x, w), vjp, "tanh_matmul")


def tanh(x: DiffTensor) -> DiffTensor:
    out = np.tanh(x.data)
    return _node(out, (x,), lambda g: (g * (1.0 - out * out),), "tanh")


def exp(x: DiffTensor) -> DiffTensor:
    out = np.exp(x.data)
    return _node(out, (x,), lambda g: (g * out,), "exp")


def log(x: DiffTensor) -> DiffTensor:
    if (x.data <= 0.0).any():
        raise NumericDomainError("log of a non-positive entry")
    return _node(np.log(x.data), (x,), lambda g: (g / x.data,), "log")


def sqrt(x: DiffTensor) -> DiffTensor:
    if (x.data < 0.0).any():
        raise NumericDomainError("sqrt of a negative entry")
    out = np.sqrt(x.data)
    return _node(out, (x,), lambda g: (g * 0.5 / out,), "sqrt")


def take(x: DiffTensor, indices) -> DiffTensor:
    """Select rows along axis 0; backward scatter-adds into the source."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ContractError("take expects a 1-d index array")
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise ContractError("take index out of range")
    out = x.data[idx]

    def vjp(g: Array):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _node(out, (x,), vjp, "take")


def slice_axis(x: DiffTensor, axis: int, start: int, stop: int) -> DiffTensor:
    ax = _check_axis(axis, x.ndim)
    n = x.data.shape[ax]
    if not (0 <= start <= stop <= n):
        raise ContractError(f"slice [{start}:{stop}] out of range for axis of size {n}")
    sl = [slice(None)] * x.ndim
    sl[ax] = slice(start, stop)
    sl = tuple(sl)
    out = np.ascontiguousarray(x.data[sl])

    def vjp(g: Array):
        gx = np.zeros_like(x.data)
        gx[sl] = g
        return (gx,)

    return _node(out, (x,), vjp, "slice")


def _check_softmax_input(x: Array) -> None:
    if not np.isfinite(x).all():
        raise NumericDomainError("softmax of a non-finite input")


def _softmax_data(x: Array, ax: int, out: Array | None = None) -> Array:
    """Stable softmax of `x` along `ax`, written into `out` when given.

    The normalizer is summed in float64 and rounded once to the input's
    dtype, so a float32 slice sums to 1 within two float32 roundings (about
    1.2e-7), well inside the 1e-6 that `kl_rows` checks; a float32 sum along
    49 cells can miss by half that tolerance. For float64 input this is the
    plain float64 sum.
    """
    e = np.subtract(x, x.max(axis=ax, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=ax, keepdims=True, dtype=np.float64).astype(e.dtype, copy=False)
    return e


def _softmax_vjp(out: Array, ax: int, g: Array) -> Array:
    dot = (out * g).sum(axis=ax, keepdims=True)
    grad = g - dot
    grad *= out
    return grad


def softmax(x: DiffTensor, axis: int) -> DiffTensor:
    """Stable softmax along `axis`; rows sum to 1 and stay strictly positive."""
    _check_softmax_input(x.data)
    ax = _check_axis(axis, x.ndim)
    out = _softmax_data(x.data, ax)
    return _node(out, (x,), lambda g: (_softmax_vjp(out, ax, g),), "softmax")


def softmax_of_product(a: DiffTensor, b: DiffTensor, axis: int) -> DiffTensor:
    """softmax(a * b) along `axis`, `a` and `b` broadcast; the product is not kept."""
    dt = _compute_dtype(a, b)
    ad, bd = a.data.astype(dt, copy=False), b.data.astype(dt, copy=False)
    product = ad * bd
    _check_softmax_input(product)
    ax = _check_axis(axis, product.ndim)
    out = _softmax_data(product, ax, out=product)

    def vjp(g: Array):
        return _product_vjp(a, b, ad, bd, _softmax_vjp(out, ax, g.astype(dt, copy=False)))

    return _node(out.astype(_policy_dtype(out), copy=False), (a, b), vjp,
                 "softmax_of_product")


def product_sum(a: DiffTensor, b: DiffTensor, axis: int) -> DiffTensor:
    """(a * b).sum(axis), `a` and `b` broadcast; the product is not kept."""
    dt = _compute_dtype(a, b)
    ad, bd = a.data.astype(dt, copy=False), b.data.astype(dt, copy=False)
    product = ad * bd
    ax = _check_axis(axis, product.ndim)
    shape = product.shape
    out = product.sum(axis=ax)

    def vjp(g: Array):
        g = g.astype(dt, copy=False).reshape(shape[:ax] + (1,) + shape[ax + 1:])
        return _product_vjp(a, b, ad, bd, np.broadcast_to(g, shape))

    return _node(out.astype(_policy_dtype(out), copy=False), (a, b), vjp, "product_sum")


def _masked_lse(z: Array, mask: Array) -> tuple[Array, Array]:
    """Per-row log-sum-exp of `z` over the True columns of `mask`, shifted by
    their own max, and the softmax over those columns (zero elsewhere)."""
    masked = np.where(mask, z, -np.inf)
    m = masked.max(axis=1, keepdims=True)
    e = np.exp(masked - m)
    total = e.sum(axis=1, keepdims=True)
    return (np.log(total) + m)[:, 0], e / total


def nll(logits: DiffTensor, positives, support=None) -> DiffTensor:
    """Sum over rows of -log of the mean softmax mass on the row's positives,
    the softmax taken over its support: lse(z_i over support_i) - lse(z_i over
    positives_i) + log|positives_i|. Both masks are (N, C) booleans; no
    support means every column. The VJP is softmax over the support minus
    softmax over the positives."""
    z = logits.data
    pos = np.asarray(positives)
    sup = np.ones(z.shape, dtype=bool) if support is None else np.asarray(support)
    if z.ndim != 2 or any(m.dtype != np.bool_ or m.shape != z.shape for m in (pos, sup)):
        raise ContractError("nll needs (N, C) logits and boolean masks of the same shape")
    if not np.isfinite(z).all():
        raise NumericDomainError("nll of a non-finite logit")
    counts = pos.sum(axis=1)
    if (counts == 0).any():
        raise ContractError("nll: a row has no positive")
    if (pos & ~sup).any():
        raise ContractError("nll: a positive lies outside its row's support")
    lse_support, grad = _masked_lse(z, sup)
    lse_positive, p_positive = _masked_lse(z, pos)
    grad -= p_positive
    value = (lse_support - lse_positive + np.log(counts)).sum()
    return _node(_as_f64(value), (logits,), lambda g: (grad * g,), "nll")


def _kl_check(p: Array, q: Array, ax: int) -> None:
    for name, t in (("p", p), ("q", q)):
        if (t < 0.0).any():
            raise ContractError(f"kl_rows: negative entry in {name}")
        sums = t.sum(axis=ax)
        if (np.abs(sums - 1.0) > 1e-6).any():
            raise ContractError(f"kl_rows: a slice of {name} does not sum to 1")


def _kl_slices(shape: tuple[int, ...], ax: int) -> int:
    """How many distributions along `ax` a tensor of `shape` stacks."""
    size = math.prod(shape)
    if shape[ax] == 0 or size == 0:
        raise ContractError("kl_rows of an empty tensor")
    return size // shape[ax]


def _kl_sum(p: Array, q: Array) -> float:
    """Sum of p * log(p / q) over float64 arrays; zero p entries add zero."""
    pos = p > 0.0
    return np.where(pos, p * (np.log(np.where(pos, p, 1.0)) - np.log(np.maximum(q, KL_CLAMP))),
                    0.0).sum()


def _kl_grads(p: Array, q: Array, gs: float,
              need_p: bool, need_q: bool) -> tuple[Array | None, Array | None]:
    """Gradients of `gs` * `_kl_sum(p, q)`, recomputed from the inputs
    so the forward pass keeps none of its temporaries."""
    qc = np.maximum(q, KL_CLAMP)
    gp = gq = None
    if need_p:
        pos = p > 0.0
        gp = np.log(np.where(pos, p, 1.0))
        gp -= np.log(qc)
        gp += 1.0
        gp = np.where(pos, gp, 0.0)
        gp *= gs
    if need_q:
        gq = np.where(q >= KL_CLAMP, -p / qc, 0.0)
        gq *= gs
    return gp, gq


# kl_rows gathers given rows in chunks of about this many entries, so its
# float64 temporaries stay small whatever the size of the maps
KL_CHUNK_ENTRIES = 1 << 16
# kl_rows reads q as at least this inside the log, so a zero q entry stays finite
KL_CLAMP = 1e-12


def kl_rows(pairs: Sequence[tuple[DiffTensor, DiffTensor, int]], weights: Sequence[float],
            rows=None, q_rows=None) -> DiffTensor:
    """sum_k weights[k] * mean KL(p_k || q_k) over the distributions along
    axis_k, as one node.

    Each such slice must be a probability vector; zero p entries contribute
    zero and q is clamped below at `KL_CLAMP` inside the log only. Computed in
    float64, so the sum-to-1 check keeps its tolerance on float32 maps. Axis
    0 holds the rows and is never a distribution axis. Given strictly
    increasing `rows`, pairs are read at those rows only, in chunks of about
    `KL_CHUNK_ENTRIES` entries; with none, at every row in one chunk. Given
    `q_rows` as well, one per row, each q is read at `q_rows[i]` where its p
    is read at `rows[i]`, so q may hold other rows than p (a frozen
    teacher's maps of the replay rows); such a q must not track gradients. A
    tracked operand's gradient is written into the rows read and is zero
    elsewhere.
    """
    if len(pairs) != len(weights) or not pairs:
        raise ContractError("kl_rows needs one weight per (p, q, axis) pair")
    idx = None if rows is None else np.asarray(rows, dtype=np.int64)
    if idx is not None and (idx.ndim != 1 or idx.size == 0 or (idx[1:] <= idx[:-1]).any()):
        raise ContractError("kl_rows needs a non-empty, strictly increasing 1-d row array")
    q_idx = idx if q_rows is None else np.asarray(q_rows, dtype=np.int64)
    if q_rows is not None and (idx is None or q_idx.shape != idx.shape):
        raise ContractError("kl_rows needs one q row per row read")
    axes, n_slices, chunks = [], [], []
    for p, q, axis in pairs:
        if p.shape[1:] != q.shape[1:] or (q_rows is None and p.shape[0] != q.shape[0]):
            raise ContractError(f"kl_rows shape mismatch: {p.shape} vs {q.shape}")
        if q_rows is not None and q.requires_grad:
            raise ContractError("kl_rows reads q at its own rows only when q tracks no gradient")
        ax = _check_axis(axis, p.ndim)
        axes.append(ax)
        n_slices.append(_kl_slices(p.shape if idx is None else (idx.size, *p.shape[1:]), ax))
        if ax == 0:
            raise ContractError("kl_rows distributions must lie along a non-row axis")
        if idx is None:
            chunks.append([(slice(None), slice(None))])
            continue
        if idx[0] < 0 or idx[-1] >= p.shape[0] or q_idx.min() < 0 or q_idx.max() >= q.shape[0]:
            raise ContractError("kl_rows row out of range")
        step = max(1, KL_CHUNK_ENTRIES // (p.data.size // p.shape[0]))
        chunks.append([(idx[i:i + step], q_idx[i:i + step]) for i in range(0, idx.size, step)])

    def read64(t: DiffTensor, at) -> Array:
        return t.data[at].astype(np.float64, copy=False)

    # the operands are read again by the VJP rather than kept alive until then
    total = None
    for (p, q, _), ax, n, parts, w in zip(pairs, axes, n_slices, chunks, weights):
        kl_sum = None
        for at_p, at_q in parts:
            p64, q64 = read64(p, at_p), read64(q, at_q)
            _kl_check(p64, q64, ax)
            part = _kl_sum(p64, q64)
            kl_sum = part if kl_sum is None else kl_sum + part
        term = kl_sum / n * w
        total = term if total is None else total + term

    def vjp(g: Array):
        out: list[Array | None] = []
        for (p, q, _), n, parts, w in zip(pairs, n_slices, chunks, weights):
            gs = float(g) * w / n
            full = [np.zeros_like(t.data) if t.requires_grad else None for t in (p, q)]
            for at_p, at_q in parts:
                grads = _kl_grads(read64(p, at_p), read64(q, at_q), gs,
                                  p.requires_grad, q.requires_grad)
                for dest, at, grad in zip(full, (at_p, at_q), grads):
                    if dest is not None:
                        dest[at] = grad
            out += full
        return tuple(out)

    parents = tuple(t for p, q, _ in pairs for t in (p, q))
    return _node(_as_f64(total), parents, vjp, "kl_rows")


def block_kl(logits: DiffTensor, teacher_logits: Array,
             bounds: Sequence[tuple[int, int]]) -> DiffTensor:
    """sum over blocks of mean_i KL(softmax(logits[i, lo:hi]) || softmax(
    teacher_logits[i, lo:hi])), one block per (lo, hi) of `bounds`, as one
    node.

    Both sides are softmaxed within each block here; the teacher side is a
    plain array and gets no gradient. The VJP writes every block's gradient
    into one array, zero in the columns no block covers. Each block runs
    the arithmetic of a softmax node feeding a one-pair `kl_rows` node.
    """
    z, t = logits.data, np.asarray(teacher_logits)
    if z.ndim != 2 or t.ndim != 2 or z.shape[0] != t.shape[0] or z.shape[0] == 0:
        raise ContractError(f"block_kl needs non-empty (N, C) logits of the same rows, "
                            f"got {z.shape} and {t.shape}")
    if not bounds or any(not 0 <= lo < hi <= min(z.shape[1], t.shape[1])
                         for lo, hi in bounds):
        raise ContractError("block_kl needs non-empty blocks inside both logit widths")
    n = z.shape[0]
    blocks = []
    total = None
    for lo, hi in bounds:
        zb, tb = z[:, lo:hi], t[:, lo:hi]
        _check_softmax_input(zb)
        _check_softmax_input(tb)
        p, q = _softmax_data(zb, 1), _softmax_data(tb.astype(np.float64, copy=False), 1)
        blocks.append((lo, hi, p, q))
        term = _kl_sum(p, q) / n
        total = term if total is None else total + term

    def vjp(g: Array):
        grad = np.zeros_like(z)
        gs = float(g) / n
        for lo, hi, p, q in blocks:
            grad[:, lo:hi] = _softmax_vjp(p, 1, _kl_grads(p, q, gs, True, False)[0])
        return (grad,)

    return _node(_as_f64(total), (logits,), vjp, "block_kl")


# --- backward pass --------------------------------------------------------


def backward(loss: DiffTensor) -> None:
    """Accumulate dLoss/dT into `.grad` for every tracked leaf below `loss`.

    Only tensors with `requires_grad` are visited, and their VJPs run in
    descending creation order, so each node runs after every node that
    consumed it. A leaf's first gradient
    is stored as its own copy (a `view` leaf adds it into its given array)
    and later ones are added in place; an intermediate's gradient is dropped
    once its VJP has run, so afterwards only leaves hold a `.grad`. The loss
    must be a finite scalar. A second call on the same node raises; build a
    fresh graph per optimization step instead.
    """
    if loss.data.shape != ():
        raise ContractError("backward expects a scalar loss")
    if not np.isfinite(loss.data):
        raise ContractError("backward expects a finite loss")
    if loss._done:
        raise ContractError("backward already ran on this node")
    loss._done = True

    # every tracked node below the loss that has a VJP, by creation index
    nodes = {loss._index: loss}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent._vjp is not None and parent._index not in nodes:
                nodes[parent._index] = parent
                stack.append(parent)

    loss.grad = np.ones((), dtype=np.float64)
    for index in sorted(nodes, reverse=True):
        node = nodes[index]
        if node._vjp is None or node.grad is None:
            continue
        g_out, node.grad = node.grad, None
        for parent, g in zip(node._parents, node._vjp(g_out)):
            if g is None or not parent.requires_grad:
                continue
            leaf = parent._vjp is None
            if parent.grad is None:
                parent.grad = np.array(g, dtype=parent.data.dtype) if leaf else g
            elif leaf:
                parent.grad += g
            else:
                parent.grad = parent.grad + g


def grad_check(f: Callable[[DiffTensor], DiffTensor], x: DiffTensor, h: float = 1e-5) -> float:
    """Compare analytic gradients of scalar-valued `f` against central differences.

    Returns max over coordinates of |analytic - numeric| / max(1, |analytic|).
    """
    if not 0.0 < h <= 1e-3:
        raise ContractError(f"grad_check step {h} outside (0, 1e-3]")
    seed = DiffTensor(x.data.copy(), requires_grad=True)
    out = f(seed)
    if out.data.shape != ():
        raise ContractError("grad_check expects a scalar-valued function")
    backward(out)
    analytic = seed.grad if seed.grad is not None else np.zeros_like(seed.data)

    flat = x.data.reshape(-1)
    a_flat = analytic.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        probe = x.data.copy().reshape(-1)
        probe[i] = flat[i] + h
        hi = f(DiffTensor(probe.reshape(x.data.shape))).item()
        probe[i] = flat[i] - h
        lo = f(DiffTensor(probe.reshape(x.data.shape))).item()
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericDomainError(f"non-finite probe value at coordinate {i}")
        numeric = (hi - lo) / (2.0 * h)
        err = abs(a_flat[i] - numeric) / max(1.0, abs(a_flat[i]))
        if err > worst:
            worst = err
    return worst


# --- optimizer ------------------------------------------------------------

# Adam's moment decay rates and the denominator's guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class AdamState:
    """Adam's two moment vectors over one flat parameter vector, and the step counter."""

    def __init__(self, size: int, lr: float = 1e-3, weight_decay: float = 1e-4):
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)


def adam_step(values: Array, grads: Array, state: AdamState) -> None:
    """One Adam update of the flat vector `values` in place, from `grads`.

    Weight decay is coupled L2: the decay term joins the gradient before the
    moment updates.
    """
    if values.shape != state.m.shape or grads.shape != values.shape:
        raise ContractError("optimizer state does not match the parameter vector")
    state.step_count += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step_count
    bc2 = 1.0 - ADAM_BETA2 ** state.step_count
    g = grads
    if state.weight_decay:
        g = g + state.weight_decay * values
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * (g * g)
    values -= state.lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + ADAM_EPSILON)
