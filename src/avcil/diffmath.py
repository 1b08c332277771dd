"""Dense float64 tensors with reverse-mode gradients.

Everything the attention model and its losses need numerically lives here: a
small computation-graph tensor, the primitive operations with analytic
gradients, numerically stable softmax / KL helpers, a central-difference
gradient checker, and an Adam optimizer. All operations are deterministic;
identical inputs produce bit-identical outputs because every reduction runs
in a fixed order on contiguous float64 buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericDomainError

Array = np.ndarray

__all__ = [
    "DiffTensor",
    "constant",
    "parameter",
    "backward",
    "zero_grad",
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
    "log_softmax",
    "logsumexp",
    "kl_rows",
    "grad_check",
    "AdamState",
    "adam_step",
]


def _as_f64(values) -> Array:
    return np.array(values, dtype=np.float64)


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
    """A float64 array that remembers how it was produced.

    `data` is the value, `grad` (same shape) is filled in by :func:`backward`.
    Tensors returned by primitives hold references to their inputs, so a
    forward pass builds an acyclic graph; leaves are constants or parameters.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_op", "_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_f64(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[DiffTensor, ...] = ()
        self._vjp: Callable[[Array], tuple[Array | None, ...]] | None = None
        self._op = "leaf"
        self._done = False

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

    def __sub__(self, other):
        return _broadcast_op(self, _coerce(other), np.subtract, "sub",
                             lambda a, b, g: g, lambda a, b, g: -g)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        return _broadcast_op(self, _coerce(other), np.multiply, "mul",
                             lambda a, b, g: g * b.data, lambda a, b, g: g * a.data)

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = _coerce(other)
        return _broadcast_op(self, b, np.divide, "div",
                             lambda a, b, g: g / b.data,
                             lambda a, b, g: -g * a.data / (b.data * b.data))

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    def __neg__(self):
        return _node(-self.data, (self,), lambda g: (-g,), "neg")

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
    return out


def _broadcast_op(a: DiffTensor, b: DiffTensor, fn, op, da, db) -> DiffTensor:
    out = fn(a.data, b.data)

    def vjp(g: Array):
        return (_unbroadcast(da(a, b, g), a.data.shape) if a.requires_grad else None,
                _unbroadcast(db(a, b, g), b.data.shape) if b.requires_grad else None)

    return _node(out, (a, b), vjp, op)


def _product_vjp(a: DiffTensor, b: DiffTensor, g: Array):
    """Gradients of a * b (broadcast) for the operands that track them."""
    return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)


# --- primitives -----------------------------------------------------------


def _check_matmul(a: DiffTensor, b: DiffTensor) -> None:
    if b.ndim != 2:
        raise ContractError("matmul right operand must be 2-d")
    if a.ndim < 1 or a.data.shape[-1] != b.data.shape[0]:
        raise ContractError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")


def _matmul_vjp(a: DiffTensor, b: DiffTensor, g: Array):
    ga = g @ b.data.T if a.requires_grad else None
    gb = None
    if b.requires_grad:
        if a.ndim == 1:
            gb = np.outer(a.data, g)
        else:
            lead = list(range(a.ndim - 1))
            gb = np.tensordot(a.data, g, axes=(lead, lead))
    return ga, gb


def matmul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Contract the last axis of `a` with the first of a 2-d `b`."""
    _check_matmul(a, b)
    return _node(a.data @ b.data, (a, b), lambda g: _matmul_vjp(a, b, g), "matmul")


def tanh_matmul(x: DiffTensor, w: DiffTensor) -> DiffTensor:
    """tanh(x @ w) as one node; only the tanh output is kept for the VJP."""
    _check_matmul(x, w)
    out = x.data @ w.data
    np.tanh(out, out=out)
    return _node(out, (x, w), lambda g: _matmul_vjp(x, w, g * (1.0 - out * out)),
                 "tanh_matmul")


def tanh(x: DiffTensor) -> DiffTensor:
    out = np.tanh(x.data)
    return _node(out, (x,), lambda g: (g * (1.0 - out * out),), "tanh")


def exp(x: DiffTensor) -> DiffTensor:
    out = np.exp(x.data)
    return _node(out, (x,), lambda g: (g * out,), "exp")


def log(x: DiffTensor) -> DiffTensor:
    if np.any(x.data <= 0.0):
        raise NumericDomainError("log of a non-positive entry")
    return _node(np.log(x.data), (x,), lambda g: (g / x.data,), "log")


def sqrt(x: DiffTensor) -> DiffTensor:
    if np.any(x.data < 0.0):
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
    if not np.all(np.isfinite(x)):
        raise NumericDomainError("softmax of a non-finite input")


def _softmax_data(x: Array, ax: int, out: Array | None = None) -> Array:
    """Stable softmax of `x` along `ax`, written into `out` when given."""
    e = np.subtract(x, x.max(axis=ax, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=ax, keepdims=True)
    return e


def _softmax_vjp(out: Array, ax: int, g: Array) -> Array:
    dot = (out * g).sum(axis=ax, keepdims=True)
    return out * (g - dot)


def softmax(x: DiffTensor, axis: int) -> DiffTensor:
    """Stable softmax along `axis`; rows sum to 1 and stay strictly positive."""
    _check_softmax_input(x.data)
    ax = _check_axis(axis, x.ndim)
    out = _softmax_data(x.data, ax)
    return _node(out, (x,), lambda g: (_softmax_vjp(out, ax, g),), "softmax")


def softmax_of_product(a: DiffTensor, b: DiffTensor, axis: int) -> DiffTensor:
    """softmax(a * b) along `axis`, `a` and `b` broadcast; the product is not kept."""
    product = a.data * b.data
    _check_softmax_input(product)
    ax = _check_axis(axis, product.ndim)
    out = _softmax_data(product, ax, out=product)
    return _node(out, (a, b), lambda g: _product_vjp(a, b, _softmax_vjp(out, ax, g)),
                 "softmax_of_product")


def product_sum(a: DiffTensor, b: DiffTensor, axis: int) -> DiffTensor:
    """(a * b).sum(axis), `a` and `b` broadcast; the product is not kept."""
    product = a.data * b.data
    ax = _check_axis(axis, product.ndim)
    shape = product.shape
    out = product.sum(axis=ax)

    def vjp(g: Array):
        return _product_vjp(a, b, np.broadcast_to(np.expand_dims(g, ax), shape))

    return _node(out, (a, b), vjp, "product_sum")


def logsumexp(x: DiffTensor, axis: int, keepdims: bool = False) -> DiffTensor:
    if not np.all(np.isfinite(x.data)):
        raise NumericDomainError("logsumexp of a non-finite input")
    ax = _check_axis(axis, x.ndim)
    m = x.data.max(axis=ax, keepdims=True)
    shifted = x - constant(m)
    out = log(exp(shifted).sum(axis=ax, keepdims=True)) + constant(m)
    if not keepdims:
        shape = list(x.shape)
        del shape[ax]
        out = out.reshape(tuple(shape))
    return out


def log_softmax(x: DiffTensor, axis: int) -> DiffTensor:
    return x - logsumexp(x, axis, keepdims=True)


def kl_rows(p: DiffTensor, q: DiffTensor, axis: int, clamp: float = 1e-12) -> DiffTensor:
    """Mean KL divergence over the distributions stacked in `p` and `q`.

    Each slice along `axis` must be a probability vector; the result is the
    mean over all such slices of sum_i p_i * log(p_i / q_i). Zero p entries
    contribute zero; q is clamped below at `clamp` inside the log only.
    Differentiable in both arguments.
    """
    if p.shape != q.shape:
        raise ContractError(f"kl_rows shape mismatch: {p.shape} vs {q.shape}")
    ax = _check_axis(axis, p.ndim)
    for name, t in (("p", p), ("q", q)):
        if np.any(t.data < 0.0):
            raise ContractError(f"kl_rows: negative entry in {name}")
        sums = t.data.sum(axis=ax)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            raise ContractError(f"kl_rows: a slice of {name} does not sum to 1")
    n_slices = p.data.size // p.data.shape[ax] if p.data.shape[ax] else 0
    if n_slices == 0:
        raise ContractError("kl_rows of an empty tensor")
    qc = np.maximum(q.data, clamp)
    pos = p.data > 0.0
    terms = np.where(pos, p.data * (np.log(np.where(pos, p.data, 1.0)) - np.log(qc)), 0.0)
    out = _as_f64(terms.sum() / n_slices)

    def vjp(g: Array):
        gs = float(g) / n_slices
        gp = gq = None
        if p.requires_grad:
            gp = np.where(pos, np.log(np.where(pos, p.data, 1.0)) - np.log(qc) + 1.0, 0.0) * gs
        if q.requires_grad:
            gq = np.where(q.data >= clamp, -p.data / qc, 0.0) * gs
        return gp, gq

    return _node(out, (p, q), vjp, "kl_rows")


# --- backward pass --------------------------------------------------------


def backward(loss: DiffTensor) -> None:
    """Accumulate dLoss/dT into `.grad` for every tracked leaf below `loss`.

    Only tensors with `requires_grad` are visited. A leaf's first gradient
    is stored as its own copy and later ones are added in place; an
    intermediate's gradient is dropped once its VJP has run, so afterwards
    only leaves hold a `.grad`. The loss must be a finite scalar. A second
    call on the same node raises; build a fresh graph per optimization step
    instead.
    """
    if loss.data.shape != ():
        raise ContractError("backward expects a scalar loss")
    if not np.isfinite(loss.data):
        raise ContractError("backward expects a finite loss")
    if loss._done:
        raise ContractError("backward already ran on this node")
    loss._done = True

    order: list[DiffTensor] = []
    seen: set[int] = set()
    stack: list[tuple[DiffTensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(order):
        if node._vjp is None or node.grad is None:
            continue
        g_out, node.grad = node.grad, None
        for parent, g in zip(node._parents, node._vjp(g_out)):
            if g is None or not parent.requires_grad:
                continue
            leaf = parent._vjp is None
            if parent.grad is None:
                parent.grad = np.array(g, dtype=np.float64) if leaf else g
            elif leaf:
                parent.grad += g
            else:
                parent.grad = parent.grad + g


def zero_grad(tensors: Sequence[DiffTensor]) -> None:
    for t in tensors:
        t.grad = None


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


@dataclass
class AdamState:
    """Per-parameter Adam moments plus the shared step counter."""

    lr: float = 1e-3
    weight_decay: float = 1e-4
    step_count: int = 0
    m: list[Array] = field(default_factory=list)
    v: list[Array] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: Sequence[DiffTensor], lr: float = 1e-3,
                   weight_decay: float = 1e-4) -> "AdamState":
        return cls(lr=lr, weight_decay=weight_decay,
                   m=[np.zeros_like(p.data) for p in params],
                   v=[np.zeros_like(p.data) for p in params])


def adam_step(params: Sequence[DiffTensor], state: AdamState) -> None:
    """One Adam update in place, reading each parameter's `.grad`.

    Weight decay is coupled L2: the decay term joins the gradient before the
    moment updates. A missing `.grad` counts as zero.
    """
    if len(state.m) != len(params):
        raise ContractError("optimizer state does not match the parameter list")
    for p, m in zip(params, state.m):
        if p.data.shape != m.shape:
            raise ContractError("optimizer moment shape does not match its parameter")
    state.step_count += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step_count
    bc2 = 1.0 - ADAM_BETA2 ** state.step_count
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if state.weight_decay:
            g = g + state.weight_decay * p.data
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
