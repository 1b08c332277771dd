"""Dense tensors with reverse-mode gradients.

Everything the attention model and its losses need numerically lives here: a
small computation-graph tensor, the primitive operations with analytic
gradients, numerically stable softmax / NLL / KL helpers, a central-difference
gradient checker, and an Adam optimizer. All operations are deterministic;
identical inputs produce bit-identical outputs because every reduction runs
in a fixed order on contiguous buffers.

Dtype policy: a tensor of three or more axes built from float32 data stays
float32 (the model's (N, L, S, d) visual grid, its attention maps and its
(N, L, d) poolings); everything else, every tensor of (N, d) or fewer axes
included, is float64. The fused primitives `tanh_matmul`, `product_sum` and
`attend` (the whole attention block, run in row chunks) compute in float32
when an input is float32, return a result of two or fewer axes as float64,
and hand each operand its gradient in its own dtype. `kl_rows`, `block_kl`
and `attend`'s attention distillation always compute in float64. Float64
inputs never meet a cast, so an all-float64 graph runs exactly the float64
arithmetic.
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
    "attend",
    "product_sum",
    "nll",
    "kl_rows",
    "check_distributions",
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


# attend gathers and runs the batch in chunks of rows of about this many grid
# entries, so no (N, L, S, d) array of the block, the batch itself included,
# is larger than a chunk
ATTEND_CHUNK_ENTRIES = 1 << 16


def _attend_spatial(visual: Array, w: Array, audio: Array) -> tuple[Array, Array]:
    """A chunk's visual scores tanh(visual @ w) and its spatial map: the
    softmax over cells of their product with the chunk's audio scores."""
    scores = visual @ w
    np.tanh(scores, out=scores)
    spatial = audio[:, None, None, :] * scores
    _check_softmax_input(spatial)
    return scores, _softmax_data(spatial, 2, out=spatial)


def _f64(t: Array) -> Array:
    """`t` in float64, not copied when it already is."""
    return t.astype(np.float64, copy=False)


def attend(score_audio: DiffTensor, visual: Array, w_visual: DiffTensor, map_rows=None,
           rows=None, distill=None
           ) -> tuple[DiffTensor, tuple[Array, Array] | None, DiffTensor | None]:
    """Audio-guided attention pooling of an (N, L, S, d) visual grid, as one node.

    The grid is the batch rows `rows` of the array `visual` (every row when
    None), read in place: `visual` gets no gradient, and only one row chunk
    of it is gathered at a time. With v = tanh(grid @ w_visual) and a the
    (N, d) `score_audio`, the spatial map is softmax over S of a * v, the
    temporal map softmax over L of the spatially pooled sum(spatial * v),
    and the pooled vector the (N, d) float64 sum over L of temporal * sum
    over S of (grid * spatial).

    Returns `(pooled, maps, vad)` for the maps of the k strictly increasing
    batch rows `map_rows` (every row when None). Without `distill`, `maps`
    is their spatial (k, L, S, d) and temporal (k, L, d) arrays and `vad`
    None. Given `distill` = `((spatial, temporal), teacher_rows,
    lambda_vad)`, a frozen teacher's map arrays (checked by whoever caches
    them) and its row of each map row, `maps` is None and `vad` the scalar
    node lambda_vad * mean spatial KL + (1 - lambda_vad) * mean temporal KL
    to the teacher, in float64: `kl_rows`' value on the map arrays, bit for
    bit when the batch is one chunk or each chunk one row, and an exact 0
    with no map row. Each chunk's spatial KL is summed as its map is built
    and its gradient added to the chunk's map gradient in the VJP, so no
    (k, L, S, d) map or map gradient exists.

    The grid runs in row chunks of about `ATTEND_CHUNK_ENTRIES` entries,
    each gathered from `visual` when it is read, and in float32 when
    `visual` is float32. Only the last chunk's grid-sized arrays are kept;
    the VJP walks the chunks in reverse and gathers and recomputes the
    others. `w_visual`'s gradient is the float64 sum of one `np.dot` per
    chunk, in that reverse order. Every value and every other gradient, and
    `w_visual`'s when the batch is one chunk, is the one the elementary
    composite (`tanh_matmul`, a product, `softmax`, `product_sum`) gives on
    the gathered batch, bit for bit.
    """
    source = np.asarray(visual)
    if source.ndim != 4:
        raise ContractError(f"attend needs an (N, L, S, d) grid, got {source.shape}")
    index = np.arange(len(source)) if rows is None else np.asarray(rows)
    if index.ndim != 1 or index.dtype.kind not in "iu" or (index.size and (
            index.min() < 0 or index.max() >= len(source))):
        raise ContractError("attend needs 1-d integer batch rows inside the grid")
    n, (ell, cells, d) = index.size, source.shape[1:]
    if score_audio.shape != (n, d) or w_visual.shape != (d, d):
        raise ContractError(f"attend needs (N, d) audio scores, an (N, L, S, d) batch and a "
                            f"(d, d) weight, got {score_audio.shape}, "
                            f"{(n, *source.shape[1:])} and {w_visual.shape}")
    if n * ell * cells * d == 0:
        raise ContractError("attend of an empty grid")
    kept = np.arange(n) if map_rows is None else np.asarray(map_rows, dtype=np.int64)
    if kept.ndim != 1 or (kept.size and (kept[0] < 0 or kept[-1] >= n
                                         or (kept[1:] <= kept[:-1]).any())):
        raise ContractError("attend needs strictly increasing 1-d map rows inside the batch")
    if distill is not None:
        (q_spatial, q_temporal), q_rows, lambda_vad = distill
        q_rows = np.asarray(q_rows, dtype=np.int64)
        if not (isinstance(q_spatial, np.ndarray) and isinstance(q_temporal, np.ndarray)
                and q_spatial.shape[1:] == (ell, cells, d) and q_temporal.shape[1:] == (ell, d)):
            raise ContractError("attend distills toward (M, L, S, d) and (M, L, d) map arrays")
        if q_rows.shape != kept.shape or (q_rows.size and (
                q_rows.min() < 0 or q_rows.max() >= min(len(q_spatial), len(q_temporal)))):
            raise ContractError("attend needs one teacher map row, inside the teacher's maps, "
                                "per map row")
        if not 0.0 <= lambda_vad <= 1.0:
            raise ContractError("lambda_vad must lie in [0, 1]")
    dt = np.float32 if np.float32 in (_policy_dtype(source), w_visual.data.dtype) else np.float64
    wd = w_visual.data.astype(dt, copy=False)
    ad = score_audio.data.astype(dt, copy=False)
    step = max(1, ATTEND_CHUNK_ENTRIES // (ell * cells * d))
    starts = range(0, n, step)
    # each chunk's rows [lo, hi) and its map rows, kept[first:stop]
    bounds = np.searchsorted(kept, [*starts, n])
    spans = [(lo, min(lo + step, n), first, stop)
             for lo, first, stop in zip(starts, bounds, bounds[1:])]

    def chunk_of(lo: int, hi: int) -> tuple[Array, Array, Array]:
        """Batch rows [lo, hi) of the grid, their visual scores and spatial map."""
        grid = np.ascontiguousarray(source[index[lo:hi]], dtype=dt)
        return (grid, *_attend_spatial(grid, wd, ad[lo:hi]))

    psum = np.empty((n, ell, d), dt)
    per_frame = np.empty((n, ell, d), dt)
    spatial_rows = np.empty((kept.size, ell, cells, d), dt) if distill is None else None
    kl_spatial = None
    for lo, hi, first, stop in spans:
        last = grid, scores, spatial = chunk_of(lo, hi)
        psum[lo:hi] = (spatial * scores).sum(axis=2)
        per_frame[lo:hi] = (grid * spatial).sum(axis=2)
        if distill is None:
            spatial_rows[first:stop] = spatial[kept[first:stop] - lo]
        elif stop > first:
            part = _kl_sum(_f64(spatial[kept[first:stop] - lo]),
                           _f64(q_spatial[q_rows[first:stop]]))
            kl_spatial = part if kl_spatial is None else kl_spatial + part
    _check_softmax_input(psum)
    temporal = _softmax_data(psum, 1)
    pooled = (temporal * per_frame).sum(axis=1)
    need_audio, need_w = score_audio.requires_grad, w_visual.requires_grad
    g_vad = None    # the VAD output's gradient, handed in by its own node's VJP

    def vjp(g: Array):
        nonlocal last
        g_pool = g.astype(dt, copy=False).reshape(n, 1, d)
        if g_vad is not None:
            gs_spatial = g_vad * lambda_vad / (kept.size * ell * d)
            gs_temporal = g_vad * (1.0 - lambda_vad) / (kept.size * d)
        g_audio = np.empty((n, 1, 1, d), dt) if need_audio else None
        gw = None
        for lo, hi, first, stop in reversed(spans):
            grid, scores, spatial = last if last is not None else chunk_of(lo, hi)
            last = None
            distilled = g_vad is not None and stop > first
            at = kept[first:stop] - lo
            g_tem = g_pool[lo:hi] * per_frame[lo:hi]
            if distilled:
                teacher_at = q_rows[first:stop]
                g_tem[at] += _kl_grad(_f64(temporal[kept[first:stop]]),
                                      _f64(q_temporal[teacher_at]),
                                      gs_temporal).astype(dt, copy=False)
            g_psum = _softmax_vjp(temporal[lo:hi], 1, g_tem).astype(dt, copy=False)[:, :, None, :]
            g_spa = (g_pool[lo:hi] * temporal[lo:hi])[:, :, None, :] * grid
            if distilled:
                g_spa[at] += _kl_grad(_f64(spatial[at]), _f64(q_spatial[teacher_at]),
                                      gs_spatial).astype(dt, copy=False)
            np.add(g_spa, g_psum * scores, out=g_spa)
            g_spa = _softmax_vjp(spatial, 2, g_spa)
            if need_audio:
                g_audio[lo:hi] = _unbroadcast(g_spa * scores, (hi - lo, 1, 1, d))
            if need_w:
                g_sc = np.multiply(g_spa, ad[lo:hi, None, None, :])
                np.add(g_psum * spatial, g_sc, out=g_sc)
                np.multiply(scores, scores, out=scores)
                g_sc *= np.subtract(1.0, scores, out=scores)
                part = np.dot(grid.reshape(-1, d).T, g_sc.reshape(-1, d))
                gw = part.astype(np.float64, copy=False) if gw is None else \
                    np.add(gw, part, out=gw)
        ga = None if g_audio is None else \
            g_audio.reshape(n, d).astype(score_audio.data.dtype, copy=False)
        return ga, None if gw is None else gw.astype(w_visual.data.dtype, copy=False)

    out = _node(pooled.astype(np.float64, copy=False), (score_audio, w_visual), vjp, "attend")
    if distill is None:
        return out, (spatial_rows, temporal[kept]), None
    if not kept.size:
        return out, None, constant(0.0)
    # the temporal KL in kl_rows' row chunks, so its sum is the one kl_rows gives
    step = max(1, KL_CHUNK_ENTRIES // (ell * d))
    kl_temporal = None
    for i in range(0, kept.size, step):
        part = _kl_sum(_f64(temporal[kept[i:i + step]]), _f64(q_temporal[q_rows[i:i + step]]))
        kl_temporal = part if kl_temporal is None else kl_temporal + part
    value = (kl_spatial / (kept.size * ell * d) * lambda_vad
             + kl_temporal / (kept.size * d) * (1.0 - lambda_vad))

    def vad_vjp(g: Array):
        nonlocal g_vad
        g_vad = float(g)
        # a node has one output, so this hands the VAD's gradient to the block's
        # VJP, waking it with a zero gradient when nothing read the pooled vector
        return (None if out.grad is not None else np.zeros_like(out.data),)

    return out, None, _node(_as_f64(value), (out,), vad_vjp, "attend_vad")


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


def check_distributions(t: Array, axis: int, what: str) -> None:
    """Raise ContractError, naming `what`, unless every slice of `t` along
    `axis` is a probability vector: no negative entry, and a float64 sum
    within 1e-6 of 1."""
    if (t < 0.0).any():
        raise ContractError(f"{what}: negative entry")
    if (np.abs(t.sum(axis=axis, dtype=np.float64) - 1.0) > 1e-6).any():
        raise ContractError(f"{what}: a slice does not sum to 1")


def _kl_slices(shape: tuple[int, ...], ax: int) -> int:
    """How many distributions along `ax` a tensor of `shape` stacks."""
    size = math.prod(shape)
    if shape[ax] == 0 or size == 0:
        raise ContractError("kl_rows of an empty tensor")
    return size // shape[ax]


def _log_ratio(p: Array, q: Array) -> tuple[Array, Array]:
    """Where p > 0, and log(p / q) as a new float64 array (q clamped below at
    `KL_CLAMP`, p read as 1 where it is 0), built with one temporary."""
    pos = p > 0.0
    out = np.where(pos, p, 1.0)
    np.log(out, out=out)
    log_q = np.maximum(q, KL_CLAMP)
    out -= np.log(log_q, out=log_q)
    return pos, out


def _kl_sum(p: Array, q: Array) -> float:
    """Sum of p * log(p / q) over float64 arrays; zero p entries add zero."""
    pos, terms = _log_ratio(p, q)
    terms *= p
    terms[~pos] = 0.0
    return terms.sum()


def _kl_grad(p: Array, q: Array, gs: float) -> Array:
    """Gradient in p of `gs` * `_kl_sum(p, q)`, recomputed from the inputs
    so the forward pass keeps none of its temporaries."""
    pos, gp = _log_ratio(p, q)
    gp += 1.0
    gp[~pos] = 0.0
    gp *= gs
    return gp


# kl_rows gathers its rows in chunks of about this many entries, so its
# float64 temporaries stay small whatever the size of the maps
KL_CHUNK_ENTRIES = 1 << 16
# kl_rows reads q as at least this inside the log, so a zero q entry stays finite
KL_CLAMP = 1e-12


def kl_rows(pairs: Sequence[tuple[DiffTensor, Array, int]], weights: Sequence[float],
            q_rows) -> DiffTensor:
    """sum_k weights[k] * mean KL(p_k || q_k) over the distributions along
    axis_k, as one node.

    Each p is read whole, in row slices of about `KL_CHUNK_ENTRIES`
    entries, and its q at `q_rows[i]` for its row i, so q may hold other
    rows than p (a frozen teacher's maps of the replay rows). Every p slice
    must be a probability vector (`check_distributions`). q is a plain
    array that takes no gradient and is not checked here, since whoever
    caches it checks it once. Zero p entries contribute zero and q is
    clamped below at `KL_CLAMP` inside the log only. Computed in float64,
    so the sum-to-1 check keeps its tolerance on float32 maps. Axis 0 holds
    the rows and is never a distribution axis.
    """
    if len(pairs) != len(weights) or not pairs:
        raise ContractError("kl_rows needs one weight per (p, q, axis) pair")
    q_idx = np.asarray(q_rows, dtype=np.int64)
    axes, n_slices, chunks = [], [], []
    for p, q, axis in pairs:
        if not isinstance(q, np.ndarray):
            raise ContractError("kl_rows takes q as an array")
        if p.shape[1:] != q.shape[1:]:
            raise ContractError(f"kl_rows shape mismatch: {p.shape} vs {q.shape}")
        ax = _check_axis(axis, p.ndim)
        if ax == 0:
            raise ContractError("kl_rows distributions must lie along a non-row axis")
        if q_idx.shape != p.shape[:1]:
            raise ContractError("kl_rows needs one q row per row of p")
        axes.append(ax)
        n_slices.append(_kl_slices(p.shape, ax))
        if q_idx.min() < 0 or q_idx.max() >= q.shape[0]:
            raise ContractError("kl_rows row out of range")
        step = max(1, KL_CHUNK_ENTRIES // (p.data.size // p.shape[0]))
        chunks.append([(slice(i, i + step), q_idx[i:i + step])
                       for i in range(0, q_idx.size, step)])

    # the operands are read again by the VJP rather than kept alive until then
    total = None
    for (p, q, _), ax, n, parts, w in zip(pairs, axes, n_slices, chunks, weights):
        kl_sum = None
        for at_p, at_q in parts:
            p64 = _f64(p.data[at_p])
            check_distributions(p64, ax, "kl_rows p")
            part = _kl_sum(p64, _f64(q[at_q]))
            kl_sum = part if kl_sum is None else kl_sum + part
        term = kl_sum / n * w
        total = term if total is None else total + term

    def vjp(g: Array):
        out: list[Array | None] = []
        for (p, q, _), n, parts, w in zip(pairs, n_slices, chunks, weights):
            full = None
            if p.requires_grad:
                gs = float(g) * w / n
                full = np.empty_like(p.data)
                for at_p, at_q in parts:
                    full[at_p] = _kl_grad(_f64(p.data[at_p]), _f64(q[at_q]), gs)
            out.append(full)
        return tuple(out)

    return _node(_as_f64(total), tuple(p for p, _, _ in pairs), vjp, "kl_rows")


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
            grad[:, lo:hi] = _softmax_vjp(p, 1, _kl_grad(p, q, gs))
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
