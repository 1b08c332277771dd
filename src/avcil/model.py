"""Audio-guided attention over visual feature grids, fusion, and the growing classifier.

Features arrive precomputed: one d-vector per clip for audio and an L x S x d
grid for visual (L frames, S spatial cells). Audio and visual projections are
scored with tanh, their product is normalized over space per channel, the
spatially pooled frame scores are normalized over time (the whole block is
one `dm.attend` node), and the attended visual vector joins the audio vector
through a second pair of projections into a linear classifier whose row count
grows as classes arrive.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import diffmath as dm
from .diffmath import DiffTensor
from .errors import ContractError, FormatError
from .fileio import read_input, write_atomic

MODALITIES = ("audiovisual", "audio", "visual")

CHECKPOINT_MAGIC = b"AVCP"
CHECKPOINT_VERSION = 1


@dataclass
class ModelParams:
    """Six tensors, each a view into the float64 vector `flat` in checkpoint
    order; a trainable model's gradients are views into `grad` (None when
    frozen). Projections are d x d; the classifier grows."""

    w_audio: DiffTensor
    w_visual: DiffTensor
    u_audio: DiffTensor
    u_visual: DiffTensor
    cls_weight: DiffTensor
    cls_bias: DiffTensor
    flat: np.ndarray
    grad: np.ndarray | None

    @property
    def d(self) -> int:
        return self.w_audio.shape[0]

    @property
    def num_classes(self) -> int:
        return self.cls_weight.shape[0]

    def parameters(self) -> list[DiffTensor]:
        return [self.w_audio, self.w_visual, self.u_audio, self.u_visual,
                self.cls_weight, self.cls_bias]


@dataclass
class ForwardTrace:
    """Everything downstream losses read from one forward pass.

    `attended_visual` is None in audio-only mode. `maps` holds the spatial
    (k, L, S, d) and temporal (k, L, d) attention arrays of the batch rows
    `forward` was asked for, in order, each slice summing to 1 over S or L;
    `vad` is their distillation instead, when `forward` was given the
    teacher's maps. Both are None outside the audiovisual mode.
    """

    audio: DiffTensor
    attended_visual: DiffTensor | None
    fused: DiffTensor
    logits: DiffTensor
    maps: tuple[np.ndarray, np.ndarray] | None
    vad: DiffTensor | None = None


def _from_flat(flat: np.ndarray, d: int, num_classes: int, trainable: bool) -> ModelParams:
    """Parameters whose six tensors are views into `flat`, in field order; a
    trainable model gets one zeroed gradient vector, viewed the same way."""
    grad = np.zeros_like(flat) if trainable else None
    tensors = []
    start = 0
    for shape in [(d, d)] * 4 + [(num_classes, d), (num_classes,)]:
        stop = start + math.prod(shape)
        tensors.append(dm.view(flat[start:stop].reshape(shape),
                               None if grad is None else grad[start:stop].reshape(shape)))
        start = stop
    return ModelParams(*tensors, flat=flat, grad=grad)


def _uniform(seed: int, d: int, count: int) -> np.ndarray:
    """`count` draws uniform in [-1/sqrt(d), 1/sqrt(d)] from a generator seeded with `seed`."""
    bound = 1.0 / np.sqrt(d)
    return np.random.default_rng(seed).uniform(-bound, bound, size=count)


def init_params(d: int, num_classes: int, seed: int) -> ModelParams:
    """Draw all weights uniform in [-1/sqrt(d), 1/sqrt(d)]; bias starts at zero."""
    if d < 1 or num_classes < 1:
        raise ContractError("init_params needs d >= 1 and num_classes >= 1")
    flat = np.concatenate([_uniform(seed, d, (4 * d + num_classes) * d), np.zeros(num_classes)])
    return _from_flat(flat, d, num_classes, trainable=True)


def fuse_and_classify(f_audio: DiffTensor, attended_visual: DiffTensor,
                      params: ModelParams) -> tuple[DiffTensor, DiffTensor]:
    fused = (dm.tanh_matmul(f_audio, params.u_audio)
             + dm.tanh_matmul(attended_visual, params.u_visual))
    return fused, classify(fused, params)


def classify(fused: DiffTensor, params: ModelParams) -> DiffTensor:
    """Linear head as a broadcast product summed over d.

    Written this way (not matmul) so each logit's reduction order depends only
    on d: growing the classifier leaves existing logits bit-identical.
    """
    n = fused.shape[0]
    return dm.product_sum(fused.reshape((n, 1, params.d)), params.cls_weight,
                          axis=2) + params.cls_bias


def forward(params: ModelParams, audio, visual, modality: str = "audiovisual",
            map_rows=None, rows=None, distill=None, maps_out=None) -> ForwardTrace:
    """Run a batch through the model.

    The batch is the rows `rows` of the arrays `audio` (M, d) and `visual`
    (M, L, S, d), or every row of both when `rows` is None. Both are read
    in place: only the batch's audio rows are gathered here, and the
    attention block gathers its visual rows a chunk at a time, so training,
    the teacher pass and evaluation hand over the dataset's own arrays. The
    attention block is one `dm.attend` node. It reads the maps of the
    strictly increasing batch rows `map_rows` (every row when None) into
    the trace's map arrays or, given `distill` (see `dm.attend`), into the
    trace's `vad`: training distills the replay rows toward the teacher's
    maps, evaluation reads none; given `maps_out`, the attention block
    writes the maps into those arrays (the teacher pass's cache). Float32
    visual features keep the attention block, up to the pooled (N, d)
    vector, in float32 inside `dm.attend`; every tensor that takes a
    gradient is float64. In `audio` mode the visual pathway is dropped; in
    `visual` mode pooling is uniform over cells and frames (no attention):
    the grid is a `dm.view` in its own dtype, summed over cells in that
    dtype and then averaged in float64.
    """
    if modality not in MODALITIES:
        raise ContractError(f"unknown modality {modality!r}")
    audio = np.asarray(audio)
    audio = dm.constant(audio if rows is None else audio[rows])
    n, d = _check_audio(audio, params.d)
    if n == 0:
        raise ContractError("forward needs a non-empty batch")
    if modality == "audio":
        fused = dm.tanh_matmul(audio, params.u_audio)
        return ForwardTrace(audio=audio, attended_visual=None, fused=fused,
                            logits=classify(fused, params), maps=None)
    visual = np.asarray(visual)
    if visual.ndim != 4 or visual.shape[3] != d or (rows is None and visual.shape[0] != n):
        raise ContractError(f"visual batch must be (N, L, S, {d}), got {visual.shape}")
    if modality == "visual":
        visual = dm.view(visual if rows is None else visual[rows])
        pooled = visual.mean(axis=2).mean(axis=1)
        fused = dm.tanh_matmul(pooled, params.u_visual)
        return ForwardTrace(audio=audio, attended_visual=pooled, fused=fused,
                            logits=classify(fused, params), maps=None)
    score_audio = dm.tanh_matmul(audio, params.w_audio)
    attended, maps, vad = dm.attend(score_audio, visual, params.w_visual, map_rows, rows,
                                    distill, maps_out)
    fused, logits = fuse_and_classify(audio, attended, params)
    return ForwardTrace(audio=audio, attended_visual=attended, fused=fused,
                        logits=logits, maps=maps, vad=vad)


def _check_audio(f_audio: DiffTensor, d: int) -> tuple[int, int]:
    if f_audio.ndim != 2 or f_audio.shape[1] != d:
        raise ContractError(f"audio batch must be (N, {d}), got {f_audio.shape}")
    return f_audio.shape


def expand_classifier(params: ModelParams, k_new: int, seed: int) -> ModelParams:
    """Append k_new freshly initialized rows; old rows and bias stay bit-identical.

    Projections are copied bit-identical into the new vector, so training continues warm.
    """
    if k_new < 1:
        raise ContractError("expand_classifier needs k_new >= 1")
    d, k = params.d, params.num_classes
    flat = np.concatenate([params.flat[:-k], _uniform(seed, d, k_new * d),
                           params.flat[-k:], np.zeros(k_new)])
    return _from_flat(flat, d, k + k_new, trainable=True)


def reinit_classifier(params: ModelParams, num_classes: int, seed: int) -> ModelParams:
    """Fresh classifier over `num_classes` rows, projections kept as-is."""
    if num_classes < 1:
        raise ContractError("reinit_classifier needs num_classes >= 1")
    d = params.d
    flat = np.concatenate([params.flat[:4 * d * d], _uniform(seed, d, num_classes * d),
                           np.zeros(num_classes)])
    return _from_flat(flat, d, num_classes, trainable=True)


def snapshot(params: ModelParams) -> ModelParams:
    """Deep frozen copy for use as a distillation teacher; never trains."""
    return _from_flat(params.flat.copy(), params.d, params.num_classes, trainable=False)


# --- checkpoint serialization --------------------------------------------


def save_checkpoint(params: ModelParams, path) -> None:
    """Little-endian binary: magic, version, d, num_classes, then `flat` as raw f64."""
    header = CHECKPOINT_MAGIC + struct.pack("<III", CHECKPOINT_VERSION, params.d,
                                            params.num_classes)
    write_atomic(path, header + params.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    """Trainable parameters; a wrong length, d or num_classes below 1 or a
    non-finite value raises FormatError with the offset at fault."""
    blob = read_input(path, "checkpoint")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic at offset 0")
    if len(blob) < 16:
        raise FormatError(f"checkpoint truncated at offset {len(blob)}")
    version, d, num_classes = struct.unpack_from("<III", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version} at offset 4")
    if d < 1 or num_classes < 1:
        raise FormatError(f"checkpoint needs d >= 1 and num_classes >= 1, got d={d} "
                          f"and num_classes={num_classes} at offset 8")
    end = 16 + 8 * ((4 * d + num_classes) * d + num_classes)
    if len(blob) != end:
        what = "truncated" if len(blob) < end else "has trailing bytes"
        raise FormatError(f"checkpoint {what} at offset {min(len(blob), end)}")
    flat = np.frombuffer(blob, dtype="<f8", offset=16).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise FormatError(f"non-finite checkpoint value at offset {16 + 8 * bad[0]}")
    return _from_flat(flat, d, num_classes, trainable=True)
