"""Audio-guided attention over visual feature grids, fusion, and the growing classifier.

Features arrive precomputed: one d-vector per clip for audio and an L x S x d
grid for visual (L frames, S spatial cells). Audio and visual projections are
scored with tanh, their product is normalized over space per channel, the
spatially pooled frame scores are normalized over time, and the attended
visual vector joins the audio vector through a second pair of projections
into a linear classifier whose row count grows as classes arrive.
"""

from __future__ import annotations

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
    """The six trainable tensors. Projections are d x d; the classifier grows."""

    w_audio: DiffTensor
    w_visual: DiffTensor
    u_audio: DiffTensor
    u_visual: DiffTensor
    cls_weight: DiffTensor
    cls_bias: DiffTensor

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
class AttentionMaps:
    """Batched attention weights: spatial is (N, L, S, d), temporal is (N, L, d).

    Spatial slices sum to 1 over the S axis, temporal over the L axis,
    independently per sample and channel.
    """

    spatial: DiffTensor
    temporal: DiffTensor


@dataclass
class ForwardTrace:
    """Everything downstream losses read from one forward pass.

    `attended_visual` and `maps` are None in audio-only mode; `maps` is also
    None in visual-only mode, where pooling is uniform instead of attended.
    """

    audio: DiffTensor
    attended_visual: DiffTensor | None
    fused: DiffTensor
    logits: DiffTensor
    maps: AttentionMaps | None


def init_params(d: int, num_classes: int, seed: int) -> ModelParams:
    """Draw all weights uniform in [-1/sqrt(d), 1/sqrt(d)]; bias starts at zero."""
    if d < 1 or num_classes < 1:
        raise ContractError("init_params needs d >= 1 and num_classes >= 1")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d)

    def draw(shape):
        return dm.parameter(rng.uniform(-bound, bound, size=shape))

    return ModelParams(
        w_audio=draw((d, d)),
        w_visual=draw((d, d)),
        u_audio=draw((d, d)),
        u_visual=draw((d, d)),
        cls_weight=draw((num_classes, d)),
        cls_bias=dm.parameter(np.zeros(num_classes)),
    )


def spatial_attention(f_audio: DiffTensor, f_visual: DiffTensor,
                      params: ModelParams) -> tuple[DiffTensor, DiffTensor]:
    """Audio-guided spatial weights.

    Both modalities are scored with tanh projections; their elementwise
    product (audio broadcast over cells) is softmax-normalized over the S
    axis per frame and channel. Returns (w_spa, score_visual); the visual
    score is reused by the temporal stage.
    """
    n, d = _check_audio(f_audio, params.d)
    if f_visual.ndim != 4 or f_visual.shape[0] != n or f_visual.shape[3] != d:
        raise ContractError(
            f"visual batch must be (N, L, S, {d}), got {f_visual.shape}")
    score_audio = dm.tanh_matmul(f_audio, params.w_audio)
    score_visual = dm.tanh_matmul(f_visual, params.w_visual)
    w_spa = dm.softmax_of_product(score_audio.reshape((n, 1, 1, d)), score_visual, axis=2)
    return w_spa, score_visual


def temporal_attention(w_spa: DiffTensor, score_visual: DiffTensor) -> DiffTensor:
    """Frame weights from spatially pooled visual scores, softmax over L per channel."""
    if w_spa.shape != score_visual.shape:
        raise ContractError("spatial weights and visual scores must share a shape")
    return dm.softmax(dm.product_sum(w_spa, score_visual, axis=2), axis=1)


def pool_visual(f_visual: DiffTensor, maps: AttentionMaps) -> DiffTensor:
    """Collapse the grid: spatial weights inside each frame, temporal across frames."""
    if maps.spatial.shape != f_visual.shape:
        raise ContractError("spatial map shape must match the visual batch")
    per_frame = dm.product_sum(f_visual, maps.spatial, axis=2)
    return dm.product_sum(maps.temporal, per_frame, axis=1)


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


def forward(params: ModelParams, audio, visual, modality: str = "audiovisual") -> ForwardTrace:
    """Run a batch through the model.

    `audio` is (N, d) and `visual` (N, L, S, d), as arrays or as constant
    tensors; a caller that runs several models on one batch wraps it once
    with `dm.constant` and passes the same tensors to each. Float32 visual
    features keep the attention block, up to the pooled (N, d) vector, in
    float32; the rest of the model runs in float64 (the dtype policy of
    `diffmath`). In `audio` mode the visual pathway is dropped; in `visual`
    mode pooling is uniform over cells and frames (no attention).
    """
    if modality not in MODALITIES:
        raise ContractError(f"unknown modality {modality!r}")
    if not isinstance(audio, DiffTensor):
        audio = dm.constant(audio)
    if not isinstance(visual, DiffTensor):
        visual = dm.constant(visual)
    n, _ = _check_audio(audio, params.d)
    if n == 0:
        raise ContractError("forward needs a non-empty batch")
    if modality == "audio":
        fused = dm.tanh_matmul(audio, params.u_audio)
        return ForwardTrace(audio=audio, attended_visual=None, fused=fused,
                            logits=classify(fused, params), maps=None)
    if modality == "visual":
        pooled = visual.mean(axis=2).mean(axis=1)
        fused = dm.tanh_matmul(pooled, params.u_visual)
        return ForwardTrace(audio=audio, attended_visual=pooled, fused=fused,
                            logits=classify(fused, params), maps=None)
    w_spa, score_visual = spatial_attention(audio, visual, params)
    w_tem = temporal_attention(w_spa, score_visual)
    maps = AttentionMaps(spatial=w_spa, temporal=w_tem)
    attended = pool_visual(visual, maps)
    fused, logits = fuse_and_classify(audio, attended, params)
    return ForwardTrace(audio=audio, attended_visual=attended, fused=fused,
                        logits=logits, maps=maps)


def _check_audio(f_audio: DiffTensor, d: int) -> tuple[int, int]:
    if f_audio.ndim != 2 or f_audio.shape[1] != d:
        raise ContractError(f"audio batch must be (N, {d}), got {f_audio.shape}")
    return f_audio.shape


def expand_classifier(params: ModelParams, k_new: int, seed: int) -> ModelParams:
    """Append k_new freshly initialized rows; old rows and bias stay bit-identical.

    Projections are shared with the input, so training continues warm.
    """
    if k_new < 1:
        raise ContractError("expand_classifier needs k_new >= 1")
    d = params.d
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d)
    new_rows = rng.uniform(-bound, bound, size=(k_new, d))
    weight = dm.parameter(np.concatenate([params.cls_weight.data, new_rows], axis=0))
    bias = dm.parameter(np.concatenate([params.cls_bias.data, np.zeros(k_new)]))
    return ModelParams(w_audio=params.w_audio, w_visual=params.w_visual,
                       u_audio=params.u_audio, u_visual=params.u_visual,
                       cls_weight=weight, cls_bias=bias)


def reinit_classifier(params: ModelParams, num_classes: int, seed: int) -> ModelParams:
    """Fresh classifier over `num_classes` rows, projections kept as-is."""
    if num_classes < 1:
        raise ContractError("reinit_classifier needs num_classes >= 1")
    d = params.d
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d)
    return ModelParams(w_audio=params.w_audio, w_visual=params.w_visual,
                       u_audio=params.u_audio, u_visual=params.u_visual,
                       cls_weight=dm.parameter(rng.uniform(-bound, bound, size=(num_classes, d))),
                       cls_bias=dm.parameter(np.zeros(num_classes)))


def snapshot(params: ModelParams) -> ModelParams:
    """Deep frozen copy for use as a distillation teacher; never trains."""
    return ModelParams(*(DiffTensor(p.data.copy(), requires_grad=False)
                         for p in params.parameters()))


# --- checkpoint serialization --------------------------------------------

_FIELD_ORDER = ("w_audio", "w_visual", "u_audio", "u_visual", "cls_weight", "cls_bias")


def save_checkpoint(params: ModelParams, path) -> None:
    """Little-endian binary: magic, version, d, num_classes, then raw f64 buffers."""
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<III", CHECKPOINT_VERSION, params.d, params.num_classes)
    for name in _FIELD_ORDER:
        arr = np.ascontiguousarray(getattr(params, name).data, dtype="<f8")
        blob += arr.tobytes()
    write_atomic(path, bytes(blob))


def load_checkpoint(path) -> ModelParams:
    blob = read_input(path, "checkpoint")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic at offset 0")
    if len(blob) < 16:
        raise FormatError(f"checkpoint truncated at offset {len(blob)}")
    version, d, num_classes = struct.unpack_from("<III", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version} at offset 4")
    shapes = [(d, d)] * 4 + [(num_classes, d), (num_classes,)]
    offset = 16
    fields = {}
    for name, shape in zip(_FIELD_ORDER, shapes):
        count = int(np.prod(shape))
        end = offset + 8 * count
        if end > len(blob):
            raise FormatError(f"checkpoint truncated at offset {offset}")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        fields[name] = dm.parameter(arr.copy())
        offset = end
    if offset != len(blob):
        raise FormatError(f"trailing bytes at offset {offset}")
    return ModelParams(**fields)
