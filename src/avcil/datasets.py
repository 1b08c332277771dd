"""Synthetic audio-visual feature corpora and their on-disk format.

Two generator modes cover the behaviors the training engine must exhibit:

* `aligned` draws per-class latents shared between modalities, so same-class
  audio and visual features correlate across modalities. Within each frame,
  one randomly placed cell carries the class signal at full strength while
  the remaining cells carry weak random directions, which is what makes
  audio-guided spatial attention (and preserving it later) worth anything.
* `xor_pairs` factors the label into (a, b) with `a` present only in audio
  and `b` only in visual, so no single modality can beat chance-per-factor.

Features are float32 on disk and in memory, so save/load round-trips are
bit-exact. A batch keeps that precision for the visual grid, whose attention
block runs in float32; the (N, d) audio rows are widened to float64 when the
model wraps them (the dtype policy of `diffmath`).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractError, FormatError
from .fileio import canonical_json, read_input, read_json, write_atomic

MAGIC = b"AVCF"
FORMAT_VERSION = 1

# the generator writes train and test rows only; a file may still tag rows val
SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST = 0, 1, 2
_SPLIT_NAMES = {"train": SPLIT_TRAIN, "val": SPLIT_VAL, "test": SPLIT_TEST}

# aligned mode: weight of the shared latent in each visual cell direction,
# and the relative strength of non-signal cells
LATENT_MIX = 0.7
DISTRACTOR_SCALE = 0.3
GENERATE_CHUNK_ENTRIES = 2 ** 12  # float64 entries per chunk of aligned noise draws


@dataclass
class FeatureDataset:
    """Struct of arrays, one row per clip: `audio` (N, d) and `visual`
    (N, L, S, d) float32, `labels` and `ids` int64, `splits` uint8 tags."""

    audio: np.ndarray
    visual: np.ndarray
    labels: np.ndarray
    ids: np.ndarray
    splits: np.ndarray
    num_classes: int
    manifest: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.audio.shape[1]

    @property
    def frames(self) -> int:
        return self.visual.shape[1]

    @property
    def cells(self) -> int:
        return self.visual.shape[2]

    def __len__(self) -> int:
        return len(self.labels)

    def of_class(self, label: int, split: str | None = None) -> np.ndarray:
        """Row indices of one class (optionally one split), in dataset order."""
        hit = self.labels == label
        if split is not None:
            hit &= self.splits == _SPLIT_NAMES[split]
        return np.flatnonzero(hit)


@dataclass(frozen=True)
class GeneratorSpec:
    mode: str
    num_classes: int
    d: int
    frames: int
    cells: int
    train_per_class: int
    test_per_class: int
    separation: float = 4.0
    noise_sigma: float = 0.25
    seed: int = 0

    def __post_init__(self):
        # each message starts with the field it names, which config errors rely on
        if self.mode not in ("aligned", "xor_pairs"):
            raise ContractError(f"mode must be 'aligned' or 'xor_pairs', got {self.mode!r}")
        for name in ("num_classes", "d", "frames", "cells", "train_per_class",
                     "test_per_class"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")
        if self.separation <= 0.0:
            raise ContractError("separation must be positive")
        if self.noise_sigma < 0.0:
            raise ContractError("noise_sigma must be >= 0")
        if self.mode == "xor_pairs" and math.isqrt(self.num_classes) ** 2 != self.num_classes:
            raise ContractError("num_classes must be a square number for xor_pairs")
        if (record := _record_size(self.d, self.frames, self.cells)) >= MAX_RECORD:
            raise ContractError(f"d, frames and cells give a {record}-byte record, over 2 GiB")


# in place; each stacked (1, d) @ (d, 1) is the BLAS dot `np.linalg.norm` takes of one
# vector, so every norm equals one taken alone (`norm(axis=-1)` sums in another order)
def _units(v: np.ndarray) -> np.ndarray:
    v /= np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]
    return v


def _allocate(spec: GeneratorSpec, class_names: list[str]) -> FeatureDataset:
    """Labels, ids and split tags of every sample, features still to be written.

    Rows run class by class; within a class, train then test.
    """
    counts = (spec.train_per_class, spec.test_per_class)
    per_class = sum(counts)
    n = spec.num_classes * per_class
    tags = np.repeat(np.array([SPLIT_TRAIN, SPLIT_TEST], dtype=np.uint8), counts)
    manifest = {"format_version": FORMAT_VERSION, "generator": asdict(spec),
                "class_names": class_names}
    return FeatureDataset(
        audio=np.empty((n, spec.d), dtype=np.float32),
        visual=np.empty((n, spec.frames, spec.cells, spec.d), dtype=np.float32),
        labels=np.repeat(np.arange(spec.num_classes, dtype=np.int64), per_class),
        ids=np.arange(n, dtype=np.int64),
        splits=np.tile(tags, spec.num_classes),
        num_classes=spec.num_classes, manifest=manifest)


def generate_synthetic(spec: GeneratorSpec, _b_permutation: Sequence[int] | None = None) -> FeatureDataset:
    """Deterministic in `spec.seed`; regenerating yields byte-identical files.

    `_b_permutation` is a test hook for xor_pairs that permutes which visual
    direction each b index uses; audio generation never reads b, so the audio
    bytes must not change under it. Features beyond this machine's physical
    memory raise `ConfigError` (exit 2 from the CLI) before any allocation.
    """
    rows = spec.num_classes * (spec.train_per_class + spec.test_per_class)
    size = 4 * rows * spec.d * (1 + spec.frames * spec.cells)
    if size > (memory := os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")):
        raise ConfigError(f"num_classes, train_per_class, test_per_class, d, frames and "
                          f"cells give {size} bytes of features, over the {memory} bytes of memory")
    return _generate_aligned(spec) if spec.mode == "aligned" \
        else _generate_xor(spec, _b_permutation)


def _generate_aligned(spec: GeneratorSpec) -> FeatureDataset:
    # each stream is drawn whole, in the order the README's Determinism section gives
    d, ell, s_cells = spec.d, spec.frames, spec.cells
    rng_means, rng_noise, rng_cells = (
        np.random.default_rng(np.random.SeedSequence([spec.seed, i])) for i in (1, 2, 3))

    means = _units(rng_means.normal(size=(spec.num_classes, 1 + ell * s_cells, d)))
    audio_means = spec.separation * means[:, 0]
    visual_dirs = means[:, 1:]
    visual_dirs *= 1.0 - LATENT_MIX
    visual_dirs += LATENT_MIX * means[:, :1]
    visual_dirs = _units(visual_dirs).reshape(-1, ell, s_cells, d)
    visual_dirs *= spec.separation

    ds = _allocate(spec, [f"class_{c}" for c in range(spec.num_classes)])
    signal = rng_cells.integers(s_cells, size=(len(ds), ell, 1)) == np.arange(s_cells)
    step = max(1, GENERATE_CHUNK_ENTRIES // ((1 + ell * (2 * s_cells - 1)) * d))
    for lo in range(0, len(ds), step):
        labels, off = ds.labels[lo:lo + step], ~signal[lo:lo + step]
        # a row's blocks of d: audio noise, then per cell a distractor
        # (absent on the signal cell) and the cell noise
        drawn = np.ones((len(labels), 1 + 2 * ell * s_cells), dtype=bool)
        drawn[:, 1::2] = off.reshape(len(labels), -1)
        blocks = np.empty(drawn.shape + (d,))
        blocks[drawn] = rng_noise.normal(size=(int(drawn.sum()), d))
        ds.audio[lo:lo + step] = audio_means[labels] + spec.noise_sigma * blocks[:, 0]
        cells = blocks[:, 1:].reshape(len(labels), ell, s_cells, 2, d)
        base = visual_dirs[labels]
        base[off] = DISTRACTOR_SCALE * spec.separation * _units(cells[..., 0, :][off])
        ds.visual[lo:lo + step] = base + spec.noise_sigma * cells[..., 1, :]
    return ds


def _generate_xor(spec: GeneratorSpec, b_permutation: Sequence[int] | None) -> FeatureDataset:
    d, ell, s_cells = spec.d, spec.frames, spec.cells
    k = math.isqrt(spec.num_classes)
    perm = list(range(k)) if b_permutation is None else list(b_permutation)
    if sorted(perm) != list(range(k)):
        raise ContractError("b permutation must reorder range(k)")

    rng_dirs = np.random.default_rng(np.random.SeedSequence([spec.seed, 11]))
    audio_dirs = spec.separation * _units(rng_dirs.normal(size=(k, d)))
    visual_dirs = spec.separation * _units(rng_dirs.normal(size=(k, ell, s_cells, d)))

    # rows run class by class and label = a * k + b, so the views index rows by a and (a, b)
    ds = _allocate(spec, [f"a{a}b{b}" for a in range(k) for b in range(k)])
    audio = ds.audio.reshape(k, -1, d)
    visual = ds.visual.reshape(k, k, -1, ell, s_cells, d)
    for i in range(k):
        noise = np.random.default_rng(np.random.SeedSequence([spec.seed, 21, i]))
        audio[i] = audio_dirs[i] + spec.noise_sigma * noise.normal(size=audio[i].shape)
        noise = np.random.default_rng(np.random.SeedSequence([spec.seed, 22, i]))
        visual[:, i] = visual_dirs[perm[i]] + spec.noise_sigma \
            * noise.normal(size=visual[:, i].shape)
    return ds


# --- serialization --------------------------------------------------------
#
# Little-endian: a 28-byte header (magic, version, n, d, frames, cells,
# num_classes), n fixed-size records (sample_id u32, label u32, split u8,
# audio f32[d], visual f32[frames * cells * d]), then a u32 manifest length
# and the manifest as canonical JSON.

HEADER_SIZE = 28
MAX_RECORD = 2 ** 31  # numpy caps a record dtype below 2 GiB


def _record_size(d: int, ell: int, s_cells: int) -> int:
    return 9 + 4 * d + 4 * ell * s_cells * d


def _record_dtype(d: int, ell: int, s_cells: int) -> np.dtype:
    return np.dtype([("sample_id", "<u4"), ("label", "<u4"), ("split", "u1"),
                     ("audio", "<f4", (d,)), ("visual", "<f4", (ell * s_cells * d,))])


def save_dataset(ds: FeatureDataset, path) -> None:
    n = len(ds)
    records = np.empty(n, dtype=_record_dtype(ds.d, ds.frames, ds.cells))
    records["sample_id"] = ds.ids
    records["label"] = ds.labels
    records["split"] = ds.splits
    records["audio"] = ds.audio
    records["visual"] = ds.visual.reshape(n, ds.frames * ds.cells * ds.d)
    manifest = canonical_json(ds.manifest).encode()
    header = MAGIC + struct.pack("<IIIIII", FORMAT_VERSION, n, ds.d, ds.frames,
                                 ds.cells, ds.num_classes)
    write_atomic(path, b"".join([header, records.tobytes(),
                                 struct.pack("<I", len(manifest)), manifest]))


def load_dataset(path) -> FeatureDataset:
    blob = read_input(path, "dataset")
    if blob[:4] != MAGIC:
        raise FormatError("bad dataset magic at offset 0")
    if len(blob) < HEADER_SIZE:
        raise FormatError(f"dataset header truncated at offset {len(blob)}")
    version, n, d, ell, s_cells, num_classes = struct.unpack_from("<IIIIII", blob, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported dataset version {version} at offset 4")
    record = _record_size(d, ell, s_cells)
    if min(d, ell, s_cells) < 1 or record >= MAX_RECORD:
        raise FormatError(f"bad feature shape ({ell}, {s_cells}, {d}) at offset 12")
    whole = min(n, (len(blob) - HEADER_SIZE) // record)
    rec = np.frombuffer(blob, dtype=_record_dtype(d, ell, s_cells), count=whole,
                        offset=HEADER_SIZE)
    ids = rec["sample_id"].astype(np.int64)
    labels = rec["label"].astype(np.int64)
    splits = rec["split"].copy()
    audio = rec["audio"].astype(np.float32)
    visual = rec["visual"].astype(np.float32).reshape(whole, ell, s_cells, d)
    _check_records(ids, labels, splits, audio, visual, num_classes, record)
    offset = HEADER_SIZE + whole * record
    if whole < n:
        raise FormatError(f"record {whole} truncated at offset {offset}")
    if offset + 4 > len(blob):
        raise FormatError(f"manifest length truncated at offset {offset}")
    (manifest_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if offset + manifest_len > len(blob):
        raise FormatError(f"manifest truncated at offset {offset}")
    manifest = read_json(f"of dataset {path} at offset {offset}", FormatError, "manifest",
                         blob[offset:offset + manifest_len])
    if offset + manifest_len != len(blob):
        raise FormatError(f"trailing bytes at offset {offset + manifest_len}")
    return FeatureDataset(audio=audio, visual=visual, labels=labels, ids=ids,
                          splits=splits, num_classes=num_classes, manifest=manifest)


def _check_records(ids, labels, splits, audio, visual, num_classes: int,
                   record: int) -> None:
    """Raise for the first bad record; within a record, checks run in this order."""
    # a stable sort keeps each id's first record ahead of its repeats
    order = np.argsort(ids, kind="stable")
    repeat = ids[order[1:]] == ids[order[:-1]]
    duplicate = np.zeros(len(ids), dtype=bool)
    duplicate[order[1:][repeat]] = True
    # a float64 sum over finite float32 values cannot overflow
    finite = (np.isfinite(audio.sum(axis=1, dtype=np.float64))
              & np.isfinite(visual.sum(axis=(1, 2, 3), dtype=np.float64)))
    checks = (
        (duplicate, lambda i, at: f"duplicate sample_id {ids[i]} at offset {at}"),
        (splits > SPLIT_TEST, lambda i, at: f"bad split tag {splits[i]} at offset {at + 8}"),
        (labels >= num_classes,
         lambda i, at: f"label {labels[i]} out of range at offset {at + 4}"),
        (~finite, lambda i, at: f"non-finite feature in record {i} at offset {at + 9}"),
        # the model L2-normalizes each clip's audio and visual embeddings
        (~audio.any(axis=1), lambda i, at: f"all-zero audio in record {i} at offset {at + 9}"),
        (~visual.any(axis=(1, 2, 3)), lambda i, at:
         f"all-zero visual grid in record {i} at offset {at + 9 + 4 * audio.shape[1]}"),
    )
    firsts = [(hits[0], rank) for rank, (bad, _) in enumerate(checks)
              if (hits := np.flatnonzero(bad)).size]
    if firsts:
        i, rank = min(firsts)
        raise FormatError(checks[rank][1](i, HEADER_SIZE + i * record))
