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
bit-exact; the model widens each batch to float64 when it wraps it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError, FormatError
from .fileio import canonical_json, read_input, read_json, write_atomic

MAGIC = b"AVCF"
FORMAT_VERSION = 1

SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST = 0, 1, 2
_SPLIT_NAMES = {"train": SPLIT_TRAIN, "val": SPLIT_VAL, "test": SPLIT_TEST}

# aligned mode: weight of the shared latent in each visual cell direction,
# and the relative strength of non-signal cells
LATENT_MIX = 0.7
DISTRACTOR_SCALE = 0.3


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

    def validate(self) -> None:
        """Observed classes must appear in both train and test; labels in range."""
        n = len(self.labels)
        if not len(self.splits) == len(self.ids) == len(self.audio) == len(self.visual) == n:
            raise ContractError("one split tag per sample required")
        outside = self.labels[(self.labels < 0) | (self.labels >= self.num_classes)]
        if outside.size:
            raise ContractError(f"label {outside[0]} outside {self.num_classes} classes")

        def has(rows) -> np.ndarray:
            """Per class: whether any of `rows` carries it."""
            return np.bincount(self.labels[rows], minlength=self.num_classes) > 0

        complete = has(self.splits == SPLIT_TRAIN) & has(self.splits == SPLIT_TEST)
        missing = np.flatnonzero(has(slice(None)) & ~complete)
        if missing.size:
            raise ContractError(f"class {missing[0]} missing a train or test sample")


@dataclass(frozen=True)
class GeneratorSpec:
    mode: str
    num_classes: int
    d: int
    frames: int
    cells: int
    train_per_class: int
    test_per_class: int
    val_per_class: int = 0
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
        for name in ("val_per_class", "seed"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be >= 0")
        if self.separation <= 0.0:
            raise ContractError("separation must be positive")
        if self.noise_sigma < 0.0:
            raise ContractError("noise_sigma must be >= 0")
        if self.mode == "xor_pairs" and math.isqrt(self.num_classes) ** 2 != self.num_classes:
            raise ContractError("num_classes must be a square number for xor_pairs")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _allocate(spec: GeneratorSpec, class_names: list[str]) -> FeatureDataset:
    """Labels, ids and split tags of every sample, features still to be written.

    Rows run class by class; within a class, train then val then test.
    """
    counts = (spec.train_per_class, spec.val_per_class, spec.test_per_class)
    per_class = sum(counts)
    n = spec.num_classes * per_class
    tags = np.repeat(np.array([SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST], dtype=np.uint8), counts)
    manifest = {
        "format_version": FORMAT_VERSION,
        "generator": asdict(spec),
        "class_names": class_names,
    }
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
    bytes must not change under it.
    """
    if spec.mode == "aligned":
        ds = _generate_aligned(spec)
    else:
        ds = _generate_xor(spec, _b_permutation)
    ds.validate()
    return ds


def _generate_aligned(spec: GeneratorSpec) -> FeatureDataset:
    d, ell, s_cells = spec.d, spec.frames, spec.cells
    rng_means = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    rng_noise = np.random.default_rng(np.random.SeedSequence([spec.seed, 2]))
    rng_cells = np.random.default_rng(np.random.SeedSequence([spec.seed, 3]))

    audio_means = np.empty((spec.num_classes, d))
    visual_dirs = np.empty((spec.num_classes, ell, s_cells, d))
    for c in range(spec.num_classes):
        latent = _unit(rng_means.normal(size=d))
        audio_means[c] = spec.separation * latent
        for l in range(ell):
            for s in range(s_cells):
                own = _unit(rng_means.normal(size=d))
                visual_dirs[c, l, s] = spec.separation * _unit(
                    LATENT_MIX * latent + (1.0 - LATENT_MIX) * own)

    ds = _allocate(spec, [f"class_{c}" for c in range(spec.num_classes)])
    for row, c in enumerate(ds.labels):
        ds.audio[row] = audio_means[c] + spec.noise_sigma * rng_noise.normal(size=d)
        for l in range(ell):
            signal_cell = int(rng_cells.integers(s_cells))
            for s in range(s_cells):
                if s == signal_cell:
                    base = visual_dirs[c, l, s]
                else:
                    base = DISTRACTOR_SCALE * spec.separation \
                        * _unit(rng_noise.normal(size=d))
                ds.visual[row, l, s] = base + spec.noise_sigma * rng_noise.normal(size=d)
    return ds


def _generate_xor(spec: GeneratorSpec, b_permutation: Sequence[int] | None) -> FeatureDataset:
    d, ell, s_cells = spec.d, spec.frames, spec.cells
    k = math.isqrt(spec.num_classes)
    perm = list(range(k)) if b_permutation is None else list(b_permutation)
    if sorted(perm) != list(range(k)):
        raise ContractError("b permutation must reorder range(k)")

    rng_dirs = np.random.default_rng(np.random.SeedSequence([spec.seed, 11]))
    audio_dirs = np.stack([spec.separation * _unit(rng_dirs.normal(size=d)) for _ in range(k)])
    visual_dirs = np.stack([
        np.stack([
            np.stack([spec.separation * _unit(rng_dirs.normal(size=d)) for _ in range(s_cells)])
            for _ in range(ell)])
        for _ in range(k)])

    audio_streams = [np.random.default_rng(np.random.SeedSequence([spec.seed, 21, a]))
                     for a in range(k)]
    visual_streams = [np.random.default_rng(np.random.SeedSequence([spec.seed, 22, b]))
                      for b in range(k)]

    # label = a * k + b, so rows visit (a, b) in the order of the label
    ds = _allocate(spec, [f"a{a}b{b}" for a in range(k) for b in range(k)])
    for row, label in enumerate(ds.labels):
        a, b = divmod(int(label), k)
        ds.audio[row] = audio_dirs[a] + spec.noise_sigma * audio_streams[a].normal(size=d)
        ds.visual[row] = visual_dirs[perm[b]] + spec.noise_sigma \
            * visual_streams[b].normal(size=(ell, s_cells, d))
    return ds


# --- serialization --------------------------------------------------------
#
# Little-endian: a 28-byte header (magic, version, n, d, frames, cells,
# num_classes), n fixed-size records (sample_id u32, label u32, split u8,
# audio f32[d], visual f32[frames * cells * d]), then a u32 manifest length
# and the manifest as canonical JSON.

HEADER_SIZE = 28


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
    record = 9 + 4 * d + 4 * ell * s_cells * d
    # numpy caps a record dtype below 2 GiB
    if min(d, ell, s_cells) < 1 or record >= 2 ** 31:
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
    )
    firsts = [(hits[0], rank) for rank, (bad, _) in enumerate(checks)
              if (hits := np.flatnonzero(bad)).size]
    if firsts:
        i, rank = min(firsts)
        raise FormatError(checks[rank][1](i, HEADER_SIZE + i * record))
