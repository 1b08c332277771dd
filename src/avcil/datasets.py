"""Synthetic audio-visual feature corpora and their on-disk format.

Two generator modes cover the behaviors the training engine must exhibit:

* `aligned` draws per-class latents shared between modalities, so same-class
  audio and visual features correlate across modalities. Within each frame,
  one randomly placed cell carries the class signal at full strength while
  the remaining cells carry weak random directions, which is what makes
  audio-guided spatial attention (and preserving it later) worth anything.
* `xor_pairs` factors the label into (a, b) with `a` present only in audio
  and `b` only in visual, so no single modality can beat chance-per-factor.

Features are float32 on disk and widened to float64 in memory; the generator
quantizes to float32 up front so save/load round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError, FormatError
from .fileio import write_atomic

MAGIC = b"AVCF"
FORMAT_VERSION = 1

SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST = 0, 1, 2
_SPLIT_NAMES = {"train": SPLIT_TRAIN, "val": SPLIT_VAL, "test": SPLIT_TEST}

# aligned mode: weight of the shared latent in each visual cell direction,
# and the relative strength of non-signal cells
LATENT_MIX = 0.7
DISTRACTOR_SCALE = 0.3


@dataclass
class FeatureSample:
    sample_id: int
    label: int
    audio: np.ndarray
    visual: np.ndarray


@dataclass
class FeatureDataset:
    d: int
    frames: int
    cells: int
    num_classes: int
    samples: list[FeatureSample]
    splits: np.ndarray
    manifest: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.samples)

    def by_split(self, split: str) -> list[FeatureSample]:
        tag = _SPLIT_NAMES[split]
        return [s for s, t in zip(self.samples, self.splits) if t == tag]

    def of_class(self, label: int, split: str | None = None) -> list[FeatureSample]:
        if split is None:
            return [s for s in self.samples if s.label == label]
        tag = _SPLIT_NAMES[split]
        return [s for s, t in zip(self.samples, self.splits)
                if t == tag and s.label == label]

    def validate(self) -> None:
        """Observed classes must appear in both train and test; labels in range."""
        if len(self.splits) != len(self.samples):
            raise ContractError("one split tag per sample required")
        seen: dict[int, set[int]] = {}
        for s, tag in zip(self.samples, self.splits):
            if not 0 <= s.label < self.num_classes:
                raise ContractError(f"label {s.label} outside {self.num_classes} classes")
            seen.setdefault(s.label, set()).add(int(tag))
        for label, tags in sorted(seen.items()):
            if SPLIT_TRAIN not in tags or SPLIT_TEST not in tags:
                raise ContractError(f"class {label} missing a train or test sample")


@dataclass(frozen=True)
class GeneratorSpec:
    mode: str
    num_classes: int
    d: int
    frames: int
    cells: int
    train_per_class: int
    val_per_class: int = 0
    test_per_class: int = 0
    separation: float = 4.0
    noise_sigma: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("aligned", "xor_pairs"):
            raise ContractError(f"unknown generator mode {self.mode!r}")
        if min(self.num_classes, self.d, self.frames, self.cells) < 1:
            raise ContractError("num_classes, d, frames and cells must be positive")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ContractError("need at least one train and one test sample per class")
        if self.val_per_class < 0:
            raise ContractError("val_per_class cannot be negative")
        if self.noise_sigma < 0.0 or self.separation <= 0.0:
            raise ContractError("separation must be positive and noise non-negative")
        if self.mode == "xor_pairs" and math.isqrt(self.num_classes) ** 2 != self.num_classes:
            raise ContractError("xor_pairs needs a square number of classes")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _f32(v: np.ndarray) -> np.ndarray:
    return v.astype(np.float32).astype(np.float64)


def _split_plan(spec: GeneratorSpec):
    return ((SPLIT_TRAIN, spec.train_per_class),
            (SPLIT_VAL, spec.val_per_class),
            (SPLIT_TEST, spec.test_per_class))


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

    samples: list[FeatureSample] = []
    splits: list[int] = []
    sample_id = 0
    for c in range(spec.num_classes):
        for tag, count in _split_plan(spec):
            for _ in range(count):
                audio = audio_means[c] + spec.noise_sigma * rng_noise.normal(size=d)
                visual = np.empty((ell, s_cells, d))
                for l in range(ell):
                    signal_cell = int(rng_cells.integers(s_cells))
                    for s in range(s_cells):
                        if s == signal_cell:
                            base = visual_dirs[c, l, s]
                        else:
                            base = DISTRACTOR_SCALE * spec.separation \
                                * _unit(rng_noise.normal(size=d))
                        visual[l, s] = base + spec.noise_sigma * rng_noise.normal(size=d)
                samples.append(FeatureSample(sample_id, c, _f32(audio), _f32(visual)))
                splits.append(tag)
                sample_id += 1

    manifest = {
        "format_version": FORMAT_VERSION,
        "generator": asdict(spec),
        "class_names": [f"class_{c}" for c in range(spec.num_classes)],
    }
    return FeatureDataset(d=d, frames=ell, cells=s_cells, num_classes=spec.num_classes,
                          samples=samples, splits=np.array(splits, dtype=np.uint8),
                          manifest=manifest)


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

    samples: list[FeatureSample] = []
    splits: list[int] = []
    sample_id = 0
    for a in range(k):
        for b in range(k):
            label = a * k + b
            for tag, count in _split_plan(spec):
                for _ in range(count):
                    audio = audio_dirs[a] + spec.noise_sigma * audio_streams[a].normal(size=d)
                    visual = visual_dirs[perm[b]] \
                        + spec.noise_sigma * visual_streams[b].normal(size=(ell, s_cells, d))
                    samples.append(FeatureSample(sample_id, label, _f32(audio), _f32(visual)))
                    splits.append(tag)
                    sample_id += 1

    manifest = {
        "format_version": FORMAT_VERSION,
        "generator": asdict(spec),
        "class_names": [f"a{a}b{b}" for a in range(k) for b in range(k)],
    }
    return FeatureDataset(d=d, frames=ell, cells=s_cells, num_classes=spec.num_classes,
                          samples=samples, splits=np.array(splits, dtype=np.uint8),
                          manifest=manifest)


# --- serialization --------------------------------------------------------


def save_dataset(ds: FeatureDataset, path) -> None:
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<IIIIII", FORMAT_VERSION, len(ds.samples), ds.d,
                        ds.frames, ds.cells, ds.num_classes)
    for sample, tag in zip(ds.samples, ds.splits):
        blob += struct.pack("<IIB", sample.sample_id, sample.label, int(tag))
        blob += np.ascontiguousarray(sample.audio, dtype="<f4").tobytes()
        blob += np.ascontiguousarray(sample.visual, dtype="<f4").tobytes()
    manifest = json.dumps(ds.manifest, sort_keys=True, separators=(",", ":")).encode()
    blob += struct.pack("<I", len(manifest))
    blob += manifest
    write_atomic(path, bytes(blob))


def load_dataset(path) -> FeatureDataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise FormatError("bad dataset magic at offset 0")
    if len(blob) < 28:
        raise FormatError(f"dataset header truncated at offset {len(blob)}")
    version, n, d, ell, s_cells, num_classes = struct.unpack_from("<IIIIII", blob, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported dataset version {version} at offset 4")
    record = 9 + 4 * d + 4 * ell * s_cells * d
    offset = 28
    samples: list[FeatureSample] = []
    splits = np.empty(n, dtype=np.uint8)
    seen_ids: set[int] = set()
    for i in range(n):
        if offset + record > len(blob):
            raise FormatError(f"record {i} truncated at offset {offset}")
        sample_id, label, tag = struct.unpack_from("<IIB", blob, offset)
        if sample_id in seen_ids:
            raise FormatError(f"duplicate sample_id {sample_id} at offset {offset}")
        seen_ids.add(sample_id)
        if tag not in (SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST):
            raise FormatError(f"bad split tag {tag} at offset {offset + 8}")
        if label >= num_classes:
            raise FormatError(f"label {label} out of range at offset {offset + 4}")
        audio = np.frombuffer(blob, dtype="<f4", count=d, offset=offset + 9)
        visual = np.frombuffer(blob, dtype="<f4", count=ell * s_cells * d,
                               offset=offset + 9 + 4 * d)
        if not (np.isfinite(audio).all() and np.isfinite(visual).all()):
            raise FormatError(f"non-finite feature in record {i} at offset {offset + 9}")
        samples.append(FeatureSample(
            sample_id, label,
            audio.astype(np.float64),
            visual.astype(np.float64).reshape(ell, s_cells, d)))
        splits[i] = tag
        offset += record
    if offset + 4 > len(blob):
        raise FormatError(f"manifest length truncated at offset {offset}")
    (manifest_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if offset + manifest_len > len(blob):
        raise FormatError(f"manifest truncated at offset {offset}")
    try:
        manifest = json.loads(blob[offset:offset + manifest_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"manifest unreadable at offset {offset}: {e}") from e
    if not isinstance(manifest, dict):
        raise FormatError(f"manifest at offset {offset} is not a JSON object")
    if offset + manifest_len != len(blob):
        raise FormatError(f"trailing bytes at offset {offset + manifest_len}")
    return FeatureDataset(d=d, frames=ell, cells=s_cells, num_classes=num_classes,
                          samples=samples, splits=splits, manifest=manifest)


def split_dataset(ds: FeatureDataset, val: float | int, test: float | int,
                  seed: int) -> FeatureDataset:
    """Re-tag splits stratified by class; remaining samples become train.

    `val` / `test` are absolute per-class counts when int, fractions of each
    class's count when float.
    """
    if isinstance(val, float) and isinstance(test, float) and val + test > 1.0:
        raise ContractError("val and test fractions sum over 1")
    splits = np.empty(len(ds.samples), dtype=np.uint8)
    index_of = {id(s): i for i, s in enumerate(ds.samples)}
    for label in range(ds.num_classes):
        members = ds.of_class(label)
        if not members:
            continue
        n = len(members)
        n_val = int(val) if isinstance(val, int) else int(val * n)
        n_test = int(test) if isinstance(test, int) else int(test * n)
        if n_val + n_test >= n:
            raise ContractError(
                f"class {label}: {n_val} val + {n_test} test leaves no train sample of {n}")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 31, label]))
        order = rng.permutation(n)
        for pos, j in enumerate(order):
            i = index_of[id(members[j])]
            if pos < n_val:
                splits[i] = SPLIT_VAL
            elif pos < n_val + n_test:
                splits[i] = SPLIT_TEST
            else:
                splits[i] = SPLIT_TRAIN
    out = FeatureDataset(d=ds.d, frames=ds.frames, cells=ds.cells,
                         num_classes=ds.num_classes, samples=ds.samples,
                         splits=splits, manifest=dict(ds.manifest))
    out.manifest["resplit"] = {"val": val, "test": test, "seed": seed}
    out.validate()
    return out
