import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcil import cli
from avcil import datasets as dsets
from avcil.datasets import FeatureDataset, GeneratorSpec
from avcil.errors import ConfigError, ContractError, FormatError


def aligned_spec(**kw):
    base = dict(mode="aligned", num_classes=4, d=6, frames=2, cells=3,
                train_per_class=5, test_per_class=3, seed=7)
    base.update(kw)
    return GeneratorSpec(**base)


def xor_spec(**kw):
    base = dict(mode="xor_pairs", num_classes=9, d=6, frames=2, cells=2,
                train_per_class=4, test_per_class=2, seed=5)
    base.update(kw)
    return GeneratorSpec(**base)


def empty_dataset():
    return FeatureDataset(audio=np.zeros((0, 3), np.float32),
                          visual=np.zeros((0, 1, 1, 3), np.float32),
                          labels=np.zeros(0, dtype=np.int64), ids=np.zeros(0, dtype=np.int64),
                          splits=np.zeros(0, dtype=np.uint8), num_classes=0,
                          manifest={"note": "empty"})


def test_aligned_bookkeeping():
    ds = dsets.generate_synthetic(aligned_spec())
    assert len(ds) == 4 * (5 + 3)
    assert ds.d == 6 and ds.frames == 2 and ds.cells == 3 and ds.num_classes == 4
    assert np.array_equal(ds.ids, np.arange(len(ds)))
    for c in range(4):
        assert len(ds.of_class(c, "train")) == 5
        assert len(ds.of_class(c, "val")) == 0
        assert len(ds.of_class(c, "test")) == 3
    assert ds.audio.shape == (32, 6) and ds.audio.dtype == np.float32
    assert ds.visual.shape == (32, 2, 3, 6) and ds.visual.dtype == np.float32


def test_a_file_may_still_tag_rows_val(tmp_path):
    ds = dsets.generate_synthetic(aligned_spec())
    ds.splits[ds.of_class(1, "train")[:2]] = dsets.SPLIT_VAL
    path = tmp_path / "ds.avcf"
    dsets.save_dataset(ds, path)
    loaded = dsets.load_dataset(path)
    assert np.array_equal(loaded.of_class(1, "val"), ds.of_class(1, "val"))
    assert len(loaded.of_class(1, "val")) == 2 and len(loaded.of_class(1, "train")) == 3


def test_of_class_returns_rows_in_dataset_order():
    ds = dsets.generate_synthetic(aligned_spec())
    rows = ds.of_class(2)
    assert rows.dtype.kind == "i" and np.all(np.diff(rows) > 0)
    assert np.array_equal(rows, np.flatnonzero(ds.labels == 2))
    test = ds.of_class(2, "test")
    assert set(test) <= set(rows)
    assert np.all(ds.splits[test] == dsets.SPLIT_TEST)
    assert ds.of_class(99).size == 0


def test_generation_is_deterministic(tmp_path):
    a, b = tmp_path / "a.avcf", tmp_path / "b.avcf"
    dsets.save_dataset(dsets.generate_synthetic(aligned_spec()), a)
    dsets.save_dataset(dsets.generate_synthetic(aligned_spec()), b)
    assert a.read_bytes() == b.read_bytes()
    dsets.save_dataset(dsets.generate_synthetic(aligned_spec(seed=8)), b)
    assert a.read_bytes() != b.read_bytes()


_DESK = dict(mode="aligned", num_classes=16, d=16, frames=4, cells=4, train_per_class=12,
             test_per_class=6, separation=4.0, noise_sigma=0.8, seed=0)
_SMALL = dict(mode="aligned", num_classes=4, d=6, frames=2, cells=3, train_per_class=5,
              test_per_class=3, seed=7)
_XOR = dict(mode="xor_pairs", num_classes=9, d=6, frames=2, cells=2, train_per_class=4,
            test_per_class=2, seed=5)

# sha256 of the `save_dataset` bytes, computed before the generator drew its
# streams whole; a change that moves them must update these and say so
PINNED_DATASETS = {
    "desk": (_DESK, None,
             "f00b7ef4c7575d4ed75709a8ca875c6eb53fc49107ff3c0cd614d9759731ce83"),
    "attention_large": (dict(_DESK, num_classes=8, d=128, frames=8, cells=49), None,
                        "8cf99a4f2010c923a76105ad2f656b34f1450425316946c7da01916028d19a60"),
    "many_tasks": (dict(_DESK, num_classes=100, train_per_class=20, test_per_class=20), None,
                   "3e4617281a3d76bb480b7c4c48df88e5977c70aa2aa06b89d743d1c1b7c8c2c0"),
    "d1": (dict(_SMALL, d=1), None,
           "ee3d225601d09053fc94de184a415171c186d89a1d6e4fbdd04a52d48dd57750"),
    "cells1": (dict(_SMALL, cells=1), None,
               "400c198b22956bb8a4c1ed354cda5196cdb6c05083493501c7f383d2ae672fc0"),
    "frames1": (dict(_SMALL, frames=1), None,
                "b85943934c42f784fc48259a78ce5117fa81a04ec00e690960805fd640817cbd"),
    "noiseless": (dict(_SMALL, noise_sigma=0.0), None,
                  "ec7c65bf9452eabcca827003d829af8ed64b6a3408577a94130bed3419d92bdc"),
    "xor": (_XOR, None,
            "e0357f79715571f2c70f3f84735bdf17e94fae29f110eab29d9e43dea2b430ef"),
    "xor_permuted": (_XOR, [2, 0, 1],
                     "4690d0864e3e30f215f6d53558307e890d81aa8616430ab35210fdae11adb773"),
}


def _dataset_bytes(tmp_path, spec: dict, permutation=None) -> bytes:
    path = tmp_path / "pinned.avcf"
    dsets.save_dataset(dsets.generate_synthetic(GeneratorSpec(**spec),
                                                _b_permutation=permutation), path)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(PINNED_DATASETS))
def test_generated_bytes_match_their_pinned_digest(tmp_path, name):
    spec, permutation, digest = PINNED_DATASETS[name]
    assert hashlib.sha256(_dataset_bytes(tmp_path, spec, permutation)).hexdigest() == digest


@pytest.mark.parametrize("name", ["desk", "d1", "cells1", "frames1", "noiseless"])
def test_noise_chunk_size_changes_no_byte(tmp_path, monkeypatch, name):
    spec = PINNED_DATASETS[name][0]
    default = _dataset_bytes(tmp_path, spec)
    for entries in (1, 2 ** 62):  # one row per chunk, and the whole dataset in one
        monkeypatch.setattr(dsets, "GENERATE_CHUNK_ENTRIES", entries)
        assert _dataset_bytes(tmp_path, spec) == default


def test_generator_spec_rejects_a_record_of_2_gib():
    # 9 + 4 * d + 4 * frames * cells * d bytes, the limit `load_dataset` applies
    with pytest.raises(ContractError, match=r"^d, frames and cells give a 2147483649-byte"):
        aligned_spec(d=1, frames=1, cells=2 ** 29 - 3)
    assert aligned_spec(d=1, frames=1, cells=2 ** 29 - 4).cells == 2 ** 29 - 4


def test_generation_rejects_a_dataset_over_physical_memory(monkeypatch):
    # the spec is valid wherever it is read; generating it checks this machine's
    # memory before it allocates anything
    spec = aligned_spec(num_classes=100, d=16384, frames=64, cells=64, train_per_class=20,
                        test_per_class=20)
    with pytest.raises(ConfigError, match=r"^num_classes, train_per_class, test_per_class, "
                                          r"d, frames and cells give 1074003968000 bytes"):
        dsets.generate_synthetic(spec)
    # 32 rows of 6 audio and 2 * 3 * 6 visual float32 entries: 5376 bytes
    monkeypatch.setattr(dsets.os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 5376}.get)
    assert len(dsets.generate_synthetic(aligned_spec())) == 32
    monkeypatch.setattr(dsets.os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 5375}.get)
    with pytest.raises(ConfigError, match="5376 bytes of features, over the 5375 bytes of memory"):
        dsets.generate_synthetic(aligned_spec())


def test_aligned_cross_modal_correlation():
    ds = dsets.generate_synthetic(aligned_spec(num_classes=6, train_per_class=20))
    audio_mean = np.stack([ds.audio[ds.of_class(c, "train")].mean(axis=0)
                           for c in range(6)])
    visual_mean = np.stack([ds.visual[ds.of_class(c, "train")].reshape(-1, 6).mean(axis=0)
                            for c in range(6)])
    audio_mean /= np.linalg.norm(audio_mean, axis=1, keepdims=True)
    visual_mean /= np.linalg.norm(visual_mean, axis=1, keepdims=True)
    cos = audio_mean @ visual_mean.T
    same = np.diag(cos).mean()
    cross = cos[~np.eye(6, dtype=bool)].mean()
    assert same > cross + 0.2


def test_xor_audio_ignores_b(tmp_path):
    plain = dsets.generate_synthetic(xor_spec())
    permuted = dsets.generate_synthetic(xor_spec(), _b_permutation=[2, 0, 1])
    assert plain.audio.tobytes() == permuted.audio.tobytes()
    assert plain.visual.tobytes() != permuted.visual.tobytes()


def test_xor_class_structure():
    ds = dsets.generate_synthetic(xor_spec())
    assert ds.num_classes == 9
    assert ds.manifest["class_names"][:4] == ["a0b0", "a0b1", "a0b2", "a1b0"]
    with pytest.raises(ContractError):
        xor_spec(num_classes=8)


def test_round_trip_is_bit_exact(tmp_path):
    for spec in (aligned_spec(), xor_spec()):
        ds = dsets.generate_synthetic(spec)
        path = tmp_path / f"{spec.mode}.avcf"
        dsets.save_dataset(ds, path)
        loaded = dsets.load_dataset(path)
        assert loaded.manifest == ds.manifest
        for name in ("audio", "visual", "labels", "ids", "splits"):
            assert np.array_equal(getattr(loaded, name), getattr(ds, name)), name
        again = tmp_path / f"{spec.mode}2.avcf"
        dsets.save_dataset(loaded, again)
        assert path.read_bytes() == again.read_bytes()


def test_empty_dataset_round_trips(tmp_path):
    ds = empty_dataset()
    path = tmp_path / "empty.avcf"
    dsets.save_dataset(ds, path)
    loaded = dsets.load_dataset(path)
    assert len(loaded) == 0 and loaded.manifest == {"note": "empty"}
    assert (loaded.d, loaded.frames, loaded.cells) == (3, 1, 1)


def test_load_rejects_corruption(tmp_path):
    ds = dsets.generate_synthetic(aligned_spec(num_classes=2, train_per_class=1,
                                               test_per_class=1))
    path = tmp_path / "ds.avcf"
    dsets.save_dataset(ds, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "m.avcf"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError, match="offset 0"):
        dsets.load_dataset(bad_magic)

    bad_version = tmp_path / "v.avcf"
    bad_version.write_bytes(raw[:4] + b"\x09\x00\x00\x00" + raw[8:])
    with pytest.raises(FormatError, match="version"):
        dsets.load_dataset(bad_version)

    truncated = tmp_path / "t.avcf"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError, match="offset"):
        dsets.load_dataset(truncated)


def _small_dataset():
    return dsets.generate_synthetic(aligned_spec(num_classes=2, train_per_class=1,
                                                 test_per_class=1))


def _reload(ds, path):
    dsets.save_dataset(ds, path)
    return dsets.load_dataset(path)


def test_load_rejects_duplicate_sample_ids(tmp_path):
    ds = _small_dataset()
    ds.ids[2] = ds.ids[0]
    with pytest.raises(FormatError, match="duplicate sample_id 0"):
        _reload(ds, tmp_path / "dup.avcf")


def test_load_rejects_a_manifest_that_is_not_an_object(tmp_path):
    ds = _small_dataset()
    ds.manifest = ["not", "an", "object"]
    with pytest.raises(FormatError, match="manifest .*not a JSON object"):
        _reload(ds, tmp_path / "manifest.avcf")


@pytest.mark.parametrize("field", ["audio", "visual"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_rejects_non_finite_features(tmp_path, field, value):
    ds = _small_dataset()
    getattr(ds, field)[1].flat[-1] = value
    with pytest.raises(FormatError, match="non-finite feature in record 1"):
        _reload(ds, tmp_path / "nonfinite.avcf")


@pytest.mark.parametrize("field,at", [("audio", 9), ("visual grid", 9 + 4 * 6)])
def test_load_rejects_an_all_zero_row(tmp_path, field, at):
    # the model L2-normalizes each clip's audio and visual embeddings
    ds = _small_dataset()
    getattr(ds, field.split()[0])[1] = -0.0      # a negative zero has no norm either
    record = 9 + 4 * ds.d + 4 * ds.frames * ds.cells * ds.d
    with pytest.raises(FormatError, match=f"^all-zero {field} in record 1 at offset "
                                          f"{28 + record + at}$"):
        _reload(ds, tmp_path / "zero.avcf")


def test_load_accepts_a_row_with_one_nonzero_entry(tmp_path):
    ds = _small_dataset()
    ds.audio[1] = 0.0
    ds.audio[1, -1] = np.finfo(np.float32).smallest_subnormal
    ds.visual[1] = 0.0
    ds.visual[1].flat[0] = -1.0
    loaded = _reload(ds, tmp_path / "sparse.avcf")
    assert np.array_equal(loaded.audio, ds.audio) and np.array_equal(loaded.visual, ds.visual)


def test_load_accepts_large_finite_features(tmp_path):
    ds = _small_dataset()
    big = np.finfo(np.float32).max
    ds.audio[1] = big           # a float32 row sum would overflow to inf
    ds.visual[1] = -big
    loaded = _reload(ds, tmp_path / "big.avcf")
    assert np.array_equal(loaded.audio, ds.audio) and np.array_equal(loaded.visual, ds.visual)


def test_run_on_a_corrupt_dataset_exits_2(tmp_path, capsys):
    ds = _small_dataset()
    ds.ids[3] = ds.ids[1]
    path = tmp_path / "dup.avcf"
    dsets.save_dataset(ds, path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "format_version": 1, "name": "dup", "dataset_path": str(path),
        "steps": 1, "classes_per_step": 2, "epochs": 1,
        "output_root": str(tmp_path / "out")}))
    assert cli.main(["run", str(config)]) == 2
    assert "duplicate sample_id" in capsys.readouterr().err


def test_run_on_a_missing_dataset_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.avcf"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "format_version": 1, "name": "missing", "dataset_path": str(missing),
        "steps": 1, "classes_per_step": 2, "epochs": 1,
        "output_root": str(tmp_path / "out")}))
    assert cli.main(["run", str(config)]) == 2
    assert f"cannot read dataset {missing}" in capsys.readouterr().err


def test_too_deep_manifest_raises_format_error_and_run_exits_2(tmp_path, capsys):
    ds = dsets.generate_synthetic(aligned_spec())
    ds.manifest = {}
    path = tmp_path / "deep.avcf"
    dsets.save_dataset(ds, path)
    deep = b"[" * 100000 + b"]" * 100000
    # swap the 2-byte manifest "{}" and its length for the deep one
    path.write_bytes(path.read_bytes()[:-6] + struct.pack("<I", len(deep)) + deep)
    with pytest.raises(FormatError, match="manifest .*not valid JSON"):
        dsets.load_dataset(path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "format_version": 1, "name": "deep", "dataset_path": str(path),
        "steps": 1, "classes_per_step": 2, "epochs": 1,
        "output_root": str(tmp_path / "out")}))
    assert cli.main(["run", str(config)]) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_reports_the_first_bad_record(tmp_path):
    ds = _small_dataset()
    ds.labels[3] = 7                 # record 3: label out of range
    ds.ids[2] = ds.ids[0]            # record 2: duplicate id, reported first
    record = 9 + 4 * ds.d + 4 * ds.frames * ds.cells * ds.d
    with pytest.raises(FormatError, match=f"duplicate sample_id 0 at offset {28 + 2 * record}$"):
        _reload(ds, tmp_path / "two.avcf")
    ds.ids[2] = 2
    with pytest.raises(FormatError, match=f"label 7 out of range at offset {28 + 3 * record + 4}$"):
        _reload(ds, tmp_path / "one.avcf")
    path = tmp_path / "cut.avcf"
    dsets.save_dataset(_small_dataset(), path)
    path.write_bytes(path.read_bytes()[:28 + 2 * record + 5])
    with pytest.raises(FormatError, match=f"record 2 truncated at offset {28 + 2 * record}$"):
        dsets.load_dataset(path)


# (d, frames, cells) as the header stores them; the last needs a 16-GiB record
@pytest.mark.parametrize("shape", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 2 ** 31, 2)])
def test_load_rejects_a_bad_feature_shape(tmp_path, shape):
    path = tmp_path / "shape.avcf"
    dsets.save_dataset(empty_dataset(), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<III", raw, 12, *shape)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="bad feature shape .* at offset 12"):
        dsets.load_dataset(path)


def reference_decode(blob: bytes):
    """The documented layout read one record at a time with struct alone."""
    magic, version, n, d, ell, s_cells, _ = struct.unpack_from("<4sIIIIII", blob, 0)
    assert magic == b"AVCF" and version == 1
    v = ell * s_cells * d
    ids, labels, splits, audio, visual = [], [], [], [], []
    offset = 28
    for _ in range(n):
        sample_id, label, tag = struct.unpack_from("<IIB", blob, offset)
        audio.append(struct.unpack_from(f"<{d}f", blob, offset + 9))
        visual.append(struct.unpack_from(f"<{v}f", blob, offset + 9 + 4 * d))
        ids.append(sample_id)
        labels.append(label)
        splits.append(tag)
        offset += 9 + 4 * d + 4 * v
    return {"ids": np.array(ids, dtype=np.int64),
            "labels": np.array(labels, dtype=np.int64),
            "splits": np.array(splits, dtype=np.uint8),
            "audio": np.array(audio, dtype=np.float32).reshape(n, d),
            "visual": np.array(visual, dtype=np.float32).reshape(n, ell, s_cells, d)}


@pytest.mark.parametrize("make", [lambda: dsets.generate_synthetic(aligned_spec()),
                                  lambda: dsets.generate_synthetic(xor_spec()),
                                  empty_dataset], ids=["aligned", "xor_pairs", "empty"])
def test_loader_matches_a_reference_decoder_bitwise(tmp_path, make):
    path = tmp_path / "ds.avcf"
    dsets.save_dataset(make(), path)
    loaded = dsets.load_dataset(path)
    for name, expected in reference_decode(path.read_bytes()).items():
        got = getattr(loaded, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name


def _fuzz_source() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.avcf"
        dsets.save_dataset(dsets.generate_synthetic(aligned_spec(
            num_classes=2, d=2, frames=1, cells=2, train_per_class=2,
            test_per_class=1)), path)
        return path.read_bytes()


FUZZ_SOURCE = _fuzz_source()


# half the flips land in the 28-byte header, where the shape and counts live
FUZZ_POSITIONS = st.one_of(st.integers(0, 27), st.integers(0, len(FUZZ_SOURCE) - 1))


@settings(max_examples=500, deadline=None)
@given(flips=st.lists(st.tuples(FUZZ_POSITIONS, st.integers(1, 255)), max_size=4),
       keep=st.none() | st.integers(0, len(FUZZ_SOURCE)))
def test_corrupted_dataset_loads_or_raises_format_error(flips, keep):
    blob = bytearray(FUZZ_SOURCE)
    for pos, mask in flips:
        blob[pos] ^= mask
    if keep is not None:
        del blob[keep:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.avcf"
        path.write_bytes(bytes(blob))
        try:
            ds = dsets.load_dataset(path)
        except FormatError:
            return
    n = len(ds)
    assert ds.audio.shape == (n, ds.d) and ds.visual.shape == (n, ds.frames, ds.cells, ds.d)
    assert len(ds.ids) == len(ds.splits) == n
    assert np.isfinite(ds.audio).all() and np.isfinite(ds.visual).all()


def test_generator_spec_validation():
    with pytest.raises(ContractError):
        aligned_spec(mode="other")
    with pytest.raises(ContractError):
        aligned_spec(train_per_class=0)
    with pytest.raises(ContractError):
        aligned_spec(separation=0.0)
