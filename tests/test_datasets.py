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
from avcil.errors import ContractError, FormatError


def aligned_spec(**kw):
    base = dict(mode="aligned", num_classes=4, d=6, frames=2, cells=3,
                train_per_class=5, val_per_class=2, test_per_class=3, seed=7)
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
    assert len(ds) == 4 * (5 + 2 + 3)
    assert ds.d == 6 and ds.frames == 2 and ds.cells == 3 and ds.num_classes == 4
    assert np.array_equal(ds.ids, np.arange(len(ds)))
    for c in range(4):
        assert len(ds.of_class(c, "train")) == 5
        assert len(ds.of_class(c, "val")) == 2
        assert len(ds.of_class(c, "test")) == 3
    assert ds.audio.shape == (40, 6) and ds.audio.dtype == np.float32
    assert ds.visual.shape == (40, 2, 3, 6) and ds.visual.dtype == np.float32


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
    loaded.validate()


def test_load_rejects_corruption(tmp_path):
    ds = dsets.generate_synthetic(aligned_spec(num_classes=2, train_per_class=1,
                                               val_per_class=0, test_per_class=1))
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
                                                 val_per_class=0, test_per_class=1))


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
            val_per_class=1, test_per_class=1)), path)
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


def test_validate_requires_train_and_test_presence():
    ds = FeatureDataset(audio=np.zeros((1, 2), np.float32),
                        visual=np.zeros((1, 1, 1, 2), np.float32),
                        labels=np.zeros(1, dtype=np.int64), ids=np.zeros(1, dtype=np.int64),
                        splits=np.array([dsets.SPLIT_TRAIN], dtype=np.uint8), num_classes=1)
    with pytest.raises(ContractError, match="missing"):
        ds.validate()


def test_generator_spec_validation():
    with pytest.raises(ContractError):
        aligned_spec(mode="other")
    with pytest.raises(ContractError):
        aligned_spec(train_per_class=0)
    with pytest.raises(ContractError):
        aligned_spec(separation=0.0)
