import json

import numpy as np
import pytest

from avcil import cli
from avcil import datasets as dsets
from avcil.datasets import FeatureDataset, FeatureSample, GeneratorSpec
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


def test_aligned_bookkeeping():
    ds = dsets.generate_synthetic(aligned_spec())
    assert len(ds) == 4 * (5 + 2 + 3)
    assert ds.d == 6 and ds.frames == 2 and ds.cells == 3 and ds.num_classes == 4
    ids = [s.sample_id for s in ds.samples]
    assert ids == list(range(len(ds)))
    for c in range(4):
        assert len(ds.of_class(c, "train")) == 5
        assert len(ds.of_class(c, "val")) == 2
        assert len(ds.of_class(c, "test")) == 3
    s = ds.samples[0]
    assert s.audio.shape == (6,) and s.audio.dtype == np.float64
    assert s.visual.shape == (2, 3, 6)


def test_generation_is_deterministic(tmp_path):
    a, b = tmp_path / "a.avcf", tmp_path / "b.avcf"
    dsets.save_dataset(dsets.generate_synthetic(aligned_spec()), a)
    dsets.save_dataset(dsets.generate_synthetic(aligned_spec()), b)
    assert a.read_bytes() == b.read_bytes()
    dsets.save_dataset(dsets.generate_synthetic(aligned_spec(seed=8)), b)
    assert a.read_bytes() != b.read_bytes()


def test_aligned_cross_modal_correlation():
    ds = dsets.generate_synthetic(aligned_spec(num_classes=6, train_per_class=20))
    audio_mean = np.stack([
        np.mean([s.audio for s in ds.of_class(c, "train")], axis=0) for c in range(6)])
    visual_mean = np.stack([
        np.mean([s.visual.reshape(-1, 6) for s in ds.of_class(c, "train")], axis=(0, 1))
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
    for s, t in zip(plain.samples, permuted.samples):
        assert s.audio.tobytes() == t.audio.tobytes()
    changed = any(s.visual.tobytes() != t.visual.tobytes()
                  for s, t in zip(plain.samples, permuted.samples))
    assert changed


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
        assert np.array_equal(loaded.splits, ds.splits)
        for a, b in zip(ds.samples, loaded.samples):
            assert a.sample_id == b.sample_id and a.label == b.label
            assert np.array_equal(a.audio, b.audio)
            assert np.array_equal(a.visual, b.visual)
        again = tmp_path / f"{spec.mode}2.avcf"
        dsets.save_dataset(loaded, again)
        assert path.read_bytes() == again.read_bytes()


def test_empty_dataset_round_trips(tmp_path):
    ds = FeatureDataset(d=3, frames=1, cells=1, num_classes=0, samples=[],
                        splits=np.empty(0, dtype=np.uint8), manifest={"note": "empty"})
    path = tmp_path / "empty.avcf"
    dsets.save_dataset(ds, path)
    loaded = dsets.load_dataset(path)
    assert len(loaded) == 0 and loaded.manifest == {"note": "empty"}
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
    ds.samples[2].sample_id = ds.samples[0].sample_id
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
    getattr(ds.samples[1], field).flat[-1] = value
    with pytest.raises(FormatError, match="non-finite feature in record 1"):
        _reload(ds, tmp_path / "nonfinite.avcf")


def test_run_on_a_corrupt_dataset_exits_2(tmp_path, capsys):
    ds = _small_dataset()
    ds.samples[3].sample_id = ds.samples[1].sample_id
    path = tmp_path / "dup.avcf"
    dsets.save_dataset(ds, path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "format_version": 1, "name": "dup", "dataset_path": str(path),
        "steps": 1, "classes_per_step": 2, "epochs": 1,
        "output_root": str(tmp_path / "out")}))
    assert cli.main(["run", str(config)]) == 2
    assert "duplicate sample_id" in capsys.readouterr().err


def test_validate_requires_train_and_test_presence():
    sample = FeatureSample(0, 0, np.zeros(2), np.zeros((1, 1, 2)))
    ds = FeatureDataset(d=2, frames=1, cells=1, num_classes=1, samples=[sample],
                        splits=np.array([dsets.SPLIT_TRAIN], dtype=np.uint8))
    with pytest.raises(ContractError, match="missing"):
        ds.validate()


def test_split_dataset_exact_counts_and_determinism():
    ds = dsets.generate_synthetic(aligned_spec(train_per_class=10, val_per_class=0,
                                               test_per_class=2))
    out = dsets.split_dataset(ds, val=3, test=4, seed=1)
    for c in range(out.num_classes):
        assert len(out.of_class(c, "val")) == 3
        assert len(out.of_class(c, "test")) == 4
        assert len(out.of_class(c, "train")) == 5
    again = dsets.split_dataset(ds, val=3, test=4, seed=1)
    assert np.array_equal(out.splits, again.splits)
    other = dsets.split_dataset(ds, val=3, test=4, seed=2)
    assert not np.array_equal(out.splits, other.splits)


def test_split_dataset_fractions():
    ds = dsets.generate_synthetic(aligned_spec(train_per_class=17, val_per_class=2,
                                               test_per_class=1))
    out = dsets.split_dataset(ds, val=0.25, test=0.25, seed=0)
    for c in range(out.num_classes):
        assert len(out.of_class(c, "val")) == 5
        assert len(out.of_class(c, "test")) == 5
        assert len(out.of_class(c, "train")) == 10


def test_split_dataset_rejects_overcommitment():
    ds = dsets.generate_synthetic(aligned_spec())
    with pytest.raises(ContractError):
        dsets.split_dataset(ds, val=0.7, test=0.4, seed=0)
    with pytest.raises(ContractError, match="class"):
        dsets.split_dataset(ds, val=6, test=4, seed=0)


def test_generator_spec_validation():
    with pytest.raises(ContractError):
        aligned_spec(mode="other")
    with pytest.raises(ContractError):
        aligned_spec(train_per_class=0)
    with pytest.raises(ContractError):
        aligned_spec(separation=0.0)
