import csv
import dataclasses
import hashlib
import json
import os
import re
import struct
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avcil.diffmath as dm
import avcil.model as mdl
import avcil.protocol as proto
from avcil import cli, harness
from avcil import datasets as dsets
from avcil.baselines import STRATEGY_TAGS, Strategy
from avcil.datasets import GeneratorSpec, load_dataset
from avcil.errors import ConfigError, TrainingDiverged
from avcil.metrics import average_forgetting, mean_accuracy
from avcil.objectives import LossWeights


def base_config(tmp_path, **kw):
    cfg = {
        "format_version": 1,
        "name": "t",
        "dataset": {"mode": "aligned", "num_classes": 4, "d": 6, "frames": 2,
                     "cells": 3, "train_per_class": 5, "test_per_class": 3,
                     "seed": 1},
        "steps": 2, "classes_per_step": 2,
        "strategy": "avcil", "modality": "audiovisual",
        "epochs": 2, "batch_size": 8, "lr": 0.003, "memory_capacity": 8,
        "seeds": [0, 1],
        "output_root": str(tmp_path / "out"),
    }
    cfg.update(kw)
    return cfg


def write_config(tmp_path, **kw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(tmp_path, **kw)))
    return path


# --- config parsing -------------------------------------------------------

def test_parse_fills_defaults(tmp_path):
    raw = base_config(tmp_path)
    for key in ("strategy", "modality", "epochs", "batch_size", "lr",
                "memory_capacity", "seeds"):
        del raw[key]
    cfg = harness.parse_config(raw)
    assert cfg.train.strategy == "avcil"
    assert cfg.train.epochs == 200
    assert cfg.train.memory_capacity == 340
    assert cfg.seeds == (0,)


@pytest.mark.parametrize("mangle,needle", [
    (lambda c: c.pop("name"), "name"),
    (lambda c: c.pop("steps"), "steps"),
    (lambda c: c.update(format_version=9), "format_version"),
    (lambda c: c.pop("dataset"), "exactly one"),
    (lambda c: c.update(dataset_path="x.avcf"), "exactly one"),
    (lambda c: c.update(epochs="many"), "epochs"),
    (lambda c: c.update(epochs=True), "epochs"),
    (lambda c: c.update(seeds=[1, 1]), "seeds"),
    (lambda c: c.update(seeds=[]), "seeds"),
    (lambda c: c.update(name="a/b"), "name"),
    (lambda c: c.update(name=".."), "name"),
    (lambda c: c.update(weights={"lambda_i": -1}), "weights"),
    (lambda c: c.update(dataset={"mode": "nope"}), "dataset"),
    (lambda c: c.update(seed=3), "unknown field seed"),
    (lambda c: c.update(train={}), "unknown field train"),
    (lambda c: c.update(weights={"lambda": 1.0}), "unknown field weights.lambda"),
])
def test_parse_rejects_bad_fields(tmp_path, mangle, needle):
    raw = base_config(tmp_path)
    mangle(raw)
    with pytest.raises(ConfigError, match=needle):
        harness.parse_config(raw)


def _json_values():
    scalars = (st.none() | st.booleans() | st.integers() | st.text(max_size=5)
               | st.floats() | st.sampled_from([0, -1, -0.5, 1e999, 2 ** 1100]))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                        max_leaves=5)


def _field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


TOP_LEVEL_KEYS = sorted(set(base_config(Path("out"))) | set(_field_names(proto.TrainConfig))
                        | set(_field_names(harness.RunConfig)) | {"weights", "epoch"})


@settings(max_examples=300, deadline=None)
@given(place=st.one_of(
           st.tuples(st.none(), st.sampled_from(TOP_LEVEL_KEYS) | st.text(max_size=8)),
           st.tuples(st.just("dataset"), st.sampled_from(_field_names(GeneratorSpec) + ["bogus"])),
           st.tuples(st.just("weights"), st.sampled_from(_field_names(LossWeights) + ["bogus"]))),
       value=_json_values())
def test_parse_returns_or_raises_config_error_for_any_field_value(place, value):
    section, name = place
    raw = base_config(Path("out"))
    target = raw.setdefault(section, {}) if section else raw
    target[name] = value
    try:
        harness.parse_config(raw)
    except ConfigError:
        pass


@pytest.mark.parametrize("extra", [
    {},
    {"weights": {"lambda_i": 0, "tau": 0.2, "normalize": False}, "use_vad": False,
     "modality": "audio", "seeds": [3, 1]},
])
def test_config_echo_parses_back_to_the_same_config(tmp_path, extra):
    cfg = harness.parse_config(base_config(tmp_path, **extra))
    again = harness.parse_config({**harness.config_echo(cfg), "format_version": 1})
    assert (again.train, again.dataset, again.seeds) == (cfg.train, cfg.dataset, cfg.seeds)
    raw = base_config(tmp_path, dataset_path="data.avcf")
    del raw["dataset"]
    cfg = harness.parse_config(raw)
    again = harness.parse_config({**harness.config_echo(cfg), "format_version": 1})
    assert (again.train, again.dataset_path, again.seeds) == \
        (cfg.train, cfg.dataset_path, cfg.seeds)


def test_parse_widens_ints_to_float(tmp_path):
    cfg = harness.parse_config(base_config(tmp_path, lr=1, weights={"tau": 1}))
    assert type(cfg.train.lr) is float and type(cfg.train.weights.tau) is float


def _readme_config_fields():
    """Section label -> field names, from the README's "Config fields" list."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Config fields", 1)[1].split("\n## ", 1)[0]
    fields = {}
    for item in section.split("\n- ")[1:]:
        label, _, rest = item.split("\n\n", 1)[0].partition(":")
        fields[label.strip("`")] = set(re.findall(r"`([a-z_]+)`", rest))
    return fields


def test_readme_lists_exactly_the_config_fields_the_parser_accepts():
    listed = _readme_config_fields()
    top = ({"format_version"} | set(_field_names(harness.RunConfig))
           | set(_field_names(proto.TrainConfig))) - {"train", "seed"}
    assert listed == {
        "top level": top,
        "weights": set(_field_names(LossWeights)),
        "dataset": set(_field_names(GeneratorSpec)),
    }
    # and the parser takes each of them: a value of the wrong type is a type error
    for section, names in listed.items():
        for name in names:
            raw = base_config(Path("out"))
            target = raw if section == "top level" else raw.setdefault(section, {})
            target[name] = object()
            with pytest.raises(ConfigError, match="must be"):
                harness.parse_config(raw)


def test_load_config_reports_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        harness.load_config(path)
    with pytest.raises(ConfigError, match="not found"):
        harness.load_config(tmp_path / "absent.json")


@pytest.mark.parametrize("content", [b"\xff\xfe\x00", b"[" * 100000 + b"]" * 100000])
def test_run_and_generate_reject_undecodable_json_with_exit_2(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert cli.main(["run", str(path)]) == 2
    assert cli.main(["generate", str(path), str(tmp_path / "x.avcf")]) == 2
    assert capsys.readouterr().err.count("is not valid JSON") == 2


def test_output_root_env_fallback(tmp_path, monkeypatch):
    raw = base_config(tmp_path)
    del raw["output_root"]
    cfg = harness.parse_config(raw)
    monkeypatch.setenv(harness.OUTPUT_ROOT_ENV, str(tmp_path / "envroot"))
    assert harness.output_dir(cfg) == tmp_path / "envroot" / "t"


# --- serialization --------------------------------------------------------

def test_content_hash_excludes_itself(tmp_path):
    payload = {"a": 1, "b": [1.5, None]}
    h = harness.content_hash(payload)
    assert harness.content_hash({**payload, "content_hash": h}) == h
    path = tmp_path / "x.json"
    harness.write_json(path, payload)
    loaded = json.loads(path.read_text())
    assert loaded["content_hash"] == h


def test_write_atomic_leaves_no_temp_files(tmp_path):
    target = tmp_path / "deep" / "file.bin"
    harness.write_atomic(target, b"abc")
    assert target.read_bytes() == b"abc"
    assert [p.name for p in target.parent.iterdir()] == ["file.bin"]


def _fail_halfway(monkeypatch):
    """Make the next file write stop halfway with an error, like a full disk."""
    real_fdopen = os.fdopen

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()
            return False

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("disk full")

    monkeypatch.setattr(os, "fdopen", lambda fd, mode: HalfWriter(real_fdopen(fd, mode)))


def _save_checkpoint(path, seed):
    mdl.save_checkpoint(mdl.init_params(3, 2, seed=seed), path)


def _save_dataset(path, seed):
    spec = GeneratorSpec(mode="aligned", num_classes=2, d=3, frames=1, cells=2,
                         train_per_class=1, test_per_class=1, seed=seed)
    dsets.save_dataset(dsets.generate_synthetic(spec), path)


@pytest.mark.parametrize("save", [_save_checkpoint, _save_dataset])
def test_interrupted_save_keeps_the_old_file(tmp_path, monkeypatch, save):
    path = tmp_path / "artifact.bin"
    save(path, 0)
    old = path.read_bytes()
    _fail_halfway(monkeypatch)
    with pytest.raises(ConfigError, match="disk full"):
        save(path, 1)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]
    save(path, 1)
    assert path.read_bytes() != old


# --- cli_run --------------------------------------------------------------

def _without_wall_times(log_bytes):
    # wall-clock timing is the one value allowed to differ between reruns,
    # and it is confined to the run log
    events = [json.loads(line) for line in log_bytes.decode().splitlines()]
    for e in events:
        e.pop("wall_time_s", None)
    return events


def test_run_writes_results_and_is_byte_deterministic(tmp_path):
    path = write_config(tmp_path, epochs=2)
    assert cli.main(["run", str(path)]) == 0
    out = tmp_path / "out" / "t"
    first = {str(p.relative_to(out)): p.read_bytes()
             for p in out.rglob("*") if p.is_file()}
    assert {p.split("/")[-1] for p in first} == \
        {"result.json", "run.log.jsonl", "aggregate.json"}
    assert cli.main(["run", str(path)]) == 0
    for p in out.rglob("*"):
        if not p.is_file():
            continue
        rel = str(p.relative_to(out))
        if p.name == "run.log.jsonl":
            assert _without_wall_times(p.read_bytes()) == \
                _without_wall_times(first[rel])
        else:
            assert p.read_bytes() == first[rel], p


# seed-0 `content_hash` of `result.json` for a 6-class, 3-step run of each
# strategy (and of avcil in each single modality); a change that moves them
# must update them and say so in CHANGES.md
PINNED_RESULTS = {
    ("avcil", "audio"): "8de50e6c048757d88a490bb2f6209ac882d6b05c207154d8633c1c06b21e9138",
    ("avcil", "audiovisual"): "2ec9c58088a05badb2f096cfaa767ff8601f7c5bb5652820f91984cdea100fc4",
    ("avcil", "visual"): "0abe5074ed53e5159a09224b880f57d9a63dc55029f3766216326ae22cb0cf99",
    ("finetune", "audiovisual"): "46cf2f123ee795f4790e62b2753ee4d94cb138f6031802adce3414e5a91eb3d8",
    ("icarl_fc", "audiovisual"): "bf191d025f73e27dda1e5fcea88e9ba27fbf70ba4fecc64bb79a2d28e452d6ea",
    ("icarl_nme", "audiovisual"): "5d25e6f70b08242cec120367e0da47feabb15405931fd1db937d00ec3d6a6e5c",
    ("lwf", "audiovisual"): "44f904b7698821e7160d806c7d91b08f51346f683277c4fefc4aec5e96e83e4d",
    ("oracle", "audiovisual"): "e797a74813d0850926d3cd51c1c7a3a342f26a7a42872a7fa77feb9726b75255",
    ("ssil", "audiovisual"): "fddad35e3f5a4d324a3ecabcc54b59d79a5150de780e2fe8354f408dda7a7dbd",
}


def test_pins_cover_every_strategy():
    assert {tag for tag, _ in PINNED_RESULTS} == set(STRATEGY_TAGS)


@pytest.mark.parametrize("strategy,modality", sorted(PINNED_RESULTS))
def test_result_bytes_match_their_pinned_hash(tmp_path, strategy, modality):
    dataset = dict(base_config(tmp_path)["dataset"], num_classes=6)
    path = write_config(tmp_path, strategy=strategy, modality=modality, dataset=dataset,
                        steps=3, memory_capacity=10, seeds=[0])
    harness.cli_run(path)
    result = json.loads((tmp_path / "out/t/seed_0/result.json").read_text())
    assert result["content_hash"] == PINNED_RESULTS[strategy, modality]


def test_result_is_self_verifying(tmp_path):
    path = write_config(tmp_path)
    harness.cli_run(path)
    res = json.loads((tmp_path / "out/t/seed_0/result.json").read_text())
    assert mean_accuracy(res["overall_accuracy"]) == res["mean_accuracy"]
    assert average_forgetting(res["accuracy_matrix"]) == res["average_forgetting"]
    assert harness.content_hash(res) == res["content_hash"]
    assert res["library_version"] == harness.__version__
    assert res["config"]["strategy"] == "avcil"
    assert len(res["loss_curves"]) == 2


def test_aggregate_summarizes_all_seeds(tmp_path):
    path = write_config(tmp_path)
    harness.cli_run(path)
    agg = json.loads((tmp_path / "out/t/aggregate.json").read_text())
    assert agg["kind"] == "aggregate"
    assert set(agg["per_seed"]) == {"0", "1"}
    accs = [agg["per_seed"][s]["mean_accuracy"] for s in ("0", "1")]
    assert agg["mean_accuracy"]["mean"] == float(np.mean(accs))
    assert agg["mean_accuracy"]["std"] == float(np.std(accs))


def test_run_log_is_json_lines_with_version_header(tmp_path):
    path = write_config(tmp_path)
    harness.cli_run(path)
    lines = (tmp_path / "out/t/seed_1/run.log.jsonl").read_text().splitlines()
    events = [json.loads(line) for line in lines]
    assert events[0] == {"event": "log_opened", "format_version": 1}
    assert events[1]["event"] == "run_started"
    kinds = {e["event"] for e in events}
    assert {"step_started", "epoch_loss", "memory_updated", "step_evaluated"} <= kinds


def test_parallel_workers_match_sequential_bytes(tmp_path):
    path = write_config(tmp_path)
    harness.cli_run(path, workers=1)
    out = tmp_path / "out" / "t"
    sequential = {str(p.relative_to(out)): p.read_bytes()
                  for p in out.rglob("*.json") if p.is_file()}
    harness.cli_run(path, workers=2)
    parallel = {str(p.relative_to(out)): p.read_bytes()
                for p in out.rglob("*.json") if p.is_file()}
    assert sequential == parallel


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records the size asked for and maps
    in this process, so no worker is ever started."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_run_asks_for_at_most_one_worker_per_seed(tmp_path, monkeypatch):
    sizes = []
    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _InProcessPool(sizes, max_workers))
    harness.cli_run(write_config(tmp_path), workers=64)     # two seeds
    assert sizes == [2]
    harness.cli_run(write_config(tmp_path, seeds=[0]), workers=64)
    assert sizes == [2]     # one seed runs in process


def test_cli_exit_codes_for_bad_configs(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["run", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_config(tmp_path, strategy="mystery")))
    assert cli.main(["run", str(bad)]) == 2
    assert "strategy" in capsys.readouterr().err


@pytest.mark.parametrize("change,needle", [
    (lambda c: c["dataset"].update(d=6.0), "dataset.d must be int"),
    (lambda c: c["dataset"].update(d=True), "dataset.d must be int"),
    (lambda c: c["dataset"].update(seed="x"), "dataset.seed must be int"),
    (lambda c: c.update(seeds=[-1]), "seeds must be"),
    (lambda c: c.update(steps=0), "steps must be >= 1"),
    (lambda c: c.update(classes_per_step=3), "classes_per_step"),
    (lambda c: c.update(lr="LR"), "lr must be finite"),
    (lambda c: c.update(epoch=5), "unknown field epoch"),
    (lambda c: c.update(weights={"normalize": "no"}), "weights.normalize must be bool"),
])
def test_run_rejects_bad_field_values_with_exit_2(tmp_path, capsys, change, needle):
    raw = base_config(tmp_path)
    change(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw).replace('"LR"', "1e999"))
    assert cli.main(["run", str(path)]) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_nme_run_with_fewer_memory_slots_than_classes_exits_2(tmp_path, capsys):
    # 3 slots over 6 classes is a quota of 0 at the last step: no class mean to classify by
    raw = base_config(tmp_path, strategy="icarl_nme", steps=3, memory_capacity=3, seeds=[0])
    raw["dataset"]["num_classes"] = 6
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", str(path)]) == 2
    assert "memory_capacity must be >= 6" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    path.write_text(json.dumps({**raw, "memory_capacity": 6}))
    assert cli.main(["run", str(path)]) == 0


@pytest.mark.parametrize("change,needle", [
    ({"d": 6.0}, "spec: d must be int"),
    ({"seed": -3}, "spec: seed must be >= 0"),
    ({"sed": 3}, "unknown field sed"),
])
def test_generate_rejects_bad_field_values_with_exit_2(tmp_path, capsys, change, needle):
    spec = {"mode": "aligned", "num_classes": 2, "d": 4, "frames": 2, "cells": 2,
            "train_per_class": 2, "test_per_class": 1, "seed": 0}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**spec, **change}))
    assert cli.main(["generate", str(spec_path), str(tmp_path / "x.avcf")]) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "x.avcf").exists()


def test_oversized_generator_spec_exits_2_in_generate_and_run(tmp_path, capsys):
    # the record rule `load_dataset` applies: one record must stay below 2 GiB
    spec = {"mode": "aligned", "num_classes": 2, "d": 100000, "frames": 1000,
            "cells": 1000, "train_per_class": 2, "test_per_class": 1, "seed": 0}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert cli.main(["generate", str(spec_path), str(tmp_path / "x.avcf")]) == 2
    assert "generator spec: d, frames and cells give a" in capsys.readouterr().err
    assert not (tmp_path / "x.avcf").exists()
    path = write_config(tmp_path, dataset=spec)
    assert cli.main(["run", str(path)]) == 2
    assert "config: dataset.d, frames and cells give a" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_divergence_exits_3_with_log_tail(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, strategy="finetune")
    exploder = Strategy("finetune", uses_memory=False, uses_teacher=False,
                        retrains_on_all=False, nme_eval=False,
                        compose=lambda *a: dm.parameter(np.float64("nan")))
    monkeypatch.setattr(proto, "get_strategy", lambda tag: exploder)
    assert cli.main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "non-finite loss" in err
    assert "run_started" in err        # the tail of the run log is printed


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_teacher_diverges_its_step_with_exit_3(tmp_path, monkeypatch, capsys):
    def poisoned_snapshot(params):
        frozen = mdl.snapshot(params)
        frozen.flat[0] = np.nan         # w_audio[0, 0] of the teacher only
        return frozen

    # protocol alone sees the poisoned snapshot; evaluation snapshots as before
    monkeypatch.setattr(proto, "mdl", SimpleNamespace(**dict(vars(mdl),
                                                             snapshot=poisoned_snapshot)))
    assert cli.main(["run", str(write_config(tmp_path, seeds=[0]))]) == 3
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == \
        ["error: softmax of a non-finite input at step 2, epoch 0, batch 0"]
    assert "Traceback" not in err


def _file_config(tmp_path, edit=lambda ds: ds, **kw):
    """A config that reads `base_config`'s dataset, passed through `edit`, from a file."""
    raw = base_config(tmp_path, **kw)
    path = tmp_path / "data.avcf"
    dsets.save_dataset(edit(dsets.generate_synthetic(GeneratorSpec(**raw.pop("dataset")))),
                       path)
    raw["dataset_path"] = str(path)
    (tmp_path / "config.json").write_text(json.dumps(raw))
    return str(tmp_path / "config.json")


def _without_test_rows_of_class_3(ds):
    keep = (ds.labels != 3) | (ds.splits != dsets.SPLIT_TEST)
    return dsets.FeatureDataset(ds.audio[keep], ds.visual[keep], ds.labels[keep],
                                ds.ids[keep], ds.splits[keep], ds.num_classes, ds.manifest)


def _zeroed(field):
    def edit(ds):
        getattr(ds, field)[2] = 0.0     # a training row of class 0
        return ds
    return edit


OVERSIZED_SPEC = {"mode": "aligned", "num_classes": 100, "d": 16384, "frames": 64,
                  "cells": 64, "train_per_class": 20, "test_per_class": 20}


def _spec_file(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(OVERSIZED_SPEC))
    return str(tmp_path / "spec.json")


def _export_with_checkpoint(tmp_path, d, edit=lambda blob: None):
    """`export-attention` argv over a d=4 dataset file and the checkpoint of a
    d-dimensional model, its bytes passed through `edit`."""
    spec = GeneratorSpec(mode="aligned", num_classes=2, d=4, frames=2, cells=2,
                         train_per_class=2, test_per_class=1)
    dsets.save_dataset(dsets.generate_synthetic(spec), tmp_path / "ds.avcf")
    path = tmp_path / "m.avcp"
    mdl.save_checkpoint(mdl.init_params(d, 2, seed=0), path)
    blob = bytearray(path.read_bytes())
    edit(blob)
    path.write_bytes(bytes(blob))
    return ["export-attention", str(path), str(tmp_path / "ds.avcf"), str(tmp_path / "out"),
            "--samples", "0"]


def _taken(tmp_path):
    """A regular file where a directory is wanted."""
    path = tmp_path / "taken"
    path.write_text("a file")
    return path


def _output_root_is_a_file(tmp_path, command):
    return [command, str(write_config(tmp_path, output_root=str(_taken(tmp_path))))]


def _dataset_path_config(tmp_path, dataset_path):
    raw = base_config(tmp_path, dataset_path=dataset_path)
    del raw["dataset"]
    (tmp_path / "config.json").write_text(json.dumps(raw))
    return str(tmp_path / "config.json")


def _generate_to(tmp_path, out, **spec):
    (tmp_path / "spec.json").write_text(json.dumps(dict(base_config(tmp_path)["dataset"],
                                                        **spec)))
    return ["generate", str(tmp_path / "spec.json"), str(out)]


def _compare_to(tmp_path, out, **fields):
    _fake_result(tmp_path / "res" / "result.json", **fields)
    return ["compare", str(tmp_path / "res"), str(out)]


def _run_with_spec(tmp_path, **spec):
    return ["run", str(write_config(tmp_path,
                                    dataset=dict(base_config(tmp_path)["dataset"], **spec)))]


def _nan_in_value_7(blob):
    blob[16 + 8 * 7:16 + 8 * 8] = struct.pack("<d", float("nan"))


def _header_of_no_model(blob):
    blob[8:16] = bytes(8)       # d = 0, num_classes = 0
    del blob[16:]


UNTRUSTED_INPUTS = {
    "class without test rows": (
        lambda p: ["run", _file_config(p, _without_test_rows_of_class_3)], 2,
        "class 3 lacks train or test samples"),
    "all-zero audio row": (
        lambda p: ["run", _file_config(p, _zeroed("audio"))], 2, "all-zero audio in record 2"),
    "all-zero visual grid": (
        lambda p: ["run", _file_config(p, _zeroed("visual"))], 2,
        "all-zero visual grid in record 2"),
    "oversized spec, generate": (
        lambda p: ["generate", _spec_file(p), str(p / "out" / "x.avcf")], 2,
        "num_classes, train_per_class, test_per_class, d, frames and cells give"),
    "oversized spec, run": (
        lambda p: ["run", str(write_config(p, dataset=OVERSIZED_SPEC))], 2,
        "num_classes, train_per_class, test_per_class, d, frames and cells give"),
    "separation 1e39, generate": (
        lambda p: _generate_to(p, p / "out" / "x.avcf", separation=1e39), 2,
        "separation and noise_sigma give features that overflow float32"),
    "separation 1e39, run": (
        lambda p: _run_with_spec(p, separation=1e39), 2,
        "separation and noise_sigma give features that overflow float32"),
    **{f"lr 1e300, {tag}": (lambda p, tag=tag: ["run", str(write_config(p, strategy=tag,
                                                                        lr=1e300))],
                            3, "at step 1, epoch")
       for tag in STRATEGY_TAGS},
    # one batch per step: the first Adam step leaves the parameters non-finite
    # and the step's evaluation is the first to meet them
    "lr 1e300, met in evaluation": (
        lambda p: ["run", str(write_config(p, lr=1e300, epochs=1, batch_size=64))], 3,
        "at step 1, in evaluation"),
    "--workers 0": (
        lambda p: ["run", str(write_config(p)), "--workers", "0"], 2,
        "--workers must be >= 1, got 0"),
    "gradcheck --seed -1": (lambda p: ["gradcheck", "--seed", "-1"], 2,
                            "--seed must be >= 0, got -1"),
    **{f"gradcheck --threshold {value}": (
        lambda p, value=value: ["gradcheck", "--threshold", value], 2,
        "--threshold must be positive and finite")
       for value in ("nan", "-1")},
    "lr 1e300, two workers": (
        lambda p: ["run", str(write_config(p, strategy="finetune", lr=1e300)),
                   "--workers", "2"], 3, "at step 1, epoch"),
    "checkpoint with a NaN": (
        lambda p: _export_with_checkpoint(p, 4, _nan_in_value_7), 2,
        "non-finite checkpoint value at offset 72"),
    "checkpoint of d=5, dataset of d=4": (
        lambda p: _export_with_checkpoint(p, 5), 2, "the checkpoint has d=5, the dataset d=4"),
    "name with a NUL byte": (
        lambda p: ["run", str(write_config(p, name="a\x00b"))], 2,
        "cannot create directory"),
    "300-character name": (
        lambda p: ["run", str(write_config(p, name="n" * 300))], 2, "File name too long"),
    "output_root with a NUL byte": (
        lambda p: ["run", str(write_config(p, output_root=str(p / "o\x00ut")))], 2,
        "embedded null byte"),
    **{f"output_root is a file, {command}": (
        lambda p, command=command: _output_root_is_a_file(p, command), 2, "Not a directory")
       for command in ("run", "ablate")},
    "dataset_path with a NUL byte": (
        lambda p: ["run", _dataset_path_config(p, str(p / "da\x00ta.avcf"))], 2,
        "cannot read dataset"),
    "generate into a directory": (lambda p: _generate_to(p, p), 2, "Is a directory"),
    "generate under a file": (lambda p: _generate_to(p, _taken(p) / "x.avcf"), 2,
                              "Not a directory"),
    "compare into a directory": (lambda p: _compare_to(p, p), 2, "Is a directory"),
    "compare under a file": (lambda p: _compare_to(p, _taken(p) / "o.csv"), 2,
                             "Not a directory"),
    "compare, mean_accuracy 10**400": (
        lambda p: _compare_to(p, p / "out" / "o.csv", mean_accuracy=10**400), 2,
        "malformed result field: OverflowError"),
    "checkpoint of d=0 and no classes": (
        lambda p: _export_with_checkpoint(p, 4, _header_of_no_model), 2,
        "checkpoint needs d >= 1 and num_classes >= 1, got d=0 and num_classes=0"),
}


@pytest.mark.parametrize("case", list(UNTRUSTED_INPUTS))
@pytest.mark.filterwarnings("error::RuntimeWarning")      # diverging runs warn nothing
def test_untrusted_inputs_exit_2_or_3_without_a_traceback(tmp_path, capsys, case):
    argv, code, needle = UNTRUSTED_INPUTS[case]
    assert cli.main(argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    if code == 2:       # rejected before anything is written
        assert not (tmp_path / "out").exists()
    else:               # the tail of the run log follows the error
        assert "run_started" in err


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_an_unwritable_output_root_trains_no_job(tmp_path, monkeypatch, command):
    run = harness.run_one_seed
    jobs = []

    def count_then_run(*args):
        jobs.append(args)
        return run(*args)

    monkeypatch.setattr(harness, "run_one_seed", count_then_run)
    assert cli.main(_output_root_is_a_file(tmp_path, command)) == 2
    assert jobs == []


def test_result_bytes_do_not_depend_on_the_dataset_files_directory(tmp_path):
    results = []
    for where in ("a", "b/c"):
        work = tmp_path / where
        work.mkdir(parents=True)
        assert cli.main(["run", _file_config(work, seeds=[0])]) == 0
        results.append((work / "out" / "t" / "seed_0" / "result.json").read_bytes())
    assert results[0] == results[1]
    config = json.loads(results[0])["config"]
    assert "dataset_path" not in config
    assert config["dataset_sha256"] == \
        hashlib.sha256((tmp_path / "a" / "data.avcf").read_bytes()).hexdigest()


def _header_classes(num_classes, relabel=None):
    """A dataset edit: the header's class count set, and class 3 renamed `relabel`."""
    def edit(ds):
        ds.num_classes = num_classes
        if relabel is not None:
            ds.labels[ds.labels == 3] = relabel
        return ds
    return edit


def test_an_oversized_class_count_in_the_header_changes_no_result(tmp_path):
    # only the run's 4 classes are ever looked up, and class 3 is the largest
    # id in either file, so the relabelled file runs the same task sequence
    results = []
    for where, edit in (("true", lambda ds: ds), ("oversized", _header_classes(0xFFFFFFFF)),
                        ("largest id", _header_classes(0xFFFFFFFF, 0xFFFFFFFE))):
        work = tmp_path / where
        work.mkdir()
        assert cli.main(["run", _file_config(work, edit, seeds=[0])]) == 0
        results.append(json.loads((work / "out" / "t" / "seed_0" / "result.json").read_text()))
    for key in ("accuracy_matrix", "loss_curves"):
        assert results[0][key] == results[1][key] == results[2][key]


@pytest.mark.parametrize("change", ["replaced", "deleted"])
def test_a_file_backed_run_echoes_the_hash_of_the_bytes_it_loaded(tmp_path, monkeypatch,
                                                                    change):
    config = _file_config(tmp_path)     # seeds 0 and 1, one dataset load
    data = tmp_path / "data.avcf"
    loaded = hashlib.sha256(data.read_bytes()).hexdigest()
    train = harness.run_incremental

    def change_the_file_then_train(*args, **kw):
        if change == "replaced":
            data.write_bytes(b"other bytes")
        else:
            data.unlink(missing_ok=True)
        return train(*args, **kw)

    monkeypatch.setattr(harness, "run_incremental", change_the_file_then_train)
    assert cli.main(["run", config]) == 0
    for seed in (0, 1):
        result = json.loads((tmp_path / "out" / "t" / f"seed_{seed}" / "result.json").read_text())
        assert result["config"]["dataset_sha256"] == loaded


def test_a_pooled_run_loads_the_dataset_once_for_every_seed(tmp_path, monkeypatch):
    config = _file_config(tmp_path)     # seeds 0 and 1
    data = tmp_path / "data.avcf"
    other = GeneratorSpec(**{**base_config(tmp_path)["dataset"], "seed": 2})
    load = harness.load_dataset
    loads = []

    def load_then_rewrite_the_file(path):
        loads.append(path)
        dataset = load(path)
        dsets.save_dataset(dsets.generate_synthetic(other), data)
        return dataset

    sizes = []
    monkeypatch.setattr(harness, "load_dataset", load_then_rewrite_the_file)
    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _InProcessPool(sizes, max_workers))
    harness.cli_run(config, workers=2)
    hashes = {json.loads((tmp_path / "out" / "t" / f"seed_{seed}" / "result.json")
                         .read_text())["config"]["dataset_sha256"] for seed in (0, 1)}
    assert len(hashes) == 1
    assert sizes == [2] and len(loads) == 1


# --- cli_generate ---------------------------------------------------------

def test_generate_writes_loadable_deterministic_file(tmp_path):
    spec = {"mode": "xor_pairs", "num_classes": 4, "d": 5, "frames": 2,
            "cells": 3, "train_per_class": 3, "test_per_class": 2, "seed": 9}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert cli.main(["generate", str(spec_path), str(tmp_path / "a.avcf")]) == 0
    assert cli.main(["generate", str(spec_path), str(tmp_path / "b.avcf")]) == 0
    a = (tmp_path / "a.avcf").read_bytes()
    assert a == (tmp_path / "b.avcf").read_bytes()
    ds = load_dataset(tmp_path / "a.avcf")
    assert ds.num_classes == 4 and len(ds) == 20


def test_generate_rejects_bad_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"mode": "aligned", "num_classes": 0,
                                     "d": 5, "frames": 2, "cells": 3,
                                     "train_per_class": 3}))
    assert cli.main(["generate", str(spec_path), str(tmp_path / "x.avcf")]) == 2
    spec_path.write_text("oops")
    assert cli.main(["generate", str(spec_path), str(tmp_path / "x.avcf")]) == 2


# --- cli_compare ----------------------------------------------------------

def test_compare_sorts_and_reparses(tmp_path):
    for name, strategy in (("ft", "finetune"), ("av", "avcil")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(base_config(tmp_path, name=name,
                                               strategy=strategy, seeds=[0])))
        harness.cli_run(path)
    out_csv = tmp_path / "table.csv"
    rows = harness.cli_compare(tmp_path / "out", out_csv)
    assert len(rows) == 2
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "# format_version=1"
    parsed = list(csv.DictReader(lines[1:]))
    assert [r["strategy"] for r in parsed] == [r["strategy"] for r in rows]
    accs = [float(r["mean_acc"]) for r in parsed]
    assert accs == sorted(accs, reverse=True)
    # per-step columns are the matrix diagonal of the matching result file
    for r in parsed:
        res_path = tmp_path / "out" / ("av" if r["strategy"] == "avcil" else "ft") \
            / f"seed_{r['seed']}" / "result.json"
        res = json.loads(res_path.read_text())
        diag = [res["accuracy_matrix"][i][i]
                for i in range(len(res["accuracy_matrix"]))]
        got = [float(r[f"step_{i + 1}"]) for i in range(len(diag))]
        assert got == diag


def test_compare_empty_dir_exits_2(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert cli.main(["compare", str(tmp_path / "empty"), str(tmp_path / "o.csv")]) == 2


def _fake_result(path, **fields):
    payload = {"format_version": 1, "kind": "result", "seed": 0,
               "config": {"strategy": "finetune", "modality": "audiovisual"},
               "accuracy_matrix": [[50.0]], "mean_accuracy": 50.0,
               "average_forgetting": None}
    payload.update(fields)
    harness.write_json(path, payload)


def _compare_exit(tmp_path, capsys):
    code = cli.main(["compare", str(tmp_path / "res"), str(tmp_path / "o.csv")])
    return code, capsys.readouterr().err


def test_compare_reads_a_well_formed_result(tmp_path, capsys):
    _fake_result(tmp_path / "res" / "result.json")
    assert _compare_exit(tmp_path, capsys)[0] == 0


@pytest.mark.parametrize("content", [b"not json", b"\xff\xfe", b"[1, 2]", b"null",
                                     b'{"kind":"aggregate"}',
                                     pytest.param(b"[" * 100000 + b"]" * 100000,
                                                  id="nested_100000")])
def test_compare_rejects_foreign_file(tmp_path, capsys, content):
    path = tmp_path / "res" / "x" / "result.json"
    path.parent.mkdir(parents=True)
    path.write_bytes(content)
    code, err = _compare_exit(tmp_path, capsys)
    assert code == 2 and str(path) in err


def test_compare_rejects_nesting_around_the_parser_limit(tmp_path, capsys):
    # a depth the parser still takes can be too deep to re-encode for the hash
    path = tmp_path / "res" / "result.json"
    path.parent.mkdir()
    limit = sys.getrecursionlimit()
    for depth in range(limit - 300, limit + 10):
        path.write_bytes(b'{"format_version":1,"kind":"result","x":'
                         + b"[" * depth + b"]" * depth + b"}")
        code, err = _compare_exit(tmp_path, capsys)
        assert code == 2 and str(path) in err, depth


@pytest.fixture(scope="module")
def real_result(tmp_path_factory):
    """The bytes of a `result.json` from a real run, and a scratch directory."""
    tmp = tmp_path_factory.mktemp("real_result")
    harness.cli_run(write_config(tmp, seeds=[0], epochs=1))
    return (tmp / "out/t/seed_0/result.json").read_bytes(), tmp / "scratch"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compare_exits_0_or_2_on_a_corrupted_result(real_result, data):
    blob, scratch = real_result
    mutated = bytearray(blob)
    for _ in range(data.draw(st.integers(0, 4), label="flips")):
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        mutated[at] = data.draw(st.integers(0, 255), label="byte")
    mutated = mutated[:data.draw(st.integers(0, len(blob)), label="length")]
    path = scratch / "res" / "result.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(bytes(mutated))
    assert cli.main(["compare", str(scratch / "res"), str(scratch / "o.csv")]) in (0, 2)


def test_compare_rejects_wrong_kind(tmp_path, capsys):
    path = tmp_path / "res" / "result.json"
    _fake_result(path, kind="aggregate")
    code, err = _compare_exit(tmp_path, capsys)
    assert code == 2 and str(path) in err and "kind" in err


def test_compare_rejects_wrong_format_version(tmp_path, capsys):
    path = tmp_path / "res" / "result.json"
    _fake_result(path, format_version=2)
    code, err = _compare_exit(tmp_path, capsys)
    assert code == 2 and str(path) in err and "format_version" in err


def test_compare_rejects_content_hash_mismatch(tmp_path, capsys):
    path = tmp_path / "res" / "result.json"
    _fake_result(path)
    payload = json.loads(path.read_text())
    payload["mean_accuracy"] = 99.0
    path.write_text(json.dumps(payload))
    code, err = _compare_exit(tmp_path, capsys)
    assert code == 2 and str(path) in err and "content_hash" in err


def test_compare_rejects_malformed_fields_with_a_valid_hash(tmp_path, capsys):
    path = tmp_path / "res" / "result.json"
    _fake_result(path, accuracy_matrix="oops")
    code, err = _compare_exit(tmp_path, capsys)
    assert code == 2 and str(path) in err


# --- cli_ablate -----------------------------------------------------------

def test_ablate_emits_modality_and_component_rows(tmp_path):
    path = write_config(tmp_path, seeds=[0])
    out_dir = harness.cli_ablate(path)
    lines = (out_dir / "ablate.csv").read_text().splitlines()
    parsed = list(csv.DictReader(lines[1:]))
    modality = [r for r in parsed if r["sweep"] == "modality"]
    components = [r for r in parsed if r["sweep"] == "components"]
    assert [r["variant"] for r in modality] == ["audiovisual", "audio", "visual"]
    assert len(components) == 8
    flags = {(r["i_avss"], r["c_avss"], r["vad"]) for r in components}
    assert len(flags) == 8
    none_row = next(r for r in components if r["variant"] == "none")
    assert (none_row["i_avss"], none_row["c_avss"], none_row["vad"]) == ("0", "0", "0")


def test_ablate_component_sweep_runs_audiovisual_whatever_the_base_modality(tmp_path):
    out_dir = harness.cli_ablate(write_config(tmp_path, seeds=[0], epochs=1,
                                              modality="audio"))
    results = sorted((out_dir / "components").glob("*/seed_0/result.json"))
    assert len(results) == 8
    for path in results:
        assert json.loads(path.read_text())["config"]["modality"] == "audiovisual", path


def test_ablate_flags_say_which_terms_each_row_built(tmp_path):
    out_dir = harness.cli_ablate(write_config(tmp_path, seeds=[0], epochs=1, use_vad=False,
                                              weights={"lambda_i": 0}))
    lines = (out_dir / "ablate.csv").read_text().splitlines()
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    assert len(rows) == 11
    for r in rows:
        result = out_dir / r["sweep"] / r["variant"].replace("+", "_") / "seed_0/result.json"
        echo = json.loads(result.read_text())["config"]
        flags = (r["i_avss"], r["c_avss"], r["vad"])
        if echo["modality"] != "audiovisual":
            assert flags == ("0", "0", "0"), r
            continue
        built = (echo["weights"]["lambda_i"] != 0, echo["weights"]["lambda_c"] != 0,
                 echo["use_vad"])
        assert flags == tuple(str(int(on)) for on in built), r
    by_variant = {(r["sweep"], r["variant"]): (r["i_avss"], r["c_avss"], r["vad"])
                  for r in rows}
    assert by_variant["modality", "audiovisual"] == ("0", "1", "0")
    assert by_variant["components", "i+c+vad"] == ("0", "1", "1")


def test_ablate_writes_each_variant_as_soon_as_its_seeds_finish(tmp_path, monkeypatch):
    run = harness.run_one_seed
    jobs = []

    def diverge_on_the_fourth_job(*args):
        jobs.append(args)
        if len(jobs) == 4:      # the first component variant: "none"
            raise TrainingDiverged(step=0, epoch=0, batch=0)
        return run(*args)

    monkeypatch.setattr(harness, "run_one_seed", diverge_on_the_fourth_job)
    with pytest.raises(TrainingDiverged):
        harness.cli_ablate(write_config(tmp_path, seeds=[0], epochs=1))
    out_dir = tmp_path / "out" / "t" / "ablate"
    for modality in harness.MODALITY_SWEEP:
        assert (out_dir / "modality" / modality / "seed_0" / "result.json").is_file()
    assert not (out_dir / "components").exists()


def test_ablate_all_off_row_equals_ssil_run_exactly(tmp_path):
    path = write_config(tmp_path, seeds=[0, 1])
    out_dir = harness.cli_ablate(path)
    ssil_path = tmp_path / "ssil.json"
    ssil_path.write_text(json.dumps(base_config(tmp_path, name="s",
                                                strategy="ssil")))
    harness.cli_run(ssil_path)
    lines = (out_dir / "ablate.csv").read_text().splitlines()
    none_row = next(r for r in csv.DictReader(lines[1:])
                    if r["sweep"] == "components" and r["variant"] == "none")
    agg = json.loads((tmp_path / "out/s/aggregate.json").read_text())
    assert float(none_row["mean_acc"]) == agg["mean_accuracy"]["mean"]
    assert float(none_row["avg_forget"]) == agg["average_forgetting"]["mean"]
    for seed in (0, 1):
        a = json.loads((out_dir / "components/none" / f"seed_{seed}"
                        / "result.json").read_text())
        b = json.loads((tmp_path / "out/s" / f"seed_{seed}"
                        / "result.json").read_text())
        assert a["accuracy_matrix"] == b["accuracy_matrix"]
        assert a["mean_accuracy"] == b["mean_accuracy"]


# --- cli_export_attention -------------------------------------------------

def test_export_attention_rows_are_distributions(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"mode": "aligned", "num_classes": 3, "d": 5,
                                     "frames": 4, "cells": 3, "train_per_class": 3,
                                     "test_per_class": 2, "seed": 2}))
    cli.main(["generate", str(spec_path), str(tmp_path / "ds.avcf")])
    params = mdl.init_params(5, 3, seed=4)
    mdl.save_checkpoint(params, tmp_path / "m.avcp")
    assert cli.main(["export-attention", str(tmp_path / "m.avcp"),
                     str(tmp_path / "ds.avcf"), str(tmp_path / "maps"),
                     "--samples", "0", "5"]) == 0
    for sid in (0, 5):
        slines = (tmp_path / f"maps/sample_{sid}_spatial.csv").read_text().splitlines()
        assert slines[0] == "# format_version=1"
        rows = [[float(x) for x in line.split(",")] for line in slines[1:]]
        assert len(rows) == 4 and all(len(r) == 3 for r in rows)
        for r in rows:
            assert abs(sum(r) - 1.0) < 1e-6
        tlines = (tmp_path / f"maps/sample_{sid}_temporal.csv").read_text().splitlines()
        weights = [float(x) for x in tlines[1].split(",")]
        assert len(weights) == 4
        assert abs(sum(weights) - 1.0) < 1e-6


def test_export_attention_unknown_id_exits_2(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"mode": "aligned", "num_classes": 2, "d": 4,
                                     "frames": 2, "cells": 2, "train_per_class": 2,
                                     "test_per_class": 1, "seed": 0}))
    cli.main(["generate", str(spec_path), str(tmp_path / "ds.avcf")])
    params = mdl.init_params(4, 2, seed=0)
    mdl.save_checkpoint(params, tmp_path / "m.avcp")
    assert cli.main(["export-attention", str(tmp_path / "m.avcp"),
                     str(tmp_path / "ds.avcf"), str(tmp_path / "maps"),
                     "--samples", "42"]) == 2


def test_export_attention_missing_checkpoint_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"mode": "aligned", "num_classes": 2, "d": 4,
                                     "frames": 2, "cells": 2, "train_per_class": 2,
                                     "test_per_class": 1, "seed": 0}))
    cli.main(["generate", str(spec_path), str(tmp_path / "ds.avcf")])
    missing = tmp_path / "absent.avcp"
    assert cli.main(["export-attention", str(missing), str(tmp_path / "ds.avcf"),
                     str(tmp_path / "maps"), "--samples", "0"]) == 2
    assert f"cannot read checkpoint {missing}" in capsys.readouterr().err


# --- gradcheck ------------------------------------------------------------

def test_gradcheck_covers_every_loss_and_passes():
    report = harness.gradcheck_report(seed=0)
    for name in ("loss_i_avss", "loss_c_avss", "loss_d_avsc", "loss_vad",
                 "loss_ss_ce", "loss_tkd", "loss_total"):
        assert name in report
    assert all(v < 1e-5 for v in report.values())
    assert cli.main(["gradcheck"]) == 0


def test_gradcheck_checks_tkd_over_several_previous_tasks():
    assert harness.gradcheck_report(seed=0)["loss_tkd_three_tasks"] < 1e-5


def test_gradcheck_checks_block_kl_over_two_blocks():
    assert harness.gradcheck_report(seed=0)["block_kl"] < 1e-5


def test_gradcheck_catches_a_wrong_derivative(monkeypatch, capsys):
    def leaky_tanh(x):
        x = dm._coerce(x)
        # forward is right, backward pretends the slope is 1 everywhere
        return dm._node(np.tanh(x.data), (x,), lambda g: (g,), "tanh")

    monkeypatch.setattr(dm, "tanh", leaky_tanh)
    assert cli.main(["gradcheck"]) == 4
    assert "tanh" in capsys.readouterr().err
