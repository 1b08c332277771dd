"""Experiment orchestration and persistence.

Everything the CLI does lives here as plain functions so tests can call it
in-process: config parsing, single runs fanned out over seeds, ablation
sweeps, comparison tables, attention-map export, and the self-check that
re-verifies every gradient. `run` and `ablate` train every (config, seed)
job through one runner, `run_jobs`, on the dataset the command loaded once.
Every file goes through `fileio`: JSON outputs are canonical and written
atomically, so a rerun with the same config is byte-identical and a content
hash is meaningful.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import math
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import diffmath as dm
from . import model as mdl
from . import objectives as obj
from .datasets import (FeatureDataset, GeneratorSpec, generate_synthetic,
                       load_dataset, save_dataset)
from .errors import ConfigError, ContractError, FormatError, TrainingDiverged
# write_atomic stays a harness attribute: the benchmark tracer wraps it there
from .fileio import (canonical_json, content_hash, read_json, write_atomic,  # noqa: F401
                     check_dir, write_json, write_lines)
from .metrics import average_forgetting, mean_accuracy
from .objectives import LossWeights, TaskLayout
from .protocol import TrainConfig, build_task_sequence, run_incremental

FORMAT_VERSION = 1
OUTPUT_ROOT_ENV = "AVCIL_OUTPUT_ROOT"

MODALITY_SWEEP = ("audiovisual", "audio", "visual")
# component sweep: every on/off combination of the two contrastive terms and
# attention distillation, all-off first
COMPONENT_SWEEP = tuple((i, c, v) for i in (0, 1) for c in (0, 1) for v in (0, 1))


# ---------------------------------------------------------------------------
# run log


def write_run_log(path: Path, events: Sequence[dict]) -> None:
    lines = [canonical_json({"event": "log_opened", "format_version": FORMAT_VERSION})]
    lines.extend(canonical_json(e) for e in events)
    write_lines(path, lines)


# ---------------------------------------------------------------------------
# config parsing


@dataclass(frozen=True)
class RunConfig:
    name: str
    steps: int
    classes_per_step: int
    train: TrainConfig            # .seed is a placeholder; per-seed copies are made
    dataset: Optional[GeneratorSpec] = None
    dataset_path: Optional[str] = None
    seeds: Tuple[int, ...] = (0,)
    output_root: Optional[str] = None

    def __post_init__(self):
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\"):
            raise ConfigError("name must be a non-empty path-safe string")
        if (self.dataset is None) == (self.dataset_path is None):
            raise ConfigError("needs exactly one of 'dataset' (generator spec) "
                              "or 'dataset_path'")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.classes_per_step < 1:
            raise ConfigError("classes_per_step must be >= 1")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("seeds must be a non-empty list of non-negative integers")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must not repeat")

    def train_for_seed(self, seed: int) -> TrainConfig:
        return dataclasses.replace(self.train, seed=int(seed))


def _value(kind, value, path: str, where: str):
    """`value` checked against the field type `kind`; an int widens to float.

    `Optional[X]` takes an X (None is only ever the default), `Tuple[X, ...]`
    a JSON list, and a dataclass a JSON object parsed by `_section`.
    """
    args = typing.get_args(kind)
    if type(None) in args:
        kind = args[0]
    if dataclasses.is_dataclass(kind):
        return _section(kind, value, where, prefix=path + ".")
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: {path} must be a list, got {type(value).__name__}")
        return tuple(_value(args[0], v, f"{path}[{i}]", where) for i, v in enumerate(value))
    if kind is float and type(value) is int:
        # an int beyond the float range reads as inf, which is rejected below
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise ConfigError(f"{where}: {path} must be {kind.__name__}, "
                          f"got {type(value).__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{where}: {path} must be finite, got {value!r}")
    return value


def _section(cls, raw, where: str, prefix: str = "", exclude: Sequence[str] = (),
             **given):
    """Dataclass `cls` built from the JSON object `raw`, every key checked.

    Field types and defaults come from `cls` alone; `given` holds fields
    already built and `exclude` the fields a file may not set. An unknown
    key is rejected. Range checks are the dataclass's own `__post_init__`,
    whose messages start with the field name, so an error from the
    constructor gets the section `prefix` (e.g. "dataset.") in front.
    """
    if not isinstance(raw, dict):
        label = f"{where}: {prefix[:-1]}" if prefix else where
        raise ConfigError(f"{label} must be a JSON object, got {type(raw).__name__}")
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)
              if f.name not in exclude and f.name not in given}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ConfigError(f"{where}: unknown field {prefix}{unknown[0]}")
    values = dict(given)
    for name, f in fields.items():
        if name in raw:
            values[name] = _value(hints[name], raw[name], prefix + name, where)
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"{where}: {prefix}{name} is required")
    try:
        return cls(**values)
    except (ConfigError, ContractError, TypeError) as err:
        raise ConfigError(f"{where}: {prefix}{err}") from None


def parse_config(raw: dict) -> RunConfig:
    """A run config from its JSON object: `format_version`, the run-level
    fields of `RunConfig`, and beside them the fields of `TrainConfig`."""
    if "format_version" not in raw:
        raise ConfigError("config: format_version is required")
    version = _value(int, raw["format_version"], "format_version", "config")
    if version != FORMAT_VERSION:
        raise ConfigError(f"config: format_version must be {FORMAT_VERSION}, got {version}")
    run_fields = {f.name for f in dataclasses.fields(RunConfig)}
    train = _section(TrainConfig, {k: v for k, v in raw.items()
                                   if k not in run_fields and k != "format_version"},
                     "config", exclude=("seed",))
    return _section(RunConfig, {k: v for k, v in raw.items() if k in run_fields},
                    "config", train=train)


def load_config(path) -> RunConfig:
    return parse_config(read_json(path, ConfigError, "config file"))


def config_echo(cfg: RunConfig) -> dict:
    """The parsed config, normalized: every training field but the per-seed
    `seed`, and every run-level field but `output_root` and the unset one of
    `dataset` and `dataset_path`. It parses back to the same config."""
    echo = dataclasses.asdict(cfg)
    echo.update(echo.pop("train"), seeds=list(cfg.seeds))
    del echo["seed"], echo["output_root"]
    return {k: v for k, v in echo.items() if v is not None}


def load_run_dataset(cfg: RunConfig) -> FeatureDataset:
    """The run's dataset, checked to hold the classes its steps need."""
    if cfg.dataset is not None:
        dataset = generate_synthetic(cfg.dataset)
    else:
        dataset = load_dataset(cfg.dataset_path)
    need = cfg.steps * cfg.classes_per_step
    have = len(dataset.classes())
    if need > have:
        raise ConfigError(f"config: steps x classes_per_step needs {need} classes, "
                          f"the dataset has {have}")
    return dataset


def output_dir(cfg: RunConfig) -> Path:
    root = cfg.output_root or os.environ.get(OUTPUT_ROOT_ENV) or "results"
    return Path(root) / cfg.name


# ---------------------------------------------------------------------------
# running


def run_one_seed(dataset: FeatureDataset, cfg: RunConfig, seed: int
                 ) -> Tuple[dict, List[dict]]:
    """Train one seed and build its (deterministic) result payload."""
    sequence = build_task_sequence(dataset.classes(), cfg.steps, cfg.classes_per_step, seed)
    events: List[dict] = []
    try:
        out = run_incremental(dataset, sequence, cfg.train_for_seed(seed), events)
    except TrainingDiverged as err:
        err.run_log_tail = [canonical_json(e) for e in events[-10:]]
        raise
    echo = config_echo(cfg)
    if cfg.dataset_path is not None:
        # the bytes the run loaded, not where they sat, identify a file-backed run
        del echo["dataset_path"]
        echo["dataset_sha256"] = dataset.sha256
    result = {
        "format_version": FORMAT_VERSION,
        "library_version": __version__,
        "kind": "result",
        "name": cfg.name,
        "seed": int(seed),
        "config": echo,
        "tasks": [list(t) for t in sequence.tasks],
        "accuracy_matrix": out.rows,
        "overall_accuracy": out.overall,
        "mean_accuracy": mean_accuracy(out.overall),
        "average_forgetting": average_forgetting(out.rows),
        "loss_curves": out.loss_curves,
        "final_memory_size": out.memory.total(),
    }
    return result, events


def run_jobs(dataset: FeatureDataset, jobs: Sequence[Tuple[RunConfig, int]],
             workers: int = 1) -> Iterator[Tuple[dict, List[dict]]]:
    """Each (config, seed) job's `(result, events)`, in submission order.

    One worker trains the jobs here, one per result pulled. More train them
    on a pool of at most one process per job, each job sent with the
    caller's `dataset`, so every job trains on the bytes the caller loaded.
    """
    workers = min(workers, len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(run_one_seed, itertools.repeat(dataset), *zip(*jobs))
    else:
        for cfg, seed in jobs:
            yield run_one_seed(dataset, cfg, seed)


def aggregate_payload(cfg: RunConfig, per_seed: Dict[int, dict]) -> dict:
    accs = [per_seed[s]["mean_accuracy"] for s in cfg.seeds]
    forgets = [per_seed[s]["average_forgetting"] for s in cfg.seeds]
    agg_forget = {"mean": None, "std": None}
    if all(f is not None for f in forgets):
        agg_forget = {"mean": float(np.mean(forgets)), "std": float(np.std(forgets))}
    return {
        "format_version": FORMAT_VERSION,
        "library_version": __version__,
        "kind": "aggregate",
        "name": cfg.name,
        "strategy": cfg.train.strategy,
        "modality": cfg.train.modality,
        "seeds": list(cfg.seeds),
        "per_seed": {str(s): {"mean_accuracy": per_seed[s]["mean_accuracy"],
                              "average_forgetting": per_seed[s]["average_forgetting"]}
                     for s in cfg.seeds},
        "mean_accuracy": {"mean": float(np.mean(accs)), "std": float(np.std(accs))},
        "average_forgetting": agg_forget,
    }


def cli_run(config_path, workers: int = 1) -> Path:
    """Run every seed of a config; write result + log per seed and an aggregate.

    Returns the run's output directory. The dataset is loaded and the
    output directory checked once, before any job starts, and `run_jobs`
    trains the seeds on it; `workers` only parallelizes across seeds, with
    outputs identical to a sequential run.
    """
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    cfg = load_config(config_path)
    dataset = load_run_dataset(cfg)
    out_dir = output_dir(cfg)
    check_dir(out_dir)
    _write_seeds(out_dir, cfg, run_jobs(dataset, [(cfg, seed) for seed in cfg.seeds], workers))
    return out_dir


def _write_seeds(out_dir: Path, cfg: RunConfig,
                 jobs: Iterable[Tuple[dict, List[dict]]]) -> dict:
    """Write each (result, events) job as it arrives, then `aggregate.json`."""
    per_seed: Dict[int, dict] = {}
    for result, events in jobs:
        seed_dir = out_dir / f"seed_{result['seed']}"
        write_json(seed_dir / "result.json", result)
        write_run_log(seed_dir / "run.log.jsonl", events)
        per_seed[result["seed"]] = result
    aggregate = aggregate_payload(cfg, per_seed)
    write_json(out_dir / "aggregate.json", aggregate)
    return aggregate


# ---------------------------------------------------------------------------
# dataset generation


def cli_generate(spec_path, out_path) -> FeatureDataset:
    spec = _section(GeneratorSpec, read_json(spec_path, ConfigError, "spec file"),
                    "generator spec")
    ds = generate_synthetic(spec)
    save_dataset(ds, out_path)
    return ds


# ---------------------------------------------------------------------------
# comparison table


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _write_csv(path, rows: Iterable[Sequence[str]]) -> None:
    """Comma-joined rows under a `# format_version=` line."""
    write_lines(path, [f"# format_version={FORMAT_VERSION}"] + [",".join(r) for r in rows])


def _compare_row(path: Path) -> dict:
    """The compare row of a `result.json`, checked for kind, version and
    content hash; anything else raises FormatError naming the file."""
    payload = read_json(path, FormatError, "result file")
    if payload.get("kind") != "result":
        raise FormatError(f"{path}: kind is {payload.get('kind')!r}, expected 'result'")
    if payload.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"{path}: format_version is {payload.get('format_version')!r}, "
                          f"expected {FORMAT_VERSION}")
    try:
        expected = content_hash(payload)
    except (ValueError, RecursionError) as err:     # NaN or inf; nesting at the limit
        raise FormatError(f"{path}: cannot hash content: {err}") from None
    if payload.get("content_hash") != expected:
        raise FormatError(f"{path}: content_hash does not match the content")
    try:
        matrix = payload["accuracy_matrix"]
        forget = payload["average_forgetting"]
        return {
            "strategy": str(payload["config"]["strategy"]),
            "modality": str(payload["config"]["modality"]),
            "mean_acc": float(payload["mean_accuracy"]),
            "avg_forget": None if forget is None else float(forget),
            "per_step": [float(matrix[i][i]) for i in range(len(matrix))],
            "seed": int(payload["seed"]),
        }
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as err:
        raise FormatError(f"{path}: malformed result field: {err!r}") from None


def cli_compare(results_dir, out_csv) -> List[dict]:
    """One CSV row per result file, best mean accuracy first."""
    files = sorted(Path(results_dir).rglob("result.json"))
    if not files:
        raise ConfigError(f"no result.json files under {results_dir}")
    rows = [_compare_row(path) for path in files]
    rows.sort(key=lambda r: (-r["mean_acc"], r["strategy"], r["modality"], r["seed"]))
    steps = max(len(r["per_step"]) for r in rows)
    header = ["strategy", "modality", "mean_acc", "avg_forget"] + \
        [f"step_{i + 1}" for i in range(steps)] + ["seed"]
    lines = [header]
    for r in rows:
        per = [_fmt(v) for v in r["per_step"]]
        per += [""] * (steps - len(per))
        lines.append([r["strategy"], r["modality"], _fmt(r["mean_acc"]),
                      _fmt(r["avg_forget"])] + per + [str(r["seed"])])
    _write_csv(out_csv, lines)
    return rows


# ---------------------------------------------------------------------------
# ablation sweep


def component_variant_name(i_on: int, c_on: int, v_on: int) -> str:
    active = [name for name, on in (("i", i_on), ("c", c_on), ("vad", v_on)) if on]
    return "+".join(active) if active else "none"


def _variant_config(cfg: RunConfig, *, modality=None, components=None) -> RunConfig:
    train = cfg.train
    if modality is not None:
        train = dataclasses.replace(train, strategy="avcil", modality=modality)
    else:
        i_on, c_on, v_on = components
        weights = dataclasses.replace(
            train.weights,
            lambda_i=train.weights.lambda_i if i_on else 0.0,
            lambda_c=train.weights.lambda_c if c_on else 0.0)
        train = dataclasses.replace(train, strategy="avcil", modality="audiovisual",
                                    weights=weights, use_vad=bool(v_on))
    return dataclasses.replace(cfg, train=train)


def _active_terms(train: TrainConfig) -> Tuple[int, int, int]:
    """(i_avss, c_avss, vad) flags of the terms a run of `train` builds: none
    for a one-modality model, else those with a nonzero weight or switched on."""
    if train.modality != "audiovisual":
        return 0, 0, 0
    return (int(train.weights.lambda_i != 0.0), int(train.weights.lambda_c != 0.0),
            int(train.use_vad))


def cli_ablate(config_path) -> Path:
    """Modality sweep (3 rows) plus component on/off sweep (8 rows), shared seeds.

    Writes per-variant results under <run dir>/ablate/ and a combined CSV.
    The base config's strategy field is ignored: every variant trains the
    attention model, differing only in modality or enabled loss components.
    The component sweep runs audiovisual whatever the base modality, since
    the contrastive and attention terms need both modalities.
    """
    cfg = load_config(config_path)
    dataset = load_run_dataset(cfg)
    out_dir = output_dir(cfg) / "ablate"
    check_dir(out_dir)
    rows = [("modality", m, _variant_config(cfg, modality=m)) for m in MODALITY_SWEEP] + \
        [("components", component_variant_name(*combo), _variant_config(cfg, components=combo))
         for combo in COMPONENT_SWEEP]
    # variants of one effective config (with the default use_vad,
    # modality/audiovisual and components/i+c+vad) train once and write twice
    configs = dict.fromkeys(vcfg for _, _, vcfg in rows)
    jobs = run_jobs(dataset, [(vcfg, seed) for vcfg in configs for seed in vcfg.seeds])
    lines = [["sweep", "variant", "i_avss", "c_avss", "vad", "mean_acc", "avg_forget"]]
    for tag, variant, vcfg in rows:
        if configs[vcfg] is None:
            # configs train in order of first use, so the next jobs are this one's seeds
            configs[vcfg] = list(itertools.islice(jobs, len(vcfg.seeds)))
        aggregate = _write_seeds(out_dir / tag / variant.replace("+", "_"), vcfg, configs[vcfg])
        lines.append([tag, variant, *map(str, _active_terms(vcfg.train)),
                      _fmt(aggregate["mean_accuracy"]["mean"]),
                      _fmt(aggregate["average_forgetting"]["mean"])])
    _write_csv(out_dir / "ablate.csv", lines)
    return out_dir


# ---------------------------------------------------------------------------
# attention export


def cli_export_attention(checkpoint_path, dataset_path, sample_ids: Sequence[int],
                         out_dir) -> List[Path]:
    """Channel-averaged attention maps for chosen samples, one CSV pair each."""
    params = mdl.snapshot(mdl.load_checkpoint(checkpoint_path))    # frozen: no graph
    dataset = load_dataset(dataset_path)
    if params.d != dataset.d:
        raise ConfigError(f"the checkpoint has d={params.d}, the dataset d={dataset.d}")
    missing = [i for i in sample_ids if i not in dataset.ids]
    if missing:
        raise ConfigError(f"unknown sample ids: {missing}")
    out = Path(out_dir)     # each write makes the directory it needs
    written: List[Path] = []
    for sid in sample_ids:
        row = np.flatnonzero(dataset.ids == sid)
        trace = mdl.forward(params, dataset.audio, dataset.visual, "audiovisual", rows=row)
        spatial = trace.maps[0][0].mean(axis=2)     # (L, S)
        temporal = trace.maps[1][0].mean(axis=1)    # (L,)
        spath = out / f"sample_{sid}_spatial.csv"
        tpath = out / f"sample_{sid}_temporal.csv"
        _write_csv(spath, [[repr(float(v)) for v in row] for row in spatial])
        _write_csv(tpath, [[repr(float(v)) for v in temporal]])
        written += [spath, tpath]
    return written


# ---------------------------------------------------------------------------
# gradient self-check


def gradcheck_report(seed: int = 0, n: int = 5, d: int = 6, ell: int = 3,
                     s_cells: int = 4, classes: int = 4) -> Dict[str, float]:
    """Max finite-difference error for every primitive and every loss."""
    rng = np.random.default_rng(seed)
    report: Dict[str, float] = {}

    def check(name: str, f, x, h=1e-5):
        report[name] = dm.grad_check(f, dm.parameter(x), h)

    a = rng.normal(size=(n, d))
    b = rng.normal(size=(d, d))
    check("matmul", lambda x: (x @ dm.constant(b)).sum(), a)
    check("tanh", lambda x: dm.tanh(x).sum(), a)
    check("exp", lambda x: dm.exp(x).sum(), a * 0.3)
    check("log", lambda x: dm.log(x).sum(), np.abs(a) + 0.5)
    check("sqrt", lambda x: dm.sqrt(x).sum(), np.abs(a) + 0.5)
    check("mul", lambda x: (x * x).sum(), a)
    check("div", lambda x: (x / dm.constant(np.abs(a) + 1.0)).sum(), a)
    check("sum", lambda x: x.sum(), a)
    check("mean", lambda x: x.mean(), a)
    probe = rng.normal(size=(n, d))
    check("softmax", lambda x: (dm.softmax(x, axis=1) * dm.constant(probe)).sum(), a)
    several = (rng.random((n, d)) < 0.4) | (np.arange(d) == 0)   # column 0 in every row
    check("nll", lambda x: dm.nll(x, several), a)
    targets = np.arange(n)[:, None] % d    # rows on both sides of the block edge at 2
    block = (np.arange(d) >= 2) == (targets >= 2)
    check("nll_support", lambda x: dm.nll(x, targets == np.arange(d), block), a)
    check("take", lambda x: dm.take(x, np.array([0, 2, 2])).sum(), a)
    check("slice", lambda x: dm.slice_axis(x, 1, 1, 4).sum(), a)
    q = rng.dirichlet(np.ones(d), size=n)
    check("kl_rows_p", lambda x: dm.kl_rows(((dm.softmax(x, axis=1), q, 1),), (1.0,),
                                            np.arange(n)), a)

    labels = rng.integers(0, classes, size=n)
    labels[:2] = [0, classes - 1]          # both blocks populated
    layout = TaskLayout((2, classes - 2))
    audio = rng.normal(size=(n, d))
    visual = rng.normal(size=(n, ell, s_cells, d))
    weights = LossWeights()
    check("loss_i_avss", lambda x: obj.i_avss(x, dm.constant(visual.mean((1, 2))),
                                              weights.tau), audio)
    check("loss_c_avss", lambda x: obj.c_avss(x, dm.constant(visual.mean((1, 2))),
                                              labels, weights.tau), audio)
    check("loss_d_avsc", lambda x: obj.d_avsc(x, dm.constant(visual.mean((1, 2))),
                                              labels, weights), audio)
    logits = rng.normal(size=(n, classes))
    old = rng.normal(size=(n, 2))
    check("loss_ss_ce", lambda x: obj.ss_ce(x, labels, layout), logits)
    check("loss_tkd", lambda x: obj.tkd(x, old, layout), logits)

    params = mdl.init_params(d, classes, seed=seed + 1)
    replay = np.arange(2)
    # the teacher's outputs as training caches them: logits and map arrays
    teacher = mdl.forward(mdl.snapshot(mdl.init_params(d, 2, seed=seed + 2)), audio, visual)
    distill = (teacher.maps, replay, weights.lambda_vad)

    # `forward` reads the six tensors only, so replacing one leaves `flat` unread
    def student(x):
        return mdl.forward(dataclasses.replace(params, w_audio=x), audio, visual,
                           map_rows=replay, distill=distill)

    check("loss_vad", lambda x: obj.vad(student(x)), params.w_audio.data.copy())
    check("loss_total", lambda x: obj.total_loss(student(x), teacher.logits.data, labels,
                                                 layout, weights),
          params.w_audio.data.copy())

    # the fused primitives, each in both operands; `row` broadcasts against `grid`
    row = rng.normal(size=(n, 1, d))
    grid = rng.normal(size=(n, ell, d))

    def weighted(t, weights):
        return (t * dm.constant(weights)).sum()

    check("tanh_matmul_x", lambda x: weighted(dm.tanh_matmul(x, dm.constant(b)), probe), a)
    check("tanh_matmul_w", lambda x: weighted(dm.tanh_matmul(dm.constant(a), x), probe), b)
    check("product_sum_a", lambda x: weighted(
        dm.product_sum(x, dm.constant(grid), axis=1), probe), row)
    check("product_sum_b", lambda x: weighted(
        dm.product_sum(dm.constant(row), x, axis=1), probe), grid)

    # the attention block in either operand, read through the pooled vector
    # alone, then with its VAD output as well (weighted up to the pooled
    # part's scale), in row chunks of two: map rows 1 and 2 straddle a chunk
    # edge, and the teacher's rows are read out of order, row 3 twice
    def attended(score_audio, w_visual, distilled=False):
        if not distilled:
            return weighted(dm.attend(score_audio, visual, w_visual, [])[0], probe)
        pooled, _, vad = dm.attend(score_audio, visual, w_visual, [1, 2, n - 1],
                                   distill=(teacher.maps, [3, 0, 3], 0.3))
        return weighted(pooled, probe) + vad * 10.0

    check("attend_score_audio", lambda x: attended(x, dm.constant(b)), a)
    check("attend_w_visual", lambda x: attended(dm.constant(a), x), b)
    chunk_entries = dm.ATTEND_CHUNK_ENTRIES
    dm.ATTEND_CHUNK_ENTRIES = 2 * visual[0].size
    try:
        check("attend_vad_score_audio", lambda x: attended(x, dm.constant(b), True), a)
        check("attend_vad_w_visual", lambda x: attended(dm.constant(a), x, True), b)
    finally:
        dm.ATTEND_CHUNK_ENTRIES = chunk_entries

    # the KL behind vad, whose q is an array read at other rows than p's,
    # row 2 twice; the second pair is constant and only shifts the value
    q_grid = dm.softmax(dm.constant(rng.normal(size=(n + 2, ell, d))), axis=1).data
    fixed = (dm.constant(q), rng.dirichlet(np.ones(d), size=n + 2), 1)
    q_rows = np.maximum(np.arange(n) + 1, 2)

    def kl_at(x):
        return dm.kl_rows(((dm.softmax(x, axis=1), q_grid, 1), fixed), (0.3, 0.7), q_rows)

    check("kl_rows_given_rows_p", kl_at, grid)

    # tkd over two previous blocks, one block_kl node of two blocks; drawn
    # last so every row above sees the same numbers
    three_tasks = TaskLayout((2, 2, 2))
    teacher_old = rng.normal(size=(n, three_tasks.old_count))
    check("loss_tkd_three_tasks", lambda x: obj.tkd(x, teacher_old, three_tasks),
          rng.normal(size=(n, three_tasks.total_classes)))
    # block_kl itself over two blocks with column 2 in neither, drawn after
    # the rows above for the same reason
    teacher_blocks = rng.normal(size=(n, d))
    check("block_kl", lambda x: dm.block_kl(x, teacher_blocks, [(0, 2), (3, d)]), a)
    return report

