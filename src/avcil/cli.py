"""Command-line interface.

Exit codes are a stable contract: 0 success, 2 config or file-format
problem, 3 training divergence, 4 gradient verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from . import __version__, harness
from .errors import ConfigError, FormatError, TrainingDiverged, VerificationFailure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERIFICATION = 4


def _cmd_generate(args) -> int:
    ds = harness.cli_generate(args.spec, args.out)
    print(f"wrote {args.out}: {len(ds)} samples, d={ds.d}, "
          f"frames={ds.frames}, cells={ds.cells}, classes={ds.num_classes}")
    return EXIT_OK


def _cmd_run(args) -> int:
    out_dir = harness.cli_run(args.config, workers=args.workers)
    print(f"results in {out_dir}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    rows = harness.cli_compare(args.results_dir, args.out)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    out_dir = harness.cli_ablate(args.config)
    print(f"ablation table in {out_dir / 'ablate.csv'}")
    return EXIT_OK


def _cmd_export_attention(args) -> int:
    files = harness.cli_export_attention(args.checkpoint, args.dataset,
                                         args.samples, args.out)
    for path in files:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if not (0.0 < args.threshold < math.inf):
        raise ConfigError(f"--threshold must be positive and finite, got {args.threshold}")
    # report everything before deciding, so a failure still shows the full table
    report = harness.gradcheck_report(seed=args.seed)
    failed = sorted(k for k, v in report.items() if not (v < args.threshold))
    width = max(map(len, report))
    for name in sorted(report):
        status = "FAIL" if name in failed else "ok"
        print(f"{name:<{width}} max_err={report[name]:.3e}  {status}")
    if failed:
        raise VerificationFailure("gradient check failed for: " + ", ".join(failed))
    print(f"all {len(report)} checks below {args.threshold:g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avcil",
        description="Audio-visual class-incremental learning experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a feature dataset file")
    p.add_argument("spec", help="generator spec JSON file")
    p.add_argument("out", help="output dataset path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run one config over its seeds")
    p.add_argument("config", help="run config JSON file")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel seed workers, at least 1 and at most one per seed "
                        "(default 1; results identical)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="summarize result files into a CSV")
    p.add_argument("results_dir", help="directory searched recursively for results")
    p.add_argument("out", help="output CSV path")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("ablate", help="modality and loss-component sweeps")
    p.add_argument("config", help="run config JSON file")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("export-attention",
                       help="dump channel-averaged attention maps as CSV")
    p.add_argument("checkpoint", help="model checkpoint file")
    p.add_argument("dataset", help="dataset file")
    p.add_argument("out", help="output directory")
    p.add_argument("--samples", type=int, nargs="+", required=True,
                   help="sample ids to export")
    p.set_defaults(func=_cmd_export_attention)

    p = sub.add_parser("gradcheck", help="finite-difference check of every gradient")
    p.add_argument("--seed", type=int, default=0, help="data seed, >= 0 (default 0)")
    p.add_argument("--threshold", type=float, default=1e-5,
                   help="largest passing error, positive and finite (default 1e-5)")
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as err:
        print(f"error: {err}", file=sys.stderr)
        for line in getattr(err, "run_log_tail", []):
            print(line, file=sys.stderr)
        return EXIT_DIVERGED
    except VerificationFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VERIFICATION


def entry() -> None:
    sys.exit(main())
