"""Command-line workbench: gen, finetune, merge, adapt, eval, analyze, report.

Every subcommand writes a manifest (semantic config + seed + format
versions + input-file digests) next to its outputs; report rows carry the
producing run's manifest hash. Exit codes: 0 success, 1 usage, 2 config,
3 runtime failure.

This module holds the parser, `main` and `report`; the six numeric
commands live in `commands`, which `main` imports only when one of them
runs. So `--version`, `--help` and usage errors load neither numpy nor
`dataclasses`, `json` or `csv`, and `report` loads no numpy or
`dataclasses`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from . import __getattr__  # noqa: F401  (the package's exports read as `cli.<name>`)
from . import __version__
from .config import (
    ANALYSES,
    CONSTANT_METHODS,
    DEFAULT_METHOD,
    LEARNED_METHODS,
    METHODS,
    ConfigError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

GEN_SEVERITY = 5  # `gen --corruption` without --severity


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # `--lambda -1e-1` is a value too: argparse before 3.13 takes only `-1`, `-1.5` for one
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _out_path(path: str) -> Path:
    """The `type` of every path flag but `--config`, inputs as well as outputs."""
    if not path:
        raise argparse.ArgumentTypeError("expected a path, got an empty value")
    root = os.environ.get("MERGELAB_OUTPUT_ROOT")
    p = Path(path)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def _indices(value: str) -> tuple:
    try:
        return tuple(int(i) for i in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got '{value}'") from None


def report(args) -> int:
    from .reports import aggregate_reports, write_combined
    combined = aggregate_reports(args.runs)
    if not combined:
        print("no reports found", file=sys.stderr)
        return EXIT_RUNTIME
    paths = write_combined(args.out_dir, combined)
    print(f"wrote {len(paths)} combined files to {args.out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mergelab",
                     description="Desk-scale task-vector merging laboratory")
    parser.add_argument("--version", action="version", version=f"mergelab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen", parents=[], help="generate a synthetic task suite")
    p.add_argument("--config", help="suite config JSON (or a gen manifest)")
    p.add_argument("--out", required=True, type=_out_path, help="output dataset bundle")
    p.add_argument("--tasks", dest="num_tasks", type=int)
    p.add_argument("--classes", dest="classes_per_task", type=int)
    p.add_argument("--input-dim", type=int)
    p.add_argument("--samples", dest="samples_per_split", type=int)
    p.add_argument("--subspace-dim", dest="shared_subspace_dim", type=int)
    p.add_argument("--rotation", dest="task_rotation_strength", type=float)
    p.add_argument("--noise", dest="noise_std", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--regression", dest="regression_tasks", type=_indices,
                   help="comma-separated task indices generated as regression")
    p.add_argument("--corruption", choices=["gaussian_noise", "feature_mask", "contrast_scale"])
    p.add_argument("--severity", type=int,
                   help=f"1-5, with --corruption only (default {GEN_SEVERITY})")

    p = sub.add_parser("finetune", help="pretrain a backbone and fine-tune per-task experts")
    p.add_argument("--data", required=True, type=_out_path)
    p.add_argument("--out-dir", required=True, type=_out_path)
    p.add_argument("--hidden", default="32,24,16", type=_indices,
                   help="encoder layer widths, comma-separated")
    p.add_argument("--pre-epochs", type=int, default=2)
    p.add_argument("--pre-lr", type=float, default=5e-3)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("merge", help="training-free merge of expert checkpoints")
    p.add_argument("--ckpt-dir", required=True, type=_out_path)
    p.add_argument("--method", required=True, choices=CONSTANT_METHODS)
    p.add_argument("--lambda", "--coeff", dest="coeff", type=float,
                   help="task-arithmetic scale (default 0.3, 0.1 beyond 8 tasks)")
    p.add_argument("--out-dir", required=True, type=_out_path)

    p = sub.add_parser("adapt", help="test-time adaptation of merging coefficients")
    p.add_argument("--data", required=True, type=_out_path)
    p.add_argument("--ckpt-dir", required=True, type=_out_path)
    p.add_argument("--method", required=True, choices=LEARNED_METHODS)
    p.add_argument("--out-dir", required=True, type=_out_path)
    p.add_argument("--config", help="adapt config JSON (or an adapt manifest)")
    p.add_argument("--iterations", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr-coeffs", type=float)
    p.add_argument("--lr-layer", type=float)
    p.add_argument("--init-coeff", type=float)
    p.add_argument("--trainable-layer", help="head | none | <index> | <lo>:<hi>")
    p.add_argument("--no-filter", dest="filter_enabled", action="store_false", default=None)
    p.add_argument("--no-train-coeffs", dest="train_coeffs", action="store_false",
                   default=None)
    p.add_argument("--update-mode", choices=["sequential", "aggregated"])
    p.add_argument("--task-order", choices=["shuffled_each_pass", "fixed"])
    p.add_argument("--loss", help="override the self-labeling loss kind")
    p.add_argument("--seed", type=int)

    # what eval and analyze score: the experts, a checkpoint, or a merge
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--data", required=True, type=_out_path)
    inputs.add_argument("--ckpt-dir", required=True, type=_out_path)
    inputs.add_argument("--method", default=DEFAULT_METHOD, choices=METHODS)
    inputs.add_argument("--checkpoint", type=_out_path,
                        help="evaluate this merged checkpoint instead")
    inputs.add_argument("--coeffs", type=_out_path, help="coefficient JSON from merge/adapt")
    inputs.add_argument("--layers", type=_out_path, help="trainable-layer bundle from adapt")
    inputs.add_argument("--out-dir", required=True, type=_out_path)

    p = sub.add_parser("eval", parents=[inputs],
                       help="evaluate experts, a checkpoint, or a merged assembly")

    p = sub.add_parser("analyze", parents=[inputs],
                       help="run diagnostic analyses and emit reports")
    p.add_argument("--analyses", required=True,
                   help=f"comma-separated subset of {','.join(ANALYSES)}")
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="aggregate emitted JSON reports into combined tables")
    p.add_argument("--runs", required=True, type=_out_path)
    p.add_argument("--out-dir", required=True, type=_out_path)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help/--version exit 0, usage errors exit 1
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.command == "report":
        command = report
    else:
        from . import commands
        command = getattr(commands, args.command)
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # the package's own errors (BundleError, DegenerateDataError, ShapeError,
    # UnknownTaskError) subclass ValueError or KeyError (whose str() quotes it)
    except (OSError, ValueError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
