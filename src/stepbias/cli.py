"""Command line entry point.

Two subcommands: ``run`` executes an experiment from a JSON config and
writes CSV/SVG outputs plus a manifest; ``validate`` checks a config and
exits. Exit codes: 0 success, 1 config parse/validation failure, 2
certification failure or any other refusal by the library (an
infeasible level-set window, a singular kernel, a target already below
the initial loss) or a run too large for memory, 3 I/O failure. No
StepbiasError or MemoryError escapes as a traceback.
"""

import argparse
import os
import sys

from .config import canonical_config, load_config, validate_config
from .errors import IoError, ParseError, StepbiasError, ValidationError
from .experiments import run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CERTIFICATION = 2
EXIT_IO = 3

_RED = "\033[31m"
_GREEN = "\033[32m"
_RESET = "\033[0m"


def _use_color(stream):
    if os.environ.get("NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _emit(stream, text, color):
    if _use_color(stream):
        stream.write(f"{color}{text}{_RESET}\n")
    else:
        stream.write(text + "\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stepbias",
        description="Certify step-size-dependent spectral bias of gradient descent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("--config", required=True, help="path to the JSON config")
    run.add_argument("--output-dir", default=None, help="override the output directory")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")

    validate = sub.add_parser("validate", help="validate a JSON config and exit")
    validate.add_argument("--config", required=True, help="path to the JSON config")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    out, err = sys.stdout, sys.stderr
    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            _emit(out, f"ok: {cfg.experiment}", _GREEN)
            return EXIT_OK
        overrides = {"output_dir": args.output_dir, "seed": args.seed}
        overrides = {k: v for k, v in overrides.items() if v is not None}
        if overrides:
            cfg = validate_config({**canonical_config(cfg), **overrides})
        manifest = run_experiment(cfg)
        for entry in manifest["files"]:
            _emit(out, f"wrote {cfg.output_dir}/{entry['path']}", _GREEN)
        _emit(out, f"wrote {cfg.output_dir}/manifest.json", _GREEN)
        return EXIT_OK
    except (ParseError, ValidationError) as exc:
        _emit(err, f"error: {exc}", _RED)
        return EXIT_VALIDATION
    except (IoError, OSError) as exc:
        _emit(err, f"error: {exc}", _RED)
        return EXIT_IO
    except StepbiasError as exc:
        _emit(err, f"error: {exc}", _RED)
        return EXIT_CERTIFICATION
    except MemoryError as exc:
        _emit(err, f"error: out of memory: {exc}", _RED)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
