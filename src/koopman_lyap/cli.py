"""Command-line entry point.

    koopman-lyap <subcommand> <config> [--output-dir PATH] [--threads N]

Subcommands: run, linearize, eigenfunctions, lyapunov, certify, oracle-check.
<config> is a file path or, when no such file exists, the name of a bundled
configuration ("example1", "duffing").
Exit codes: 0 success, 1 validation error, 2 numeric failure, 3 I/O error.

_COMMANDS maps each subcommand to the name of its pipeline function, which
returns (result, text); the CLI prints the text. The name is looked up at
call time, so a wrapper rebound in pipeline (a tracer's span) runs too.

Heavy imports happen after argument parsing so --threads can cap the BLAS
thread pools through environment variables before numpy loads.
"""

from __future__ import annotations

import argparse
import os
import sys

_COMMANDS = {
    "run": "run_pipeline",
    "linearize": "stage_linearize",
    "eigenfunctions": "stage_eigenfunctions",
    "lyapunov": "stage_lyapunov",
    "certify": "stage_certify",
    "oracle-check": "stage_oracle_check",
}

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopman-lyap",
        description=(
            "Construct a Lyapunov function for an ODE system from kernel-"
            "collocated Koopman eigenfunctions and certify it piecewise affine."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument(
            "config",
            help="path to a run configuration file, or the name of a bundled one",
        )
        p.add_argument(
            "--output-dir",
            default=None,
            help="override the output directory from the config",
        )
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="cap BLAS/OpenMP thread pools (single process either way)",
        )
    return parser


def _cap_threads(n: int) -> None:
    if n < 1:
        raise SystemExit("error: --threads must be at least 1")
    if "numpy" in sys.modules:
        print(
            "warning: numpy already imported; --threads has no effect",
            file=sys.stderr,
        )
        return
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(n)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads is not None:
        _cap_threads(args.threads)

    from . import pipeline
    from .config import ConfigError, bundled_config_path, load_config

    try:
        path = args.config
        if not os.path.exists(path):
            try:
                path = bundled_config_path(path)
            except ConfigError:
                pass  # load_config reports the missing file (exit code 3)
        cfg = load_config(path)
        outdir = pipeline.ensure_output_dir(args.output_dir or cfg.output_dir)
        _, text = getattr(pipeline, _COMMANDS[args.command])(cfg, outdir)
        print(text, end="")
    except Exception as exc:  # noqa: BLE001 - classified into exit codes
        code = pipeline.classify_error(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
