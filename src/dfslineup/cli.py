"""Command-line entry point.

Exit codes: 0 success; for a toolkit error, its family's ``exit_code``
(2 bad input, 3 infeasible, 4 numeric failure); 2 for a file the OS
refuses (missing, a directory, unreadable).  Any other exception is a
program fault: it propagates with its traceback, and Python exits 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import logging
import sys
from pathlib import Path

from .config import RunConfig, load_config, save_config
from .errors import DFSLineupError, InfeasibleError, InputError, NumericError
from .report import cmd_report

EXIT_OK = 0
EXIT_INPUT = InputError.exit_code
EXIT_INFEASIBLE = InfeasibleError.exit_code
EXIT_NUMERIC = NumericError.exit_code

# The builtin digest modules hashlib imports when _hashlib is absent.
BUILTIN_DIGESTS = ("_md5", "_sha1", "_blake2", "_sha3") + (
    ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfslineup",
        description=(
            "Forecast weekly fantasy-football points with a model ensemble, "
            "solve the salary-capped lineup exactly, and validate the result "
            "against random and real-world lineup populations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("config-init", "write a default config file"),
        ("ingest", "build training/prediction windows from the season CSV"),
        ("predict", "train the ensemble and export prediction distributions"),
        ("optimize", "solve per-model lineups and select the modal lineup"),
        ("validate", "compare the lineup against baseline populations"),
        ("report", "render the validation bundle as text"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default="dfslineup.yaml", help="config file path")
        if name == "config-init":
            # It writes the defaults, so it takes no overrides.
            p.add_argument("--force", action="store_true", help="overwrite an existing file")
            continue
        p.add_argument("--output-dir", help="override the configured output directory")
        p.add_argument("--seed", type=int, help="override master_seed")
        p.add_argument("--n-models", type=int, help="override n_models")
        p.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    Before a computing stage, where the interpreter has every module in
    ``BUILTIN_DIGESTS``, this marks ``_hashlib`` absent in ``sys.modules``.
    The mark lasts for the rest of the process: if nothing had imported
    hashlib before, hashlib is then without OpenSSL for every later caller
    too (no ``hashlib.scrypt``, no OpenSSL-only names in ``hashlib.new``).
    """
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "config-init":
            path = Path(args.config)
            if path.exists() and not args.force:
                raise FileExistsError(f"{path} already exists (use --force to overwrite)")
            save_config(RunConfig(), path)
            print(f"wrote {path}")
            return EXIT_OK
        flags = dict(output_dir=args.output_dir, master_seed=args.seed, n_models=args.n_models)
        cfg = load_config(args.config, {k: v for k, v in flags.items() if v is not None})
        if args.command == "report":
            print(cmd_report(cfg), end="")
            return EXIT_OK
        # numpy.random imports secrets, hence hmac: with no _hashlib, hmac and
        # hashlib take CPython's no-OpenSSL path, and OpenSSL is never mapped.
        # A build that lacks a builtin digest keeps OpenSSL, which then serves it.
        if all(importlib.util.find_spec(name) for name in BUILTIN_DIGESTS):
            sys.modules.setdefault("_hashlib", None)
        # Only the computing stages load numpy and the model stack.
        from . import pipeline

        getattr(pipeline, f"cmd_{args.command}")(cfg)
        return EXIT_OK
    except DFSLineupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a missing, unreadable or misplaced file or directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
