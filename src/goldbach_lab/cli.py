"""Command-line driver: goldbach-lab <verify|audit|census|dc|sieve|partition>.

Exit codes: 0 on success (failing relations are data, not errors), 1 on
internal error, 2 on invalid arguments, paths or domain errors.  JSON output is
byte-identical for identical query parameters, whatever the worker count.

Each ``cmd_*`` handler returns its output, a string or the rows' chunks as
they render, and ``main`` writes it once.  The parser gets the arguments of
the invoked subcommand only.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from typing import Iterable, Optional, Union

from . import serialize
from .audit import _audit_groups
from .census import _census_groups
from .dc import dc_min, goldbach_pairs
from .errors import GoldbachLabError
from .primes import sieve_segment
from .rowrange import Range, _check_width
from .sweep import DEFAULT_CHECKPOINT_STRIDE, run_verify


def _natural(text: str) -> int:
    # int() already accepts underscore separators: 10_000_000
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {text!r}")
    return value


def _check_paths(*paths: Optional[str]) -> None:
    """Refuse a path the command could not write, before it does any work."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _emit(chunks: Union[str, Iterable[str]], path: Optional[str]) -> None:
    """Write the output text, or its chunks as they render, to path or stdout."""
    if isinstance(chunks, str):  # writelines on a str writes it one character at a time
        chunks = (chunks,)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _add_common(parser: argparse.ArgumentParser, formats=serialize.FORMATS) -> None:
    parser.add_argument("--format", choices=formats, default="text")
    parser.add_argument("--output", metavar="PATH", default=None)


def _add_bounds(parser: argparse.ArgumentParser, row_width: bool = False) -> None:
    parser.add_argument("--from", dest="from_", type=_natural, required=True)
    parser.add_argument("--to", type=_natural, required=True)
    if row_width:
        parser.add_argument("--row-width", type=_natural, required=True)


def _row_params(args: argparse.Namespace) -> dict[str, int]:
    return {"from": args.from_, "to": args.to, "width": args.row_width}


def cmd_verify(args: argparse.Namespace) -> str:
    summary = run_verify(
        args.from_,
        args.to,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        checkpoint_stride=args.checkpoint_stride,
    )
    if args.format == "text":
        return serialize.sweep_text(summary)
    print(f"verified {summary.verified} evens in {summary.elapsed_seconds:.2f} s", file=sys.stderr)
    params = {"from": summary.from_even, "to": summary.to_even}
    return serialize.to_json("verify", params, serialize.sweep_payload(summary))


def cmd_audit(args: argparse.Namespace) -> Iterable[str]:
    # refusals and the pair proof run here, before main opens the output
    walk = _audit_groups(Range(args.from_, args.to), args.row_width, workers=args.workers)
    if args.format == "json":
        return serialize.audit_json(walk, _row_params(args))
    if args.format == "csv":
        return serialize.audit_csv(walk, range(args.from_, args.to + 1, args.row_width))
    return serialize.audit_text(walk)


def cmd_census(args: argparse.Namespace) -> Iterable[str]:
    walk = _census_groups(Range(args.from_, args.to), args.row_width)  # refusals run here
    if args.format == "json":
        return serialize.census_json(walk, _row_params(args))
    return serialize.census_csv(walk) if args.format == "csv" else serialize.census_text(walk)


def cmd_dc(args: argparse.Namespace) -> str:
    result = dc_min(args.target)
    pairs = goldbach_pairs(args.target) if args.pairs else None
    if args.format == "text":
        return serialize.dc_text(result, pairs)
    params = {"target": args.target, "pairs": bool(args.pairs)}
    return serialize.to_json("dc", params, serialize.dc_payload(result, pairs))


def cmd_sieve(args: argparse.Namespace) -> Iterable[str]:
    seg = sieve_segment(args.from_, args.to)
    if args.format == "json":
        return serialize.sieve_json(seg, {"from": args.from_, "to": args.to}, args.list)
    return serialize.sieve_text(seg, args.list)


def cmd_partition(args: argparse.Namespace) -> Iterable[str]:
    width = args.row_width
    _check_width(Range(args.from_, args.to), width)  # refused here, before main opens the output
    starts = range(args.from_, args.to + 1, width)
    if args.format == "json":
        return serialize.partition_json(starts, width, _row_params(args))
    return serialize.partition_text(starts, width)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    _add_bounds(p)
    p.add_argument("--workers", type=_natural, default=1)
    p.add_argument("--checkpoint", metavar="PATH", default=None)
    p.add_argument(
        "--checkpoint-stride",
        type=_natural,
        default=DEFAULT_CHECKPOINT_STRIDE,
        help="evens between checkpoint writes",
    )
    _add_common(p, formats=("json", "text"))


def _audit_arguments(p: argparse.ArgumentParser) -> None:
    _add_bounds(p, row_width=True)
    p.add_argument("--workers", type=_natural, default=1)
    _add_common(p)


def _census_arguments(p: argparse.ArgumentParser) -> None:
    _add_bounds(p, row_width=True)
    _add_common(p)


def _dc_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("target", type=_natural)
    p.add_argument("--pairs", action="store_true", help="also list all prime pairs")
    _add_common(p, formats=("json", "text"))


def _sieve_arguments(p: argparse.ArgumentParser) -> None:
    _add_bounds(p)
    p.add_argument("--list", action="store_true", help="include the full prime list")
    _add_common(p, formats=("json", "text"))


def _partition_arguments(p: argparse.ArgumentParser) -> None:
    _add_bounds(p, row_width=True)
    _add_common(p, formats=("json", "text"))


_COMMANDS = (  # name, help, the function adding its arguments, handler
    ("verify", "check every even in [from, to] splits into two primes", _verify_arguments,
     cmd_verify),
    ("audit", "evaluate the relation catalog on every row", _audit_arguments, cmd_audit),
    ("census", "count evens, odds, and primes per row", _census_arguments, cmd_census),
    ("dc", "minimal prime-summand count for one target", _dc_arguments, cmd_dc),
    ("sieve", "sieve one segment and report its primes", _sieve_arguments, cmd_sieve),
    ("partition", "split a range into equal-width rows", _partition_arguments, cmd_partition),
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser.  Only the subcommand named ``command`` gets its
    arguments, so a call builds the arguments it parses and no other's."""
    parser = argparse.ArgumentParser(
        prog="goldbach-lab",
        description="Verify two-prime decompositions and audit row relation sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, func in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if name == command:
            arguments(p)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        _check_paths(args.output, getattr(args, "checkpoint", None))
        _emit(args.func(args), args.output)
        return 0
    except (GoldbachLabError, OSError, ValueError) as exc:  # OSError: an unusable path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        detail = ": ".join(filter(None, (type(exc).__name__, str(exc))))
        print(f"internal error: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
