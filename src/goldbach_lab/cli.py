"""Command-line driver: goldbach-lab <verify|audit|census|dc|sieve|partition>.

Exit codes: 0 on success (failing relations are data, not errors), 1 on
internal error, 2 on invalid arguments, paths or domain errors.  JSON output is
byte-identical for identical query parameters, whatever the worker count.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from typing import Callable, Iterable, Optional, Union

from . import serialize
from .audit import audit_range
from .census import census_range
from .dc import dc_min, goldbach_pairs
from .errors import GoldbachLabError
from .primes import sieve_segment
from .rowrange import Range, partition_rows
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


def cmd_verify(args: argparse.Namespace) -> int:
    summary = run_verify(
        args.from_,
        args.to,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        checkpoint_stride=args.checkpoint_stride,
    )
    if args.format == "json":
        params = {"from": summary.from_even, "to": summary.to_even}
        payload = serialize.sweep_payload(summary)
        _emit(serialize.to_json("verify", params, payload), args.output)
        print(
            f"verified {summary.verified} evens in {summary.elapsed_seconds:.2f} s",
            file=sys.stderr,
        )
    else:
        _emit(serialize.sweep_text(summary), args.output)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    result = audit_range(
        Range(args.from_, args.to), args.row_width, workers=args.workers
    )
    if args.format == "json":
        params = {"from": args.from_, "to": args.to, "width": args.row_width}
        chunks = serialize.audit_json(result, params)
    elif args.format == "csv":
        chunks = serialize.audit_csv(result)
    else:
        chunks = serialize.audit_text(result)
    _emit(chunks, args.output)
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    items = census_range(Range(args.from_, args.to), args.row_width)
    if args.format == "json":
        text = serialize.to_json(
            "census",
            {"from": args.from_, "to": args.to, "width": args.row_width},
            serialize.census_payload(items),
        )
    elif args.format == "csv":
        text = serialize.census_csv(items)
    else:
        text = serialize.census_text(items)
    _emit(text, args.output)
    return 0


def cmd_dc(args: argparse.Namespace) -> int:
    result = dc_min(args.target)
    pairs = goldbach_pairs(args.target) if args.pairs else None
    if args.format == "json":
        text = serialize.to_json(
            "dc",
            {"target": args.target, "pairs": bool(args.pairs)},
            serialize.dc_payload(result, pairs),
        )
    else:
        text = serialize.dc_text(result, pairs)
    _emit(text, args.output)
    return 0


def cmd_sieve(args: argparse.Namespace) -> int:
    seg = sieve_segment(args.from_, args.to)
    if args.format == "json":
        payload = serialize.segment_payload(seg, include_primes=args.list)
        text = serialize.to_json("sieve", {"from": args.from_, "to": args.to}, payload)
    else:
        text = f"primes in [{seg.lo}, {seg.hi}]: {seg.count()}\n"
        if args.list:
            text += " ".join(str(p) for p in seg.primes()) + "\n"
    _emit(text, args.output)
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    rows = partition_rows(Range(args.from_, args.to), args.row_width)
    if args.format == "json":
        text = serialize.to_json(
            "partition",
            {"from": args.from_, "to": args.to, "width": args.row_width},
            serialize.partition_payload(rows, args.row_width),
        )
    else:
        text = "\n".join(f"row {r.start}..{r.end}" for r in rows) + "\n"
    _emit(text, args.output)
    return 0


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


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that adds its arguments when it first parses, so
    a call builds the arguments of the subcommand it invokes and no other's."""

    def __init__(self, *, arguments: Callable[[argparse.ArgumentParser], None], **kwargs) -> None:
        super().__init__(**kwargs)
        self._arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._arguments is not None:
            self._arguments(self)
            self._arguments = None
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goldbach-lab",
        description="Verify two-prime decompositions and audit row relation sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, help_text, arguments, func in _COMMANDS:
        sub.add_parser(name, help=help_text, arguments=arguments).set_defaults(func=func)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_paths(args.output, getattr(args, "checkpoint", None))
        return args.func(args)
    except (GoldbachLabError, OSError, ValueError) as exc:  # OSError: an unusable path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        detail = ": ".join(filter(None, (type(exc).__name__, str(exc))))
        print(f"internal error: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
