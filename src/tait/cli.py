"""Command-line interface.

``tait <count|euler|p3|reduce|verify|gen> [args]``; graph files use the
plain-text map format, with ``-`` (the default) meaning stdin.  Exit
codes are a stable contract: 0 success, 1 parse or validation failure
(including usage errors, and a map too large for memory), 2 irreducible
graph, 3 non-bipartite input where bipartiteness is required.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import re
import sys
from fractions import Fraction

from .catalog import GENERATORS
from .coloring import count_tait
from .laurent import NotBipartiteError, p3
from .planar import MapError, parse_map, serialize_map
from .reduction import EULER_WEIGHTS, IrreducibleError, format_trace, reduce_map
from .verify import SUITES

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IRREDUCIBLE = 2
EXIT_NOT_BIPARTITE = 3

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse normally exits with code 2 on bad usage; 2 is taken."""

    def error(self, message):
        raise _UsageError(message)


@contextlib.contextmanager
def _any_digits():
    """Lift the interpreter's int-to-str digit limit while values are written.

    Exact values outgrow the limit (4,300 digits by default) long before
    memory.  It guards parsing against quadratic-time conversions, so it
    is back in place afterwards.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: none, as before 3.10.7
    if not limit:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _add_file_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "file",
        nargs="?",
        default="-",
        help="graph file in map text format, or - for stdin (default)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use.

    Parsing leaves no state in the parser: every call gets a fresh
    namespace, and the ``_cmd_*`` functions look their helpers up in this
    module when they run.
    """
    parser = _Parser(prog="tait", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="number of Tait colorings")
    _add_file_argument(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("euler", help="reduction value (loop=3, bigon=2)")
    _add_file_argument(p)
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("p3", help="quantum coloring polynomial (bipartite maps)")
    _add_file_argument(p)
    p.add_argument("--at", metavar="Q", help="evaluate at a rational q instead")
    # argparse takes only -1 and -.5 as negative values; --at takes every Fraction form
    p._negative_number_matcher = re.compile(r"-\.?\d")
    p.set_defaults(func=_cmd_p3)

    p = sub.add_parser("reduce", help="print the reduction tree and its value")
    _add_file_argument(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="run a property campaign")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="write a catalog graph to stdout")
    p.add_argument("family", choices=GENERATORS)
    p.add_argument("n", nargs="?", type=int, help="size, for families that take one")
    p.set_defaults(func=_cmd_gen)

    return parser


def _cmd_count(args) -> int:
    cmap = parse_map(_read_text(args.file))
    count = count_tait(cmap)
    with _any_digits():
        print(count)
    return EXIT_OK


def _cmd_euler(args) -> int:
    cmap = parse_map(_read_text(args.file), check_planar=True)
    value = reduce_map(cmap, EULER_WEIGHTS).value()
    with _any_digits():
        print(value)
    return EXIT_OK


def _cmd_p3(args) -> int:
    q = None
    if args.at is not None:
        try:
            q = Fraction(args.at)
        except (ValueError, ZeroDivisionError):
            # the interpreter's digit limit (0: none), kept against quadratic-time parsing
            limit = getattr(sys, "get_int_max_str_digits", int)()
            digits = sum(map(str.isdigit, args.at))
            if 0 < limit < digits:
                raise ValueError(f"rational of {digits} digits is too long") from None
            raise ValueError(f"invalid rational {args.at!r}") from None
    cmap = parse_map(_read_text(args.file), check_planar=True)
    value = p3(cmap)
    if q is not None:
        try:
            value = value(q)
        except ZeroDivisionError:
            raise ValueError("evaluation at q = 0 hits a negative power") from None
    with _any_digits():
        print(value)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    cmap = parse_map(_read_text(args.file), check_planar=True)
    trace = reduce_map(cmap, EULER_WEIGHTS)
    with _any_digits():
        print(format_trace(trace))
        print(f"value {trace.value()}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    run = SUITES[args.suite]
    given = {k: v for k in ("trials", "seed") if (v := getattr(args, k)) is not None}
    try:
        # bind, not a lookup of parameter names: a (*args, **kwargs) wrapper accepts any
        inspect.signature(run).bind(**given)
    except TypeError as exc:
        raise _UsageError(f"suite {args.suite} {exc}") from None
    report = run(**given)
    if args.json:
        print(json.dumps(report.as_dict()))
    else:
        print(report.format_text())
    return EXIT_OK if report.passed else EXIT_INVALID


def _cmd_gen(args) -> int:
    make = GENERATORS[args.family]
    params = inspect.signature(make).parameters.values()
    if args.n is not None:
        if not params:
            raise _UsageError(f"{args.family} takes no size argument")
        cmap = make(args.n)
    elif any(p.default is p.empty for p in params):
        example = f"tait gen {args.family} 4"
        raise _UsageError(f"{args.family} needs a ring size, e.g. '{example}'")
    else:
        cmap = make()
    sys.stdout.write(serialize_map(cmap))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"tait: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except IrreducibleError as exc:
        print(f"tait: irreducible: {exc}", file=sys.stderr)
        sys.stderr.write(serialize_map(exc.graph))
        return EXIT_IRREDUCIBLE
    except NotBipartiteError as exc:
        print(f"tait: not bipartite: {exc}", file=sys.stderr)
        return EXIT_NOT_BIPARTITE
    except (MapError, ValueError, OSError) as exc:
        print(f"tait: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (RecursionError, MemoryError) as exc:
        reason = type(exc).__name__
        print(f"tait: error: map too large for this command ({reason})", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
