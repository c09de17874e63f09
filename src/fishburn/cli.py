"""Command-line frontend: count, list, series, verify.

Everything is a flag, with no config files or environment variables, so a
published invocation reproduces exactly.  Results go to stdout (or --output),
`list` and delimited `verify` output as it is found; diagnostics go to stderr.
Exit codes: 0 success (also when the reader of stdout closes it early), 1
verification failure, 2 usage or parse error, 3 capacity exceeded.

Only the kernel is imported at start: `fishburn.verify` loads at the first
`verify` call and `fishburn.sequences` at the first `series` call, so a
`count` or `list` start compiles neither.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack, nullcontext

from fishburn.enumeration import (
    DEFAULT_COUNT_CAP,
    DEFAULT_LIST_CAP,
    SERIES_CAP,
    AvoidanceQuery,
    CapacityError,
    check_cap,
    count,
    members,
)
from fishburn.patterns import PatternSet
from fishburn.perm import ParseError, parse_values

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

# `verify.SUITES`, in the order `all` runs them, named here so that the
# parser is built without loading `fishburn.verify`.
SUITES = ("table", "decompositions", "lemmas", "wilf", "lrmax", "prefix", "identities", "all")


def run_suite(suite: str, max_n: int, emit=None) -> list:
    """`verify.run_suite`, with `fishburn.verify` loaded at the first call."""
    from fishburn import verify

    return verify.run_suite(suite, max_n, emit)


def _formatter(name: str):
    def format_reports(reports: list) -> str:
        from fishburn import verify

        return getattr(verify, f"format_{name}")(reports)

    return format_reports


# `cmd_verify` looks up `run_suite` and these formatters at call time, so a
# wrapper installed on this module (a tracer, a test double) sees the call.
_FORMATTERS = {name: _formatter(name) for name in ("plain", "delimited", "structured")}


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _add_query_arguments(parser: argparse.ArgumentParser, default_cap: int) -> None:
    parser.add_argument("--avoid", default="", metavar="PATTERNS",
                        help="comma-separated classical patterns, e.g. 321,1423,2143")
    parser.add_argument("--fishburn", action="store_true",
                        help="additionally require members to avoid the Fishburn pattern")
    parser.add_argument("-n", dest="n", type=int, required=True, help="permutation length")
    parser.add_argument("--one-pos", dest="one_pos", type=int, choices=(1, 2), default=None,
                        help="keep only members whose entry 1 sits at this position")
    parser.add_argument("--prefix", default="", metavar="VALUES",
                        help="members must begin with these values (space-separated or compact digits)")
    parser.add_argument("--prefix-negation", action="store_true",
                        help="match all of PREFIX but its last slot, which must hold a different value")
    parser.add_argument("--cap", type=_nonnegative_int, default=default_cap,
                        help=f"length cap (default {default_cap})")
    parser.add_argument("-o", "--output", default=None, help="write results here instead of stdout")


def _build_query(args: argparse.Namespace) -> AvoidanceQuery:
    check_cap(args.n, args.cap)  # first: a bad -n is named as such, and -o FILE is not yet open
    patterns = PatternSet.parse(args.avoid, fishburn=args.fishburn)
    # Compact digits name values up to 9, so from n = 10 on `12` is one value.
    prefix = parse_values(args.prefix, compact=args.n <= 9)
    return AvoidanceQuery(
        args.n,
        patterns,
        one_position=args.one_pos,
        prefix=prefix,
        prefix_negation=args.prefix_negation,
    )


def _open_output(path: str | None):
    return open(path, "w") if path else nullcontext(sys.stdout)


def cmd_count(args: argparse.Namespace) -> int:
    query = _build_query(args)
    value = count(query, cap=args.cap)
    with _open_output(args.output) as out:
        print(value, file=out)
    return EXIT_OK


def cmd_list(args: argparse.Namespace) -> int:
    """Print each member as its values separated by single spaces, one
    write per batch of `enumeration.BATCH` words that `members` hands out as
    it walks, so the buffer below holds one batch's bytes.

    Every member is a permutation of 1..n, so every line holds the same n
    values and can be laid out at a fixed width: n fields of `width + 1`
    bytes, each value's digits right-aligned in its first `width` bytes with
    NUL in front, then a separator.  A batch is formatted by slice
    assignment: digit column j of every field at once from one
    `str.translate` of the batch's joined words (one character to one ASCII
    character, CPython's fast path), the last separator of each line turned
    into a newline, and the NUL padding deleted: `width + 2` C passes per
    batch.  From n = 80 on a word holds characters past ASCII, and
    `str.translate` takes its slower path, with the same result.
    """
    query = _build_query(args)
    n = query.n
    width = len(str(n))
    field = width + 1
    line = n * field
    # columns[j] maps a word's chr(48 + v) to v's digit in column j, or NUL.
    columns = [{48 + v: str(v).rjust(width, "\0")[j] for v in range(1, n + 1)} for j in range(width)]

    def write(batch: list[str]) -> None:
        if n == 0:
            out.write("\n" * len(batch))  # each member is the empty permutation
            return
        text = "".join(batch)
        buf = bytearray((b"\0" * width + b" ") * len(text))
        for j, column in enumerate(columns):
            buf[j::field] = text.translate(column).encode("ascii")
        buf[line - 1::line] = b"\n" * len(batch)
        out.write(buf.translate(None, b"\0").decode("ascii"))

    with _open_output(args.output) as out:
        members(query, cap=args.cap, out=write)
    return EXIT_OK


def cmd_series(args: argparse.Namespace) -> int:
    from fishburn.sequences import fishburn_series

    coefficients = fishburn_series(args.degree)
    with _open_output(args.output) as out:
        for n, c in enumerate(coefficients):
            print(f"{n}\t{c}", file=out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    """Delimited output is written and flushed one report at a time, as each
    is checked; plain and structured output summarise the run, so they are
    written at its end.  -o FILE is opened at the first write."""
    out = None
    with ExitStack() as stack:
        def write(reports: list) -> None:
            nonlocal out
            if out is None:
                out = stack.enter_context(_open_output(args.output))
            out.write(_FORMATTERS[args.format](reports))
            out.flush()

        streamed = args.format == "delimited"
        reports = run_suite(args.suite, args.max_n, (lambda report: write([report])) if streamed else None)
        if not streamed:
            write(reports)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fishburn",
        description="Count, list, and verify pattern-avoiding (Fishburn) permutation classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="print the exact size of an avoidance class")
    _add_query_arguments(p_count, DEFAULT_COUNT_CAP)
    p_count.set_defaults(func=cmd_count)

    p_list = sub.add_parser("list", help="print every member, one per line, lexicographically")
    _add_query_arguments(p_list, DEFAULT_LIST_CAP)
    p_list.set_defaults(func=cmd_list)

    p_series = sub.add_parser("series", help="print Fishburn-number series coefficients")
    p_series.add_argument("-N", dest="degree", type=int, required=True,
                          help="truncation degree (coefficients 0..N)")
    p_series.add_argument("-o", "--output", default=None)
    p_series.set_defaults(func=cmd_series)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=9,
                          help="verify for lengths up to this bound (default 9); at most "
                               f"{DEFAULT_COUNT_CAP}, {SERIES_CAP} for identities, and a larger bound exits 3")
    p_verify.add_argument("--format", choices=sorted(_FORMATTERS), default="plain")
    p_verify.add_argument("-o", "--output", default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away (`fishburn list ... | head`).  Point
        # stdout at devnull so the flush at interpreter exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except CapacityError as exc:
        print(f"fishburn: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ParseError, ValueError, OSError) as exc:
        print(f"fishburn: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())
