"""One benchmark operation in its own process.

    worker.py [--spans FILE] cli ARGS...        fishburn.cli.main(ARGS)
    worker.py [--spans FILE] count QUERIES      fishburn.count per query
    worker.py count --setup-only QUERIES        build the queries, count none

QUERIES is a JSON list of [patterns, n, one_position]; the counts are printed
as one JSON list after the last query.  With --spans the calls into
fishburn's layers are traced and the spans written to FILE as JSON at exit.
"""

from __future__ import annotations

import argparse
import json
import sys

from spans import Tracer, traced


def build_queries(spec: list) -> list:
    import fishburn

    return [
        fishburn.AvoidanceQuery(n, fishburn.PatternSet.parse(patterns, fishburn=True),
                                one_position=one_position)
        for patterns, n, one_position in spec
    ]


def run_count(queries: list) -> int:
    import fishburn

    # Looked up on the package at call time, so a traced run sees the wrapper.
    counts = [fishburn.count(q) for q in queries]
    print(json.dumps(counts))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("args", nargs=argparse.REMAINDER)
    p_count = sub.add_parser("count")
    p_count.add_argument("--setup-only", action="store_true")
    p_count.add_argument("queries")
    args = parser.parse_args(argv)

    if args.mode == "cli":
        import fishburn.cli

        def work():
            # Looked up at call time, so a traced run sees the wrapper.
            return fishburn.cli.main(args.args)
    else:
        queries = build_queries(json.loads(args.queries))
        if args.setup_only:
            print(json.dumps(len(queries)))
            return 0

        def work():
            return run_count(queries)

    if args.spans is None:
        return work()
    tracer = Tracer()
    try:
        with traced(tracer):
            return work()
    finally:
        sys.stdout.flush()
        with open(args.spans, "w") as fh:
            json.dump(tracer.as_dict(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
