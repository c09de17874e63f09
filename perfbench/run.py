"""Benchmark for the fishburn package: time to a verified answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Every operation runs in a fresh interpreter, one at a time, with a
fixed reference task (reference.py) between operations; end-to-end times are
rescaled by it to a nominal machine speed.  The last line of stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1).  A run record with the raw samples is written to
perfbench/runs/.  See perfbench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
WORKER = HERE / "worker.py"
LAUNCH = HERE / "launch.py"

SETUP_PER_OP = 3
REFERENCE = HERE / "reference.py"
REFERENCE_OUTPUT = b"13358"
# End-to-end times are rescaled to a machine that runs the reference task in
# REFERENCE_S seconds, about its time on the shared 2-vCPU host the benchmark
# was defined on.  That host's speed drifts by up to half within minutes; the
# ratio of an operation's time to the reference runs on either side of it
# drifts much less.
REFERENCE_S = 0.6
DEADLINE_S = 170  # a run never outlives this, whatever --seconds says
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

# Fishburn numbers c_0..c_10 (OEIS A022493), for the line count of `list`.
FISHBURN_NUMBERS = (1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240, 201608)

# sha256 of stdout, recorded from the seed commit's program.
EXPECTED_SHA256 = {
    ("verify-all", "full"): "5eed7b2d2841fc9dea899c6a52b4f455717d05c9954b4b77931f5ca91425854e",
    ("verify-all", "tiny"): "5f025389b2503f37d9a02d4417ac67cac04d8c08b3fa33594446263c8bcecf10",
    ("verify-all", "setup"): "c77a387e864315f4a58609c761f733e52234c463366c9445813bcce99044b50a",
    ("list-fishburn", "full"): "8838b4f2494b91c0d91bdd67cb26aee500eaed33c695f088afa546d499cf1a06",
    ("list-fishburn", "tiny"): "9c20d185a4582fe91d7a648d848d47909b212e79b4701476570968ff7d6f4c5c",
    ("list-fishburn", "setup"): "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
}


def pell(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, 2 * b + a
    return a


def pell_q(n: int) -> int:
    return 1 if n == 0 else (pell(n) + pell(n - 1) + 1) // 2


def quad_a(n: int) -> int:
    return n * n - 3 * n + 4


# count-hard: (Wilf-equivalent pattern sets, closed form, n at full and tiny
# size, one_position).  Every class is also Fishburn-restricted.  The seed
# picks one set per query.  321,2134 (also n^2-3n+4) and 321,31524 (also
# Q(n)) are left out: the prefix search spends 20-100% more or less time on
# them, so picking them would make the seed, not the code, move wall_s.
COUNT_HARD = (
    (("321,1243",), quad_a, 12, 6, None),
    (("321,31452", "321,41523"), pell_q, 11, 5, None),
    # Entry 1 first: Q(n) - P(n-1) = Q(n-1) members.
    (("321,31452", "321,41523"), lambda n: pell_q(n - 1), 12, 6, 1),
)

END_TO_END = ("wall_s", "setup_s", "first_output_s", "peak_rss_mb")
UNITS = {
    "wall_s": "s", "setup_s": "s", "first_output_s": "s", "peak_rss_mb": "MB",
    "error_rate": "ratio", "trace.overhead_s": "s", "trace.wall_s": "s", "trace.outside_s": "s",
    "patterns.anchored_checks": "count", "patterns.members_per_check": "ratio",
    "enumeration.calls": "count", "enumeration.members": "count",
    "enumeration.members_per_s": "1/s", "perm.leaf_builds": "count",
    "verify.records": "count", "verify.output_bytes": "bytes", "sequences.calls": "count",
    "cli.output_bytes": "bytes",
}
PER_LAYER = (
    "patterns.anchored_checks", "patterns.check_s", "patterns.members_per_check",
    "enumeration.calls", "enumeration.busy_s", "enumeration.self_s", "enumeration.members",
    "enumeration.members_per_s", "perm.leaf_builds", "perm.build_s",
    "verify.records", "verify.busy_s", "verify.self_s",
    "verify.suite_s.table", "verify.suite_s.decompositions", "verify.suite_s.lemmas",
    "verify.suite_s.wilf", "verify.suite_s.lrmax", "verify.suite_s.prefix",
    "verify.suite_s.identities", "verify.format_s", "verify.output_bytes",
    "sequences.calls", "sequences.busy_s", "cli.busy_s", "cli.self_s", "cli.output_bytes",
    "trace.wall_s", "trace.outside_s", "trace.overhead_s", "error_rate",
)
COUNTS = ("patterns.anchored_checks", "perm.leaf_builds", "enumeration.members",
          "verify.records", "enumeration.calls", "sequences.calls", "verify.output_bytes",
          "cli.output_bytes")


def unit(name: str) -> str:
    return UNITS.get(name, "s")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """Commands for one workload, and the checks on their output.

    `check` returns (attempted, failed) operations for one run of `argv`;
    `failures` counts the failed checks by name.
    """

    def __init__(self, name: str, seed: int, size: str):
        self.name = name
        self.size = size
        self.failures: collections.Counter = collections.Counter()
        py = sys.executable
        if name == "verify-all":
            max_n = 9 if size == "full" else 5
            self.cli = ["verify", "all", "--max-n", str(max_n), "--format", "delimited"]
            self.setup_cli = ["verify", "all", "--max-n", "0", "--format", "delimited"]
        elif name == "list-fishburn":
            self.n = 10 if size == "full" else 5
            self.cli = ["list", "--fishburn", "-n", str(self.n)]
            self.setup_cli = ["list", "--fishburn", "-n", "0"]
        elif name == "count-hard":
            rng = random.Random(seed)
            queries = []
            for group, form, n_full, n_tiny, one_position in COUNT_HARD:
                n = n_full if size == "full" else n_tiny
                queries.append((rng.choice(group), n, one_position, form(n)))
            rng.shuffle(queries)
            self.queries = [q[:3] for q in queries]
            self.expected_counts = [q[3] for q in queries]
            spec = json.dumps(self.queries)
            self.argv = [py, str(WORKER), "count", spec]
            self.setup_argv = [py, str(WORKER), "count", "--setup-only", spec]
            self.traced_tail = ["count", spec]
        else:
            raise ValueError(f"unknown workload {name!r}")
        if name != "count-hard":
            self.argv = [py, "-m", "fishburn", *self.cli]
            self.setup_argv = [py, "-m", "fishburn", *self.setup_cli]
            self.traced_tail = ["cli", *self.cli]

    def traced_argv(self, spans_path: Path) -> list[str]:
        return [sys.executable, str(WORKER), "--spans", str(spans_path), *self.traced_tail]

    def check_setup(self, code: int, out: bytes) -> tuple[int, int]:
        if self.name == "count-hard":
            ok = code == 0 and out.strip() == str(len(self.queries)).encode()
        else:
            ok = code == 0 and sha256(out) == EXPECTED_SHA256[(self.name, "setup")]
        if not ok:
            self.failures["setup"] += 1
        return 1, int(not ok)

    def check(self, code: int, out: bytes) -> tuple[int, int]:
        if self.name == "count-hard":
            attempted = len(self.queries)
            try:
                counts = json.loads(out)
            except ValueError:
                counts = None
            if code != 0 or not isinstance(counts, list) or len(counts) != attempted:
                self.failures["no_counts"] += attempted
                return attempted, attempted
            wrong = sum(c != e for c, e in zip(counts, self.expected_counts))
            self.failures["count"] += wrong
            return attempted, wrong
        faults = [] if code == 0 else ["exit"]
        if sha256(out) != EXPECTED_SHA256[(self.name, self.size)]:
            faults.append("sha256")
            if self.name == "list-fishburn":
                faults += self.list_faults(out)
        self.failures.update(faults)
        return 1, int(bool(faults))

    def list_faults(self, out: bytes) -> list[str]:
        """Why a `list` output differs from the recorded one.

        The recorded digest is that of c_n lines in strictly increasing
        order, so a matching output needs neither check; on a mismatch they
        tell a wrong member set or count from a wrong order.
        """
        try:
            rows = [tuple(map(int, line.split())) for line in out.decode().splitlines()]
        except ValueError:
            return ["unparsable"]
        faults = []
        if len(rows) != FISHBURN_NUMBERS[self.n]:
            faults.append("line_count")
        if any(a >= b for a, b in zip(rows, rows[1:])):
            faults.append("order")
        return faults


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], stderr, deadline: float) -> dict:
    """Run argv to completion through launch.py and time it from outside.

    wall_s runs from the fork to the reaped exit, first_output_s from the
    fork to the first stdout byte (both CLOCK_MONOTONIC, which every process
    shares); peak_rss_mb is the command's own maximum resident set.  A
    command still running at `deadline` (a perf_counter time) is killed.
    """
    report_r, report_w = os.pipe()
    try:
        proc = subprocess.Popen([sys.executable, "-S", "-I", str(LAUNCH), str(report_w), *argv],
                                stdout=subprocess.PIPE, stderr=stderr, cwd=ROOT,
                                env=child_env(), pass_fds=(report_w,))
    finally:
        os.close(report_w)
    chunks, first = [], None
    fd = proc.stdout.fileno()
    killed = False
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                proc.terminate()
                killed = True
                break
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            if first is None:
                first = time.monotonic()
            chunks.append(chunk)
    except BaseException:
        proc.terminate()
        raise
    finally:
        proc.wait()
        proc.stdout.close()
        with os.fdopen(report_r, "rb") as fh:
            report = fh.read().split()
    if proc.returncode != 0 or len(report) != 4:
        return {"code": -1, "out": b"", "wall_s": 0.0, "first_output_s": 0.0, "peak_rss_mb": 0.0}
    start, end, code, maxrss_kib = float(report[0]), float(report[1]), int(report[2]), int(report[3])
    return {
        "code": -9 if killed else code,
        "out": b"".join(chunks),
        "wall_s": end - start,
        "first_output_s": (end if first is None else first) - start,
        "peak_rss_mb": maxrss_kib / 1024,
    }


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (nearest rank; None below 11 samples), and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    for pct in TAIL_PERCENTILES:
        rank = -(-n * pct // 100)  # ceil
        if n - rank >= 10:
            tail = {"percentile": pct, "value": ordered[int(rank) - 1]}
            break
    return {"median": statistics.median(ordered) if ordered else None, "tail": tail, "n": n}


def source_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fishburn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run(name: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> tuple[dict, dict]:
    """Measure one workload; returns (result line, run record).

    `size` "tiny" gives small inputs, for the benchmark's own tests.
    """
    workload = Workload(name, seed, size)
    RUNS.mkdir(exist_ok=True)
    spans_path = RUNS / f"spans-{name}.json"
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    attempted = failed = 0
    samples: dict[str, list[float]] = {}
    traced_runs: list[dict] = []

    def tally(check, measured):
        nonlocal attempted, failed
        a, f = check(measured["code"], measured["out"])
        attempted += a
        failed += f

    def add(metric, value):
        samples.setdefault(metric, []).append(value)

    with open(RUNS / f"{name}.stderr", "wb") as stderr:

        def reference(fallback: float) -> float:
            """Seconds the reference task took, or `fallback` if the
            deadline cut it, so that a hung operation is tallied, not fatal."""
            measured = spawn([sys.executable, str(REFERENCE)], stderr, deadline)
            out = measured["out"].split()
            if measured["code"] != 0 or len(out) != 2 or out[0] != REFERENCE_OUTPUT:
                if time.perf_counter() >= deadline:
                    return fallback
                raise RuntimeError(f"reference task failed: {measured['code']} {measured['out']!r}")
            add("reference_s", float(out[1]))
            return float(out[1])

        # Untimed: compiles the package's bytecode and warms the file cache.
        tally(workload.check_setup, spawn(workload.setup_argv, stderr, deadline))
        ref_before = None if trace else reference(REFERENCE_S)
        loop_start = time.perf_counter()
        while True:
            op_start = time.perf_counter()
            # Set-up samples are spread over the run, not taken in one burst,
            # so that they see the same machine conditions as the operations.
            setups = [spawn(workload.setup_argv, stderr, deadline)
                      for _ in range(0 if trace else SETUP_PER_OP)]
            for measured in setups:
                tally(workload.check_setup, measured)
            measured = spawn(workload.argv, stderr, deadline)
            tally(workload.check, measured)
            add("raw.wall_s", measured["wall_s"])
            if trace:
                spans_path.unlink(missing_ok=True)
                traced_op = spawn(workload.traced_argv(spans_path), stderr, deadline)
                tally(workload.check, traced_op)
                if spans_path.exists():
                    with open(spans_path) as fh:
                        layers = layer_metrics(json.load(fh))
                    layers["trace.wall_s"] = traced_op["wall_s"]
                    layers["trace.outside_s"] = traced_op["wall_s"] - layers.pop("covered_s")
                    layers["cli.output_bytes"] = len(traced_op["out"]) if name != "count-hard" else 0
                    # Paired with the untraced operation just before it, so
                    # that both see the same machine speed.
                    layers["trace.overhead_s"] = traced_op["wall_s"] - measured["wall_s"]
                    traced_runs.append(layers)
            else:
                ref_after = reference(ref_before)
                scale = REFERENCE_S / ((ref_before + ref_after) / 2)
                ref_before = ref_after
                for setup in setups:
                    add("raw.setup_s", setup["wall_s"])
                    add("setup_s", setup["wall_s"] * scale)
                add("raw.first_output_s", measured["first_output_s"])
                add("wall_s", measured["wall_s"] * scale)
                add("first_output_s", measured["first_output_s"] * scale)
                add("peak_rss_mb", measured["peak_rss_mb"])
            # Stop at the operation boundary nearest to `seconds`.
            now = time.perf_counter()
            if now - loop_start + (now - op_start) / 2 >= seconds or now >= deadline:
                break

    if trace:
        # Counts are exact; identical inputs must give identical work.
        for metric in COUNTS:
            if len({r[metric] for r in traced_runs}) != 1:
                workload.failures["counts_vary"] += 1
                failed += 1
        # All per-layer figures come from one traced operation, the one with
        # the (lower) median traced wall time, so that they add up.
        by_wall = sorted(traced_runs, key=lambda r: r["trace.wall_s"])
        if not by_wall:  # no traced operation wrote its spans
            workload.failures["no_spans"] += 1
            failed += 1
            by_wall = [dict.fromkeys(PER_LAYER, 0)]
        chosen = by_wall[(len(by_wall) - 1) // 2]
        metrics = {metric: chosen[metric] for metric in PER_LAYER
                   if metric not in ("trace.overhead_s", "error_rate")}
        metrics["trace.overhead_s"] = statistics.median(r["trace.overhead_s"] for r in by_wall)
        metrics["error_rate"] = failed / attempted
        for run_metrics in traced_runs:
            for metric, value in run_metrics.items():
                add(f"traced.{metric}", value)
    else:
        metrics = {metric: statistics.median(samples[metric]) for metric in END_TO_END}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit(m)} for m, v in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": source_commit(),
        "src_sha256": source_digest(),
        "inputs": workload.queries if name == "count-hard" else workload.cli,
        "elapsed_s": time.perf_counter() - started,
        "error_rate": failed / attempted,
        "check_failures": dict(workload.failures),
        "summary": {m: summarize(v) for m, v in samples.items()},
        "samples": samples,
        "result": result,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify-all", "count-hard", "list-fishburn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fishburn" / "__init__.py").is_file():
        print(f"perfbench: no fishburn package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record_path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
