"""Check that the Tier-1 tests kill every kernel and CLI mutant in MUTANTS.

Each mutant is one edit to a file of the kernel, the per-member rule, the
count walk, the lexicographic merge and its batches, and the length rule
`check_cap` in src/fishburn/enumeration.py or the anchored matcher and kill
pass they call in src/fishburn/patterns.py, or to the fixed-width formatter
of `fishburn list`, the report writer of `fishburn verify` or the start-up
imports in src/fishburn/cli.py: the file, a text that must occur there
exactly once, and the text put in its place.  For each mutant the tool copies the parts
of the checkout the tests read (src, tests, perfbench, pyproject.toml and
README.md) to a temporary directory, applies the edit to the copy and runs
the Tier-1 command there, stopped at its first failing test (-x):

    PYTHONPATH=src python -m pytest -q -x --continue-on-collection-errors

A mutant is killed when that run fails.  An unmutated copy is run first and
must pass, so a kill means the edit, not the tree, broke a test.  The mutants
run one after another; the loose-prefix-sites one waits out the 60 s bound
of the deep-search tests.  A run stops at its first failure because the rest
can only add time: a mutant that multiplies members (a merge that never
clears a pending list) makes every later listing fill memory, and a run that
went on through them timed out, which counts as a survival.  Each run may map at most
MEMORY_BYTES (Tier-1 itself peaks near 55 MB): a matcher mutant that misses
occurrences lets classes such as Av(12) at n = 300 explode, and such a run
then fails with MemoryError instead of filling the host's memory.

    python tools/kernel_mutants.py

Exit status: 0 when every mutant is killed; 1 when one survives, a run times
out or the unmutated copy fails; 2 when an edit no longer matches its file;
143 when stopped by SIGTERM, after ending the running Tier-1 run and removing
the temporary copy.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCH = Path("src/fishburn/enumeration.py")
MATCHER = Path("src/fishburn/patterns.py")
CLI = Path("src/fishburn/cli.py")
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
TIMEOUT_S = 600
MEMORY_BYTES = 1 << 30

# (name, file, old text, new text)
MUTANTS = [
    ("no negation ban", SEARCH,
     "ban_value = prefix[-1] if query.prefix_negation else 0",
     "ban_value = 0"),
    ("Fishburn bit off by one", SEARCH,
     "if fishburn and peak >= s:",
     "if fishburn and peak > s:"),
    ("Fishburn bit reads the new maximum's index", SEARCH,
     "peak = word.find(chr(47 + top))",
     "peak = word.find(chr(48 + top))"),
    ("Fishburn bit on the left flank", SEARCH,
     "mask |= 2 << s",
     "mask |= 1 << s"),
    ("ban in the slot before the last", SEARCH,
     "_lands(word.find(chr(48 + ban_value)), len(prefix) - 1)",
     "_lands(word.find(chr(48 + ban_value)), len(prefix) - 2)"),
    ("ban reads the value one below", SEARCH,
     "word.find(chr(48 + ban_value))",
     "word.find(chr(47 + ban_value))"),
    ("loose prefix sites", SEARCH,
     "sites.append(1 << sum(u < v for u in head[: head.index(v)]))",
     "sites.append((1 << v) - (1 << sum(u < v for u in head[: head.index(v)])))"),
    ("no entry-1 rule", SEARCH,
     "live &= _lands(one, target)",
     "pass"),
    ("target cut on the wrong side", SEARCH,
     "live &= _lands(one, target)",
     "live &= ~_lands(one, target)"),
    ("no target prune", SEARCH,
     "if one == target or top == n:",
     "if top == n:"),
    ("no leaf target cut", SEARCH,
     "if one == target or top == n:",
     "if one == target:"),
    ("root's entry 1 at index 0", SEARCH,
     'one = word.find("1")\n            if',
     'one = word.find("1") if m else 0\n            if'),
    ("target rule without its guard", SEARCH,
     "if target >= 0:\n            one = ",
     "if True:\n            one = "),
    ("new maximum lands one site off", SEARCH,
     "return 1 << index",
     "return 2 << index"),
    ("staying value lands on the wrong side", SEARCH,
     "return -(2 << p)",
     "return (2 << p) - 1"),
    ("staying value lands one site too wide", SEARCH,
     "return -(2 << p)",
     "return -(4 << p)"),
    ("moving value lands on the wrong side", SEARCH,
     "return (2 << p) - 1 if p + 1 == index else 0",
     "return -(2 << p) if p + 1 == index else 0"),
    ("low sites one short", SEARCH,
     "low = (live & _lands(one, one + 1)).bit_count()",
     "low = (live & (_lands(one, one + 1) >> 1)).bit_count()"),
    ("pattern not inverted", SEARCH,
     "tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))",
     "w"),
    ("head not standardized", SEARCH,
     "tuple(v - (v > b[-1]) for v in b[:-1])",
     "b[:-1]"),
    ("head drops the first entry", SEARCH,
     "tuple(v - (v > b[-1]) for v in b[:-1])",
     "tuple(v - (v > b[0]) for v in b[1:])"),
    ("child keeps its parent's inverse unshifted", SEARCH,
     "child = [p + 1 if p >= s else p for p in inv]",
     "child = list(inv)"),
    ("inverse carried without a check", SEARCH,
     "if checks:",
     "if True:"),
    ("dead mask mis-shifted", SEARCH,
     "((dead >> s) << (s + 1))",
     "((dead >> s) << s)"),
    ("321 bits one short", SEARCH,
     "mask |= (2 << s) - 1",
     "mask |= (1 << s) - 1"),
    ("321 bits also on append", SEARCH,
     "if has_321 and s < m:",
     "if has_321 and s <= m:"),
    ("root child at index 1", SEARCH,
     'one = word.find("1")\n        made',
     'one = word.find("1") if m else 0\n        made'),
    ("made - low not subtracted", SEARCH,
     "(one, made - low), (one + 1, low)",
     "(one, made), (one + 1, low)"),
    ("target ignored in the tally", SEARCH,
     "if target < 0 or j == target:",
     "if True:"),
    ("j < 1 for j < 2", SEARCH,
     "if 0 <= j < 2:",
     "if 0 <= j < 1:"),
    ("leaf word drops the displaced entry", SEARCH,
     "slots[s].append(word[:s] + code + word[s:])",
     "slots[s].append(word[:s] + code + word[s + 1:])"),
    ("inner word built one site off", SEARCH,
     "slots[s].append((top, word[:s] + code + word[s:], child, mask))",
     "slots[s].append((top, word[:s + 1] + code + word[s + 1:], child, mask))"),
    ("leaf word offset 49", SEARCH,
     "code = chr(48 + top)  #",
     "code = chr(49 + top)  #"),
    ("inner word offset 49", SEARCH,
     "code = chr(48 + top)\n",
     "code = chr(49 + top)\n"),
    ("merge flushes site j too", SEARCH,
     "for s in range(m, j, -1):",
     "for s in range(m, j - 1, -1):"),
    ("merge flushes sites in ascending order", SEARCH,
     "for s in range(m, j, -1):",
     "for s in range(j + 1, m + 1):"),
    ("merge lcp one short", SEARCH,
     "while prev[:j] != word[:j]:",
     "while prev[:j + 1] != word[:j + 1]:"),
    ("merge makes no final flush", SEARCH,
     "for s in range(m, -1, -1):",
     "for s in ():"),
    ("merge final flush in ascending order", SEARCH,
     "for s in range(m, -1, -1):",
     "for s in range(m + 1):"),
    ("merge pending list not cleared", SEARCH,
     "slots[s].clear()",
     "pass"),
    ("empty member listed under a target", SEARCH,
     'if n == 0 and target < 0 else',
     'if n == 0 else'),
    ("batch one word long", SEARCH,
     "out(found[:BATCH])",
     "out(found[:BATCH + 1])"),
    ("cap admits one past the cap", SEARCH,
     "if n > cap:",
     "if n > cap + 1:"),
    ("negative length passes the cap rule", SEARCH,
     "if n < 0:",
     "if False:"),
    ("nearest smaller flipped", MATCHER,
     "lo = max((f for f in named if f[0] < value), default=(0, None))[1]",
     "lo = max((f for f in named if f[0] > value), default=(0, None))[1]"),
    ("loop stop off by one", MATCHER,
     "last - {k - 2 - j}",
     "last - {k - 1 - j}"),
    ("anchor on the wrong side", MATCHER,
     '[(body[-1], "a")]',
     '[(2 * value - body[-1], "a")]'),
    ("kill interval from L, not L + 1", MATCHER,
     'lower = f"2 << {lo}"',
     'lower = f"1 << {lo}"'),
    ("kill interval short of the last site", MATCHER,
     "hi or '(last + 1)'",
     "hi or 'last'"),
    ("kill interval bounds swapped", MATCHER,
     "lo, hi = _neighbours(body[-1], head, len(head) - 1)",
     "hi, lo = _neighbours(body[-1], head, len(head) - 1)"),
    ("newline one column early", CLI,
     'buf[line - 1::line] = b"\\n"',
     'buf[line - 2::line] = b"\\n"'),
    ("NUL padding left in", CLI,
     'buf.translate(None, b"\\0")',
     'bytes(buf)'),
    ("verify writes its reports after the run", CLI,
     'streamed = args.format == "delimited"',
     'streamed = False'),
    ("verify writes each report twice", CLI,
     "write([report])",
     "write([report, report])"),
    ("cli imports verify at start", CLI,
     "from fishburn.perm import ParseError, parse_values\n",
     "from fishburn.perm import ParseError, parse_values\n"
     "from fishburn.verify import SUITES, format_delimited, format_plain, format_structured, run_suite\n"),
]


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_tier1(tree: Path) -> tuple[int | None, str, float]:
    """Run the Tier-1 command in tree: (exit code or None on timeout, pytest's summary line, seconds)."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    start = time.monotonic()
    with subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          preexec_fn=_limit_memory, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {TIMEOUT_S} s", time.monotonic() - start
        finally:
            # The run leads its own process group.  End the group, the
            # interpreters its tests started included, whether the run
            # finished, timed out or this tool is being stopped.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    lines = out.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", time.monotonic() - start


def _stop(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main() -> int:
    sources = {path: (ROOT / path).read_text() for _, path, _, _ in MUTANTS}
    stale = [name for name, path, old, _ in MUTANTS if sources[path].count(old) != 1]
    if stale:
        print("edits that do not match their file exactly once: " + ", ".join(stale), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in COPIED:
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__", "runs"))
            else:
                shutil.copy2(ROOT / part, tree / part)
        code, summary, secs = run_tier1(tree)
        print(f"unmutated: {summary} ({secs:.0f} s)", flush=True)
        if code != 0:
            return 1
        survivors = []
        for name, path, old, new in MUTANTS:
            (tree / path).write_text(sources[path].replace(old, new))
            code, summary, secs = run_tier1(tree)
            (tree / path).write_text(sources[path])
            killed = code not in (0, None)
            if not killed:
                survivors.append(name)
            print(f"{'killed' if killed else 'SURVIVED'}: {name}: {summary} ({secs:.0f} s)", flush=True)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so the `finally` in run_tier1 ends
    # the running test and the temporary copy is removed.
    signal.signal(signal.SIGTERM, _stop)
    sys.exit(main())
