"""Check that the Tier-1 tests kill every kernel mutant in MUTANTS.

Each mutant is one edit to a file of the kernel, the search in
src/fishburn/enumeration.py or the anchored matcher it calls in
src/fishburn/patterns.py: the file, a text that must occur there exactly
once, and the text put in its place.  For each mutant the tool copies the
parts of the checkout the tests read (src, tests, perfbench, pyproject.toml
and README.md) to a temporary directory, applies the edit to the copy and
runs the Tier-1 command there:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

A mutant is killed when that run fails.  An unmutated copy is run first and
must pass, so a kill means the edit, not the tree, broke a test.  The mutants
run one after another, each a full Tier-1 run; the loose-prefix-sites one
waits out the 60 s bound of the deep-search tests.  Each run may map at most
MEMORY_BYTES (Tier-1 itself peaks near 55 MB): a matcher mutant that misses
occurrences lets classes such as Av(12) at n = 300 explode, and such a run
then fails with MemoryError instead of filling the host's memory.

    python tools/kernel_mutants.py

Exit status: 0 when every mutant is killed; 1 when one survives, a run times
out or the unmutated copy fails; 2 when an edit no longer matches its file.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCH = Path("src/fishburn/enumeration.py")
MATCHER = Path("src/fishburn/patterns.py")
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "README.md")
TIMEOUT_S = 600
MEMORY_BYTES = 1 << 30

# (name, file, old text, new text)
MUTANTS = [
    ("no negation ban", SEARCH,
     "ban_value = prefix[-1] if query.prefix_negation else 0",
     "ban_value = 0"),
    ("Fishburn off by one", SEARCH,
     "if a >= 2 and inv[a - 2] >= s:",
     "if a >= 2 and inv[a - 2] > s:"),
    ("loose prefix sites", SEARCH,
     "first_site[v] = last_site[v] = sum(1 for u in ahead if u < v)",
     "first_site[v] = sum(1 for u in ahead if u < v)"),
    ("no leaf entry-1 check", SEARCH,
     "if target >= 0 and (one + (s <= one) if m else 0) != target:",
     "if False:"),
    ("pattern not inverted", SEARCH,
     "tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))",
     "w"),
    ("head not standardized", SEARCH,
     "tuple(v - (v > b[-1]) for v in b[:-1])",
     "b[:-1]"),
    ("head drops the first entry", SEARCH,
     "tuple(v - (v > b[-1]) for v in b[:-1])",
     "tuple(v - (v > b[0]) for v in b[1:])"),
    ("root never tested", SEARCH,
     "if m and not occurs_ending_at(inv, m - 1, head):",
     "if not m or not occurs_ending_at(inv, m - 1, head):"),
    ("fresh range from lo", SEARCH,
     "range(run if has_321 else 0, m + 1)",
     "range(lo, m + 1)"),
    ("dead mask mis-shifted", SEARCH,
     "((dead >> s) << (s + 1))",
     "((dead >> s) << s)"),
    ("wrong run update", SEARCH,
     "run if s == m else s + 1",
     "run if s == m else s"),
    ("wrong probe side", SEARCH,
     "probe[m] = s - 0.5",
     "probe[m] = s + 0.5"),
    ("root child at index 1", SEARCH,
     "if m else ((0, kids),)",
     "if m else ((1, kids),)"),
    ("kids - low not subtracted", SEARCH,
     "((one, kids - low), (one + 1, low))",
     "((one, kids), (one + 1, low))"),
    ("target ignored in the tally", SEARCH,
     "if target < 0 or j == target:",
     "if True:"),
    ("inner sites pushed left to right", SEARCH,
     "range(lo, hi + 1) if top == n else range(hi, lo - 1, -1)",
     "range(lo, hi + 1)"),
    ("j < 1 for j < 2", SEARCH,
     "if j < 2:",
     "if j < 1:"),
    ("visitor called at n = 0 under a target", SEARCH,
     "if sizes[0] and visit is not None:",
     "if visit is not None:"),
    ("nearest smaller flipped", MATCHER,
     "lo = max((f for f in fixed if f[0] < body[j]), default=None)",
     "lo = max((f for f in fixed if f[0] > body[j]), default=None)"),
    ("loop stop off by one", MATCHER,
     "last - {k - 2 - j}",
     "last - {k - 1 - j}"),
    ("anchor on the wrong side", MATCHER,
     '[(body[-1], "a")]',
     '[(2 * body[j] - body[-1], "a")]'),
]


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_tier1(tree: Path) -> tuple[int | None, str, float]:
    """Run the Tier-1 command in tree: (exit code or None on timeout, pytest's summary line, seconds)."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
                              preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT_S} s", time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", time.monotonic() - start


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
    sys.exit(main())
