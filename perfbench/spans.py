"""In-memory spans around calls into fishburn's layers.

Wrappers are installed on the module attributes each caller looks up at call
time, so the program itself is unchanged.  A span records its name, layer,
start, end and parent.  The two leaf layers (the anchored classical check and
the Permutation built for every member the kernel visits) run up to millions
of times per query, so they get no span of their own: each span instead
carries the count and summed duration of the leaf calls made while it was
open.  That keeps memory bounded and self times exact.

Layers are fishburn's modules: cli, verify, sequences, enumeration, patterns
and perm.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

LEAF_LAYERS = ("patterns", "perm")
SPAN_LAYERS = ("cli", "verify", "sequences", "enumeration")
LAYERS = SPAN_LAYERS + LEAF_LAYERS
_SUITE_FUNCTIONS = {
    "verify_table": "table",
    "verify_decompositions": "decompositions",
    "verify_lemmas": "lemmas",
    "verify_wilf_complement": "wilf",
    "verify_lrmax_bijection": "lrmax",
    "verify_prefix_claims": "prefix",
    "verify_identities": "identities",
}
SUITES = tuple(_SUITE_FUNCTIONS.values())


def _members(result) -> dict:
    return {"members": result if isinstance(result, int) else len(result)}


def _records(reports) -> dict:
    return {"records": sum(len(r.records) for r in reports)}


def _output_bytes(text) -> dict:
    return {"output_bytes": len(text.encode())}


class Tracer:
    """Collects spans and leaf totals for one process; nothing is written
    until the caller asks for `as_dict`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []
        # [calls, seconds] per leaf layer, mutated in place by the wrappers.
        self.leaf = {layer: [0, 0.0] for layer in LEAF_LAYERS}

    def leaf_wrapper(self, layer: str, fn):
        acc = self.leaf[layer]
        clock = self.clock

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            acc[1] += clock() - t0
            acc[0] += 1
            return result

        return wrapper

    def span_wrapper(self, name: str, layer: str, fn, work=None):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append({})
            parent = self._open[-1] if self._open else -1
            self._open.append(sid)
            before = {leaf: tuple(acc) for leaf, acc in self.leaf.items()}
            start = self.clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = self.clock()
                self._open.pop()
                inside = {leaf: [acc[0] - before[leaf][0], acc[1] - before[leaf][1]]
                          for leaf, acc in self.leaf.items()}
                self.spans[sid] = {
                    "name": name,
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "leaf": inside,
                    "work": work(result) if work is not None and result is not None else {},
                }

        return wrapper

    def as_dict(self) -> dict:
        return {"spans": self.spans, "leaf": {k: list(v) for k, v in self.leaf.items()}}


def _targets(tracer: Tracer):
    """(module, attribute, wrapped value) for every name a caller looks up."""
    enumeration = importlib.import_module("fishburn.enumeration")
    verify = importlib.import_module("fishburn.verify")
    cli = importlib.import_module("fishburn.cli")
    package = importlib.import_module("fishburn")

    def span(module, attr, layer, work=None, name=None):
        fn = getattr(module, attr)
        return module, attr, tracer.span_wrapper(name or f"{layer}.{attr}", layer, fn, work)

    out = [
        (enumeration, "occurs_ending_at",
         tracer.leaf_wrapper("patterns", enumeration.occurs_ending_at)),
        (enumeration, "Permutation", tracer.leaf_wrapper("perm", enumeration.Permutation)),
        span(package, "count", "enumeration", _members),
        span(cli, "main", "cli"),
        span(cli, "count", "enumeration", _members),
        span(cli, "members", "enumeration", _members),
        span(cli, "run_suite", "verify", _records),
        (cli, "_FORMATTERS", {
            key: tracer.span_wrapper(f"verify.format.{key}", "verify", fn, _output_bytes)
            for key, fn in cli._FORMATTERS.items()
        }),
    ]
    for attr in ("count", "members", "search"):
        out.append(span(verify, attr, "enumeration", _members))
    for attr, suite in _SUITE_FUNCTIONS.items():
        out.append(span(verify, attr, "verify", name=f"verify.suite.{suite}"))
    for attr in ("evaluate_formula", "identity_sides", "fibonacci", "pell", "q_value"):
        out.append(span(verify, attr, "sequences"))
    return out


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block; every original is
    put back on exit, also when the block raises."""
    saved = []
    try:
        for module, attr, wrapped in _targets(tracer):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapped)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(trace: dict) -> dict:
    """Per-layer counts and times from one process's spans.

    A span's self time is its duration minus its child spans and the leaf
    calls made directly inside it.  `covered_s` is the time inside any
    top-level span; the layers' self times add up to it.
    """
    spans = trace["spans"]
    children: dict[int, list[int]] = {}
    for sid, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(sid)

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m.update({f"{layer}.busy_s": 0.0 for layer in SPAN_LAYERS})
    m.update({f"verify.suite_s.{suite}": 0.0 for suite in SUITES})
    m.update({
        "enumeration.calls": 0, "enumeration.members": 0, "sequences.calls": 0,
        "verify.records": 0, "verify.format_s": 0.0, "verify.output_bytes": 0,
    })
    covered = 0.0
    for sid, s in enumerate(spans):
        layer = s["layer"]
        duration = s["end"] - s["start"]
        kids = children.get(sid, ())
        direct_leaf = sum(s["leaf"][leaf][1] for leaf in LEAF_LAYERS)
        direct_leaf -= sum(spans[k]["leaf"][leaf][1] for k in kids for leaf in LEAF_LAYERS)
        m[f"{layer}.self_s"] += duration - sum(spans[k]["end"] - spans[k]["start"] for k in kids) - direct_leaf
        if s["parent"] == -1:
            covered += duration

        ancestor = s["parent"]
        while ancestor != -1 and spans[ancestor]["layer"] != layer:
            ancestor = spans[ancestor]["parent"]
        if ancestor == -1:
            m[f"{layer}.busy_s"] += duration

        if layer == "enumeration":
            m["enumeration.calls"] += 1
            m["enumeration.members"] += s["work"].get("members", 0)
        elif layer == "sequences":
            m["sequences.calls"] += 1
        elif s["name"].startswith("verify.suite."):
            m[f"verify.suite_s.{s['name'].rsplit('.', 1)[1]}"] += duration
        elif s["name"].startswith("verify.format."):
            m["verify.format_s"] += duration
            m["verify.output_bytes"] += s["work"].get("output_bytes", 0)
        elif s["name"] == "verify.run_suite":
            m["verify.records"] += s["work"].get("records", 0)

    checks, check_s = trace["leaf"]["patterns"]
    builds, build_s = trace["leaf"]["perm"]
    # Leaf calls made outside every span still count as covered time.
    outside_leaf = check_s + build_s - sum(
        spans[sid]["leaf"][leaf][1] for sid in children.get(-1, ()) for leaf in LEAF_LAYERS
    )
    m["patterns.self_s"] = check_s
    m["perm.self_s"] = build_s
    m.update({
        "patterns.anchored_checks": checks,
        "patterns.check_s": check_s,
        "patterns.members_per_check": m["enumeration.members"] / checks if checks else 0.0,
        "perm.leaf_builds": builds,
        "perm.build_s": build_s,
        "enumeration.members_per_s": (
            m["enumeration.members"] / m["enumeration.busy_s"] if m["enumeration.busy_s"] else 0.0
        ),
        "covered_s": covered + outside_leaf,
    })
    return m
