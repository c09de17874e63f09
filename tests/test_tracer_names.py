"""The benchmark tracer (`perfbench/spans.py`) wraps fishburn functions by
module and name.  Installing it here makes a `src/` change that drops or
rebinds one of those names fail the test suite, not only a traced bench run.
"""

from __future__ import annotations

from pathlib import Path

from fishburn import AvoidanceQuery, PatternSet, count, enumeration, patterns

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    with spans.traced(spans.Tracer()) as tracer:
        count(AvoidanceQuery(6, PatternSet.parse("321,1243", fishburn=True)))
    # The kernel looks the anchored matcher up at call time, so the tracer
    # saw its checks, and every original is back afterwards.
    assert tracer.leaf["patterns"][0] > 0
    assert enumeration.occurs_ending_at is patterns.occurs_ending_at
