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


def test_traced_list_books_its_members(monkeypatch, capsys):
    # `perfbench/spans.py` books the `cli.members` span from what `members`
    # returns, the list or, when it streams to `out`, the member count; a
    # `list` that reached its members some other way would book none.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from fishburn import cli

    with spans.traced(spans.Tracer()) as tracer:
        assert cli.main(["list", "--fishburn", "-n", "5"]) == 0
    assert capsys.readouterr().out.count("\n") == 53
    assert spans.layer_metrics(tracer.as_dict())["enumeration.members"] == 53


def test_traced_verify_books_its_reports_and_bytes(monkeypatch, capsys):
    # `cli` loads `fishburn.verify` only when a `verify` runs, and reaches it
    # through `cli.run_suite` and `cli._FORMATTERS`, the two names the tracer
    # wraps; a `verify` that went around them would book no records or bytes.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    from fishburn import cli, verify

    with spans.traced(spans.Tracer()) as tracer:
        assert cli.main(["verify", "all", "--max-n", "3", "--format", "delimited"]) == 0
    out = capsys.readouterr().out
    metrics = spans.layer_metrics(tracer.as_dict())
    assert metrics["verify.records"] == sum(len(r.records) for r in verify.run_suite("all", 3))
    assert metrics["verify.output_bytes"] == len(out.encode())
