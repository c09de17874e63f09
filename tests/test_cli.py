from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishburn import AvoidanceQuery, PatternSet, members, verify
from fishburn.cli import build_parser, main
from fishburn.enumeration import DEFAULT_COUNT_CAP, SERIES_CAP
from fishburn.perm import word_values
from fishburn.verify import SUITES, format_delimited, format_structured, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_command(capsys):
    code, out, err = run_cli(capsys, "count", "--avoid", "321,1243", "--fishburn", "-n", "6")
    assert (code, out, err) == (0, "22\n", "")


def test_count_empty_length(capsys):
    code, out, _ = run_cli(capsys, "count", "--avoid", "321", "--fishburn", "-n", "0")
    assert (code, out) == (0, "1\n")


def test_count_without_fishburn_flag_is_classical(capsys):
    code, out, _ = run_cli(capsys, "count", "--avoid", "321", "-n", "5")
    assert (code, out) == (0, "42\n")  # Catalan(5): plain 321-avoiders


def test_list_command(capsys):
    code, out, _ = run_cli(
        capsys, "list", "--avoid", "321,1243", "--fishburn", "-n", "3", "--one-pos", "2"
    )
    assert code == 0
    assert out == "2 1 3\n3 1 2\n"


def test_list_single_and_empty(capsys):
    code, out, _ = run_cli(capsys, "list", "--avoid", "321", "--fishburn", "-n", "1")
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(capsys, "list", "-n", "0")
    assert (code, out) == (0, "\n")  # the empty permutation encodes as an empty line


def _list_stdout(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(["list", *argv]) == 0
    return buffer.getvalue()


def _member_lines(query):
    # Built from the decoded members, not by the formatter under test.  A
    # list of lines: on a mismatch pytest diffs two long strings line by
    # line, which takes minutes when every line differs.
    return [" ".join(map(str, word_values(word))) + "\n" for word in members(query, cap=query.n)]


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 8),
    st.lists(st.sampled_from(["321", "1243", "31452", "2413"]), unique=True),
    st.booleans(),
    st.sampled_from([None, 1, 2]),
    st.data(),
)
def test_list_prints_the_members_byte_for_byte(n, texts, fishburn, one_position, data):
    prefix = tuple(data.draw(st.lists(st.integers(1, n), unique=True, max_size=n))) if n else ()
    prefix_negation = bool(prefix) and data.draw(st.booleans())
    argv = ["-n", str(n), "--avoid", ",".join(texts)]
    if fishburn:
        argv.append("--fishburn")
    if one_position:
        argv += ["--one-pos", str(one_position)]
    if prefix:
        argv += ["--prefix", " ".join(map(str, prefix))]
    if prefix_negation:
        argv.append("--prefix-negation")
    query = AvoidanceQuery(
        n,
        PatternSet.parse(",".join(texts), fishburn=fishburn),
        one_position=one_position,
        prefix=prefix,
        prefix_negation=prefix_negation,
    )
    assert _list_stdout(argv).splitlines(keepends=True) == _member_lines(query)


def test_list_sorts_two_digit_values_numerically():
    out = _list_stdout(["--avoid", "321,1243", "--fishburn", "-n", "11", "--cap", "11"])
    query = AvoidanceQuery(11, PatternSet.parse("321,1243", fishburn=True))
    assert out.splitlines(keepends=True) == _member_lines(query)
    rows = [tuple(map(int, line.split())) for line in out.splitlines()]
    assert rows == sorted(set(rows))
    # Numeric order, not text order: "1 2 ..." precedes "1 10 ...".
    assert out.startswith("1 2 3 4 5 6 7 8 9 10 11\n")
    assert "\n1 10 2 3 4 5 6 7 8 9 11\n" in out


def test_list_output_bytes_are_pinned():
    out = _list_stdout(["--fishburn", "-n", "9"])
    assert out.count("\n") == 31240  # the Fishburn number c_9
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b4a9ac4e8c7d24a0ac33738c4a6a823d7c095bc09bb66a6a3ddc4252eef1a1d1"
    )
    # Two-digit values: the benchmark's list workload, whose digest it checks.
    out = _list_stdout(["--fishburn", "-n", "10"])
    assert out.count("\n") == 201608  # c_10
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8838b4f2494b91c0d91bdd67cb26aee500eaed33c695f088afa546d499cf1a06"
    )
    # Values above 255 sort and print like any other.
    out = _list_stdout(["--avoid", "12", "-n", "300", "--cap", "300"])
    assert out == " ".join(str(v) for v in range(300, 0, -1)) + "\n"


def test_list_prints_three_digit_values():
    # Three-digit fields, and word characters past ASCII (chr(48 + v) for v >= 80).
    query = AvoidanceQuery(100, PatternSet.parse("132,213,321"))
    # |Av_n(132, 213, 321)| = n.  A kernel fault that lets this class grow
    # would keep `list` walking for minutes, so a first listing stops at the
    # first batch that takes it past 100 members.
    seen = 0

    def guard(batch):
        nonlocal seen
        seen += len(batch)
        assert seen <= 100, "more than n members"

    assert members(query, cap=100, out=guard) == 100
    out = _list_stdout(["--avoid", "132,213,321", "-n", "100", "--cap", "100"])
    assert out.splitlines(keepends=True) == _member_lines(query)


def test_list_output_file_matches_stdout(tmp_path, capsys):
    argv = ["list", "--avoid", "321,1243", "--fishburn", "-n", "11", "--cap", "11"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    target = tmp_path / "members.txt"
    code, file_out, _ = run_cli(capsys, *argv, "-o", str(target))
    assert (code, file_out) == (0, "")
    assert target.read_bytes() == out.encode()


def test_list_triple_class(capsys):
    code, out, _ = run_cli(
        capsys, "list", "--avoid", "321,2143,4123", "--fishburn", "-n", "4"
    )
    assert code == 0
    assert len(out.splitlines()) == 7


def test_prefix_flags(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--avoid", "321,21354", "--fishburn", "-n", "7",
        "--prefix", "3 1 2", "--prefix-negation",
    )
    assert (code, out) == (0, "10\n")


def test_prefix_token_is_one_value_from_n_10(capsys):
    # Compact digits name values up to 9 only, so from n = 10 on a lone
    # token is one value; below, it is one value per digit.
    for prefix, want in (("12", "1\n"), ("10", "65\n"), ("1 2", "16796\n")):
        code, out, err = run_cli(capsys, "count", "--avoid", "321", "-n", "12", "--cap", "12", "--prefix", prefix)
        assert (code, out, err) == (0, want, "")
    for prefix in ("312", "3 1 2"):
        code, out, _ = run_cli(capsys, "count", "--avoid", "321", "-n", "9", "--prefix", prefix)
        assert (code, out) == (0, "132\n")
    code, _, err = run_cli(capsys, "count", "--avoid", "321", "-n", "9", "--prefix", "10")
    assert code == 2 and "digits 1-9" in err
    # Patterns keep compact digits at any n: Av(21) holds one member.
    code, out, _ = run_cli(capsys, "count", "--avoid", "21", "-n", "12", "--cap", "12")
    assert (code, out) == (0, "1\n")


def test_series_command(capsys):
    code, out, _ = run_cli(capsys, "series", "-N", "3")
    assert code == 0
    assert out == "0\t1\n1\t1\n2\t2\n3\t5\n"
    code, out, _ = run_cli(capsys, "series", "-N", "0")
    assert (code, out) == (0, "0\t1\n")


def test_parse_error_exits_2_with_stderr_diagnostic(capsys):
    code, out, err = run_cli(capsys, "count", "--avoid", "32x", "-n", "4")
    assert code == 2
    assert out == ""
    assert "32x" in err


def test_capacity_error_exits_3(capsys):
    code, out, err = run_cli(capsys, "count", "--avoid", "321", "-n", "20")
    assert code == 3
    assert out == ""
    assert "cap" in err
    code, _, _ = run_cli(capsys, "list", "--avoid", "321,132", "-n", "11")
    assert code == 3


def test_cap_is_the_only_length_limit():
    # Far deeper than a search with one interpreter frame per size reaches.
    # The time bound turns a kernel fault that lets the prefix admit more
    # than its one member, and so walks a class of length 1500, into a
    # failure instead of a hang.
    prefix = " ".join(str(v) for v in range(1, 1501))
    proc = subprocess.run(
        [sys.executable, "-m", "fishburn", "count", "-n", "1500", "--cap", "1500", "--prefix", prefix],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\n", "")


def test_cap_flag_raises_the_limit(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--avoid", "321,132", "--fishburn", "-n", "15", "--cap", "15"
    )
    assert (code, out) == (0, "15\n")


@pytest.mark.parametrize("command", ["count", "list"])
def test_negative_cap_is_a_usage_error(command, capsys):
    # "abc" takes the branch of a value that is not an integer at all.
    for cap in ("-1", "abc"):
        with pytest.raises(SystemExit) as exc:
            main([command, "-n", "3", "--cap", cap])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--cap" in captured.err and "nonnegative" in captured.err


def test_series_capacity(capsys):
    code, _, err = run_cli(capsys, "series", "-N", "100")
    assert code == 3
    assert "cap" in err
    code, _, err = run_cli(capsys, "series", "-N", "-1")
    assert code == 2
    assert "nonnegative" in err


def test_unwritable_output_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "count", "--avoid", "321", "-n", "3", "-o", "/nonexistent/dir/x.txt"
    )
    assert code == 2
    assert out == ""
    assert err != ""


def test_usage_errors_from_argparse_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "-n", "4", "--one-pos", "7"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_verify_exit_zero_and_plain_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "--max-n", "12")
    assert code == 0
    assert out.count("PASS") == 5  # one line per identity suite
    assert "all suites passed" in out


def test_verify_delimited_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "table", "--max-n", "5", "--format", "delimited"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "table:321,3142\tPASS"
    assert sum(1 for line in lines if line.endswith("\tPASS")) == 19
    assert "321,1243\t5\t14\t14\tok" in lines


def test_verify_structured_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "prefix", "--max-n", "6", "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["suites"][0]["suite"] == "prefix-claims"


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "report.tsv"
    code, out, _ = run_cli(
        capsys, "verify", "wilf", "--max-n", "5", "--format", "delimited", "-o", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().endswith("wilf-complement\tPASS\n")


def test_verify_capacity_exit(capsys):
    code, _, err = run_cli(capsys, "verify", "table", "--max-n", "15")
    assert code == 3
    assert "cap" in err
    code, out, err = run_cli(capsys, "verify", "identities", "--max-n", "65")
    assert (code, out) == (3, "")
    assert "cap" in err


@pytest.mark.parametrize("suite", ["table", "wilf", "identities", "all"])
def test_verify_negative_max_n_is_a_usage_error(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite, "--max-n", "-1")
    assert (code, out) == (2, "")
    assert "nonnegative" in err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--max-n", "9", "--format", "delimited"], "5eed7b2d2841fc9dea899c6a52b4f455717d05c9954b4b77931f5ca91425854e"),
        (["--max-n", "9"], "e37a019c36284dd8652ed733d9f714343926977933f8bf21f299f21107d345c6"),
        (["--max-n", "9", "--format", "structured"], "8833ce5bdc71913f09f6442910a0cd5166869b8c4dc4ee0bb0c798f79e53212c"),
        # The benchmark's set-up command.
        (["--max-n", "0", "--format", "delimited"], "c77a387e864315f4a58609c761f733e52234c463366c9445813bcce99044b50a"),
    ],
    ids=["delimited", "plain", "structured", "delimited-max-n-0"],
)
def test_verify_all_stdout_is_pinned_and_matches_the_output_file(argv, digest, tmp_path, capsys):
    # The formatters' bytes are pinned in test_verify.py; these are the bytes
    # the command writes, one report at a time in the delimited format.
    code, stdout, err = run_cli(capsys, "verify", "all", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest
    target = tmp_path / "report.txt"
    code, out, err = run_cli(capsys, "verify", "all", *argv, "-o", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_bytes() == stdout.encode()


def test_verify_writes_each_report_once_as_soon_as_it_is_checked(monkeypatch):
    # Logs the walks `verify` makes and every write and flush on stdout, in
    # one sequence.  The memo is cleared so that every walk is made here.
    events = []
    walk = verify.search

    def logged_walk(*args, **kwargs):
        events.append(("walk", None))
        return walk(*args, **kwargs)

    class Stdout:
        def write(self, text):
            events.append(("write", text))
            return len(text)

        def flush(self):
            events.append(("flush", None))

    monkeypatch.setattr(verify, "search", logged_walk)
    monkeypatch.setattr(sys, "stdout", Stdout())
    verify._class_sizes.cache_clear()
    assert main(["verify", "all", "--max-n", "9", "--format", "delimited"]) == 0
    kinds = [kind for kind, _ in events]
    walks = [i for i, kind in enumerate(kinds) if kind == "walk"]
    # The first row is written after its walk and before the second row's.
    assert walks[0] < kinds.index("write") < walks[1]
    # Each write is one whole report, flushed before anything else happens.
    assert all(kinds[i + 1] == "flush" for i, kind in enumerate(kinds) if kind == "write")
    reports = run_suite("all", 9)
    assert [text for kind, text in events if kind == "write"] == [format_delimited([r]) for r in reports]
    # A library caller's emit sees the reports run_suite returns, in order.
    for suite in SUITES:
        seen = []
        assert run_suite(suite, 6, seen.append) == seen, suite


@pytest.mark.parametrize("fmt", ["delimited", "plain", "structured"])
@pytest.mark.parametrize("max_n, code", [("15", 3), ("-1", 2)])
def test_refused_verify_writes_nothing_and_creates_no_file(max_n, code, fmt, tmp_path, capsys):
    # Every suite checks max_n before its first report, so a refused run
    # writes no row, and -o FILE, opened at the first write, is not created.
    target = tmp_path / "report.txt"
    for output in ([], ["-o", str(target)]):
        got, out, err = run_cli(capsys, "verify", "all", "--max-n", max_n, "--format", fmt, *output)
        assert (got, out) == (code, "")
        assert err.startswith("fishburn: ")
    assert not target.exists()


def test_count_one_pos_output_file(tmp_path, capsys):
    target = tmp_path / "count.txt"
    code, out, _ = run_cli(
        capsys, "count", "--avoid", "321,1243", "--fishburn", "-n", "4",
        "--one-pos", "2", "-o", str(target),
    )
    assert (code, out) == (0, "")
    assert target.read_text() == "5\n"


@pytest.mark.parametrize("argv", [["count", "-n", "-1", "--prefix", "1"], ["list", "-n", "-1"]])
def test_negative_length_is_refused_before_the_output_is_opened(argv, tmp_path, capsys):
    # The length is checked before the prefix, which would otherwise report
    # `prefix value 1 outside 1..-1`, and before -o FILE is created.
    target = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *argv, "-o", str(target))
    assert (code, out) == (2, "")
    assert "n must be nonnegative" in err
    assert not target.exists()


def test_list_capacity_error_leaves_existing_output_untouched(tmp_path, capsys):
    target = tmp_path / "out.txt"
    target.write_text("keep\n")
    code, out, err = run_cli(capsys, "list", "--fishburn", "-n", "11", "-o", str(target))
    assert (code, out) == (3, "")
    assert "cap" in err
    assert target.read_text() == "keep\n"


@pytest.mark.parametrize(
    "argv, first_line",
    [
        # `fishburn list ... | head -1`: the pipe breaks mid-stream.
        (["list", "--fishburn", "-n", "9"], b"1 2 3 4 5 6 7 8 9\n"),
        # The reader is gone before the one buffered line is flushed.
        (["count", "--fishburn", "-n", "5"], None),
        # `fishburn verify ... | head -1`: delimited reports are written as
        # each row is checked, so the pipe breaks between two reports.
        (["verify", "all", "--max-n", "9", "--format", "delimited"], b"321,1243\t0\t1\t4\tout-of-stated-range\n"),
    ],
    ids=["mid-stream", "at-flush", "verify-mid-stream"],
)
def test_closed_stdout_pipe_exits_zero_quietly(argv, first_line):
    # Buffered stdout, as from a shell, so a short output breaks at the flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fishburn", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if first_line is not None:
        assert proc.stdout.readline() == first_line
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_cli_start_loads_no_dataclasses_json_or_typing():
    # Start-up cost is most of a short run, so the CLI's import stays lean:
    # the value types need no `dataclasses` (with `inspect`), annotations no
    # `typing`, and `json` is loaded only when a structured report is
    # written.  `-S` keeps the site hooks' own imports out of the count.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import fishburn.cli\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'json', 'typing') if m in sys.modules))\n"
        "sys.exit(fishburn.cli.main(['verify', 'all', '--max-n', '3', '--format', 'structured']))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, _, report = proc.stdout.partition("\n")
    assert loaded == ""
    doc = json.loads(report)
    assert doc["passed"] is True
    assert doc == json.loads(format_structured(run_suite("all", 3)))


def test_cli_start_loads_verify_and_sequences_only_for_their_commands():
    # The kernel commands load neither `fishburn.verify` nor
    # `fishburn.sequences`, `series` loads only the closed forms, and `verify`
    # both; each command runs in a fresh interpreter.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    expected = {
        ("list", "--fishburn", "-n", "3"): "",
        ("count", "--avoid", "321", "-n", "5"): "",
        ("series", "-N", "5"): "fishburn.sequences",
        ("verify", "table", "--max-n", "3"): "fishburn.sequences fishburn.verify",
    }
    for argv, modules in expected.items():
        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "import fishburn.cli\n"
            f"code = fishburn.cli.main({list(argv)!r})\n"
            "print(' '.join(m for m in ('fishburn.sequences', 'fishburn.verify') if m in sys.modules),"
            " file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout
        assert proc.stderr == modules + "\n", argv


def test_parser_names_the_suites_and_caps_of_their_owners():
    # The parser is built before `fishburn.verify` loads, so `cli` lists the
    # suite names itself: they must be `verify.SUITES`, in the order `all`
    # runs them.  The `--max-n` help names the caps that `enumeration` owns.
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {action.dest: action for action in subcommands.choices["verify"]._actions}
    assert tuple(options["suite"].choices) == verify.SUITES
    assert f"at most {DEFAULT_COUNT_CAP}, {SERIES_CAP} for identities" in options["max_n"].help
