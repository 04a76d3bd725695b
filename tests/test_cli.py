"""Command line round trips.

Each test calls main() directly and checks printed output plus the return
code contract: 0 success, 1 usage, 2 validation, 3 budget, 4 query gap.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import io
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import anet
from anet import cli, errors
from anet.cli import main
from anet.errors import AnetError
from anet.network import NETWORK_DELAY_LIMIT, load_network_path, make_network, save_network_path
from anet.protocol import Alphabet, enumerate_language, run_online, trace_tsv
from conftest import _at_digit_limit
from test_network import CUT_LINES, mutated_cut_files
from test_reduction import README_EXIT_CODES

PARITY_TSV = "e\t0\te\t-\t1\ne\t1\to\t-\t1\no\t0\to\t-\t0\no\t1\te\t-\t0\n"
ACCEPT_ALL_TSV = "s\t0\ts\t-\t1\ns\t1\ts\t-\t1\n"


@pytest.fixture()
def cut_path(tmp_path):
    out = tmp_path / "cut.anet"
    assert main(["build-cut", "27/8", "1/4", str(out)]) == 0
    return str(out)


def test_build_cut_reports_shape(tmp_path, capsys):
    out = tmp_path / "cut.anet"
    rc = main(["build-cut", "27/8", "1/4", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "8 units" in text
    assert "query gap 3" in text
    assert "base 27/8" in text
    assert out.exists()


def test_trace_prints_golden_tail(cut_path, capsys):
    capsys.readouterr()
    assert main(["trace", cut_path, "101"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # header plus rows t = 0 .. 10
    assert len(lines) == 12
    assert lines[0].split("\t")[0] == "t"
    last = lines[-1].split("\t")
    assert last[0] == "10"
    assert last[-2] == "60268/177147"
    assert "101 rejected" in last[-1]
    assert "(formal)" in last[-1]


def test_run_prints_prefix_verdicts(cut_path, capsys):
    capsys.readouterr()
    assert main(["run", cut_path, "101"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "eps\taccepted",
        "1\trejected",
        "10\taccepted",
        "101\trejected",
    ]


def test_qp_headlines(capsys):
    assert main(["qp", "27/8", "1/4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "NOT-QUASI-PERIODIC"

    assert main(["qp", "27", "1/28"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "NO-EXPANSION"

    assert main(["qp", "3", "1/2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "QUASI-PERIODIC"
    assert "edge: 1/2 -1-> 1/2" in out


def test_compare_equal_and_differ(tmp_path, capsys):
    a = tmp_path / "a.anet"
    b = tmp_path / "b.anet"
    d = tmp_path / "d.anet"
    assert main(["build-cut", "27/8", "1/4", str(a)]) == 0
    assert main(["build-cut", "27", "1/28", str(b)]) == 0
    assert main(["build-cut", "27/8", "3/8", str(d)]) == 0
    capsys.readouterr()

    assert main(["compare", str(a), str(b), "6"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "EQUAL"

    assert main(["compare", str(d), str(b), "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "DIFFER"
    assert lines[1] == "1"


def test_enum_lists_short_words(tmp_path, capsys):
    net = tmp_path / "n.anet"
    assert main(["build-cut", "27", "1/28", str(net)]) == 0
    capsys.readouterr()
    assert main(["enum", str(net), "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["eps", "0", "00", "10"]


def test_partition_refined_reports_intervals(cut_path, capsys):
    capsys.readouterr()
    rc = main(["partition", cut_path, "--words", "0,1"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["method: refined", "words: 0,1", "intervals: 8"]
    assert "intervals: 8" in lines
    assert lines[-8:] == [
        "[0,0]",
        "(0,323/1152)",
        "[323/1152,4/9)",
        "[4/9,19/32)",
        "[19/32,2/3)",
        "[2/3,57/64)",
        "[57/64,1)",
        "[1,1]",
    ]


def test_compile_fa_and_enum(tmp_path, capsys):
    tsv = tmp_path / "parity.tsv"
    tsv.write_text(PARITY_TSV)
    net = tmp_path / "parity.anet"
    assert main(["compile-fa", str(tsv), str(net)]) == 0
    capsys.readouterr()
    assert main(["enum", str(net), "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["eps", "0", "00", "11", "000", "011", "101", "110"]


def test_quotient_round_trip(tmp_path, capsys):
    tsv = tmp_path / "parity.tsv"
    tsv.write_text(PARITY_TSV)
    base = tmp_path / "parity.anet"
    assert main(["compile-fa", str(tsv), str(base)]) == 0
    out = tmp_path / "quot.anet"
    capsys.readouterr()
    rc = main(
        [
            "quotient",
            str(base),
            "1",
            "1",
            str(out),
            "--mode",
            "second-minus-first",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.startswith("wrote ")
    net = load_network_path(str(out))
    got = enumerate_language(net, 4)
    want = {
        w
        for n in range(5)
        for w in ("".join(bits) for bits in _words(n))
        if w.count("1") % 2 == 0
    }
    assert got == want


def _words(n):
    if n == 0:
        yield ()
        return
    for tail in _words(n - 1):
        yield tail + ("0",)
        yield tail + ("1",)


def test_reduce_round_trip(tmp_path, capsys):
    tsv = tmp_path / "all.tsv"
    tsv.write_text(ACCEPT_ALL_TSV)
    inner = tmp_path / "inner.anet"
    assert main(["compile-fa", str(tsv), str(inner)]) == 0
    spec = tmp_path / "red.spec"
    spec.write_text(
        "inner = inner.anet\n"
        "v1 = 0000\nv2 = 0000\nv3 = 0000\nv4 = 0000\nv5 = 0000\n"
    )
    out = tmp_path / "red.anet"
    capsys.readouterr()
    assert main(["reduce", str(spec), str(out)]) == 0
    assert "slots" in capsys.readouterr().out
    net = load_network_path(str(out))
    assert enumerate_language(net, 4) == {"01", "001", "011", "0001", "0011", "0111"}


def test_usage_errors_exit_one(capsys):
    assert main(["bogus"]) == 1
    assert "UsageError" in capsys.readouterr().err
    assert main([]) == 1
    capsys.readouterr()


def test_validation_error_exits_two(tmp_path, capsys):
    rc = main(["build-cut", "2", "1/4", str(tmp_path / "x.anet")])
    assert rc == 2
    assert "ValidationError" in capsys.readouterr().err


def test_build_cut_accepts_cube_past_float_precision(tmp_path, capsys):
    base = str((10**17 + 3) ** 3)
    assert main(["build-cut", base, "1/4", str(tmp_path / "big.anet")]) == 0
    assert "8 units" in capsys.readouterr().out


@pytest.mark.parametrize(
    "bad_line", ["size abc", "delta 3.0", "inputs 1 x", "init 3 y", "w x 1 1", "w 8 ? 1"]
)
def test_non_integer_field_exits_two(cut_path, tmp_path, bad_line, capsys):
    key = bad_line.split()[0]
    lines = open(cut_path).read().splitlines()
    if key == "w":
        lines.append(bad_line)
    elif key == "init":
        lines.insert(2, bad_line)
    else:
        lines = [bad_line if ln.split()[0] == key else ln for ln in lines]
    bad = tmp_path / "bad.anet"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["enum", str(bad), "1"]) == 2
    assert "ValidationError" in capsys.readouterr().err


def test_unknown_header_key_exits_two(cut_path, tmp_path, capsys):
    lines = open(cut_path).read().splitlines()
    lines.insert(2, "bogus 7")
    bad = tmp_path / "bad.anet"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["enum", str(bad), "1"]) == 2
    assert "ValidationError" in capsys.readouterr().err


def test_oversized_network_exits_three(cut_path, tmp_path, capsys):
    lines = open(cut_path).read().splitlines()
    lines = ["size %d" % (10**12) if ln.startswith("size ") else ln for ln in lines]
    bad = tmp_path / "huge.anet"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["enum", str(bad), "1"]) == 3
    assert "ResourceBudgetError" in capsys.readouterr().err


def test_rational_past_digit_limit_exits_two(tmp_path, capsys):
    rc = main(["build-cut", "9" * 5000, "1/4", str(tmp_path / "x.anet")])
    assert rc == 2
    assert "ValidationError" in capsys.readouterr().err


def test_values_past_the_print_digit_limit_exit_three(cut_path, tmp_path, capsys):
    # a trace row, a qp orbit value and a partition endpoint each pass
    # Python's int-to-str limit. Under the default limit (4,300 digits) that
    # takes 1 and 3,200 zeros, 2,000 nines over 1,999 eights, and the base
    # (10^500+1)^3/10^1500, whose partition runs for tens of seconds; under
    # the lowest limit (640 digits) smaller inputs pass it at once
    big = tmp_path / "big.anet"
    assert main(["build-cut", "%d/%d" % ((10**60 + 1) ** 3, 10**180), "1/3", str(big)]) == 0
    capsys.readouterr()
    for argv in (
        ["trace", cut_path, "1" + "0" * 500],
        ["qp", "%s/%s" % ("9" * 100, "8" * 99), "1/3"],
        ["partition", str(big), "--words", "1111,0000,1010"],
    ):
        assert _at_digit_limit(640, lambda: main(argv)) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: DigitLimitError: ")
        assert "more than 640 digits" in err


@pytest.mark.parametrize("cmd", ["enum", "compare"])
def test_negative_length_exits_one(cut_path, cmd, capsys):
    nets = [cut_path] * (2 if cmd == "compare" else 1)
    assert main([cmd, *nets, "-3"]) == 1
    captured = capsys.readouterr()
    assert "UsageError" in captured.err
    assert captured.out == ""


def test_qp_depth_past_the_limit_exits_three(capsys):
    assert main(["qp", "27/8", "1/4", "--depth", "10001"]) == 3
    captured = capsys.readouterr()
    assert "ResourceBudgetError" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "base, threshold",
    [("2305843009213693952/2305843009213693951", "1/3"), ("9/8", "2/3")],
    ids=["growth-prime", "orbit-window"],
)
def test_qp_searches_past_their_bounds_exit_three(base, threshold, capsys):
    # 2^61 - 1 is prime, so finding it by trial division would take about
    # 1.5*10^9 divisors; under base 9/8 the threshold 2/3 shares the prime 2
    # with the base's denominator, and its windowed orbit doubles each layer
    start = time.perf_counter()
    assert main(["qp", base, threshold]) == 3
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: ResourceBudgetError: ")


def test_partition_horizon_goes_with_the_exhaustive_method(cut_path, capsys):
    capsys.readouterr()
    assert main(["partition", cut_path, "7"]) == 1
    assert main(["partition", cut_path, "--method", "exhaustive"]) == 1
    for option in (["--words", "0,zz"], ["--alphabet", "q"]):
        assert main(["partition", cut_path, "2", "--method", "exhaustive", *option]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("UsageError") == 4
    assert captured.out == ""


@pytest.mark.parametrize("cmd", ["run", "trace", "enum", "compare", "partition", "quotient"])
def test_alphabet_size_mismatch_exits_one_before_any_work(cut_path, tmp_path, cmd, capsys):
    out = tmp_path / "quot.anet"
    rest = {
        "run": ["101"],
        "trace": ["101"],
        "enum": ["3"],
        "compare": [cut_path, "3"],
        "partition": [],
        "quotient": ["1", "1", str(out), "--mode", "second-minus-first"],
    }[cmd]
    capsys.readouterr()
    assert main([cmd, cut_path, *rest, "--alphabet", "012"]) == 1
    captured = capsys.readouterr()
    assert "UsageError" in captured.err
    assert captured.out == ""
    assert not out.exists()
    if cmd == "compare":  # only the second network mismatches
        three = tmp_path / "three.anet"
        save_network_path(make_network(5, (1, 2, 3), nxt=4, out=4, delta=1, weights=[]), str(three))
        assert main([cmd, cut_path, str(three), "3", "--alphabet", "01"]) == 1
        captured = capsys.readouterr()
        assert "UsageError" in captured.err
        assert captured.out == ""


def test_budget_error_exits_three(cut_path, capsys):
    rc = main(["partition", cut_path, "7", "--method", "exhaustive"])
    assert rc == 3
    assert "ResourceBudgetError" in capsys.readouterr().err


def _cap_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_enum_past_the_walk_budget_exits_three(cut_path):
    # the acceptor's tree to length 40 has 2**41 - 1 nodes, and a walk to
    # length 16,000 would keep words that long; each node walked and word
    # kept costs its length plus one, so both walks stop at the budget within
    # seconds, inside a 1 GB address space
    src = str(Path(anet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    entry = "import sys; from anet.cli import main; sys.exit(main())"
    for max_len in ("40", "16000"):
        child = subprocess.run(
            [sys.executable, "-c", entry, "enum", cut_path, max_len],
            capture_output=True,
            env=env,
            timeout=120,
            preexec_fn=_cap_address_space,
        )
        assert child.returncode == 3
        assert b"ResourceBudgetError" in child.stderr and child.stdout == b""


@pytest.mark.parametrize(
    "key, line, at_limit", [("delta", "delta 3\n", 4), ("outdelay", "outdelay 0\n", 0)], ids=["delta", "outdelay"]
)
def test_delays_past_the_limit_exit_three(cut_path, tmp_path, key, line, at_limit):
    # a run may step delta instants waiting for a query and outdelay more for
    # a verdict, so a file declares at most NETWORK_DELAY_LIMIT of each; at the
    # limit a run ends within seconds (a gap error with nxt silent after its
    # first query), past it the file is refused, in a 1 GB address space
    text = open(cut_path).read()
    if key == "delta":
        text = text.replace("w 3 5 1\n", "")
    src = str(Path(anet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    entry = "import sys; from anet.cli import main; sys.exit(main())"
    for steps, code in ((NETWORK_DELAY_LIMIT, at_limit), (NETWORK_DELAY_LIMIT + 1, 3)):
        path = tmp_path / ("%d.anet" % steps)
        path.write_text(text.replace(line, "%s %d\n" % (key, steps)))
        child = subprocess.run(
            [sys.executable, "-c", entry, "run", str(path), "0"],
            capture_output=True,
            env=env,
            timeout=60,
            preexec_fn=_cap_address_space,
        )
        assert child.returncode == code
    assert b"ResourceBudgetError" in child.stderr and child.stdout == b""


def test_enum_to_length_16_fits_the_walk_budget(cut_path, capsys):
    # the walk keeps 65,536 words and costs 2,097,456 of the budget; a budget
    # sized for words of length 15 keeps every walk the old count of nodes and
    # kept words let finish
    capsys.readouterr()
    assert main(["enum", cut_path, "16"]) == 0
    out, err = capsys.readouterr()
    assert out.count("\n") == 65536 and err == ""


def test_gap_error_exits_four(cut_path, tmp_path, capsys):
    net = load_network_path(cut_path)
    starved = dataclasses.replace(net, delta=2)
    bad = tmp_path / "bad.anet"
    save_network_path(starved, str(bad))
    rc = main(["run", str(bad), "101"])
    assert rc == 4
    assert "QueryGapError" in capsys.readouterr().err


@pytest.mark.parametrize("max_len", [4, 12])  # output within and past the stdout buffer
def test_closed_stdout_exits_one_quietly(cut_path, max_len):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader, before the child writes anything
    src = str(Path(anet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    entry = "import sys; from anet.cli import main; sys.exit(main())"
    try:
        child = subprocess.run(
            [sys.executable, "-c", entry, "enum", cut_path, str(max_len)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert child.stderr == b""


@pytest.mark.parametrize("bad", ["network", "inner", "transducer", "spec"])
def test_non_utf8_file_exits_two(cut_path, tmp_path, bad, capsys):
    # a byte that is not UTF-8, in each text format, is a ValidationError
    # naming the file, not a traceback
    net = tmp_path / "inner.anet"
    net.write_bytes(Path(cut_path).read_bytes() + (b"# caf\xff\n" if bad in ("network", "inner") else b""))
    tsv = tmp_path / "t.tsv"
    tsv.write_bytes(PARITY_TSV.encode() + (b"\xff\n" if bad == "transducer" else b""))
    spec = tmp_path / "red.spec"
    spec.write_bytes(b"inner = inner.anet\n" + b"".join(b"v%d = 0000\n" % k for k in range(1, 6)))
    if bad == "spec":
        spec.write_bytes(spec.read_bytes() + b"# \xff\n")
    argv, path = {
        "network": (["enum", str(net), "2"], net),
        "inner": (["reduce", str(spec), str(tmp_path / "out.anet")], net),
        "transducer": (["compile-fa", str(tsv), str(tmp_path / "out.anet")], tsv),
        "spec": (["reduce", str(spec), str(tmp_path / "out.anet")], spec),
    }[bad]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ValidationError: %s is not UTF-8 text: " % path)
    assert "Traceback" not in captured.err and captured.out == ""


def test_repeated_main_calls_are_independent(cut_path, capsys):
    # main() reuses one argument parser per process; no call may leave a
    # trace in a later one
    def call(*argv):
        rc = main(list(argv))
        out, err = capsys.readouterr()
        return rc, out, err

    capsys.readouterr()
    first = call("enum", cut_path, "3")
    assert first[0] == 0 and first[1] and not first[2]
    assert call("enum", cut_path, "3", "--bogus")[0] == 1
    assert call("build-cut", "2", "1/4", str(Path(cut_path).with_name("x.anet")))[0] == 2
    lettered = call("enum", cut_path, "3", "--alphabet", "ab")
    assert lettered[0] == 0 and lettered[1] == first[1].replace("0", "a").replace("1", "b")
    assert call("enum", cut_path, "3") == first


def test_missing_file_exits_one(tmp_path, capsys):
    rc = main(["enum", str(tmp_path / "nope.anet"), "2"])
    assert rc == 1
    assert "OSError" in capsys.readouterr().err


NUL_ARGVS = (
    ["run", "NET", "101"],
    ["trace", "NET", "101"],
    ["build-cut", "27/8", "1/4", "OUT"],
    ["partition", "NET"],
    ["quotient", "NET", "1", "1", "OUT", "--mode", "second-minus-first"],
    ["compile-fa", "TSV", "OUT"],
    ["reduce", "SPEC", "OUT"],
    ["enum", "NET", "2"],
    ["compare", "NET", "NET", "2"],
)
NUL_CASES = [(argv, k) for argv in NUL_ARGVS for k, arg in enumerate(argv) if arg in ("NET", "OUT", "TSV", "SPEC")]


@pytest.mark.parametrize("argv, at", NUL_CASES, ids=["%s-%d" % (argv[0], k) for argv, k in NUL_CASES])
def test_nul_byte_in_a_path_exits_one(cut_path, tmp_path, argv, at, capsys):
    # the call succeeds as it stands, and with a NUL byte appended to one
    # path it ends in one usage error line: open() would raise ValueError
    (tmp_path / "t.tsv").write_text(PARITY_TSV, encoding="utf-8")
    (tmp_path / "red.spec").write_text(
        "inner = %s\n" % Path(cut_path).name + "".join("v%d = 0000\n" % k for k in range(1, 6)), encoding="utf-8"
    )
    files = {"NET": cut_path, "OUT": str(tmp_path / "out.anet"), "TSV": str(tmp_path / "t.tsv")}
    argv = [files.get(arg, str(tmp_path / "red.spec") if arg == "SPEC" else arg) for arg in argv]
    assert main(argv) == 0
    capsys.readouterr()
    argv[at] += "\0"
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: UsageError: argument ") and err.endswith(" holds a NUL byte\n")


def test_nul_cases_cover_every_path_argument():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    typed = [(cmd, a.dest) for cmd, p in sub.choices.items() for a in p._actions if a.type is cli._path]
    paths = {"net", "net1", "net2", "out", "tsv", "spec"}
    assert len(typed) == len(NUL_CASES) == 13
    assert {(cmd, a.dest) for cmd, p in sub.choices.items() for a in p._actions if a.dest in paths} == set(typed)
    assert sorted({cmd for cmd, _ in typed}) == sorted(argv[0] for argv in NUL_ARGVS)


def test_exports_are_names_not_submodules():
    assert "enumerate_language" in anet.__all__
    assert [n for n in anet.__all__ if inspect.ismodule(getattr(anet, n))] == []


# -- anet trace on fuzzed argv: the trace, or one error line and the README's exit code

trace_words = st.one_of(
    st.sampled_from(("eps", "", "101", "1" * 12, "10\x00", "e\u0301")),
    st.text(alphabet="01ab2 \x00\xe9\u0301\U0001f642", max_size=8),
)
# repeated symbols, a symbol of two code points that reads as one, the wrong size
trace_alphabets = st.one_of(st.none(), st.sampled_from(("01", "10", "ab", "a\u0301", "00", "aa", "0", "012", "", "\x00")))
trace_nets = st.one_of(st.sampled_from((None, "missing", "directory", "nul")), mutated_cut_files(most=1))


def _written(net, tmp) -> str:
    """The path of net in tmp: the acceptor's file (None), a missing path, a directory, the file's path
    with a NUL byte appended ("nul"), or the file with one line mutated."""
    path = os.path.join(tmp, "cut.anet")
    if net == "directory":
        os.mkdir(path)
    elif net != "missing":
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(net if net not in (None, "nul") else "\n".join(CUT_LINES))
    return path + "\0" if net == "nul" else path


def _assert_run_output_or_one_error_line(command, net, word, alphabet, render):
    """main([command, net path, word, --alphabet]) prints render(net, run) or one error line; never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path, want = _written(net, tmp), None
        try:
            if net != "nul":  # a NUL byte in a path is refused with the usage errors
                loaded = load_network_path(path)
                alpha = None if alphabet is None else Alphabet.of(alphabet)
                want = render(loaded, run_online(loaded, "" if word == "eps" else word, alpha))
        except (AnetError, OSError):
            pass
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path, word] + ([] if alphabet is None else ["--alphabet", alphabet]))
    if want is not None:
        assert (code, out.getvalue(), err.getvalue()) == (0, want, "")
        return
    assert out.getvalue() == "" and err.getvalue().count("\n") == 1
    prefix, name, _ = err.getvalue().split(": ", 2)
    kind = OSError if name == "OSError" else getattr(errors, name)
    assert prefix == "error" and code == next(c for k, c in README_EXIT_CODES if issubclass(kind, k))


@settings(max_examples=120, deadline=None)
@given(trace_nets, trace_words, trace_alphabets)
@example(None, "101", None)
@example(None, "a\u0301a", "a\u0301")
@example("directory", "101", "00")
@example("nul", "101", None)  # a usage error, exit 1
@example("\n".join(CUT_LINES).replace("delta 3", "delta 2"), "10", None)  # a query gap, exit 4
@example("\n".join(CUT_LINES).replace("delta 3", "delta 65537"), "10", None)  # over budget, exit 3
def test_fuzzed_trace_argv_prints_the_trace_or_one_error_line(net, word, alphabet):
    _assert_run_output_or_one_error_line("trace", net, word, alphabet, lambda loaded, run: trace_tsv(run, loaded))


def _verdict_lines(_, run) -> str:
    """anet run's output: one line per prefix, the prefix (eps when empty) and its verdict."""
    return "".join(
        "%s\t%s\n" % (run.word[:k] or "eps", "accepted" if v else "rejected") for k, v in enumerate(run.verdicts)
    )


@settings(max_examples=120, deadline=None)
@given(trace_nets, trace_words, trace_alphabets)
@example(None, "101", None)
@example(None, "eps", "ab")
@example(None, "10x", None)  # a foreign symbol, exit 2
@example(None, "1\u00e9", "1\u00e9")  # a non-ASCII alphabet
@example("nul", "101", None)  # a usage error, exit 1
@example("missing", "101", None)  # an I/O error, exit 1
@example("\n".join(CUT_LINES).replace("delta 3", "delta 2"), "10", None)  # a query gap, exit 4
def test_fuzzed_run_argv_prints_each_prefix_verdict_or_one_error_line(net, word, alphabet):
    _assert_run_output_or_one_error_line("run", net, word, alphabet, _verdict_lines)


# -- anet partition and anet quotient on fuzzed argv: the output, or one error line and the README's exit code

argv_words = st.one_of(
    st.lists(st.text(alphabet="01", max_size=3), min_size=1, max_size=2).map(",".join),
    st.sampled_from(("eps", "", "2", "a", "eps,01", ",", "0,,1", "1,eps,1", "-1")),
    st.lists(st.text(alphabet="01ab2\x00\xe9", max_size=3), max_size=3).map(",".join),
)
# each argument is as often well formed as fuzzed, so that some calls get past the usage checks
fuzz_nets = st.one_of(st.none(), trace_nets)
fuzz_alphabets = st.one_of(st.sampled_from((None, "01", "ab")), trace_alphabets)
methods_and_horizons = st.one_of(
    st.sampled_from(((None, None), ("refined", None), ("exhaustive", "1"), ("exhaustive", "2"))),
    st.tuples(
        st.sampled_from((None, "refined", "exhaustive", "symbolic", "")),
        st.sampled_from((None, "1", "2", "3", "0", "-1", "x", "", str(10**12))),
    ),
)
suffixes = st.one_of(st.text(alphabet="01", min_size=1, max_size=2), argv_words)
modes = st.one_of(
    st.sampled_from(("second-minus-first", "first-minus-second")),
    st.sampled_from((None, "second_minus_first", "", "both")),
)


def _one_call(net, argv_of) -> tuple[int, str, str, str]:
    """main(argv_of(net path, out path)) with net written by _written: code, stdout, stderr, out path."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out_path = _written(net, tmp), os.path.join(tmp, "q.anet")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv_of(path, out_path))
        wrote = os.path.isfile(out_path)
    return code, out.getvalue(), err.getvalue(), wrote


def _assert_output_or_one_error_line(code, out, err, head):
    if code == 0:
        assert out.startswith(head) and err == ""
        return
    assert out == "" and err.count("\n") == 1
    prefix, name, _ = err.split(": ", 2)
    kind = OSError if name == "OSError" else getattr(errors, name)
    assert prefix == "error" and code == next(c for k, c in README_EXIT_CODES if issubclass(kind, k))


@settings(max_examples=60, deadline=None)
@given(fuzz_nets, methods_and_horizons, st.one_of(st.none(), argv_words), fuzz_alphabets)
@example(None, ("exhaustive", "2"), None, None)
@example(None, (None, None), "eps,01", "ab")
@example(None, (None, None), "2", None)  # a foreign symbol, exit 2
@example(None, (None, "2"), None, None)  # a horizon for the refined method, exit 1
@example("\n".join(CUT_LINES).replace("delta 3", "delta 65537"), (None, None), None, None)  # over budget, exit 3
def test_fuzzed_partition_argv_prints_the_partition_or_one_error_line(net, method_horizon, words, alphabet):
    method, horizon = method_horizon

    def argv(path, _):
        flags = [("--method", method), ("--words", words), ("--alphabet", alphabet)]
        return ["partition", path] + [horizon] * (horizon is not None) + [a for f in flags if f[1] is not None for a in f]

    code, out, err, _ = _one_call(net, argv)
    _assert_output_or_one_error_line(code, out, err, "method: ")


@settings(max_examples=40, deadline=None)
@given(fuzz_nets, suffixes, suffixes, modes, fuzz_alphabets)
@example(None, "1", "01", "second-minus-first", None)
@example(None, "eps", "0", "first-minus-second", "ab")
@example(None, "1", "1", None, None)  # --mode is required, exit 1
@example(None, "2", "1", "second-minus-first", None)  # a foreign symbol, exit 2
@example("\n".join(CUT_LINES).replace("delta 3", "delta 2"), "1", "0", "second-minus-first", None)  # a query gap
def test_fuzzed_quotient_argv_writes_the_network_or_prints_one_error_line(net, first, second, mode, alphabet):
    def argv(path, out_path):
        flags = [("--mode", mode), ("--alphabet", alphabet)]
        return ["quotient", path, first, second, out_path] + [a for f in flags if f[1] is not None for a in f]

    code, out, err, wrote = _one_call(net, argv)
    _assert_output_or_one_error_line(code, out, err, "wrote ")
    assert wrote == (code == 0)
