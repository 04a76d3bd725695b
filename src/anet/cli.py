"""Batch command-line front end.

Every construction and check is a subcommand; all output is deterministic and
every number is printed in canonical rational text. Exit codes: 0 success,
1 usage or I/O error (a closed stdout included, with nothing on stderr),
2 validation, 3 resource budget, 4 query gap violation.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .cutlang import (
    NOT_QP_WITNESS,
    QP_CERTIFICATE,
    NO_EXPANSION,
    build_cut_acceptor,
    cut_params,
    qp_explore,
)
from .errors import AnetError, UsageError
from .mealy import compile_mealy, load_machine_path
from .network import load_network_path, save_network_path
from .partition import build_partition_exhaustive, build_partition_refined
from .protocol import (
    Alphabet,
    compare_languages,
    enumerate_language,
    run_online,
    trace_tsv,
)
from .quotient import QuotientSpec, build_quotient_network
from .rationals import format_rational, parse_rational
from .reduction import build_reduction, load_reduction_spec


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract reserves 2 for validation
    def error(self, message: str) -> None:
        raise UsageError(message)


def _alphabet_for(net, arg: str | None) -> Alphabet:
    if arg is not None:
        alpha = Alphabet.of(arg)
        if len(alpha.symbols) != len(net.input_units):
            raise UsageError(
                "alphabet %r has %d symbols but the network has %d input units"
                % (arg, len(alpha.symbols), len(net.input_units))
            )
        return alpha
    return Alphabet.default_for(net)


def _max_len(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("length bound must be nonnegative, got %d" % n)
    return n


def _path(text: str) -> str:
    if "\0" in text:  # open() would raise ValueError, not OSError
        raise argparse.ArgumentTypeError("path %r holds a NUL byte" % text)
    return text


def _show_word(word: str) -> str:
    return word if word else "eps"


def _read_word(arg: str) -> str:
    return "" if arg == "eps" else arg


def _cmd_run(args) -> int:
    net = load_network_path(args.net)
    alpha = _alphabet_for(net, args.alphabet)
    trace = run_online(net, _read_word(args.word), alpha)
    for k, verdict in enumerate(trace.verdicts):
        prefix = trace.word[:k]
        print("%s\t%s" % (_show_word(prefix), "accepted" if verdict else "rejected"))
    return 0


def _cmd_trace(args) -> int:
    net = load_network_path(args.net)
    alpha = _alphabet_for(net, args.alphabet)
    trace = run_online(net, _read_word(args.word), alpha)
    sys.stdout.write(trace_tsv(trace, net))
    return 0


def _cmd_build_cut(args) -> int:
    params = cut_params(parse_rational(args.base), parse_rational(args.threshold))
    net = build_cut_acceptor(params)
    save_network_path(net, args.out)
    print(
        "wrote %s: %d units, query gap %d, base %s, threshold %s"
        % (args.out, net.size, net.delta, format_rational(params.base), format_rational(params.threshold))
    )
    return 0


_QP_HEADLINE = {
    NOT_QP_WITNESS: "NOT-QUASI-PERIODIC",
    QP_CERTIFICATE: "QUASI-PERIODIC",
    NO_EXPANSION: "NO-EXPANSION",
}


def _cmd_qp(args) -> int:
    params = cut_params(parse_rational(args.base), parse_rational(args.threshold))
    outcome = qp_explore(params, depth=args.depth)
    print(_QP_HEADLINE.get(outcome.kind, "UNKNOWN"))
    print(outcome.detail)
    if outcome.orbit:
        head = ", ".join(format_rational(r) for r in outcome.orbit[:8])
        more = " ..." if len(outcome.orbit) > 8 else ""
        print("orbit: %s%s" % (head, more))
    for src, digit, dst in outcome.edges:
        print("edge: %s -%d-> %s" % (format_rational(src), digit, format_rational(dst)))
    return 0


def _cmd_partition(args) -> int:
    if (args.horizon is None) == (args.method == "exhaustive"):
        raise UsageError("the exhaustive method needs a horizon, the refined method takes none")
    if args.method == "exhaustive" and (args.words is not None or args.alphabet is not None):
        raise UsageError("--words and --alphabet go with the refined method only")
    net = load_network_path(args.net)
    if args.method == "exhaustive":
        result = build_partition_exhaustive(net, args.horizon)
        covers = "horizon: %d" % result.horizon
    else:
        alpha = _alphabet_for(net, args.alphabet)
        if args.words:
            words = tuple(_read_word(w) for w in args.words.split(","))
        else:
            words = tuple(alpha.symbols)
        result = build_partition_refined(net, words, alpha)
        covers = "words: " + ",".join(map(_show_word, result.words))
    print("method: %s\n%s" % (result.method, covers))
    print("intervals: %d" % result.interval_count)
    if result.bound is not None:
        print("endpoint bound: %d" % result.bound)
    for iv in result.partition.intervals:
        print(str(iv))
    return 0


def _cmd_quotient(args) -> int:
    base = load_network_path(args.net)
    spec = QuotientSpec(
        base=base,
        first=_read_word(args.first),
        second=_read_word(args.second),
        mode=args.mode.replace("-", "_"),
        alphabet=_alphabet_for(base, args.alphabet),
    )
    build = build_quotient_network(spec)
    save_network_path(build.network, args.out)
    trues = sum(1 for v in build.truth.values() if v)
    print(
        "wrote %s: %d units over a %d-unit base, %d intervals, %d/%d table rows accept"
        % (
            args.out,
            build.network.size,
            base.size,
            build.partition.interval_count,
            trues,
            len(build.truth),
        )
    )
    return 0


def _cmd_compile_fa(args) -> int:
    machine = load_machine_path(args.tsv)
    net, _ = compile_mealy(machine)
    save_network_path(net, args.out)
    print(
        "wrote %s: %d units, %d states, %d symbols"
        % (args.out, net.size, len(machine.states), len(machine.input_symbols))
    )
    return 0


def _cmd_reduce(args) -> int:
    spec = load_reduction_spec(args.spec)
    build = build_reduction(spec)
    save_network_path(build.network, args.out)
    print(
        "wrote %s: %d units around a %d-unit inner, %d slots, query gap %d"
        % (
            args.out,
            build.network.size,
            build.layout.inner_size,
            build.layout.n_slots,
            build.network.delta,
        )
    )
    return 0


def _cmd_enum(args) -> int:
    net = load_network_path(args.net)
    alpha = _alphabet_for(net, args.alphabet)
    words = enumerate_language(net, args.max_len, alpha)
    for w in sorted(words, key=lambda w: (len(w), w)):
        print(_show_word(w))
    return 0


def _cmd_compare(args) -> int:
    net_a = load_network_path(args.net1)
    net_b = load_network_path(args.net2)
    alpha = None
    if args.alphabet is not None:
        alpha = _alphabet_for(net_a, args.alphabet)
        _alphabet_for(net_b, args.alphabet)
    equal, witnesses = compare_languages(net_a, net_b, args.max_len, alpha)
    if equal:
        print("EQUAL")
        return 0
    print("DIFFER")
    for w in witnesses:
        print(_show_word(w))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import; parse_args keeps no state
    # between calls, so one parser serves every main() call in a process
    ap = _Parser(prog="anet", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("run", _cmd_run, "feed a word and print every prefix verdict")
    p.add_argument("net", type=_path)
    p.add_argument("word", help="input word, or eps for the empty word")
    p.add_argument("--alphabet")

    p = add("trace", _cmd_trace, "feed a word and print the full state trace as TSV")
    p.add_argument("net", type=_path)
    p.add_argument("word")
    p.add_argument("--alphabet")

    p = add("build-cut", _cmd_build_cut, "build the threshold-reversal acceptor")
    p.add_argument("base")
    p.add_argument("threshold")
    p.add_argument("out", type=_path)

    p = add("qp", _cmd_qp, "classify the threshold's remainder orbit")
    p.add_argument("base")
    p.add_argument("threshold")
    p.add_argument("--depth", type=int, default=64)

    p = add("partition", _cmd_partition, "build an analog-state interval partition")
    p.add_argument("net", type=_path)
    p.add_argument("horizon", type=int, nargs="?", help="steps covered; exhaustive method only")
    p.add_argument("--method", choices=("exhaustive", "refined"), default="refined")
    p.add_argument("--words", help="comma separated probe words for the refined method")
    p.add_argument("--alphabet")

    p = add("quotient", _cmd_quotient, "build a suffix-quotient difference network")
    p.add_argument("net", type=_path)
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("out", type=_path)
    p.add_argument(
        "--mode",
        required=True,
        choices=("second-minus-first", "first-minus-second"),
    )
    p.add_argument("--alphabet")

    p = add("compile-fa", _cmd_compile_fa, "compile a transition table into a network")
    p.add_argument("tsv", type=_path)
    p.add_argument("out", type=_path)

    p = add("reduce", _cmd_reduce, "wrap an inner acceptor in the two-letter front end")
    p.add_argument("spec", type=_path)
    p.add_argument("out", type=_path)

    p = add("enum", _cmd_enum, "print all accepted words up to a length")
    p.add_argument("net", type=_path)
    p.add_argument("max_len", type=_max_len)
    p.add_argument("--alphabet")

    p = add("compare", _cmd_compare, "compare two accepted languages up to a length")
    p.add_argument("net1", type=_path)
    p.add_argument("net2", type=_path)
    p.add_argument("max_len", type=_max_len)
    p.add_argument("--alphabet")

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here at the latest
        return code
    except BrokenPipeError:
        # the reader is gone; the output still buffered goes nowhere at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except AnetError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print("error: OSError: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
