"""Acceptance suite: one test per shipped criterion, each with a time budget.

Expected values come from sources independent of the construction under
test: frozen state tables, direct arithmetic on words, or the machine-level
transition semantics. Each test records a line that conftest prints in the
terminal summary, so a full run ends with one pass/fail line per criterion.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

import conftest
from conftest import make_skeleton_net, probe_verdict
from test_protocol import GOLDEN_ROWS

from anet.cutlang import (
    NOT_QP_WITNESS,
    NO_EXPANSION,
    build_cut_acceptor,
    cut_params,
    qp_explore,
    reversal_member,
)
from anet.mealy import accepts_word, compile_mealy, machine_from_tsv
from anet.network import Configuration
from anet.partition import (
    build_partition_exhaustive,
    build_partition_refined,
    extrapolation_table,
)
from anet.protocol import Alphabet, enumerate_language, run_online
from anet.quotient import (
    FIRST_MINUS_SECOND,
    SECOND_MINUS_FIRST,
    QuotientSpec,
    build_quotient_network,
    quotient_difference_language,
)
from anet.reduction import ReductionSpec, build_reduction, word_scheme


@contextmanager
def criterion(num: int, title: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        conftest.ACCEPTANCE_RESULTS.append((num, title, False, elapsed, limit_s))
        raise
    elapsed = time.perf_counter() - t0
    conftest.ACCEPTANCE_RESULTS.append((num, title, elapsed <= limit_s, elapsed, limit_s))
    assert elapsed <= limit_s, "criterion %d ran %.2fs, over its %.0fs budget" % (
        num,
        elapsed,
        limit_s,
    )


def _binary_words(max_len: int) -> list[str]:
    words = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + d for w in frontier for d in "01"]
        words.extend(frontier)
    return words


Y8_COLUMN = (
    F(0),
    F(0),
    F(19, 27),
    F(38, 81),
    F(76, 243),
    F(152, 729),
    F(304, 2187),
    F(608, 6561),
    F(15067, 19683),
    F(30134, 59049),
    F(60268, 177147),
)


def test_criterion_1_golden_trace():
    with criterion(1, "golden trace of the eight-unit acceptor", 1.0):
        net = build_cut_acceptor(cut_params(F(27, 8), F(1, 4)))
        trace = run_online(net, "101")
        assert len(trace.rows) == 11
        for t, cfg in trace.rows:
            bits, analog = GOLDEN_ROWS[t]
            assert cfg.binary == bits, "binary state differs at t=%d" % t
            assert cfg.analog == analog == Y8_COLUMN[t], "analog differs at t=%d" % t
        assert trace.verdicts == (True, False, True, False)


def test_criterion_2_whole_base_language_is_ends_in_zero():
    with criterion(2, "whole-base acceptor language is ends-in-zero", 10.0):
        params = cut_params(F(27), F(1, 28))
        net = build_cut_acceptor(params)
        universe = _binary_words(12)
        assert len(universe) == 8191
        closed_form = {w for w in universe if w == "" or w.endswith("0")}
        assert len(closed_form) == 4096
        # the closed form and the value predicate must agree before either
        # is used as the expected set (the empty word's value is 0, below
        # any positive threshold, so it belongs)
        assert closed_form == {w for w in universe if reversal_member(w, params)}
        assert enumerate_language(net, 12) == closed_form


def test_criterion_3_acceptor_matches_value_predicate():
    with criterion(3, "acceptor agrees with the reversed-value predicate", 60.0):
        params = cut_params(F(27, 8), F(1, 4))
        net = build_cut_acceptor(params)
        universe = _binary_words(14)
        assert len(universe) == 2**15 - 1
        expected = {w for w in universe if reversal_member(w, params)}
        assert enumerate_language(net, 14) == expected


def test_criterion_4_orbit_denominator_growth():
    with criterion(4, "remainder orbit denominator growth witness", 5.0):
        params = cut_params(F(27, 8), F(1, 4))
        outcome = qp_explore(params, depth=1000)
        assert outcome.kind == NOT_QP_WITNESS
        assert outcome.growth_prime == 2
        assert outcome.explored_depth == 1000

        # independent replay of the all-zero digit orbit, with the one-step
        # check that either digit choice preserves the invariant
        beta = F(27, 8)
        r = F(1, 4)
        for n in range(1001):
            assert r.denominator == 2 ** (3 * n + 2)
            assert r.numerator % 2 == 1
            assert outcome.orbit[n] == r
            for digit in (0, 1):
                child = beta * r - digit
                assert child.denominator == 2 ** (3 * n + 5)
                assert child.numerator % 2 == 1
            r = beta * r

        # the same one-step step at synthetic remainders a / 2^k, odd a,
        # far away from the concrete orbit
        rng = random.Random(7)
        for _ in range(200):
            k = rng.randint(2, 64)
            a = 2 * rng.randint(-(2**40), 2**40) + 1
            for digit in (0, 1):
                child = beta * F(a, 2**k) - digit
                assert child.denominator == 2 ** (k + 3)
                assert child.numerator % 2 == 1

        assert qp_explore(cut_params(F(27), F(1, 28))).kind == NO_EXPANSION


CUT_INTERVALS = [
    "[0,0]",
    "(0,323/1152)",
    "[323/1152,4/9)",
    "[4/9,19/32)",
    "[19/32,2/3)",
    "[2/3,57/64)",
    "[57/64,1)",
    "[1,1]",
]


def _interval_points(iv, rng, k):
    if iv.degenerate:
        return [iv.lo]
    span = iv.hi - iv.lo
    pts = [iv.lo + span * F(i, k + 1) for i in range(1, k + 1)]
    pts.append(iv.lo + span * F(rng.randint(1, 96), 97))
    return pts


def _invariance_sweep(net, intervals, words, rng):
    """Per interval, at least 100 sampled starts must give matching verdicts."""
    for iv in intervals:
        checked = 0
        while checked < 100:
            bits = tuple(rng.randint(0, 1) for _ in range(net.size - 1))
            word = words[rng.randrange(len(words))]
            samples = _interval_points(iv, rng, 5)
            verdicts = {
                probe_verdict(net, Configuration(bits, y), word) for y in samples
            }
            assert len(verdicts) == 1, "interval %s splits on %r" % (iv, word)
            checked += len(samples)


def test_criterion_5_partition_invariance():
    with criterion(5, "interval partitions are trajectory invariant", 300.0):
        cut_net = build_cut_acceptor(cut_params(F(27, 8), F(1, 4)))
        res = build_partition_refined(cut_net, ("0", "1"))
        assert [str(iv) for iv in res.partition.intervals] == CUT_INTERVALS
        _invariance_sweep(
            cut_net,
            res.partition.intervals,
            ("", "0", "1", "00", "01", "10", "11"),
            random.Random(5),
        )

        for seed in (11, 22, 33):
            net = make_skeleton_net(seed)
            horizon = max(2, 16 // (net.size - 1))
            word = "0" * (horizon - 1)
            ref = build_partition_refined(net, (word,))
            rng = random.Random(seed * 17)
            _invariance_sweep(
                net,
                ref.partition.intervals,
                tuple("0" * k for k in range(horizon)),
                rng,
            )
            # these sizes keep the exhaustive route inside its budget, so the
            # interval count cap and the cross-method agreement are checkable
            exh = build_partition_exhaustive(net, horizon)
            assert exh.interval_count <= exh.bound + 1
            t_e = extrapolation_table(net, exh, word)
            t_r = extrapolation_table(net, ref, word)
            for _ in range(100):
                bits = tuple(rng.randint(0, 1) for _ in range(net.size - 1))
                y = F(rng.randint(0, 128), 128)
                assert t_e.value(bits, y) == t_r.value(bits, y)


PARITY_TSV = "e\t0\te\t-\t1\ne\t1\to\t-\t1\no\t0\to\t-\t0\no\t1\te\t-\t0\n"

ALL_TSV = "s\t0\ts\t-\t1\ns\t1\ts\t-\t1\n"

MOD3_TSV = (
    "S\ta\tqa1\t-\t0\n"
    "S\tb\tD\t-\t0\n"
    "qa1\ta\tqa2\t-\t0\n"
    "qa1\tb\tqb0\t-\t0\n"
    "qa2\ta\tqa0\t-\t0\n"
    "qa2\tb\tqb1\t-\t0\n"
    "qa0\ta\tqa1\t-\t1\n"
    "qa0\tb\tqb2\t-\t1\n"
    "qb0\ta\tD\t-\t1\n"
    "qb0\tb\tqb2\t-\t1\n"
    "qb1\ta\tD\t-\t0\n"
    "qb1\tb\tqb0\t-\t0\n"
    "qb2\ta\tD\t-\t0\n"
    "qb2\tb\tqb1\t-\t0\n"
    "D\ta\tD\t-\t0\n"
    "D\tb\tD\t-\t0\n"
)


def test_criterion_6_quotient_networks_match_oracle():
    with criterion(6, "suffix-quotient networks match brute force", 300.0):
        parity_net, _ = compile_mealy(machine_from_tsv(PARITY_TSV))
        cut_a = build_cut_acceptor(cut_params(F(27), F(1, 28)))
        cut_b = build_cut_acceptor(cut_params(F(27, 8), F(3, 8)))
        combos = (
            (parity_net, "1", "1", SECOND_MINUS_FIRST),
            (parity_net, "1", "1", FIRST_MINUS_SECOND),
            (cut_a, "1", "0", SECOND_MINUS_FIRST),
            (cut_b, "1", "0", SECOND_MINUS_FIRST),
            (cut_b, "1", "1", FIRST_MINUS_SECOND),
        )
        nonempty = 0
        for base, first, second, mode in combos:
            spec = QuotientSpec(base=base, first=first, second=second, mode=mode)
            got = enumerate_language(build_quotient_network(spec).network, 10)
            want = quotient_difference_language(base, first, second, mode, 10)
            assert got == want, "combo %r diverges" % ((first, second, mode),)
            nonempty += bool(want)
        assert nonempty >= 3


def _check_reduction(inner, words, alphabet, inner_oracle):
    build = build_reduction(ReductionSpec(inner=inner, words=words, alphabet=alphabet))
    # all five words are already long enough, so the padding rewrite is the
    # identity and the oracle may use the original words
    assert build.spec.words == words
    got = enumerate_language(build.network, 12)
    want = set()
    for m in range(1, 12):
        for n in range(1, 13 - m):
            if inner_oracle(word_scheme(words, m, n)):
                want.add("0" * m + "1" * n)
    assert got == want
    for w in got:
        # block shape: some zeros then some ones, nothing else
        assert "10" not in w and w[0] == "0" and w[-1] == "1"


def test_criterion_7_reduction_contract():
    with criterion(7, "two-letter front ends honor the word contract", 600.0):
        all_m = machine_from_tsv(ALL_TSV)
        all_net, _ = compile_mealy(all_m)
        _check_reduction(
            all_net, ("0000",) * 5, None, lambda w: accepts_word(all_m, w)
        )

        mod_m = machine_from_tsv(MOD3_TSV)
        mod_net, _ = compile_mealy(mod_m)
        _check_reduction(
            mod_net,
            ("aaaa", "aaaa", "bbbb", "bbbb", "bbbb"),
            Alphabet.of("ab"),
            lambda w: accepts_word(mod_m, w),
        )

        par_m = machine_from_tsv(PARITY_TSV)
        par_net, _ = compile_mealy(par_m)
        words_c = ("1110", "0110", "1000", "1011", "0001")
        q_net = build_quotient_network(
            QuotientSpec(base=par_net, first="1", second="1", mode=SECOND_MINUS_FIRST)
        ).network

        def quotient_oracle(w: str) -> bool:
            return accepts_word(par_m, w + "11") and not accepts_word(par_m, w + "1")

        _check_reduction(q_net, words_c, None, quotient_oracle)


def test_criterion_8_substitution_is_documented():
    with criterion(8, "headline-substitution note is documented", 5.0):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        assert "no finite experiment" in text
        assert "property-based" in text
