from fractions import Fraction as F

import pytest

from anet.cutlang import build_cut_acceptor, cut_params
from anet.errors import QueryGapError, ValidationError
from anet.mealy import compile_mealy, machine_from_tsv
from anet.network import network_from_text, network_to_text
from anet.partition import fire_states
from anet.protocol import Alphabet, accepts, enumerate_language, run_online
from anet.quotient import (
    FIRST_MINUS_SECOND,
    SECOND_MINUS_FIRST,
    QuotientSpec,
    build_quotient_network,
    combine_verdicts,
    quotient_difference_language,
)
from conftest import all_words

PARITY_TSV = "e\t0\te\t-\t1\ne\t1\to\t-\t1\no\t0\to\t-\t0\no\t1\te\t-\t0\n"


@pytest.fixture(scope="module")
def parity_net():
    net, _ = compile_mealy(machine_from_tsv(PARITY_TSV))
    return net


def test_combine_verdicts_truth_table():
    assert combine_verdicts(SECOND_MINUS_FIRST, False, True)
    assert not combine_verdicts(SECOND_MINUS_FIRST, True, True)
    assert not combine_verdicts(SECOND_MINUS_FIRST, False, False)
    assert combine_verdicts(FIRST_MINUS_SECOND, True, False)
    assert not combine_verdicts(FIRST_MINUS_SECOND, True, True)
    with pytest.raises(ValidationError):
        combine_verdicts("union", True, True)


def test_spec_validation(parity_net):
    with pytest.raises(ValidationError):
        QuotientSpec(base=parity_net, first="1", second="1", mode="xor")
    with pytest.raises(ValidationError):
        QuotientSpec(base=parity_net, first="2", second="1", mode=SECOND_MINUS_FIRST)
    three = Alphabet.of("012")
    with pytest.raises(ValidationError):
        QuotientSpec(base=parity_net, first="1", second="1", mode=SECOND_MINUS_FIRST, alphabet=three)


def test_difference_oracle_parity(parity_net):
    # base accepts even numbers of ones; x+11 accepted and x+1 not is just
    # "x has an even count", the reverse difference is the odd count
    even = quotient_difference_language(parity_net, "1", "1", SECOND_MINUS_FIRST, 5)
    odd = quotient_difference_language(parity_net, "1", "1", FIRST_MINUS_SECOND, 5)
    words = [w for n in range(6) for w in all_words("01", n)]
    assert even == {w for w in words if w.count("1") % 2 == 0}
    assert odd == {w for w in words if w.count("1") % 2 == 1}


@pytest.mark.parametrize("mode", [SECOND_MINUS_FIRST, FIRST_MINUS_SECOND])
def test_built_network_matches_oracle_parity(parity_net, mode):
    spec = QuotientSpec(base=parity_net, first="1", second="1", mode=mode)
    build = build_quotient_network(spec)
    assert build.network.output_delay == 3
    got = enumerate_language(build.network, 6)
    want = quotient_difference_language(parity_net, "1", "1", mode, 6)
    assert got == want


def test_built_network_matches_oracle_cut_base():
    base = build_cut_acceptor(cut_params(F(27, 8), F(3, 8)))
    spec = QuotientSpec(base=base, first="1", second="0", mode=SECOND_MINUS_FIRST)
    build = build_quotient_network(spec)
    got = enumerate_language(build.network, 6)
    want = quotient_difference_language(base, "1", "0", SECOND_MINUS_FIRST, 6)
    assert got == want
    assert want  # the combination is not vacuous


def test_empty_difference_is_the_empty_language():
    base = build_cut_acceptor(cut_params(F(27), F(1, 28)))
    spec = QuotientSpec(base=base, first="1", second="0", mode=SECOND_MINUS_FIRST)
    build = build_quotient_network(spec)
    assert enumerate_language(build.network, 6) == set()


def test_long_words_match_oracle_cut_base():
    # a table built from a depth-2 word walk missed 255 of these words
    base = build_cut_acceptor(cut_params(F(27, 8), F(3, 8)))
    build = build_quotient_network(
        QuotientSpec(base=base, first="1", second="0", mode=SECOND_MINUS_FIRST)
    )
    got = enumerate_language(build.network, 10)
    assert got == quotient_difference_language(base, "1", "0", SECOND_MINUS_FIRST, 10)


@pytest.mark.parametrize("anchor", ["parity", "cut"])
def test_anchor_quotients_match_plain_runs(parity_net, anchor):
    # criterion 6's two anchors, checked past the segment table that both
    # enumerate_language and the oracle read: each verdict is one run_online,
    # on the built network for every word to length 10, and on the base for
    # x+first and x+second+first, where a query gap counts as a rejection
    if anchor == "parity":
        base, first, second = parity_net, "1", "1"
    else:
        base, first, second = build_cut_acceptor(cut_params(F(27, 8), F(3, 8))), "1", "0"
    spec = QuotientSpec(base=base, first=first, second=second, mode=SECOND_MINUS_FIRST)
    net = build_quotient_network(spec).network

    def accepted(word):
        try:
            return run_online(base, word).accepted
        except QueryGapError:
            return False

    words = [w for n in range(11) for w in all_words("01", n)]
    got = {w for w in words if run_online(net, w).accepted}
    want = {w for w in words if combine_verdicts(SECOND_MINUS_FIRST, accepted(w + first), accepted(w + second + first))}
    assert got == want and want


@pytest.mark.parametrize("which", ["parity", "cut"])
def test_fire_states_cover_concrete_runs(parity_net, which):
    if which == "parity":
        base = parity_net
    else:
        base = build_cut_acceptor(cut_params(F(27, 8), F(3, 8)))
    found = set(fire_states(base))
    seen = set()
    for n in range(9):
        for word in all_words(Alphabet.default_for(base).symbols, n):
            trace = run_online(base, word)
            rows = dict(trace.rows)
            seen.update(rows[tau - 1].binary for tau in trace.query_times)
    assert seen <= found


def test_quotient_network_round_trips(parity_net):
    build = build_quotient_network(
        QuotientSpec(base=parity_net, first="1", second="1", mode=SECOND_MINUS_FIRST)
    )
    text = network_to_text(build.network)
    assert network_from_text(text) == build.network


def test_quotient_verdict_timing(parity_net):
    # the report unit needs three settling steps after each query instant
    build = build_quotient_network(
        QuotientSpec(base=parity_net, first="1", second="1", mode=SECOND_MINUS_FIRST)
    )
    net = build.network
    assert net.delta == parity_net.delta
    assert net.output_delay == 3
    assert accepts(net, "") == ("" in quotient_difference_language(
        parity_net, "1", "1", SECOND_MINUS_FIRST, 0
    ))
