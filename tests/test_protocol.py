import dataclasses
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from anet import network, protocol
from anet.cli import main
from anet.cutlang import build_cut_acceptor, cut_params
from anet.errors import DigitLimitError, QueryGapError, ResourceBudgetError, ValidationError
from anet.mealy import compile_mealy, machine_from_tsv
from anet.network import Configuration, Network, make_network, unpack
from anet.partition import build_partition_refined, fire_states
from anet.protocol import (
    Alphabet,
    accepts,
    compare_languages,
    enumerate_language,
    run_online,
    select_words,
    trace_tsv,
)
from anet.quotient import (
    FIRST_MINUS_SECOND,
    SECOND_MINUS_FIRST,
    QuotientSpec,
    build_quotient_network,
    combine_verdicts,
    quotient_difference_language,
)
from anet.rationals import format_rational
from anet.reduction import ReductionSpec, build_reduction
from conftest import _at_digit_limit, all_words, make_protocol_net, make_skeleton_net, probe_verdict

# state evolution of the threshold-reversal acceptor for base 27/8 at 1/4 on
# the word 101, frozen from an independent hand simulation; columns y_1..y_8.
# y_4 fires at every t = 3k+1 including the final row: same recurrence, same
# phase of the three-step cycle as t=4 and t=7.
GOLDEN_ROWS = {
    0: ((0, 0, 1, 0, 0, 0, 0), F(0)),
    1: ((0, 1, 0, 1, 0, 0, 1), F(0)),
    2: ((0, 0, 0, 0, 1, 0, 0), F(19, 27)),
    3: ((0, 0, 1, 0, 0, 1, 0), F(38, 81)),
    4: ((1, 0, 0, 1, 0, 0, 0), F(76, 243)),
    5: ((0, 0, 0, 0, 1, 0, 0), F(152, 729)),
    6: ((0, 0, 1, 0, 0, 0, 0), F(304, 2187)),
    7: ((0, 1, 0, 1, 0, 0, 1), F(608, 6561)),
    8: ((0, 0, 0, 0, 1, 0, 0), F(15067, 19683)),
    9: ((0, 0, 1, 0, 0, 1, 0), F(30134, 59049)),
    10: ((1, 0, 0, 1, 0, 0, 0), F(60268, 177147)),
}


@pytest.fixture(scope="module")
def cut_net():
    return build_cut_acceptor(cut_params(F(27, 8), F(1, 4)))


def test_alphabet_defaults_and_indexing():
    a = Alphabet.of("01")
    assert a.index("0") == 0 and a.index("1") == 1
    assert a.formal_extra == "0"
    with pytest.raises(ValidationError):
        a.index("2")
    assert all_words(a.symbols, 2) == ["00", "01", "10", "11"]
    # a walk's words are cut by length, one character per symbol
    for symbols in (("ab", "c"), ("", "1"), ("0", ""), (0, 1)):
        with pytest.raises(ValidationError):
            Alphabet(symbols)


def test_golden_trace_states(cut_net):
    trace = run_online(cut_net, "101")
    assert len(trace.rows) == 11
    for t, cfg in trace.rows:
        bits, analog = GOLDEN_ROWS[t]
        assert cfg.binary == bits, "binary state differs at t=%d" % t
        assert cfg.analog == analog, "analog value differs at t=%d" % t


def test_golden_trace_verdicts(cut_net):
    trace = run_online(cut_net, "101")
    assert trace.query_times == (1, 4, 7, 10)
    assert trace.verdicts == (True, False, True, False)
    assert trace.accepted is False


def test_golden_trace_tsv_rendering(cut_net):
    text = trace_tsv(run_online(cut_net, "101"), cut_net)
    lines = text.strip().split("\n")
    assert lines[0].split("\t")[:3] == ["t", "y_1", "y_2"]
    assert len(lines) == 12
    last = lines[-1].split("\t")
    assert last[0] == "10" and last[8] == "60268/177147"
    assert "101 rejected" in last[9]
    assert "formal" in lines[-1]


def _analog_column(text):
    return [line.split("\t")[-2] for line in text.split("\n")[1:-1]]


def _rendering_cases(cut_net):
    """name -> (trace, network rendering it); "other" traces were run by another network."""
    from test_acceptance import PARITY_TSV

    # a query every step; y' = sat(3y/2 - x_0 + x_1/3 - 1/10), x the input
    # units at the instant before, so runs clamp to 0 and to 1 and leave them
    clamp = make_network(
        5, (2, 3), nxt=1, out=4, delta=1,
        weights=[(1, 0, 1), (4, 5, 1), (5, 5, F(3, 2)), (5, 2, -1), (5, 3, F(1, 3)), (5, 0, F(-1, 10))],
    )
    # no analog self-weight (a_s = 0): y' is a binary sum over its scale
    flat = make_network(
        5, (2, 3), nxt=1, out=4, delta=1, weights=[(1, 0, 1), (5, 2, F(2, 7)), (5, 3, F(3, 11)), (5, 0, F(1, 13))]
    )
    parity = compile_mealy(machine_from_tsv(PARITY_TSV))[0]
    other_base = build_cut_acceptor(cut_params(F(8), F(1, 3)))
    assert other_base.size == cut_net.size != parity.size
    rng = random.Random(3000)
    words = {"one and zeros": "1" + "0" * 3200, "10 repeated": "10" * 1450}
    words["random"] = "".join(rng.choice("01") for _ in range(3000))
    cases = {name: (run_online(cut_net, w), cut_net) for name, w in words.items()}
    cases["clamp"] = run_online(clamp, "1101111011010110100001111"), clamp
    cases["flat"] = run_online(flat, "1101100"), flat
    cases["parity"] = run_online(parity, "1101100"), parity
    cases["other base"] = run_online(cut_net, "1011001" * 30), other_base
    cases["other size"] = run_online(cut_net, "1011001"), parity
    # every other row widened with zero bits to parity's size: two sizes in one trace, with
    # masks that agree below their sentinel bits
    trace = cases["other size"][0]
    widen = (0,) * (parity.size - cut_net.size)
    rows = tuple((t, Configuration(cfg.binary + widen, cfg.analog) if t % 2 else cfg) for t, cfg in trace.rows)
    cases["other sizes"] = dataclasses.replace(trace, rows=rows), parity
    return cases


def test_analog_column_matches_str_of_every_value(cut_net, monkeypatch):
    # the recurrence has no digit limit; lifting str()'s gives the reference
    cases = _rendering_cases(cut_net)
    values = [cfg.analog for _, cfg in cases["clamp"][0].rows]
    assert {(F(7, 12), 0), (F(7, 12), 1)} <= set(zip(values, values[1:]))  # both clamps, from inside
    assert {cfg[2] for _, cfg in cases["parity"][0].rows} == {1}
    fallbacks = _count_calls(monkeypatch, network, "format_rational")
    for name, (trace, net) in cases.items():
        fallbacks.clear()
        want = _at_digit_limit(0, lambda: [str(cfg.analog) for _, cfg in trace.rows])
        assert _at_digit_limit(0, lambda: _analog_column(trace_tsv(trace, net))) == want, name
        if name.startswith("other"):  # rows the recurrence does not produce are rendered alone
            assert len(fallbacks) > 1, name
        else:  # each run starts at y = 0, and a row 0 or 1 is printed as is
            assert not fallbacks, name


def test_binary_columns_match_every_row(cut_net):
    # a mask's columns are rendered once per trace and reused: the sentinel bit keeps
    # the rows of "other sizes", equal below it, apart
    for name, (trace, net) in _rendering_cases(cut_net).items():
        lines = _at_digit_limit(0, lambda: trace_tsv(trace, net)).split("\n")[1:-1]
        assert [tuple(map(int, line.split("\t")[1:-2])) for line in lines] == [cfg.binary for _, cfg in trace.rows], name


def test_trace_past_the_digit_limit_is_refused_before_rendering(cut_net, monkeypatch):
    trace = run_online(cut_net, "1" + "0" * 500)
    want = _at_digit_limit(0, lambda: [str(cfg.analog) for _, cfg in trace.rows])
    digits = max(len(v.partition("/")[2]) for v in want)  # of the largest denominator
    assert digits > 640  # the lowest limit Python allows
    with pytest.raises(DigitLimitError) as expected:
        _at_digit_limit(640, lambda: format_rational(F(1, 10**640)))
    renders = _count_calls(monkeypatch, Network, "analog_texts")
    with pytest.raises(DigitLimitError) as err:
        _at_digit_limit(640, lambda: trace_tsv(trace, cut_net))
    assert str(err.value) == str(expected.value)
    with pytest.raises(DigitLimitError, match="more than %d digits" % (digits - 1)):
        _at_digit_limit(digits - 1, lambda: trace_tsv(trace, cut_net))
    assert not renders
    assert _analog_column(_at_digit_limit(digits, lambda: trace_tsv(trace, cut_net))) == want


def test_verdict_instants_only(cut_net):
    # verdicts are sampled at query instants, not between them: the word 1
    # is rejected even though the out unit fires transiently at t=1
    trace = run_online(cut_net, "1")
    assert trace.verdicts == (True, False)


def test_empty_word(cut_net):
    trace = run_online(cut_net, "")
    assert trace.verdicts == (True,)
    assert trace.accepted


def test_accepts_matches_run_online(cut_net):
    for w in ("", "0", "1", "10", "101", "0101", "1100"):
        assert accepts(cut_net, w) == run_online(cut_net, w).accepted


@given(st.text(alphabet="01", max_size=7))
@settings(max_examples=60, deadline=None)
def test_prefix_verdicts_are_consistent(w):
    net = build_cut_acceptor(cut_params(F(27, 8), F(1, 4)))
    trace = run_online(net, w)
    assert len(trace.verdicts) == len(w) + 1
    for k in range(len(w) + 1):
        assert trace.verdicts[k] == accepts(net, w[:k])


def test_query_gap_enforced(cut_net):
    # the acceptor queries every 3 steps; a tighter bound must trip
    tight = dataclasses.replace(cut_net, delta=2)
    with pytest.raises(QueryGapError):
        run_online(tight, "10")


def test_enumerate_language_small(cut_net):
    lang = enumerate_language(cut_net, 3)
    from anet.cutlang import reversal_member

    params = cut_params(F(27, 8), F(1, 4))
    expected = {
        w
        for n in range(4)
        for w in all_words("01", n)
        if reversal_member(w, params)
    }
    assert lang == expected


def test_compare_languages_equal_and_not():
    # at threshold 1/4 the tail bound keeps every word ending in 0 below the
    # cut, so these two acceptors agree on all words; raising the threshold
    # to 3/8 lets the word 1 through and the languages split
    same = build_cut_acceptor(cut_params(F(27, 8), F(1, 4)))
    ends0 = build_cut_acceptor(cut_params(F(27), F(1, 28)))
    equal, witnesses = compare_languages(same, ends0, 6)
    assert equal and witnesses == []

    wider = build_cut_acceptor(cut_params(F(27, 8), F(3, 8)))
    equal, witnesses = compare_languages(wider, ends0, 6)
    assert not equal
    assert witnesses[0] == "1"
    assert witnesses == sorted(witnesses, key=lambda w: (len(w), w))


def test_unknown_symbol_rejected(cut_net):
    with pytest.raises(ValidationError):
        run_online(cut_net, "102")


def _start(net):
    return protocol.make_state(net, net.initial_configuration())


def _plain_start(net):
    return (net.initial_configuration(), 0, ())


def _steps(net: Network, state: tuple, unit: int | None, rows: list | None = None):
    """Step (cfg, since, pending) to the next query instant, or until no verdict is pending when unit is None.

    Each configuration is appended to rows when rows is given. The concrete
    reference for the protocol clock: it keeps its own since and pending
    beside Network.step, apart from protocol._tick.
    """
    cfg, since, pending = state
    nxt, out = net.nxt - 1, net.out - 1
    settled: list[bool] = []
    query = False
    while not query and (unit is not None or pending):
        if unit is not None and since >= net.delta:
            raise _gap_error(net)
        query = unit is not None and cfg[0] >> nxt & 1
        cfg = net.step(cfg, {unit: 1} if query else None)
        since = 0 if query else since + 1
        pending = tuple(p - 1 for p in pending) if pending else ()
        if query:
            pending += (net.output_delay,)
        if rows is not None:
            rows.append(cfg)
        while pending and pending[0] == 0:
            settled.append(bool(cfg[0] >> out & 1))
            pending = pending[1:]
    return (cfg, since, pending), tuple(settled)


def _gap_error(net: Network) -> QueryGapError:
    return QueryGapError("no query within %d steps of the previous one" % net.delta)


def _plain(state):
    """state as (cfg, since, pending), read back from its part when it is a protocol state."""
    return protocol.plain_state(state) if type(state[0]) is network.Part else state


def _fed(net, word):
    """The state after feeding word from the start, through the segment table."""
    state = _start(net)
    for sym in word:
        state = protocol.advance(net, state, net.input_units[int(sym)])[0]
    return state


def test_verdict_after_leaves_the_session_unchanged(cut_net):
    # the verdict of a prefix's state with the rest of the word as suffix
    for word in ("", "1", "10", "0110", "1101"):
        for k in range(len(word) + 1):
            state = _fed(cut_net, word[:k])
            assert protocol.verdict(cut_net, state, word[k:]) == accepts(cut_net, word)


# -- feeds and walks over the segment table -------------------------------------


def _mod3_reduction():
    from test_acceptance import MOD3_TSV  # that module imports this one

    inner, _ = compile_mealy(machine_from_tsv(MOD3_TSV))
    words = ("aaaa", "aaaa", "bbbb", "bbbb", "bbbb")
    return build_reduction(ReductionSpec(inner=inner, words=words, alphabet=Alphabet.of("ab"))).network


@pytest.fixture(scope="module")
def memo_nets():
    from test_acceptance import PARITY_TSV

    parity = compile_mealy(machine_from_tsv(PARITY_TSV))[0]
    quotient = QuotientSpec(base=parity, first="1", second="1", mode=SECOND_MINUS_FIRST)
    return {
        "cut": build_cut_acceptor(cut_params(F(27, 8), F(1, 4))),
        "parity": parity,
        "mod3": _mod3_reduction(),
        # output delay 3: verdicts stay pending across feeds
        "quotient": build_quotient_network(quotient).network,
        # a query every step and a verdict two steps later from an out unit
        # that toggles: a drain settles two different verdicts
        "toggle": make_network(5, (2, 4), nxt=1, out=3, delta=1, weights=[(3, 3, -1)], output_delay=2),
        # the analog unit counts 1s in eighths and the query unit falls silent
        # at three of them, so words with three 1s early end in a query gap
        "gap": make_network(
            5,
            (2, 3),
            nxt=1,
            out=4,
            delta=1,
            weights=[(5, 5, 1), (5, 3, F(1, 8)), (1, 0, F(5, 16)), (1, 5, -1), (4, 5, 1), (4, 0, F(-1, 8))],
        ),
    }


def _run(feed, net, word):
    """(plain state, settled) after each feed of word and the formal symbol, and after the drain.

    feed is _steps, on plain states, or protocol.advance, on
    protocol states. A QueryGapError ends the list with "gap".
    """
    state, run = (_plain_start if feed is _steps else _start)(net), []
    for unit in [net.input_units[int(sym)] for sym in word + "0"] + [None]:
        try:
            state, settled = feed(net, state, unit)
        except QueryGapError:
            return run + ["gap"]
        run.append((_plain(state), settled))
    return run


MEMO_NETS = ("cut", "parity", "mod3", "quotient", "toggle", "gap")


@given(st.sampled_from(MEMO_NETS), st.text(alphabet="01", max_size=8))
@settings(max_examples=150, deadline=None)
def test_memoized_feeds_match_stepping(memo_nets, which, word):
    # the networks persist across examples, and the second run through the
    # table repeats the first one's feeds, so both misses and hits are compared
    net = memo_nets[which]
    stepped = _run(_steps, net, word)
    assert [_run(protocol.advance, net, word) for _ in range(2)] == [stepped, stepped]
    if stepped[-1] == "gap":
        with pytest.raises(QueryGapError):
            run_online(net, word)
        return
    trace = run_online(net, word)
    assert trace.verdicts == tuple(v for _, settled in stepped for v in settled)
    # instant by instant: every row and every query instant of the stepped run
    state, rows, queries = _plain_start(net), [net.initial_configuration()], []
    for sym in word + "0":
        state = _steps(net, state, net.input_units[int(sym)], rows)[0]
        queries.append(len(rows) - 1)
    _steps(net, state, None, rows)
    assert trace.rows == tuple(enumerate(rows)) and trace.query_times == tuple(queries)


def test_a_query_gap_before_a_foreign_symbol_raises_first(memo_nets, tmp_path, capsys):
    # a symbol is resolved when its feed starts: six 1s run into the gap
    # network's query gap before the foreign x is read, four do not
    net = memo_nets["gap"]
    with pytest.raises(QueryGapError):
        run_online(net, "111111x")
    with pytest.raises(ValidationError):
        run_online(net, "1111x")
    path = str(tmp_path / "gap.anet")
    network.save_network_path(net, path)
    capsys.readouterr()
    assert [main(["run", path, word]) for word in ("111111x", "1111x")] == [4, 2]
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[:2] for line in err] == [["error", "QueryGapError"], ["error", "ValidationError"]]


PROBES = (("1", "1", SECOND_MINUS_FIRST), ("0", "1", FIRST_MINUS_SECOND))


def _reference_walk(net, max_len):
    """(word, plain state) for every word of length at most max_len, depth first.

    The reference for the shared walks: no table and no sharing, a child's
    state is one stepped feed from its parent's, and a query gap cuts
    every child of a node or none.
    """
    stack = [("", _plain_start(net))]
    while stack:
        word, state = stack.pop()
        yield word, state
        if len(word) < max_len:
            try:
                children = [_steps(net, state, unit)[0] for unit in net.input_units]
            except QueryGapError:
                continue
            stack.extend(zip([word + "0", word + "1"], children))


def _probe(net, state, suffix=""):
    """The verdict of a plain state followed by suffix, None when a feed breaks the query gap."""
    try:
        return protocol.verdict(net, protocol.make_state(net, *state), suffix)
    except QueryGapError:
        return None


@pytest.mark.parametrize("which", MEMO_NETS)
def test_state_walks_match_stepping(memo_nets, monkeypatch, which):
    # the reference walk against one run_online per word up to length 6, then
    # the shared walks against the reference up to length 9, on the warm
    # shared network and on a fresh copy, with the segment table and the
    # walk's subtree record holding at most one entry, at most three, and at
    # most the real limit, so that they are cleared in the middle of a walk
    net = memo_nets[which]
    nodes = list(_reference_walk(net, 9))

    def stepped(word):
        try:
            return run_online(net, word).accepted
        except QueryGapError:
            return None

    for word, state in nodes:
        if len(word) <= 6:
            for suffix in ("", "0", "1", "10", "11"):
                assert _probe(net, state, suffix) == stepped(word + suffix)

    verdicts = [(word, _probe(net, state)) for word, state in nodes]
    quotients = [
        {
            w
            for w, s in nodes
            if combine_verdicts(mode, bool(_probe(net, s, first)), bool(_probe(net, s, second + first)))
        }
        for first, second, mode in PROBES
    ]
    for limit in (1, 3, protocol.TABLE_LIMIT):
        monkeypatch.setattr(protocol, "TABLE_LIMIT", limit)
        for run in (net, dataclasses.replace(net)):
            for n in range(10):
                short = [(w, v) for w, v in verdicts if len(w) <= n]
                if any(v is None for _, v in short):  # the reference's verdict raises
                    with pytest.raises(QueryGapError):
                        enumerate_language(run, n)
                else:
                    assert enumerate_language(run, n) == {w for w, v in short if v}
            for (first, second, mode), want in zip(PROBES, quotients):
                assert quotient_difference_language(run, first, second, mode, 9) == want
            # every node kept: truncated copies keep the reference's order
            assert select_words(run, Alphabet.of("01"), 9, ((), lambda: True)) == [w for w, _ in nodes]
    if which == "gap":  # the gaps cut the tree below length 9
        assert len(nodes) < 2**10 - 1 and any(v is None for _, v in verdicts)


def _cut_acceptor_family(count, seed):
    """count cut acceptors over cube bases (a/b)^3 with 1 <= b < a <= 5 coprime and thresholds n/d, d <= 9."""
    rng = random.Random(seed)
    bases = [(a, b) for a in range(2, 6) for b in range(1, a) if gcd(a, b) == 1]
    nets = []
    for _ in range(count):
        a, b = rng.choice(bases)
        d = rng.randint(2, 9)
        nets.append(build_cut_acceptor(cut_params(F(a**3, b**3), F(rng.randint(1, d - 1), d))))
    return nets


def test_cell_walks_match_the_unshared_walk():
    # the walks share subtrees by proven cells of the analog value, so they
    # are checked against the reference walk, which shares nothing: its states
    # are stepped past the segment table and each is probed on its own, while
    # the walks run on a fresh copy of the network. Enumeration to lengths 0,
    # 3 and 8 and two quotient oracles to length 7, on make_protocol_net 0-199
    # (state dependent query gaps, late verdicts), make_skeleton_net 0-59 (one
    # letter) and 40 cut acceptors, whose cells are wider than points. A
    # probe that breaks the query gap bound raises in enumeration and
    # rejects in the oracle
    nets = [*map(make_protocol_net, range(200)), *map(make_skeleton_net, range(60)), *_cut_acceptor_family(40, 27)]
    for net in nets:
        symbols = "01"[: len(net.input_units)]
        nodes = list(_reference_walk(net, 8))
        suffixes = {"", symbols[0], symbols[-1], symbols[0] + symbols[-1], symbols[-1] + symbols[0]}
        units = {suffix: tuple(net.input_units[int(sym)] for sym in suffix) for suffix in suffixes}
        verdict = {}
        for word, state in nodes:
            state = protocol.make_state(net, *state)
            for suffix in suffixes if len(word) <= 7 else ("",):
                verdict[word + "|" + suffix] = _gap_or(lambda: protocol.probe(net, state, units[suffix]))
        fresh = dataclasses.replace(net)
        for n in (0, 3, 8):
            short = [word for word, _ in nodes if len(word) <= n]
            if any(verdict[word + "|"] == "gap" for word in short):
                with pytest.raises(QueryGapError):
                    enumerate_language(fresh, n)
            else:
                assert enumerate_language(fresh, n) == {word for word in short if verdict[word + "|"]}, net.comment
        probes = (symbols[-1], symbols[0], SECOND_MINUS_FIRST), (symbols[0], symbols[-1], FIRST_MINUS_SECOND)
        for first, second, mode in probes:
            want = {
                word
                for word, _ in nodes
                if len(word) <= 7
                and combine_verdicts(
                    mode, verdict[word + "|" + first] is True, verdict[word + "|" + second + first] is True
                )
            }
            assert quotient_difference_language(fresh, first, second, mode, 7) == want, net.comment


_ENDS = st.tuples(st.integers(-9, 9), st.integers(1, 9), st.integers(0, 1))


@given(_ENDS, _ENDS, st.integers(-9, 9), st.integers(-9, 9).filter(bool), st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_pullback_is_the_preimage_of_a_cell(low, high, an, bn, d):
    # y lies in the pulled-back interval, whose ends are in lowest terms,
    # exactly when (an + bn*y)/d lies in the cell, at every sixth from -3 to
    # 3 and at the preimages of the ends
    cell = (*low, *high)
    back = protocol.pullback(cell, an, bn, d)
    assert gcd(back[0], back[1]) == gcd(back[3], back[4]) == 1 and back[1] > 0 and back[4] > 0
    ends = (F(low[0], low[1]), F(high[0], high[1]))
    for y in {F(k, 6) for k in range(-18, 19)} | {(e * d - an) / bn for e in ends}:
        assert _holds((*back, None), y) == _holds((*cell, None), (an + bn * y) / d)


def test_gap_violating_feed_raises_again(cut_net):
    # every time with the same message, which the miss on each key keeps in
    # the one cell it learns, the one that holds the state's analog value,
    # for a feed and for a probe alike
    tight = dataclasses.replace(cut_net, delta=2)
    state = _fed(tight, "1")
    messages = set()
    for sym in "0011":
        with pytest.raises(QueryGapError) as raised:
            protocol.advance(tight, state, tight.input_units[int(sym)])
        messages.add(str(raised.value))
    for suffix in ("", "10"):
        with pytest.raises(QueryGapError) as raised:
            protocol.verdict(tight, state, suffix)
        messages.add(str(raised.value))
    (message,) = messages
    part, p, q = state
    assert tight._segments[part.mask, part.since, part.pending] is part
    zero, one = tight.input_units
    for key in (zero, one, (), (one, zero)):
        (piece,) = part.feeds[key]
        assert _holds(piece, F(p, q)) and piece[6] == message


def _every_step_net():
    # unit 1 requests a symbol at every step; verdicts lag queries by 2 steps
    return make_network(3, (2,), nxt=1, out=1, delta=1, weights=[], output_delay=2)


def test_feed_memo_keys_on_steps_since_last_query():
    # a drained state is past its query deadline, while a run started in the
    # same configuration is not: the segment table keys them apart on since
    net = _every_step_net()
    unit = net.input_units[0]
    drained = protocol.advance(net, _fed(net, "0"), None)[0]
    cfg, since, pending = protocol.plain_state(drained)
    assert since > 0 and pending == ()
    protocol.advance(net, protocol.make_state(net, cfg), unit)
    with pytest.raises(QueryGapError):
        protocol.advance(net, drained, unit)
    assert all(unit in net._segments[cfg[0], at, ()].feeds for at in (0, since))


def test_feed_memo_keys_on_pending_verdicts():
    # the same configuration with and without a verdict still to settle: the
    # segment table keys them apart on pending
    net = _every_step_net()
    unit = net.input_units[0]
    fed = _steps(net, _plain_start(net), unit)[0]
    assert fed[2]
    protocol.advance(net, protocol.make_state(net, fed[0]), unit)
    assert _run(protocol.advance, net, "0") == _run(_steps, net, "0")
    assert all(unit in net._segments[fed[0][0], 0, pending].feeds for pending in ((), fed[2]))


def test_segment_table_is_bounded(cut_net, monkeypatch):
    net = dataclasses.replace(cut_net)  # a fresh network starts with an empty table
    assert len(enumerate_language(net, 13)) == 8192
    table = net._segments
    assert 0 < table.pieces == _pieces(net) <= protocol.TABLE_LIMIT
    monkeypatch.setattr(protocol, "TABLE_LIMIT", 5)
    net = dataclasses.replace(cut_net)
    assert enumerate_language(net, 7) == enumerate_language(cut_net, 7)
    assert 0 < net._segments.pieces <= 5


def _pieces(net) -> int:
    """The pieces held by every part interned in net's segment table."""
    return sum(len(pieces) for part in net._segments.values() for pieces in part.feeds.values())


def _count_calls(monkeypatch, owner, name) -> list:
    """A list that gains one entry per call of owner.name from here on."""
    fn = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_enumeration_replays_repeated_feed_states(monkeypatch):
    # the mod-3 reduction visits a few hundred distinct feed states, each
    # learned once by stepping its part symbolically, in 866 branches;
    # without the segment table this enumeration takes about 19,500 steps
    net = _mod3_reduction()
    calls = _count_calls(monkeypatch, protocol, "_step_symbolic")
    enumerate_language(net, 12)
    assert len(calls) < 2000


def test_enumeration_step_counts_are_pinned(cut_net, monkeypatch):
    # the walk order, the segment table and the walk's proven cells fix these
    # counts exactly; fresh networks start with an empty table. A lookup is one
    # _segment_feed call: the walk probes each node it walks and feeds each
    # symbol at an interior one. A walk never calls Network.step: every feed or
    # drain miss learns the one cell that holds its analog value with
    # symbolic_row, and a branch is one _step_symbolic call. A probe key's miss
    # is met from its chain's own lookups, the suffix's feeds, the formal
    # symbol's feed and the drain, each a lookup that hits or learns its cell. A
    # subtree is shared by the cell proven for it, so of the cut acceptor's
    # 16,383 nodes to length 13 the walk probes 66, 56 of them interior: 66 +
    # 2*56 = 178 walk lookups, and its 6 probe misses add 2 lookups each, 190 in
    # all. The misses fall on 5 parts, with 10 feed keys holding 12 cells, 5
    # probe keys holding 6 and 2 drain keys holding 2, 20 pieces learned in 32
    # branches. (When a probe key's miss stepped its whole chain symbolically, it
    # made no lookups and learned no drain piece: 18 pieces in 48 branches and
    # 178 lookups; when first misses stepped concretely and kept point pieces,
    # those narrowed the cells, and the walk probed 83 nodes in 222 lookups.) The
    # mod-3 reduction's analog value never moves, so it shares exact repeats
    # only: its 101 states fit the walk's record, which is never cleared
    # mid-walk, and the walk probes 252 nodes, 198 of them interior, so 252 +
    # 2*198 = 648 walk lookups, and its 101 probe misses add 202, 850 in all. Its
    # 101 parts hold 101 probe keys, 200 feed keys and 50 drain keys with one
    # cell each, 351 in all, within TABLE_LIMIT, so the table is never cleared
    # either and every key misses once, in 602 branches. (A probe key's miss that
    # stepped its whole chain took 902 branches and 648 lookups, with 299 pieces;
    # the first misses that ran a probe's feeds through advance took 602 steps.)
    # Branches, then lookups
    steps = _count_calls(monkeypatch, Network, "step")
    branches = _count_calls(monkeypatch, protocol, "_step_symbolic")
    lookups = _count_calls(monkeypatch, protocol, "_segment_feed")
    net = dataclasses.replace(cut_net)
    assert len(enumerate_language(net, 13)) == 8192
    assert (len(branches), len(lookups)) == (32, 190)
    assert (len(net._segments), net._segments.pieces) == (5, 20)
    net = _mod3_reduction()  # 113 units
    branches.clear()
    lookups.clear()
    assert len(enumerate_language(net, 14)) == 30
    assert (len(branches), len(lookups)) == (602, 850)
    assert (len(net._segments), net._segments.pieces) == (101, 351)
    assert not steps


@pytest.mark.parametrize("limit, counts", ((1, (2539, 2379)), (512, (250, 628))))
def test_walk_records_outlive_table_clears(cut_net, monkeypatch, limit, counts):
    # enumerating the cut acceptor to each length 0-9, a fresh network each
    # time. A record names its part by (mask, since, pending), so a state
    # still holding a part interned before a clear of the segment table
    # finds the subtrees recorded after it. Under a limit of 1 the table
    # holds one piece and the record one subtree, so nearly every lookup
    # misses; when the record was keyed on the part itself, and first
    # misses stepped concretely, these walks took 11,368 steps and 8,883
    # lookups (and 211 and 2,214 under 512, where only exact repeats
    # shared; 6,070 and 4,759, and 211 and 675, with the record on triples).
    # Every miss now learns its cell by stepping symbolically, so the walks
    # make no Network.step call. A probe key's miss is met from its chain's
    # own lookups: under 1 each of them misses and steps its feed, as many
    # branches as stepping the whole chain took (2,539 then too, with 1,620
    # lookups), and under 512 they mostly hit feeds the walk learned (367
    # branches and 526 lookups when the chain was stepped whole).
    # _step_symbolic branches, then lookups
    want = [enumerate_language(cut_net, n) for n in range(10)]
    monkeypatch.setattr(protocol, "TABLE_LIMIT", limit)
    steps = _count_calls(monkeypatch, Network, "step")
    branches = _count_calls(monkeypatch, protocol, "_step_symbolic")
    lookups = _count_calls(monkeypatch, protocol, "_segment_feed")
    assert [enumerate_language(dataclasses.replace(cut_net), n) for n in range(10)] == want
    assert (len(branches), len(lookups)) == counts
    assert not steps


WALKS = pytest.mark.parametrize(
    "walk",
    (
        lambda net, n: enumerate_language(net, n),
        lambda net, n: compare_languages(net, net, n),
        lambda net, n: quotient_difference_language(net, "1", "1", SECOND_MINUS_FIRST, n),
    ),
    ids=("enumerate_language", "compare_languages", "quotient_difference_language"),
)


@WALKS
def test_walks_refuse_a_negative_length_bound(cut_net, walk):
    # the empty word is longer than the bound
    with pytest.raises(ValidationError):
        walk(cut_net, -1)


@WALKS
def test_walks_are_bounded(cut_net, monkeypatch, walk):
    # to length 9 the cut acceptor's tree has 1,023 nodes, nearly all of
    # them copied from a subtree shared by its cell; the three walks cost
    # 5,210, 5,210 and 611, mostly for the words they keep
    walk(cut_net, 9)
    monkeypatch.setattr(protocol, "WALK_BUDGET", 300)
    with pytest.raises(ResourceBudgetError, match="passed its budget of 300 "):
        walk(dataclasses.replace(cut_net), 9)


def test_walk_budget_counts_copied_words(monkeypatch):
    # the mod-3 reduction's 1,023 words to length 9 are nearly all copies:
    # the walk visits 166 nodes. Each node and each kept word costs its
    # length plus one, so that memory is bounded whatever the length bound;
    # the kept words cost 9,217 and the nodes 1,247, so the walk needs
    # exactly 10,464. The reduction's analog value never moves from 0, so
    # its cells, each all of [0, 1], share exactly the subtrees of repeated
    # states, as when the record was keyed on whole states: the count did
    # not move
    net, everything = _mod3_reduction(), Alphabet.of("ab")
    monkeypatch.setattr(protocol, "WALK_BUDGET", 10463)
    with pytest.raises(ResourceBudgetError):
        select_words(net, everything, 9, ((), lambda: True))
    monkeypatch.setattr(protocol, "WALK_BUDGET", 10464)
    assert len(select_words(net, everything, 9, ((), lambda: True))) == 1023


def test_enumeration_builds_few_transition_rows(cut_net, monkeypatch):
    # _step_symbolic, like Network.step, asks _row only when the binary
    # state has no row yet, so every call builds a new one; a walk steps
    # only symbolically
    built = []
    row = Network._row

    def counting_row(self, binary):
        built.append(binary)
        return row(self, binary)

    monkeypatch.setattr(Network, "_row", counting_row)
    calls = _count_calls(monkeypatch, Network, "step")
    assert len(enumerate_language(dataclasses.replace(cut_net), 13)) == 8192
    assert not calls  # pinned with the reason above
    assert len(built) <= 8 and len(set(built)) == len(built)


def test_walks_and_probes_keep_one_protocol_memo(cut_net):
    # the transition rows and the segment table are created with the
    # network, and the step plan on the first row build; after the walks and
    # probes that read verdicts they are still the only caches it holds, and
    # the segment table is the protocol's only one
    for net in (dataclasses.replace(cut_net), _mod3_reduction()):
        assert sorted(key for key in net.__dict__ if key.startswith("_")) == ["_rows", "_segments"]
        enumerate_language(net, 6)
        quotient_difference_language(net, "1", "1", SECOND_MINUS_FIRST, 6)
        accepts(net, "0110")
        probe_verdict(net, net.initial_configuration(), "10")
        cached = sorted(key for key in net.__dict__ if key.startswith("_"))
        assert cached == ["_plan", "_rows", "_segments"]


# -- the segment table ----------------------------------------------------------


def _seeded_cut_acceptors():
    return _cut_acceptor_family(6, 16)


def _cut_base_quotients():
    specs = []
    for base, threshold in ((F(27, 8), F(3, 8)), (F(27), F(1, 28)), (F(8), F(1, 3))):
        cut = build_cut_acceptor(cut_params(base, threshold))
        specs.append(QuotientSpec(base=cut, first="1", second="0", mode=SECOND_MINUS_FIRST))
        specs.append(QuotientSpec(base=cut, first="0", second="1", mode=FIRST_MINUS_SECOND))
    return [build_quotient_network(spec).network for spec in specs]


def _outcome(feed, net, state, unit):
    """feed's (state, settled), or the message of the QueryGapError it raises."""
    try:
        return feed(net, state, unit)
    except QueryGapError as exc:
        return str(exc)


def _served(net, state, key):
    """probe, or advance with its new state read back plain, from the protocol state of a plain state."""
    state = protocol.make_state(net, *state)
    if type(key) is tuple:
        return protocol.probe(net, state, key)
    after, settled = protocol.advance(net, state, key)
    return protocol.plain_state(after), settled


def _holds(piece, y):
    """Whether the analog value y lies in piece, read with Fractions."""
    ln, ld, ls, hn, hd, hs, _ = piece
    return (F(ln, ld) < y or (F(ln, ld) == y and not ls)) and (y < F(hn, hd) or (y == F(hn, hd) and not hs))


def _value(outcome, y):
    """A piece's outcome at the analog value y: a feed's map applied, else the outcome itself."""
    if type(outcome) is not tuple:
        return outcome
    part, settled, an, bn, d = outcome
    return (part.mask, part.since, part.pending, settled, (an + bn * y) / d)


def _assert_disjoint(pieces):
    """No two of the pieces share a value."""
    ends = sorted((F(ln, ld), ls, F(hn, hd), hs) for ln, ld, ls, hn, hd, hs, _ in pieces)
    for (_, _, hi, hs), (lo, ls, _, _) in zip(ends, ends[1:]):
        assert hi < lo or (hi == lo and hs + ls > 0)


def _check_segments(net, depth):
    """Segment-served feeds and drains against _steps at every node to depth; returns the nodes."""
    limit = protocol.TABLE_LIMIT
    stack, nodes = [("", _plain_start(net))], 0
    while stack:
        word, state = stack.pop()
        nodes += 1
        children = []
        for unit in (*net.input_units, None):
            want = _outcome(_steps, net, state, unit)
            children.append(want)
            # a call whose analog value lies in no known piece of its key
            # learns the cell that holds it, and from then on that cell
            # serves the value; a gap-error piece raises the same error
            # every time
            assert [_outcome(_served, net, state, unit) for _ in range(2)] == [want] * 2
            table = net._segments
            assert table.pieces == _pieces(net) <= limit
            part = table[state[0][0], *state[1:]]
            # a kept piece holds the state it was learned from, and a key's
            # cells are cells of one refinement, so one piece holds it
            y = state[0].analog
            (held,) = [piece for piece in part.feeds[unit] if _holds(piece, y)]
            _assert_disjoint(part.feeds[unit])
            if isinstance(want, str):  # the gap is kept as a piece's message
                assert held[-1] == want
            else:
                (cfg, *after), settled = want
                assert _value(held[-1], y) == (cfg[0], *after, settled, cfg.analog)
        if len(word) < depth and not isinstance(children[0], str):  # a gap cuts every child
            stack.extend((word + sym, child[0]) for sym, child in zip("01", children))
    table = net._segments
    for (mask, since, pending), part in table.items():
        assert (part.mask, part.since, part.pending) == (mask, since, pending)
        assert type(mask) is int and type(since) is int and type(pending) is tuple
        assert all(type(p) is int for p in pending)
        assert all(unit is None or type(unit) is int for unit in part.feeds)
    # the ends of every piece, where an open end belongs to the next piece
    for (mask, since, pending), part in list(table.items()):
        for unit, pieces in list(part.feeds.items()):
            for ln, ld, _, hn, hd, _, _ in pieces:
                for y in {F(ln, ld), F(hn, hd)}:
                    state = (Configuration(unpack(mask), y), since, pending)
                    want = _outcome(_steps, net, state, unit)
                    assert [_outcome(_served, net, state, unit) for _ in range(2)] == [want] * 2
    return nodes


def test_segment_feeds_match_stepping(cut_net, monkeypatch):
    # six seeded cut acceptors, six quotient networks over the cut bases 27/8,
    # 27 and 8, verdicts lagging several queries, and a cut acceptor whose
    # tight query gap bound cuts the tree; then the table's bound, under
    # limits of one piece and of three
    start = _start(cut_net)
    for _ in range(2):  # a feed that raises ValidationError keeps no piece
        with pytest.raises(ValidationError, match="not an input unit"):
            protocol.advance(cut_net, start, cut_net.nxt)
    with pytest.raises(ValidationError, match="not an input unit"):
        protocol.symbolic_row(cut_net, start[0].mask, 0, (), cut_net.nxt, start[1:])
    tight = dataclasses.replace(cut_net, delta=2)
    nets = _seeded_cut_acceptors() + _cut_base_quotients() + [_every_step_net(), tight]
    for net in nets:
        _check_segments(net, 8)
    assert _check_segments(dataclasses.replace(tight), 8) < 2**9 - 1
    for limit in (1, 3):
        monkeypatch.setattr(protocol, "TABLE_LIMIT", limit)
        for net in (nets[0], nets[6], tight):
            _check_segments(dataclasses.replace(net), 8)


# -- probes ---------------------------------------------------------------------


def _plain_probe(net, state, units):
    """(verdict or "gap", where): a probe stepped feed by feed, past the segment table.

    where is the part of the probe that raised, "suffix" or "formal", else
    "drain" when the drain ran past the query gap bound (a drain never
    raises), else "never".
    """
    try:
        for unit in units:
            state = _steps(net, state, unit)[0]
    except QueryGapError:
        return "gap", "suffix"
    try:
        end, settled = _steps(net, state, net.input_units[0])
    except QueryGapError:
        return "gap", "formal"
    end, drained = _steps(net, end, None)
    return (settled + drained)[-1], "drain" if end[1] >= net.delta else "never"


def _piece_probe(net, state, units, cleared):
    """protocol.probe's verdict from a plain state, or "gap".

    cleared empties the segment table first, as a clear does, so the probe
    misses and learns its cell into the emptied table.
    """
    if cleared:
        for part in net._segments.values():
            part.feeds.clear()
        net._segments.clear()
        net._segments.pieces = 0
    try:
        return protocol.probe(net, protocol.make_state(net, *state), units)
    except QueryGapError:
        return "gap"


def _on_grid(state, k):
    """state with its analog value moved to every multiple of 1/k in [0, 1]."""
    cfg, since, pending = state
    return [(Configuration(cfg.binary, F(i, k)), since, pending) for i in range(k + 1)]


def test_probe_pieces_match_plain_feeds_where_the_gap_falls(memo_nets):
    # the gap network's query unit falls silent once the analog value passes
    # 5/16; with verdicts two steps late its drain runs past the query gap
    # bound, which a drain may. From every state of the walk to length 3,
    # moved to every sixteenth, each suffix of length at most 2 meets the gap
    # in the suffix, at the formal symbol, in the drain, or never
    gap = memo_nets["gap"]
    seen = set()
    for cleared in (False, True):
        for net in (dataclasses.replace(gap), dataclasses.replace(gap, output_delay=2)):
            units = [()] + [(u,) for u in net.input_units] + [(u, v) for u in net.input_units for v in net.input_units]
            for _, node in _reference_walk(net, 3):
                for state in _on_grid(node, 16):
                    for suffix in units:
                        want, where = _plain_probe(net, state, suffix)
                        assert _piece_probe(net, state, suffix, cleared) == want, (state, suffix, where)
                        seen.add(where)
    assert seen == {"suffix", "formal", "drain", "never"}


def test_probe_pieces_survive_cleared_caches(cut_net, monkeypatch):
    # a walk to length 9 meets 512 states of a few binary parts; under a
    # limit of 3 pieces the segment table is cleared mid-walk, and a piece
    # learned at a clear is kept in the emptied table. A probe key's miss
    # learns the pieces of its chain's feeds and drain, at least two, so
    # under a limit of 3 the probe's own lookups clear the table, also one
    # emptied before each probe; under the real limit nothing is cleared
    clears = _count_calls(monkeypatch, network._Segments, "clear")
    for limit in (protocol.TABLE_LIMIT, 3):
        monkeypatch.setattr(protocol, "TABLE_LIMIT", limit)
        for cleared in (False, True):
            net = dataclasses.replace(cut_net)
            nodes = [state for _, state in _reference_walk(net, 9)]
            by_probes = 0
            for state in nodes:
                for suffix in ((), (net.input_units[1],), (net.input_units[0], net.input_units[1])):
                    before = len(clears)
                    assert _piece_probe(net, state, suffix, cleared) == _plain_probe(net, state, suffix)[0]
                    by_probes += len(clears) - before - cleared  # _piece_probe's own clear left out
                    assert 0 < net._segments.pieces <= limit
            assert (by_probes > 0) == (limit == 3)


def test_probe_keys_keep_suffixes_apart(cut_net):
    # four suffixes over one binary part, two of each length, asked in turn
    # from every 1/64 step of the analog value: suffixes of one length give
    # different verdicts at some values, so pieces shared between keys would show
    zero, one = cut_net.input_units
    for cleared in (False, True):
        net = dataclasses.replace(cut_net)
        start = protocol.plain_state(_fed(net, "1"))
        differ = False
        for state in _on_grid(start, 64):
            got = {}
            for suffix in ((zero, one), (one, zero), (zero,), (one,)):
                got[suffix] = _piece_probe(net, state, suffix, cleared)
                assert got[suffix] == _plain_probe(net, state, suffix)[0]
            differ |= got[zero, one] != got[one, zero] or got[zero,] != got[one,]
        assert differ
        feeds = net._segments[start[0][0], *start[1:]].feeds
        assert cleared or all(suffix in feeds for suffix in ((zero, one), (one, zero), (zero,), (one,)))


def test_probe_pieces_are_met_from_their_chains(cut_net, monkeypatch):
    # a probe key's miss meets the pieces its chain looks up, the suffix's
    # feeds, the formal symbol's and the drain's, each pulled back through
    # the chain's map so far, and takes the last verdict settled or the
    # first gap message. From every state of the walk to length 4, on
    # make_protocol_net 0-59 (state dependent query gaps, late verdicts) and
    # five cut acceptors, the piece that serves each key is the cell of its
    # whole chain stepped symbolically: the same integer ends, in lowest
    # terms as symbolic_row's, the same openness and the same outcome
    for net in [*map(make_protocol_net, range(60)), *_cut_acceptor_family(5, 3)]:
        zero, one = net.input_units
        for _, (cfg, since, pending) in _reference_walk(net, 4):
            state = protocol.make_state(net, cfg, since, pending)
            for key in ((), (zero,), (one,), (one, zero), (zero, one, one)):
                want = protocol.symbolic_row(net, cfg[0], since, pending, key, (cfg[1], cfg[2]))[0]
                assert protocol._segment_feed(net, state, key) == want, (net.comment, key)
    # under a limit of 2 pieces the chain's own lookups clear the table, so
    # the start's part is stale once the probe is met: its piece is kept on
    # the part interned now, which the table counts
    monkeypatch.setattr(protocol, "TABLE_LIMIT", 2)
    net = dataclasses.replace(cut_net)
    start = _start(net)
    piece = protocol._segment_feed(net, start, (net.input_units[1],))
    table = net._segments
    assert table.get(start[0].triple) is not start[0] and not start[0].feeds
    assert table[start[0].triple].feeds == {(net.input_units[1],): [piece]}
    assert table.pieces == _pieces(net) == 2


def test_segment_table_keys_hold_no_bit_tuples(cut_net):
    # the table interns each binary part (mask, since, pending) once, and a
    # part's feeds are keyed on a unit, None for a drain, or for a probe the
    # tuple of its suffix's units; both walks below store probe keys. Every
    # part of a triple and a key, every piece's ends and every outcome but
    # the successor part it names are ints and tuples of them
    for net in (dataclasses.replace(cut_net), _mod3_reduction()):
        enumerate_language(net, 6)
        quotient_difference_language(net, "1", "01", SECOND_MINUS_FIRST, 6)
        table = net._segments
        assert table.pieces == _pieces(net)  # never cleared, so every successor is interned
        keys = [key for part in table.values() for key in part.feeds]
        assert {type(key) for key in keys} >= {tuple, int}
        for (mask, since, pending), part in table.items():
            assert type(part) is network.Part and (part.mask, part.since, part.pending) == (mask, since, pending)
            assert type(mask) is int and type(since) is int and type(pending) is tuple
            assert all(type(p) is int for p in pending)
        for key in keys:
            assert key is None or type(key) is int or (type(key) is tuple and all(type(u) is int for u in key))
        zero, one = net.input_units
        assert {key for key in keys if type(key) is tuple} <= {(), (one,), (zero, one, one)}  # 1 and 011
        for part in table.values():
            for key, pieces in part.feeds.items():
                for *ends, outcome in pieces:
                    assert all(type(x) is int for x in ends)
                    if type(key) is tuple:
                        assert type(outcome) in (bool, str)
                    elif type(outcome) is tuple:
                        after, settled, *affine = outcome
                        assert table[after.mask, after.since, after.pending] is after
                        assert all(type(x) is int for x in affine)
                        assert all(type(v) is bool for v in settled)
        assert all(type(mask) is int for mask in net._rows)


def test_first_misses_serve_exact_repeats(monkeypatch):
    # the mod-3 reduction's analog value never moves, so each miss is the
    # first on its key; it keeps the cell that holds that value, which
    # serves every exact repeat with no symbolic step, from a protocol state
    # built again by make_state. The table never holds more than its bound
    # of pieces, also under a bound of 64 that clears it mid-walk
    steps = _count_calls(monkeypatch, protocol, "_step_symbolic")
    for limit in (protocol.TABLE_LIMIT, 64):
        monkeypatch.setattr(protocol, "TABLE_LIMIT", limit)
        net = _mod3_reduction()
        zero, one = net.input_units
        sizes = []
        for _, state in _reference_walk(net, 6):
            for key in (zero, one, None, (), (one,), (zero, one)):
                first = _outcome(_served, net, state, key)
                sizes.append(net._segments.pieces)
                before = len(steps)
                assert _outcome(_served, net, state, key) == first
                assert len(steps) == before and net._segments.pieces == sizes[-1] <= limit
        assert any(b < a for a, b in zip(sizes, sizes[1:])) == (limit == 64)  # a size that drops is a clear


def _gap_or(fn):
    """fn(), or "gap" when it raises QueryGapError."""
    try:
        return fn()
    except QueryGapError:
        return "gap"


@pytest.mark.parametrize("limit", (5, 40))
def test_stale_parts_after_clears(cut_net, monkeypatch, limit):
    # a walk to length 6 through protocol states, every node kept, on the cut
    # acceptor and make_protocol_net 0-19, under bounds that clear the table
    # mid-walk: the table counts exactly the pieces its interned parts hold,
    # and states whose parts were interned before a clear still advance and
    # probe as run_online runs their words
    monkeypatch.setattr(protocol, "TABLE_LIMIT", limit)
    stale = 0
    for net in [dataclasses.replace(cut_net), *map(make_protocol_net, range(20))]:
        table = net._segments
        nodes = [("", _start(net))]
        for word, state in nodes:  # breadth first, children appended behind
            if len(word) < 6:
                try:
                    nodes += [(word + sym, protocol.advance(net, state, unit)[0]) for sym, unit in zip("01", net.input_units)]
                except QueryGapError:
                    pass
            assert table.pieces == _pieces(net) <= limit
        for word, state in nodes:
            part = state[0]
            if table.get((part.mask, part.since, part.pending)) is not part:
                stale += 1
                assert not part.feeds  # a clear left no piece on it
            assert _gap_or(lambda: protocol.probe(net, state)) == _gap_or(lambda: run_online(net, word).accepted)
            for sym, unit in zip("01", net.input_units):
                try:
                    run = run_online(net, word + sym)
                except QueryGapError:
                    run = None
                try:
                    after = protocol.advance(net, state, unit)[0]
                except QueryGapError:
                    assert run is None
                    continue
                if run is None:  # the formal symbol after word + sym breaks the gap bound
                    with pytest.raises(QueryGapError):
                        protocol.probe(net, after)
                else:
                    assert protocol.plain_state(after)[0] == run.rows[run.query_times[len(word)]][1]
                    assert protocol.probe(net, after) == run.accepted
                assert table.pieces == _pieces(net) <= limit
        for part in table.values():
            for pieces in part.feeds.values():
                _assert_disjoint(pieces)
                for *_, outcome in pieces:  # a kept piece names a part interned since the last clear
                    if type(outcome) is tuple:
                        after = outcome[0]
                        assert table.get((after.mask, after.since, after.pending)) is after
        cfg = protocol.plain_state(nodes[-1][1])[0]
        assert protocol.make_state(net, cfg)[0] is protocol.make_state(net, cfg)[0]
    assert stale > 0


# -- random two-letter networks -------------------------------------------------

PROTOCOL_SEEDS = range(60)


def _plain_runs(net, max_len):
    """word -> run_online's trace, or None where it raises, for every word up to max_len."""
    runs = {}
    for n in range(max_len + 1):
        for word in all_words("01", n):
            try:
                runs[word] = run_online(net, word)
            except QueryGapError:
                runs[word] = None
    return runs


@pytest.mark.parametrize("seed", PROTOCOL_SEEDS)
def test_random_protocol_nets_match_plain_runs(seed):
    # enumeration, the quotient oracle and the fire-state search against
    # plain run_online. run_online(x) raises iff feeding x or the formal
    # symbol after it does, and whether a feed raises does not depend on the
    # symbol, so x can be fed iff no run_online(x[:k]) with k < len(x)
    # raises, and enumeration to length n raises iff some run to length n does
    net = make_protocol_net(seed)
    runs = _plain_runs(net, 8)
    accepted = {w: run is not None and run.accepted for w, run in runs.items()}
    for word, run in runs.items():
        if len(word) <= 6:
            if run is None:
                with pytest.raises(QueryGapError):
                    accepts(net, word)
            else:
                assert accepts(net, word) == run.accepted
    for n in range(7):
        if any(runs[w] is None for w in runs if len(w) <= n):
            with pytest.raises(QueryGapError):
                enumerate_language(net, n)
        else:
            assert enumerate_language(net, n) == {w for w in runs if len(w) <= n and accepted[w]}
    fed = {w for w in runs if len(w) <= 5 and all(runs[w[:k]] is not None for k in range(len(w)))}
    for first, second, mode in (("1", "0", SECOND_MINUS_FIRST), ("0", "11", FIRST_MINUS_SECOND)):
        want = {x for x in fed if combine_verdicts(mode, accepted[x + first], accepted[x + second + first])}
        assert quotient_difference_language(net, first, second, mode, 5) == want
    # the binary state one step before each query instant is a fire state
    reached = {run.rows[t - 1][1].binary for w, run in runs.items() if run and len(w) <= 5 for t in run.query_times}
    found = fire_states(net)
    assert reached <= set(found)
    assert _fire_closure(net) == set(found)


def _fire_closure(net):
    """The fire states by plain stepping: fire_states' closure, with witnesses for its unknown analog value.

    From the initial configuration, and from each fire state found with
    each letter and each analog value in [0, 1], step to the next fire
    instant within the query gap bound. The refined partition of a fire
    state's replays of both letters has every piece the symbolic search
    visits from that state as a union of its intervals, so one value per
    interval meets every piece.
    """

    def next_fire(cfg, since):  # as _steps: past the gap bound a feed raises
        while since < net.delta:
            if cfg[0] >> (net.nxt - 1) & 1:
                return cfg.binary
            cfg, since = net.step(cfg), since + 1
        return None

    first = next_fire(net.initial_configuration(), 0)
    found, todo = set(), [first] if first is not None else []
    while todo:
        bits = todo.pop()
        if bits in found:
            continue
        found.add(bits)
        part = build_partition_refined(net, ("0", "1"), starts=[bits]).partition
        for y in (iv.representative() for iv in part.intervals):
            for unit in net.input_units:
                fire = next_fire(net.step(Configuration(bits, y), {unit: 1}), 0)
                if fire is not None:
                    todo.append(fire)
    return found


# -- symbolic rows ----------------------------------------------------------------


def _row_keys(net):
    """Every feed, the drain, and the probes (), (u,) and (u, v)."""
    units = net.input_units
    return [*units, None, (), *[(u,) for u in units], *[(u, v) for u in units for v in units]]


def _assert_cover(row):
    """The row's pieces are nonempty, disjoint and cover [0, 1]."""
    ends = sorted((F(ln, ld), ls, F(hn, hd), hs) for ln, ld, ls, hn, hd, hs, _ in row)
    assert ends[0][:2] == (0, 0) and ends[-1][2:] == (1, 0)
    for lo, ls, hi, hs in ends:
        assert lo < hi or not (ls or hs)
    for (_, _, hi, hs), (lo, ls, _, _) in zip(ends, ends[1:]):
        assert hi == lo and hs + ls == 1


def _row_points(piece):
    """The piece's closed ends and its midpoint, which lies inside it."""
    ln, ld, ls, hn, hd, hs, _ = piece
    lo, hi = F(ln, ld), F(hn, hd)
    return {(lo + hi) / 2} | {y for y, is_open in ((lo, ls), (hi, hs)) if not is_open}


def test_symbolic_rows_match_plain_feeds(cut_net):
    # every binary part the plain walk to length 4 reaches on the cut
    # acceptors and the random two-letter family, with every key: the full
    # row is a cover of [0, 1] by disjoint pieces, each piece's outcome is
    # what plain stepping gives at its closed ends and at its midpoint, and
    # a row asked at one of those points is the one piece that holds it
    nets = [cut_net, *_seeded_cut_acceptors(), *map(make_protocol_net, PROTOCOL_SEEDS)]
    seen = set()
    for net in nets:
        gap = str(_gap_error(net))
        parts = {(state[0][0], *state[1:]) for _, state in _reference_walk(net, 4)}
        for mask, since, pending in parts:
            for key in _row_keys(net):
                row = protocol.symbolic_row(net, mask, since, pending, key)
                _assert_cover(row)
                for piece in row:
                    outcome = piece[-1]
                    for y in _row_points(piece):
                        state = (Configuration(unpack(mask), y), since, pending)
                        if type(key) is tuple:
                            want = _plain_probe(net, state, key)[0]
                            assert outcome == (gap if want == "gap" else want)
                        elif isinstance(outcome, str):
                            assert _outcome(_steps, net, state, key) == outcome == gap
                        else:
                            mask2, since2, pending2, settled, an, bn, d = outcome
                            cfg = Configuration(unpack(mask2), (an + bn * y) / d)
                            assert _steps(net, state, key) == ((cfg, since2, pending2), settled)
                        at = protocol.symbolic_row(net, mask, since, pending, key, (y.numerator, y.denominator))
                        assert at == [piece]
                    seen.add((type(key), isinstance(outcome, str)))
    assert seen == {(t, g) for t in (int, type(None), tuple) for g in (False, True)} - {(type(None), True)}


def test_random_protocol_nets_partitions_and_quotients():
    # refined partitions over 1 and 01 from the fire states are invariant:
    # each word's probe verdict is the same at the representative, the closed
    # ends and a third point of every interval, from every fire state; on the
    # family's gap-free members the quotient networks for two suffix pairs
    # accept exactly what the brute-force oracle does
    words, cells, gap_free = ("1", "01"), 0, 0
    for seed in PROTOCOL_SEEDS:
        net = make_protocol_net(seed)
        starts = fire_states(net)
        for iv in build_partition_refined(net, words, starts=starts).partition.intervals:
            points = {iv.representative(), iv.lo + (iv.hi - iv.lo) / 3}
            points |= {y for y, closed in ((iv.lo, iv.lo_closed), (iv.hi, iv.hi_closed)) if closed}
            for bits in starts:
                for word in words:
                    got = {probe_verdict(net, Configuration(bits, y), word) for y in points}
                    assert len(got) == 1, (seed, bits, iv, word)
                    cells += 1
        if any(run is None for run in _plain_runs(net, 5).values()):
            continue
        gap_free += 1
        for first, second, mode in (("1", "0", SECOND_MINUS_FIRST), ("0", "11", FIRST_MINUS_SECOND)):
            quotient = build_quotient_network(QuotientSpec(base=net, first=first, second=second, mode=mode))
            want = quotient_difference_language(net, first, second, mode, 5)
            assert enumerate_language(quotient.network, 5) == want, (seed, first, second)
    assert (cells, gap_free) == (3512, 32)
