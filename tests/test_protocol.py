import dataclasses
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from anet import protocol
from anet.cutlang import build_cut_acceptor, cut_params
from anet.errors import QueryGapError, ResourceBudgetError, ValidationError
from anet.mealy import compile_mealy, machine_from_tsv
from anet.network import Configuration, Network, make_network, unpack
from anet.partition import probe_verdict
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
from anet.reduction import ReductionSpec, build_reduction
from conftest import all_words

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
    return (net.initial_configuration(), 0, ())


def _fed(net, word):
    """The state after feeding word from the start, through the memo."""
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


# -- the feed memo -------------------------------------------------------------


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
    """(state, settled) after each feed of word and the formal symbol, and after the drain.

    A QueryGapError ends the list with "gap".
    """
    state, run = _start(net), []
    for unit in [net.input_units[int(sym)] for sym in word + "0"] + [None]:
        try:
            state, settled = feed(net, state, unit)
        except QueryGapError:
            return run + ["gap"]
        run.append((state, settled))
    return run


MEMO_NETS = ("cut", "parity", "mod3", "quotient", "toggle", "gap")


@given(st.sampled_from(MEMO_NETS), st.text(alphabet="01", max_size=8))
@settings(max_examples=150, deadline=None)
def test_memoized_feeds_match_stepping(memo_nets, which, word):
    # the networks persist across examples, and the second memoized run
    # repeats the first one's feeds, so both memo misses and hits are compared
    net = memo_nets[which]
    stepped = _run(protocol._steps, net, word)
    assert [_run(protocol.advance, net, word) for _ in range(2)] == [stepped, stepped]
    if stepped[-1] == "gap":
        with pytest.raises(QueryGapError):
            run_online(net, word)
        return
    trace = run_online(net, word)
    assert trace.verdicts == tuple(v for _, settled in stepped for v in settled)
    assert trace.rows[-1][1] == stepped[-1][0][0]


PROBES = (("1", "1", SECOND_MINUS_FIRST), ("0", "1", FIRST_MINUS_SECOND))


def _reference_walk(net, max_len):
    """(word, state) for every word of length at most max_len, depth first.

    The reference for the shared walks: no memo and no sharing, a child's
    state is one unmemoized feed from its parent's, and a query gap cuts
    every child of a node or none.
    """
    stack = [("", _start(net))]
    while stack:
        word, state = stack.pop()
        yield word, state
        if len(word) < max_len:
            try:
                children = [protocol._steps(net, state, unit)[0] for unit in net.input_units]
            except QueryGapError:
                continue
            stack.extend(zip([word + "0", word + "1"], children))


def _probe(net, state, suffix=""):
    """The verdict of state followed by suffix, None when a feed breaks the query gap."""
    try:
        return protocol.verdict(net, state, suffix)
    except QueryGapError:
        return None


@pytest.mark.parametrize("which", MEMO_NETS)
def test_state_walks_match_stepping(memo_nets, monkeypatch, which):
    # the reference walk against one run_online per word up to length 6, then
    # the shared walks against the reference up to length 9, on the warm
    # shared network and on a fresh copy, with the feed memo and the walk's
    # subtree record holding at most one entry, at most three, and at most
    # the real limit, so that they are cleared in the middle of a walk
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
    for limit in (1, 3, protocol.FEED_MEMO_LIMIT):
        monkeypatch.setattr(protocol, "FEED_MEMO_LIMIT", limit)
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
            assert select_words(run, Alphabet.of("01"), 9, lambda s: True) == [w for w, _ in nodes]
    if which == "gap":  # the gaps cut the tree below length 9
        assert len(nodes) < 2**10 - 1 and any(v is None for _, v in verdicts)


def test_gap_violating_feed_raises_again(cut_net):
    # every time, and a call that raises stores nothing in the memo
    tight = dataclasses.replace(cut_net, delta=2)
    state = _fed(tight, "1")
    memo = tight.__dict__["_feed_memo"]
    size = len(memo)
    for sym in "0011":
        with pytest.raises(QueryGapError):
            protocol.advance(tight, state, tight.input_units[int(sym)])
    for suffix in ("", "10"):
        with pytest.raises(QueryGapError):
            protocol.verdict(tight, state, suffix)
    assert len(memo) == size


def _every_step_net():
    # unit 1 requests a symbol at every step; verdicts lag queries by 2 steps
    return make_network(3, (2,), nxt=1, out=1, delta=1, weights=[], output_delay=2)


def test_feed_memo_keys_on_steps_since_last_query():
    # a drained state is past its query deadline, while a run started in the
    # same configuration is not
    net = _every_step_net()
    unit = net.input_units[0]
    drained = protocol.advance(net, _fed(net, "0"), None)[0]
    protocol.advance(net, (drained[0], 0, ()), unit)
    with pytest.raises(QueryGapError):
        protocol.advance(net, drained, unit)


def test_feed_memo_keys_on_pending_verdicts():
    # the same configuration with and without a verdict still to settle
    net = _every_step_net()
    fed = protocol._steps(net, _start(net), net.input_units[0])[0]
    assert fed[2]
    protocol.advance(net, (fed[0], 0, ()), net.input_units[0])
    assert _run(protocol.advance, net, "0") == _run(protocol._steps, net, "0")


def test_feed_memo_is_bounded(cut_net, monkeypatch):
    net = dataclasses.replace(cut_net)  # a fresh network starts with an empty memo
    assert len(enumerate_language(net, 13)) == 8192
    assert 0 < len(net.__dict__["_feed_memo"]) <= protocol.FEED_MEMO_LIMIT
    monkeypatch.setattr(protocol, "FEED_MEMO_LIMIT", 5)
    net = dataclasses.replace(cut_net)
    assert enumerate_language(net, 7) == enumerate_language(cut_net, 7)
    assert 0 < len(net.__dict__["_feed_memo"]) <= 5


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
    # the mod-3 reduction visits a few hundred distinct feed states; without
    # the memo this enumeration takes about 19,500 steps
    net = _mod3_reduction()
    calls = _count_calls(monkeypatch, Network, "step")
    enumerate_language(net, 12)
    assert len(calls) < 2000


def test_enumeration_step_counts_are_pinned(cut_net, monkeypatch):
    # the walk order, the feed memo, the segment table and the walk's shared
    # subtrees fix these counts exactly; fresh networks start with an empty
    # memo and table. The walk keys its subtree record on the state alone: on
    # the cut acceptor leading zeros keep the analog value at 0, so the state
    # of 0w is the state of w one level down, and half of the nodes copy the
    # words of a walk with a larger remaining length. Only the first memo miss
    # on each binary part steps: the cut acceptor's misses fall on 10 binary
    # parts, which step 26 times in all, and every later miss is served by
    # one of the 10 pieces learned for 8 of them. The mod-3 reduction's 101
    # states fit the record, which is then never cleared mid-walk, and each
    # of its memo misses is the first on its binary part
    calls = _count_calls(monkeypatch, Network, "step")
    advances = _count_calls(monkeypatch, protocol, "advance")
    assert len(enumerate_language(dataclasses.replace(cut_net), 13)) == 8192
    assert (len(calls), len(advances)) == (26, 16422)
    net = _mod3_reduction()  # 113 units
    calls.clear()
    advances.clear()
    assert len(enumerate_language(net, 14)) == 30
    assert (len(calls), len(advances)) == (602, 648)


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
    # to length 9 the cut acceptor's tree has 1,023 nodes, half of them
    # copied from a shared subtree
    walk(cut_net, 9)
    monkeypatch.setattr(protocol, "WALK_BUDGET", 300)
    with pytest.raises(ResourceBudgetError, match="passed its budget of 300 "):
        walk(dataclasses.replace(cut_net), 9)


def test_walk_budget_counts_copied_words(monkeypatch):
    # the mod-3 reduction's 1,023 words to length 9 are nearly all copies:
    # the walk visits 166 nodes. Each node and each kept word costs its
    # length plus one, so that memory is bounded whatever the length bound;
    # the kept words cost 9,217 and the nodes 1,247, so the walk needs
    # exactly 10,464
    net, everything = _mod3_reduction(), Alphabet.of("ab")
    monkeypatch.setattr(protocol, "WALK_BUDGET", 10463)
    with pytest.raises(ResourceBudgetError):
        select_words(net, everything, 9, lambda s: True)
    monkeypatch.setattr(protocol, "WALK_BUDGET", 10464)
    assert len(select_words(net, everything, 9, lambda s: True)) == 1023


def test_enumeration_builds_few_transition_rows(cut_net, monkeypatch):
    # Network.step asks _row only when the state has no row yet, so on a
    # concrete enumeration every call builds one
    built = []
    row = Network._row

    def counting_row(self, binary):
        built.append(binary)
        return row(self, binary)

    monkeypatch.setattr(Network, "_row", counting_row)
    calls = _count_calls(monkeypatch, Network, "step")
    assert len(enumerate_language(dataclasses.replace(cut_net), 13)) == 8192
    assert len(calls) == 26  # pinned with the reason above
    assert len(built) <= 8 and len(set(built)) == len(built)


def test_walks_and_probes_keep_one_protocol_memo(cut_net):
    # besides the step plan and the transition rows, the feed memo and the
    # segment table behind it are the only caches a network holds after the
    # walks and probes that read verdicts
    for net in (dataclasses.replace(cut_net), _mod3_reduction()):
        enumerate_language(net, 6)
        quotient_difference_language(net, "1", "1", SECOND_MINUS_FIRST, 6)
        accepts(net, "0110")
        probe_verdict(net, net.initial_configuration(), "10")
        cached = sorted(key for key in net.__dict__ if key.startswith("_"))
        assert cached == ["_feed_memo", "_plan_cache", "_rows", "_segments"]


# -- the segment table ----------------------------------------------------------


def _seeded_cut_acceptors():
    # cube bases (a/b)^3 with 1 <= b < a <= 5 coprime and thresholds n/d
    rng = random.Random(16)
    bases = [(a, b) for a in range(2, 6) for b in range(1, a) if gcd(a, b) == 1]
    nets = []
    for _ in range(6):
        a, b = rng.choice(bases)
        d = rng.randint(2, 9)
        nets.append(build_cut_acceptor(cut_params(F(a**3, b**3), F(rng.randint(1, d - 1), d))))
    return nets


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


def _holds(piece, state):
    """Whether the analog value of state lies in piece, read with Fractions."""
    ln, ld, ls, hn, hd, hs, _ = piece
    y = state[0].analog
    return (F(ln, ld) < y or (F(ln, ld) == y and not ls)) and (y < F(hn, hd) or (y == F(hn, hd) and not hs))


def _check_segments(net, depth, cleared=False):
    """Segment-served feeds and drains against _steps at every node to depth; returns the nodes.

    cleared: the table may be cleared mid-walk, and lose a piece just learned.
    """
    limit = protocol.FEED_MEMO_LIMIT
    stack, nodes = [("", _start(net))], 0
    while stack:
        word, state = stack.pop()
        nodes += 1
        children = []
        for unit in (*net.input_units, None):
            want = _outcome(protocol._steps, net, state, unit)
            children.append(want)
            # the first call on a binary part marks it, the first one after
            # that whose analog value lies in no known piece learns the piece
            # that holds it, and from then on that piece serves the value; a
            # gap-error piece raises the same error every time
            assert [_outcome(protocol._segment_feed, net, state, unit) for _ in range(2)] == [want] * 2
            table = net.__dict__["_segments"]
            assert table.entries == len(table) + sum(map(len, table.values())) <= limit
            key = (unit, state[0][0], *state[1:])
            held = [piece for piece in table.get(key, ()) if _holds(piece, state)]
            # a learned piece holds the state it was learned from, and the
            # pieces of a binary part are disjoint
            assert len(held) == 1 or (cleared and not held)
            if isinstance(want, str):  # the memo stores nothing on a raise
                for _ in range(2):
                    with pytest.raises(QueryGapError, match=want):
                        protocol.advance(net, state, unit)
                assert (unit, state) not in net.__dict__["_feed_memo"]
        if len(word) < depth and not isinstance(children[0], str):  # a gap cuts every child
            stack.extend((word + sym, child[0]) for sym, child in zip("01", children))
    table = net.__dict__["_segments"]
    for unit, mask, since, pending in table:
        assert unit is None or type(unit) is int
        assert type(mask) is int and type(since) is int and type(pending) is tuple
        assert all(type(p) is int for p in pending)
    # the ends of every piece, where an open end belongs to the next piece
    for (unit, mask, since, pending), pieces in list(table.items()):
        for ln, ld, _, hn, hd, _, _ in pieces:
            for y in {F(ln, ld), F(hn, hd)}:
                state = (Configuration(unpack(mask), y), since, pending)
                want = _outcome(protocol._steps, net, state, unit)
                assert [_outcome(protocol._segment_feed, net, state, unit) for _ in range(2)] == [want] * 2
    return nodes


def test_segment_feeds_match_stepping(cut_net, monkeypatch):
    # six seeded cut acceptors, six quotient networks over the cut bases 27/8,
    # 27 and 8, verdicts lagging several queries, and a cut acceptor whose
    # tight query gap bound cuts the tree; then the table's bound, under
    # limits of one entry and of three
    for _ in range(3):  # the first call steps, later ones step symbolically
        with pytest.raises(ValidationError, match="not an input unit"):
            protocol.advance(cut_net, _start(cut_net), cut_net.nxt)
    tight = dataclasses.replace(cut_net, delta=2)
    nets = _seeded_cut_acceptors() + _cut_base_quotients() + [_every_step_net(), tight]
    for net in nets:
        _check_segments(net, 8)
    assert _check_segments(dataclasses.replace(tight), 8) < 2**9 - 1
    for limit in (1, 3):
        monkeypatch.setattr(protocol, "FEED_MEMO_LIMIT", limit)
        for net in (nets[0], nets[6], tight):
            _check_segments(dataclasses.replace(net), 8, cleared=True)


def test_feed_memo_keys_hold_no_bit_tuples(cut_net):
    for net in (dataclasses.replace(cut_net), _mod3_reduction()):
        enumerate_language(net, 6)
        feeds = net.__dict__["_feed_memo"]
        assert feeds
        assert all(unit is None or type(unit) is int for unit, _ in feeds)  # None: a drain
        for _, (cfg, since, pending) in feeds:
            assert type(cfg) is Configuration and all(type(x) is int for x in cfg)
            assert type(since) is int and type(pending) is tuple
            assert all(type(p) is int for p in pending)
        assert all(type(mask) is int for mask in net.__dict__["_rows"])
