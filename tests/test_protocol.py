import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from anet import protocol
from anet.cutlang import build_cut_acceptor, cut_params
from anet.errors import QueryGapError, ValidationError
from anet.mealy import compile_mealy, machine_from_tsv
from anet.network import Configuration, Network, make_network
from anet.protocol import (
    Alphabet,
    RunSession,
    accepts,
    compare_languages,
    enumerate_language,
    run_online,
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
    assert sorted(a.words(2)) == ["00", "01", "10", "11"]


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
        for w in Alphabet.of("01").words(n)
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


def test_verdict_after_leaves_the_session_unchanged(cut_net):
    for word in ("", "1", "10", "0110", "1101"):
        for k in range(len(word) + 1):
            session = RunSession(cut_net)
            for sym in word[:k]:
                session.feed(sym)
            before = _state(session)
            assert session.verdict_after(word[k:]) == accepts(cut_net, word)
            assert _state(session) == before


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
    }


def _state(session):
    return session.state, list(session.verdicts)


def _feed_or_gap(session, sym):
    try:
        session.feed(sym)
    except QueryGapError:
        return "gap"
    return _state(session)


@given(st.sampled_from(("cut", "parity", "mod3", "quotient", "toggle")), st.text(alphabet="01", max_size=8))
@settings(max_examples=150, deadline=None)
def test_memoized_feeds_match_stepping(memo_nets, which, word):
    # the networks persist across examples, and the second memoized session
    # repeats the first one's feeds, so both memo misses and hits are compared
    net = memo_nets[which]
    stepped = RunSession(net, trace=True)
    memoized = [RunSession(net), RunSession(net)]
    for sym in word + stepped.alphabet.formal_extra:
        want = _feed_or_gap(stepped, sym)
        assert [_feed_or_gap(m, sym) for m in memoized] == [want, want]
        if want == "gap":
            return
    stepped.drain()
    for m in memoized:
        m.drain()
        assert _state(m) == _state(stepped)


@pytest.mark.parametrize("which", ("cut", "parity", "mod3", "quotient", "toggle"))
def test_state_walks_match_stepping(memo_nets, which, monkeypatch):
    # the walks over states against one trace-mode run per word, on the warm
    # shared network and on a fresh copy with empty memos
    net = memo_nets[which]
    words = [w for n in range(7) for w in Alphabet.of("01").words(n)]

    def stepped(word):
        try:
            return run_online(net, word).accepted
        except QueryGapError:
            return False

    accepted = {w for w in words if stepped(w)}
    for first, second, mode in (("1", "1", SECOND_MINUS_FIRST), ("0", "1", FIRST_MINUS_SECOND)):
        want = {w for w in words if combine_verdicts(mode, stepped(w + first), stepped(w + second + first))}
        with monkeypatch.context() as m:
            m.setattr(RunSession, "__init__", None)  # the walks create no session
            for run in (net, dataclasses.replace(net)):
                assert enumerate_language(run, 6) == accepted
                assert quotient_difference_language(run, first, second, mode, 6) == want


def test_gap_violating_feed_raises_again(cut_net):
    # every time, and a call that raises stores nothing in either memo
    tight = dataclasses.replace(cut_net, delta=2)
    session = RunSession(tight)
    session.feed("1")
    memos = [tight.__dict__.setdefault(name, {}) for name in ("_feed_memo", "_verdict_memo")]
    sizes = [len(memo) for memo in memos]
    for sym in "0011":
        with pytest.raises(QueryGapError):
            protocol.advance(tight, session.state, tight.input_units[int(sym)])
    for suffix in ("", "10"):
        with pytest.raises(QueryGapError):
            protocol.verdict(tight, session.state, suffix)
    assert [len(memo) for memo in memos] == sizes


def _every_step_net():
    # unit 1 requests a symbol at every step; verdicts lag queries by 2 steps
    return make_network(3, (2,), nxt=1, out=1, delta=1, weights=[], output_delay=2)


def test_feed_memo_keys_on_steps_since_last_query():
    # a drained session is past its query deadline, while a session started
    # in the same configuration is not
    net = _every_step_net()
    drained = RunSession(net)
    drained.feed("0")
    drained.drain()
    RunSession(net, start=drained.state[0]).feed("0")
    with pytest.raises(QueryGapError):
        drained.feed("0")


def test_feed_memo_keys_on_pending_verdicts():
    # the same configuration with and without a verdict still to settle
    net = _every_step_net()
    session = RunSession(net)
    stepped = RunSession(net, trace=True)
    for run in (session, stepped):
        run.feed("0")
    RunSession(net, start=session.state[0]).feed("0")
    for run in (session, stepped):
        run.feed("0")
        run.drain()
    assert _state(session) == _state(stepped)


def _memos(net):
    return [net.__dict__[name] for name in ("_feed_memo", "_verdict_memo")]


def test_feed_memo_is_bounded(cut_net, monkeypatch):
    net = dataclasses.replace(cut_net)  # a fresh network starts with empty memos
    assert len(enumerate_language(net, 13)) == 8192
    assert all(0 < len(memo) <= protocol.FEED_MEMO_LIMIT for memo in _memos(net))
    monkeypatch.setattr(protocol, "FEED_MEMO_LIMIT", 5)
    net = dataclasses.replace(cut_net)
    assert enumerate_language(net, 7) == enumerate_language(cut_net, 7)
    assert all(0 < len(memo) <= 5 for memo in _memos(net))


def _count_steps(monkeypatch) -> list:
    """A list that gains one entry per Network.step call from here on."""
    step = Network.step
    calls = []

    def counting_step(self, *args, **kwargs):
        calls.append(1)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(Network, "step", counting_step)
    return calls


def test_enumeration_replays_repeated_feed_states(monkeypatch):
    # the mod-3 reduction visits a few hundred distinct feed states; without
    # the memo this enumeration takes about 19,500 steps
    net = _mod3_reduction()
    calls = _count_steps(monkeypatch)
    enumerate_language(net, 12)
    assert len(calls) < 2000


def test_enumeration_step_counts_are_pinned(cut_net, monkeypatch):
    # the walk order and the feed memo fix these counts exactly; fresh
    # networks start with empty memos
    calls = _count_steps(monkeypatch)
    assert len(enumerate_language(dataclasses.replace(cut_net), 13)) == 8192
    assert len(calls) == 72842
    calls.clear()
    assert len(enumerate_language(_mod3_reduction(), 14)) == 30  # 113 units
    assert len(calls) == 602


def test_enumeration_builds_few_transition_rows(cut_net, monkeypatch):
    # Network.step asks _row only when the state has no row yet, so on a
    # concrete enumeration every call builds one
    built = []
    row = Network._row

    def counting_row(self, binary):
        built.append(binary)
        return row(self, binary)

    monkeypatch.setattr(Network, "_row", counting_row)
    calls = _count_steps(monkeypatch)
    assert len(enumerate_language(dataclasses.replace(cut_net), 13)) == 8192
    assert len(calls) == 72842
    assert len(built) <= 8 and len(set(built)) == len(built)


def test_feed_memo_keys_hold_no_bit_tuples(cut_net):
    for net in (dataclasses.replace(cut_net), _mod3_reduction()):
        enumerate_language(net, 6)
        feeds, verdicts = _memos(net)
        assert feeds and verdicts
        assert all(unit is None or type(unit) is int for unit, _ in feeds)  # None: a drain
        for cfg, since, pending in [state for _, state in feeds] + list(verdicts):
            assert type(cfg) is Configuration and all(type(x) is int for x in cfg)
            assert type(since) is int and type(pending) is tuple
            assert all(type(p) is int for p in pending)
        assert all(type(mask) is int for mask in net.__dict__["_rows"])


def test_session_fields_follow_the_last_step_when_a_step_raises(cut_net, monkeypatch):
    session = RunSession(cut_net, trace=True)
    calls = _count_steps(monkeypatch)
    step = Network.step

    def failing_step(self, *args, **kwargs):
        if len(calls) == 3:
            raise RuntimeError("step failed")
        return step(self, *args, **kwargs)

    monkeypatch.setattr(Network, "step", failing_step)
    with pytest.raises(RuntimeError):
        for sym in "0000":
            session.feed(sym)
    assert len(calls) == 3 and session.queries
    assert session.state[0] == session.rows[-1]
    assert session.state[1] == len(session.rows) - 1 - session.queries[-1]
