import dataclasses
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from anet.cli import main
from anet.cutlang import build_cut_acceptor, cut_params
from anet.errors import ResourceBudgetError, ValidationError
from anet.mealy import compile_mealy, machine_from_tsv
from anet.network import Configuration, make_network, save_network_path
from anet import network, partition, protocol
from anet.partition import (
    build_partition_exhaustive,
    build_partition_refined,
    endpoint_bound,
    extrapolation_table,
    pivot,
)
from anet.protocol import Alphabet
from anet.rationals import CORNER_PAIRS, HalfLinePair, Interval, partition_from_pairs
from anet.reduction import ReductionSpec, build_reduction
from conftest import make_protocol_net, make_skeleton_net, probe_verdict
from test_acceptance import MOD3_TSV


def test_endpoint_bound_frozen_values():
    assert endpoint_bound(3, 2) == 44
    assert endpoint_bound(3, 3) == 204


def test_endpoint_bound_matches_direct_sum():
    for s in (3, 4, 5):
        for t in (1, 2, 3, 4):
            direct = (
                (s - 1) * sum(2 ** ((s - 1) * e) for e in range(1, t + 1))
                + 2 * sum(2 ** ((s - 1) * e) for e in range(2, t))
                + 4
            )
            assert endpoint_bound(s, t) == direct


def test_pivot_solves_threshold_crossing():
    net = make_network(
        3,
        (2,),
        nxt=1,
        out=1,
        delta=1,
        weights=[(1, 0, F(0)), (3, 3, F(1, 2)), (2, 0, F(-1, 4)), (2, 3, F(1, 2))],
    )
    # unit 2 fires iff -1/4 + y3/2 >= 0, pivot at y3 = 1/2
    assert pivot(net, 2, (0, 0)) == F(1, 2)


def test_pivot_matches_unscaled_weights():
    rng = random.Random(7)
    for seed in (11, 22, 33, 44, 55):
        net = make_skeleton_net(seed)
        s = net.size
        for unit in (j for j in range(1, s + 1) if net.weight(j, s) != 0):
            for _ in range(8):
                bits = tuple(rng.randint(0, 1) for _ in range(s - 1))
                acc = net.weight(unit, 0) + sum(net.weight(unit, i) for i in range(1, s) if bits[i - 1])
                assert pivot(net, unit, bits) == -acc / net.weight(unit, s)


@pytest.fixture(scope="module")
def cut_net():
    return build_cut_acceptor(cut_params(F(27, 8), F(1, 4)))


def test_exhaustive_budget_guard(cut_net, tmp_path, capsys):
    # 2^(7*7) candidate bit patterns is far past any sane budget; 2^(7*10^12)
    # must be refused without being computed
    for horizon in (7, 10**12):
        with pytest.raises(ResourceBudgetError):
            build_partition_exhaustive(cut_net, horizon)
    path = tmp_path / "cut.anet"
    save_network_path(cut_net, str(path))
    assert main(["partition", str(path), str(10**12), "--method", "exhaustive"]) == 3
    assert "ResourceBudgetError" in capsys.readouterr().err


def test_all_start_states_refused_past_budget(tmp_path, capsys, monkeypatch):
    inner, _ = compile_mealy(machine_from_tsv(MOD3_TSV))
    words = ("aaaa", "aaaa", "bbbb", "bbbb", "bbbb")
    net = build_reduction(ReductionSpec(inner, words, Alphabet.of("ab"))).network
    assert net.size == 113
    with pytest.raises(ResourceBudgetError):
        build_partition_refined(net, ("0", "1"))
    start = net.initial_configuration().binary
    part = build_partition_refined(net, ("0",), starts=[start])
    # one start times one word fits this budget, one start times the intervals does not
    assert part.interval_count > 2
    monkeypatch.setattr(protocol, "ENDPOINT_BUDGET", part.interval_count - 1)
    with pytest.raises(ResourceBudgetError):
        extrapolation_table(net, part, "0")
    monkeypatch.undo()
    path = tmp_path / "red.anet"
    save_network_path(net, str(path))
    assert main(["partition", str(path)]) == 3
    assert "ResourceBudgetError" in capsys.readouterr().err


def test_fire_state_search_is_budgeted(cut_net, monkeypatch):
    assert len(partition.fire_states(cut_net)) == 2
    monkeypatch.setattr(protocol, "ENDPOINT_BUDGET", 3)
    with pytest.raises(ResourceBudgetError):
        partition.fire_states(cut_net)


def test_fire_states_are_sorted_bit_tuples(cut_net):
    assert partition.fire_states(cut_net) == [(0, 0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1, 0)]
    mod3, _ = compile_mealy(machine_from_tsv(MOD3_TSV))
    active = [(3, 13, 31), (3, 12), (3, 11, 30), (3, 10, 30), (3, 9)]
    active += [(3, 8), (3, 8, 31), (3, 7), (3, 7, 31), (3, 6)]
    assert partition.fire_states(mod3) == [tuple(int(j in on) for j in range(1, mod3.size)) for on in active]


def test_exhaustive_partition_ignores_clamped_input_units():
    # input unit 2 crosses at y = 1/2, but it is clamped, so no run compares it
    base = [(3, 0, F(-1)), (3, 4, F(3)), (4, 4, F(1, 2)), (4, 2, F(1, 2))]
    plain = make_network(4, (2,), nxt=1, out=3, delta=1, weights=base)
    fed = make_network(4, (2,), nxt=1, out=3, delta=1, weights=base + [(2, 0, F(-1, 4)), (2, 4, F(1, 2))])
    for horizon in (1, 2, 3):
        want = build_partition_exhaustive(plain, horizon)
        assert build_partition_exhaustive(fed, horizon).pairs == want.pairs
    intervals = build_partition_exhaustive(fed, 1).partition.intervals
    assert [str(iv) for iv in intervals] == ["[0,0]", "(0,1/3)", "[1/3,1)", "[1,1]"]


def test_refined_run_is_budgeted(cut_net, monkeypatch):
    start = [cut_net.initial_configuration().binary]
    build_partition_refined(cut_net, ("0",), starts=start)
    monkeypatch.setattr(protocol, "ENDPOINT_BUDGET", 3)  # admits the one run
    with pytest.raises(ResourceBudgetError):
        build_partition_refined(cut_net, ("0",), starts=start)


grid = st.integers(-2, 10).map(lambda k: F(k, 8))


@st.composite
def pieces(draw):
    lo, hi = sorted((draw(grid), draw(grid)))
    if lo == hi:
        return Interval(lo, hi, True, True)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


def _as_ints(iv):
    """An Interval in the integer form of network._step_symbolic: ends as pairs, 1 at an open end."""
    return (iv.lo.numerator, iv.lo.denominator, int(not iv.lo_closed), iv.hi.numerator, iv.hi.denominator, int(not iv.hi_closed))


def _as_interval(piece):
    """The Interval of an integer piece, None for None."""
    if piece is None:
        return None
    ln, ld, ls, hn, hd, hs = piece
    return Interval(F(ln, ld), F(hn, hd), not ls, not hs)


@given(pieces(), grid, st.sampled_from((-1, 1)), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_split_partitions_the_piece(piece, v, orient, scale):
    # the half-line's point and the piece's ends need not be in lowest terms
    line = HalfLinePair(v, orient)
    ln, ld, ls, hn, hd, hs = _as_ints(piece)
    scaled = (ln * scale, ld * scale, ls, hn, hd, hs)
    inside, outside = map(_as_interval, network._split(scaled, (v.numerator * scale, v.denominator * scale, orient)))
    # every boundary sits on the 1/8 grid, so the grid points and the
    # midpoints between them tell any two of these intervals apart
    for k in range(-24, 90):
        y = F(k, 16)
        in_in = inside is not None and inside.contains(y)
        in_out = outside is not None and outside.contains(y)
        assert piece.contains(y) == (in_in or in_out)
        assert not (in_in and in_out)
        assert in_in <= line.contains(y)
        assert in_out <= (not line.contains(y))


# endpoints found by the symbolic protocol replay on the probe words 0 and 1;
# validated independently by the trajectory invariance test below
CUT_REFINED_ENDPOINTS = [
    "[0,0]",
    "(0,323/1152)",
    "[323/1152,4/9)",
    "[4/9,19/32)",
    "[19/32,2/3)",
    "[2/3,57/64)",
    "[57/64,1)",
    "[1,1]",
]


def test_refined_partition_of_cut_net_frozen(cut_net):
    res = build_partition_refined(cut_net, ("0", "1"))
    assert [str(iv) for iv in res.partition.intervals] == CUT_REFINED_ENDPOINTS
    # boundary pairs of more replays, past the four corners; (v, -1) is [v, +inf)
    # and (v, +1) is (-inf, v]
    anchor = build_cut_acceptor(cut_params(F(27, 8), F(3, 8)))  # the quotient benchmark's base
    cases = [
        (anchor, ("1", "01"), partition.fire_states(anchor), [(F(323, 768), -1), (F(2, 3), -1)]),
        (make_skeleton_net(33), ("0", "00", "000"), None, [(F(2, 3), 1)]),
        (make_skeleton_net(44), ("0", "00", "000"), None, [(F(1, 10), -1), (F(4, 35), -1)]),
    ]
    corners = [(F(0), -1), (F(0), 1), (F(1), -1), (F(1), 1)]
    for net, words, starts, inner in cases:
        res = build_partition_refined(net, words, starts=starts)
        assert res.pairs == tuple(sorted(HalfLinePair(v, b) for v, b in corners + inner))


def _interval_samples(iv, rng, k):
    if iv.degenerate:
        return [iv.lo]
    span = iv.hi - iv.lo
    pts = [iv.lo + span * F(i, k + 1) for i in range(1, k + 1)]
    pts.append(iv.lo + span * F(rng.randint(1, 96), 97))
    return pts


def test_trajectory_invariance_cut_net(cut_net):
    res = build_partition_refined(cut_net, ("0", "1"))
    rng = random.Random(41)
    for iv in res.partition.intervals:
        for _ in range(8):
            bits = tuple(rng.randint(0, 1) for _ in range(cut_net.size - 1))
            word = rng.choice(("", "0", "1", "00", "01", "10", "11"))
            verdicts = {
                probe_verdict(cut_net, Configuration(bits, y), word)
                for y in _interval_samples(iv, rng, 3)
            }
            assert len(verdicts) == 1, "interval %s splits on %r" % (iv, word)


def test_exhaustive_and_refined_tables_agree_on_skeletons():
    for seed in (11, 22, 33):
        net = make_skeleton_net(seed)
        horizon = max(2, 16 // (net.size - 1))
        exh = build_partition_exhaustive(net, horizon)
        assert exh.interval_count <= exh.bound + 1
        word = "0" * (horizon - 1)
        ref = build_partition_refined(net, (word,))
        t_e = extrapolation_table(net, exh, word)
        t_r = extrapolation_table(net, ref, word)
        rng = random.Random(seed)
        for _ in range(120):
            bits = tuple(rng.randint(0, 1) for _ in range(net.size - 1))
            y = F(rng.randint(0, 128), 128)
            assert t_e.value(bits, y) == t_r.value(bits, y)


def test_extrapolation_requires_covering_horizon(cut_net):
    res = build_partition_refined(cut_net, ("0",))
    with pytest.raises(ValidationError):
        extrapolation_table(cut_net, res, "000")  # never replayed
    net = make_skeleton_net(11)
    exh = build_partition_exhaustive(net, 2)
    extrapolation_table(net, exh, "0")
    with pytest.raises(ValidationError):
        extrapolation_table(net, exh, "00")  # needs horizon 3 > 2


def _meet(a, b):
    lo, lo_open = max((a.lo, not a.lo_closed), (b.lo, not b.lo_closed))
    hi, hi_closed = min((a.hi, a.hi_closed), (b.hi, b.hi_closed))
    return _as_interval(network._interval(lo.numerator, lo.denominator, lo_open, hi.numerator, hi.denominator, int(not hi_closed)))


def _assert_rows_constant(net, res, table, rng):
    # besides random points and closed ends, probe one point in every piece
    # the word's own refined partition cuts the interval into
    fine = build_partition_refined(net, (table.word,)).partition.intervals
    points = []
    for iv in res.partition.intervals:
        pts = _interval_samples(iv, rng, 1) + [iv.lo] * iv.lo_closed + [iv.hi] * iv.hi_closed
        points.append(pts + [m.representative() for f in fine if (m := _meet(iv, f))])
    for (bits, idx), verdict in table.rows.items():
        for y in points[idx]:
            assert probe_verdict(net, Configuration(bits, y), table.word) == verdict, (bits, idx, y)


def test_refined_partition_checks_the_alphabet_size(cut_net):
    # the 2 has no input unit; the replay used to clamp it as no input at all
    with pytest.raises(ValidationError):
        build_partition_refined(cut_net, ["2", "0"], Alphabet.of("012"))


def test_refined_table_covers_only_replayed_words():
    # seed 20's partition replayed on 0 alone used to admit the table for 00,
    # whose row (1,0,0,1,1) on (0,31/147) disagreed with the probe at 9951/49000
    net = make_skeleton_net(20)
    res = build_partition_refined(net, ("0",))
    assert res.words == ("0",) and res.starts is None
    with pytest.raises(ValidationError):
        extrapolation_table(net, res, "00")
    _assert_rows_constant(net, res, extrapolation_table(net, res, "0"), random.Random(20))


def test_exhaustive_coverage_counts_the_output_delay():
    # with delay 1, horizon 2 used to admit 0, and its row (1,0,0,0,1) on
    # (0,8/21] was not constant
    net = dataclasses.replace(make_skeleton_net(20), output_delay=1)
    with pytest.raises(ValidationError):
        extrapolation_table(net, build_partition_exhaustive(net, 2), "0")
    res = build_partition_exhaustive(net, 3)
    _assert_rows_constant(net, res, extrapolation_table(net, res, "0"), random.Random(3))


def test_long_replayed_word_is_admitted(cut_net):
    word = "01" * 8
    res = build_partition_refined(cut_net, (word,))
    table = extrapolation_table(cut_net, res, word)
    assert len(table.rows) == 2 ** (cut_net.size - 1) * res.interval_count


@given(
    seed=st.integers(0, 299),
    delay=st.integers(0, 2),
    lengths=st.sets(st.integers(0, 3), min_size=1, max_size=2),
    horizon=st.integers(1, 3),
)
@example(seed=20, delay=0, lengths={1, 2}, horizon=1)  # the refined counterexample
@example(seed=20, delay=1, lengths={1}, horizon=2)  # the exhaustive one, now refused
@settings(max_examples=40, deadline=None)
def test_admitted_table_rows_are_constant(seed, delay, lengths, horizon):
    net = dataclasses.replace(make_skeleton_net(seed), output_delay=delay)
    rng = random.Random(seed)
    words = ["0" * k for k in sorted(lengths)]
    results = [build_partition_refined(net, words[:1])]
    try:  # a small budget for the build keeps the tables, and the test, short
        with mock.patch.object(protocol, "ENDPOINT_BUDGET", 2**10):
            results.append(build_partition_exhaustive(net, horizon))
    except ResourceBudgetError:
        pass
    for res in results:
        for word in words:
            if res.words is not None:
                covered = word in res.words
            else:
                covered = net.delta * (len(word) + 1) + delay <= horizon
            if not covered:
                with pytest.raises(ValidationError):
                    extrapolation_table(net, res, word)
                continue
            _assert_rows_constant(net, res, extrapolation_table(net, res, word), rng)


def _assert_rows_probe(net, res, table):
    """Every row of table agrees with probe_verdict at its interval's representative and closed ends."""
    for (bits, idx), verdict in table.rows.items():
        iv = res.partition.intervals[idx]
        for y in [iv.representative()] + [iv.lo] * iv.lo_closed + [iv.hi] * iv.hi_closed:
            assert probe_verdict(net, Configuration(bits, y), table.word, res.alphabet) == verdict, (bits, idx, y)


def test_table_refuses_a_partition_missing_an_endpoint(cut_net):
    # dropping an interior pair merges two intervals; where a start's verdict
    # differs between them, the row read off the pieces is refused, not sampled
    res = build_partition_refined(cut_net, ("0", "1"))
    refused = []
    for drop in (p for p in res.pairs if p not in CORNER_PAIRS):
        pairs = tuple(p for p in res.pairs if p != drop)
        coarse = dataclasses.replace(res, partition=partition_from_pairs(pairs), pairs=pairs)
        try:
            tables = [extrapolation_table(cut_net, coarse, word) for word in ("0", "1")]
        except ValidationError as exc:
            assert str(exc).startswith(("word '0' from (", "word '1' from (")), exc
            refused.append(drop.a)
            continue
        for table in tables:
            _assert_rows_probe(cut_net, coarse, table)
    assert refused == [F(323, 1152), F(19, 32), F(57, 64)]


def test_tables_step_rows_without_the_segment_table(cut_net, monkeypatch):
    net = make_skeleton_net(11)
    results = [(cut_net, build_partition_refined(cut_net, ("0", "1"))), (net, build_partition_exhaustive(net, 2))]
    want = [extrapolation_table(net, res, "0").rows for net, res in results]

    def no_lookup(*args):
        raise AssertionError("a table looked up the segment table")

    monkeypatch.setattr(protocol, "_segment_feed", no_lookup)
    assert [extrapolation_table(net, res, "0").rows for net, res in results] == want


def test_fire_state_tables_match_probes_across_gap_pieces():
    # the skeleton nets query every step and never meet a query gap; these nets do
    met_gap = []

    @given(seed=st.integers(0, 199), words=st.sets(st.text("01", max_size=3), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def check(seed, words):
        net = make_protocol_net(seed)
        starts = partition.fire_states(net)
        res = build_partition_refined(net, words, starts=starts)
        for word in words:
            _assert_rows_probe(net, res, extrapolation_table(net, res, word))
            units = protocol.suffix_units(net, word)
            rows = [protocol.symbolic_row(net, network.pack(bits), 0, (), units) for bits in starts]
            met_gap.extend(piece for row in rows for piece in row if type(piece[6]) is str)

    check()
    assert met_gap


def test_probe_verdict_scores_gap_violations_false():
    # a query unit that never fires starves the protocol; the probe treats
    # that branch as rejecting rather than crashing
    net = make_network(
        3,
        (2,),
        nxt=1,
        out=1,
        delta=1,
        weights=[(1, 0, F(-1))],
    )
    assert probe_verdict(net, Configuration((0, 0), F(0)), "0") is False


def test_refined_partition_respects_word_order_independence(cut_net):
    a = build_partition_refined(cut_net, ("0", "1"))
    b = build_partition_refined(cut_net, ("1", "0"))
    assert a.partition == b.partition
