from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from anet.errors import ValidationError
from anet.rationals import (
    CORNER_PAIRS,
    HalfLinePair,
    Interval,
    IntervalPartition,
    format_rational,
    parse_rational,
    partition_from_pairs,
    rational,
)

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=997
)


def test_rational_accepts_ints_and_fractions():
    assert rational(3) == Fraction(3)
    assert rational(3, 4) == Fraction(3, 4)
    assert rational(Fraction(5, 7)) == Fraction(5, 7)


def test_rational_rejects_floats():
    # a float or a zero denominator is refused like a float value
    for args in ((0.25,), (1, 0), (1, 0.5), (Fraction(1, 2), 0)):
        with pytest.raises(ValidationError):
            rational(*args)


def test_parse_rational():
    assert parse_rational("19/27") == Fraction(19, 27)
    assert parse_rational("-51/32") == Fraction(-51, 32)
    assert parse_rational("7") == Fraction(7)
    with pytest.raises(ValidationError):
        parse_rational("0.5")
    with pytest.raises(ValidationError):
        parse_rational("1/0")


# every text the gate accepts; the examples pin a sign or none, leading
# zeros, p/q out of lowest terms and a zero numerator
@given(st.from_regex(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", fullmatch=True))
@example("-0")
@example("+000/0042")
@example("12/18")
@example("-0012/0018")
def test_parse_rational_matches_fraction_text_parsing(text):
    assert parse_rational(text) == Fraction(text)


@pytest.mark.parametrize("text", ["1/0", "-0/000", "+12/00"])
def test_parse_rational_zero_denominator_message(text):
    with pytest.raises(ValidationError) as got:
        parse_rational(text)
    assert str(got.value) == "zero denominator in %r" % text


@pytest.mark.parametrize(
    "text", ["9" * 4301, "-" + "9" * 5000 + "/7", "1/" + "9" * 4301, "9" * 4301 + "/0", "9" * 4301 + "/" + "7" * 4400]
)
def test_parse_rational_digit_limit_message(text):
    # the text parse inside Fraction(str) fails the same way, numerator first
    with pytest.raises(ValueError) as want:
        Fraction(text)
    with pytest.raises(ValidationError) as got:
        parse_rational(text)
    assert str(got.value) == "rational text rejected: %s" % want.value


@given(rationals)
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_half_line_pair_contains():
    lower = HalfLinePair(Fraction(1, 2), -1)  # [1/2, inf)
    upper = HalfLinePair(Fraction(1, 2), 1)  # (-inf, 1/2]
    assert lower.contains(Fraction(1, 2))
    assert lower.contains(Fraction(3, 4))
    assert not lower.contains(Fraction(1, 4))
    assert upper.contains(Fraction(1, 2))
    assert not upper.contains(Fraction(3, 4))


def test_interval_membership_and_endpoints():
    iv = Interval(Fraction(1, 3), Fraction(2, 3), True, False)
    assert iv.contains(Fraction(1, 3))
    assert not iv.contains(Fraction(2, 3))
    assert iv.representative() == Fraction(1, 2)
    assert str(iv) == "[1/3,2/3)"
    with pytest.raises(ValidationError):
        Interval(Fraction(2, 3), Fraction(1, 3), True, True)


def test_partition_from_corner_pairs_only():
    part = partition_from_pairs(CORNER_PAIRS)
    texts = [str(iv) for iv in part.intervals]
    assert texts == ["[0,0]", "(0,1)", "[1,1]"]


def test_partition_inserts_degenerate_interval_at_double_point():
    pairs = CORNER_PAIRS + (
        HalfLinePair(Fraction(1, 2), -1),
        HalfLinePair(Fraction(1, 2), 1),
    )
    part = partition_from_pairs(pairs)
    texts = [str(iv) for iv in part.intervals]
    assert texts == ["[0,0]", "(0,1/2)", "[1/2,1/2]", "(1/2,1)", "[1,1]"]


def test_partition_single_sided_point():
    pairs = CORNER_PAIRS + (HalfLinePair(Fraction(1, 4), -1),)
    part = partition_from_pairs(pairs)
    texts = [str(iv) for iv in part.intervals]
    assert texts == ["[0,0]", "(0,1/4)", "[1/4,1)", "[1,1]"]


def test_index_of_binary_search():
    pairs = CORNER_PAIRS + (
        HalfLinePair(Fraction(1, 4), -1),
        HalfLinePair(Fraction(3, 4), 1),
    )
    part = partition_from_pairs(pairs)
    for idx, iv in enumerate(part.intervals):
        assert part.index_of(iv.representative()) == idx
    with pytest.raises(ValidationError):
        part.index_of(Fraction(3, 2))


@st.composite
def pair_sets(draw):
    points = draw(
        st.lists(
            st.fractions(min_value=0, max_value=1, max_denominator=64),
            min_size=0,
            max_size=8,
        )
    )
    pairs = list(CORNER_PAIRS)
    for p in points:
        pairs.append(HalfLinePair(p, draw(st.sampled_from((-1, 1)))))
    return tuple(pairs)


@given(pair_sets())
def test_partition_covers_unit_interval_disjointly(pairs):
    part = partition_from_pairs(pairs)
    intervals = part.intervals
    assert intervals[0].lo == 0 and intervals[-1].hi == 1
    for left, right in zip(intervals, intervals[1:]):
        assert left.hi == right.lo
        # exactly one side owns the shared endpoint
        assert left.hi_closed != right.lo_closed
    # every pair's boundary point is respected: no interval straddles it
    for pair in pairs:
        for iv in intervals:
            if iv.lo < pair.a < iv.hi:
                raise AssertionError("%s straddles %s" % (iv, pair))


def test_partition_rejects_points_outside_unit_interval():
    with pytest.raises(ValidationError):
        partition_from_pairs(CORNER_PAIRS + (HalfLinePair(Fraction(3, 2), -1),))
