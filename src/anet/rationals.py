"""Exact rational scalars, half-line boundary pairs, and interval partitions of [0, 1].

All numeric state in this package is an exact rational, held as a
`fractions.Fraction` or as an integer pair. Floats are never accepted: they
would silently destroy the bit-exactness contract that every simulation and
every serialized artifact relies on.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import DigitLimitError, ValidationError

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def rational(value: RationalLike, den: int | None = None) -> Fraction:
    """Build an exact rational from an int, a numerator/denominator pair, or "p/q" text.

    Floats are rejected on purpose.
    """
    if isinstance(value, float):
        raise ValidationError("refusing float %r; pass int, Fraction, or 'p/q' text" % (value,))
    if den is not None:
        if not isinstance(value, (Fraction, int)):
            raise ValidationError("numerator must be int when a denominator is given")
        if not isinstance(den, (Fraction, int)) or den == 0:
            raise ValidationError("denominator must be a nonzero int, got %r" % (den,))
        return Fraction(value, den)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise ValidationError("cannot build a rational from %r" % (value,))


_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse canonical rational text: "p/q" or bare "p", optional leading minus.

    Decimal and scientific notation are rejected on purpose; nothing in the
    wire formats is allowed to pass through floating point.
    """
    m = _RATIONAL_TEXT.fullmatch(text.strip())
    if m is None:
        raise ValidationError("bad rational text %r" % text)
    num, den = m.groups()
    # int() gives the same value, and the same digit-limit ValueError, as the
    # text parse inside Fraction(str), without its second regex match
    try:
        if den is None:
            return Fraction(int(num))
        return Fraction(int(num), int(den))
    except ZeroDivisionError:
        raise ValidationError("zero denominator in %r" % text) from None
    except ValueError as exc:  # int-from-string digit limit
        raise ValidationError("rational text rejected: %s" % exc) from None


def format_rational(q: Fraction) -> str:
    """Canonical text: lowest terms, "p/q", or "p" when the denominator is 1.

    A numerator or denominator past Python's int-to-str digit limit is a
    DigitLimitError, a ResourceBudgetError that names the limit; the library
    never changes it.
    """
    try:
        return str(q)
    except ValueError:  # only the digit limit makes str() of a Fraction raise
        raise digit_limit_error() from None


def digit_limit_error() -> DigitLimitError:
    """The error for a value to print past Python's int-to-str digit limit, naming the limit."""
    return DigitLimitError(
        "a rational with more than %d digits in its numerator or denominator cannot be printed"
        " (Python's int-to-str limit, set by PYTHONINTMAXSTRDIGITS)" % sys.get_int_max_str_digits()
    )


@dataclass(frozen=True, order=True)
class HalfLinePair:
    """Boundary point of a half-line: (a, -1) encodes [a, +inf), (a, +1) encodes (-inf, a].

    Ordering is lexicographic with -1 before +1, which is exactly the sort the
    partition constructor needs.
    """

    a: Fraction
    b: int

    def __post_init__(self) -> None:
        if self.b not in (-1, 1):
            raise ValidationError("half-line orientation must be -1 or +1, got %r" % (self.b,))
        if not isinstance(self.a, Fraction):
            raise ValidationError("half-line boundary must be a Fraction")

    def contains(self, y: Fraction) -> bool:
        return y >= self.a if self.b == -1 else y <= self.a


@dataclass(frozen=True)
class Interval:
    """A rational interval with explicit endpoint openness. May be a single point."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValidationError("interval endpoints out of order: %s > %s" % (self.lo, self.hi))
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValidationError("a degenerate interval must be closed on both sides")

    def contains(self, y: Fraction) -> bool:
        if y < self.lo or y > self.hi:
            return False
        if y == self.lo and not self.lo_closed:
            return False
        if y == self.hi and not self.hi_closed:
            return False
        return True

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    def representative(self) -> Fraction:
        """A rational strictly inside the allowed region: the point, or the midpoint."""
        if self.degenerate:
            return self.lo
        return (self.lo + self.hi) / 2

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return "%s%s,%s%s" % (lb, format_rational(self.lo), format_rational(self.hi), rb)


@dataclass(frozen=True)
class IntervalPartition:
    """An ordered disjoint cover of [0, 1] by intervals, first and last degenerate at 0 and 1."""

    intervals: tuple[Interval, ...]

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def index_of(self, y: Fraction) -> int:
        """Index of the unique interval containing y. y must lie in [0, 1]."""
        if y < ZERO or y > ONE:
            raise ValidationError("value %s outside [0,1]" % (y,))
        lo, hi = 0, len(self.intervals) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            iv = self.intervals[mid]
            if iv.contains(y):
                return mid
            if y < iv.lo or (y == iv.lo and not iv.lo_closed):
                hi = mid - 1
            else:
                lo = mid + 1
        raise ValidationError("no interval contains %s; partition broken" % (y,))


CORNER_PAIRS = (
    HalfLinePair(ZERO, -1),
    HalfLinePair(ZERO, 1),
    HalfLinePair(ONE, -1),
    HalfLinePair(ONE, 1),
)


def partition_from_pairs(pairs: Sequence[HalfLinePair]) -> IntervalPartition:
    """Assemble the canonical partition of [0, 1] from boundary pairs.

    The pair list must already be clipped to [0, 1] and must include the four
    corner pairs. Consecutive sorted pairs (a_r, b_r), (a_r+1, b_r+1) produce one
    interval whose openness follows the orientation signs; equal boundary points
    are forced to appear as (a, -1) < (a, +1) and yield the degenerate [a, a].
    """
    ordered = sorted(set(pairs))
    if not ordered:
        raise ValidationError("no boundary pairs given")
    for corner in CORNER_PAIRS:
        if corner not in ordered:
            raise ValidationError("missing corner pair (%s, %+d)" % (corner.a, corner.b))
    if ordered[0] != HalfLinePair(ZERO, -1) or ordered[-1] != HalfLinePair(ONE, 1):
        raise ValidationError("pairs must span exactly [0,1] after clipping")
    for p in ordered:
        if p.a < ZERO or p.a > ONE:
            raise ValidationError("boundary %s outside [0,1]; clip before assembling" % (p.a,))

    intervals: list[Interval] = []
    for left, right in zip(ordered, ordered[1:]):
        if left.a == right.a:
            # forced ordering: b goes -1 then +1, a degenerate point interval
            intervals.append(Interval(left.a, right.a, True, True))
            continue
        lo_closed = left.b == -1
        hi_closed = right.b == 1
        intervals.append(Interval(left.a, right.a, lo_closed, hi_closed))

    part = IntervalPartition(tuple(intervals))
    _check_partition(part)
    return part


def _check_partition(part: IntervalPartition) -> None:
    ivs = part.intervals
    first, last = ivs[0], ivs[-1]
    if not (first.degenerate and first.lo == ZERO):
        raise ValidationError("partition must start with the degenerate [0,0]")
    if not (last.degenerate and last.hi == ONE):
        raise ValidationError("partition must end with the degenerate [1,1]")
    for cur, nxt in zip(ivs, ivs[1:]):
        if cur.hi != nxt.lo:
            raise ValidationError("gap between %s and %s" % (cur, nxt))
        # exactly one side owns the shared endpoint
        if cur.hi_closed == nxt.lo_closed:
            raise ValidationError("endpoint %s owned by both or neither of %s, %s" % (cur.hi, cur, nxt))
