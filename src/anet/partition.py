"""Finite interval partitions of the analog unit's range.

Over any bounded horizon the analog value only influences the binary units
through finitely many threshold comparisons. Collecting the comparison points
as oriented endpoints yields a partition of [0, 1] such that trajectories
started anywhere inside one interval, from the same binary state, stay
indistinguishable for the whole horizon.

Two constructions are provided. The exhaustive one enumerates endpoint values
over all binary state sequences up to the horizon and is exponential in the
network size; the refined one simulates the online protocol symbolically for
a given word set and only splits where a run actually compares the analog
value against a threshold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import QueryGapError, ResourceBudgetError, ValidationError
from .network import Configuration, Network
from .protocol import Alphabet, RunSession
from .rationals import (
    CORNER_PAIRS,
    ONE,
    ZERO,
    HalfLinePair,
    Interval,
    IntervalPartition,
    partition_from_pairs,
)

ENDPOINT_BUDGET = 2**20


def endpoint_bound(size: int, horizon: int) -> int:
    """Closed-form cap on the interval count of the exhaustive construction."""
    s, t = size, horizon
    total = (s - 1) * sum(2 ** ((s - 1) * e) for e in range(1, t + 1))
    total += 2 * sum(2 ** ((s - 1) * e) for e in range(2, t))
    return total + 4


def _sgn(q: Fraction) -> int:
    return -1 if q < 0 else 1


def pivot(net: Network, unit: int, bits: Sequence[int]) -> Fraction:
    """Analog value at which the unit's excitation crosses zero, at fixed bits.

    Solves bias + sum_i w(unit,i)*bits_i + w(unit,analog)*y = 0 for y; the
    weight into unit from the analog unit must be nonzero.
    """
    s = net.size
    w_an = net.weight(unit, s)
    if w_an == 0:
        raise ValidationError("unit %d has no weight from the analog unit" % unit)
    acc = net.weight(unit, 0)
    for i in range(1, s):
        if bits[i - 1]:
            acc += net.weight(unit, i)
    return -acc / w_an


@dataclass(frozen=True)
class PartitionResult:
    method: str
    horizon: int
    partition: IntervalPartition
    pairs: tuple[HalfLinePair, ...]
    bound: int | None
    detail: str

    @property
    def interval_count(self) -> int:
        return len(self.partition.intervals)


def build_partition_exhaustive(
    net: Network, horizon: int, budget: int = ENDPOINT_BUDGET
) -> PartitionResult:
    """Endpoint enumeration over all binary state sequences up to the horizon.

    Candidate endpoints fall into three families: comparison points of binary
    units fed by the analog unit, propagated backwards through up to horizon
    steps of the analog recurrence, and the crossing points of the analog
    saturation at 0 and at 1, propagated the same way. Each endpoint carries
    an orientation saying on which side of the point the firing region is
    closed.

    Cost grows like 2**((size-1)*horizon); runs past the budget are refused.
    """
    if horizon < 1:
        raise ValidationError("horizon must be positive")
    s = net.size
    if 2 ** ((s - 1) * horizon) > budget:
        raise ResourceBudgetError(
            "exhaustive partition needs about 2**%d binary sequences, budget is 2**%d; "
            "use the refined construction instead"
            % ((s - 1) * horizon, max(budget.bit_length() - 1, 0))
        )
    w_self = net.weight(s, s)
    all_bits = list(itertools.product((0, 1), repeat=s - 1))

    def pivot_set(unit: int) -> set[Fraction]:
        return {pivot(net, unit, bits) for bits in all_bits}

    pairs: set[HalfLinePair] = set(CORNER_PAIRS)
    fed_binary = [j for j in range(1, s) if net.weight(j, s) != 0]
    if w_self == 0:
        # analog history beyond one step is erased, only direct comparisons remain
        for j in fed_binary:
            orient = -_sgn(net.weight(j, s))
            pairs.update(HalfLinePair(_clip(v), orient) for v in pivot_set(j))
        return _finish(net, horizon, pairs, "exhaustive")

    analog_pivots = pivot_set(s)
    # level holds endpoint values for the current propagation depth tau
    for j in fed_binary:
        w_j = net.weight(j, s)
        level = pivot_set(j)
        for tau in range(horizon):
            orient = -_sgn(w_j * w_self**tau)
            pairs.update(HalfLinePair(_clip(v), orient) for v in level)
            if tau + 1 < horizon:
                level = {a + v / w_self for a in analog_pivots for v in level}
    level = set(analog_pivots)
    for tau in range(1, horizon):
        orient = _sgn(w_self**tau)
        offset = (1 / w_self) ** tau
        for v in level:
            pairs.add(HalfLinePair(_clip(v), orient))
            pairs.add(HalfLinePair(_clip(offset + v), -orient))
        if tau + 1 < horizon:
            level = {a + v / w_self for a in analog_pivots for v in level}
    return _finish(net, horizon, pairs, "exhaustive")


def _clip(v: Fraction) -> Fraction:
    if v < ZERO:
        return ZERO
    if v > ONE:
        return ONE
    return v


def _finish(net, horizon, pairs, method, words=None) -> PartitionResult:
    part = partition_from_pairs(pairs)
    detail = "%s construction, horizon %d" % (method, horizon)
    if words is not None:
        detail += ", words " + ",".join(repr(w) for w in words)
    return PartitionResult(
        method=method,
        horizon=horizon,
        partition=part,
        pairs=tuple(sorted(pairs)),
        bound=endpoint_bound(net.size, horizon) if method == "exhaustive" else None,
        detail=detail,
    )


# -- refined construction -------------------------------------------------


@dataclass
class _Branch:
    """One piece of a symbolic run: concrete bits, analog value a + b*y."""

    piece: Interval
    bits: tuple[int, ...]
    a: Fraction
    b: Fraction
    t: int = 0
    fed: int = 0
    last_query: int = 0
    horizon_due: int = 0  # last instant whose state still matters


_UNIT = Interval(ZERO, ONE, True, True)


def _clip_ge(piece: Interval, v: Fraction) -> Interval | None:
    if v > piece.hi or (v == piece.hi and not piece.hi_closed):
        return None
    lo, lc = piece.lo, piece.lo_closed
    if v > lo:
        lo, lc = v, True
    out = Interval(lo, piece.hi, lc, piece.hi_closed)
    return out if _nonempty(out) else None


def _clip_gt(piece: Interval, v: Fraction) -> Interval | None:
    if v >= piece.hi:
        return None
    lo, lc = piece.lo, piece.lo_closed
    if v > lo or (v == lo and lc):
        lo, lc = v, False
    out = Interval(lo, piece.hi, lc, piece.hi_closed)
    return out if _nonempty(out) else None


def _clip_le(piece: Interval, v: Fraction) -> Interval | None:
    if v < piece.lo or (v == piece.lo and not piece.lo_closed):
        return None
    hi, hc = piece.hi, piece.hi_closed
    if v < hi:
        hi, hc = v, True
    out = Interval(piece.lo, hi, piece.lo_closed, hc)
    return out if _nonempty(out) else None


def _clip_lt(piece: Interval, v: Fraction) -> Interval | None:
    if v <= piece.lo:
        return None
    hi, hc = piece.hi, piece.hi_closed
    if v < hi or (v == hi and hc):
        hi, hc = v, False
    out = Interval(piece.lo, hi, piece.lo_closed, hc)
    return out if _nonempty(out) else None


def _nonempty(iv: Interval) -> bool:
    if iv.lo < iv.hi:
        return True
    return iv.lo == iv.hi and iv.lo_closed and iv.hi_closed


class _Rows:
    """Per-unit weight rows of a network, unpacked once for symbolic stepping."""

    def __init__(self, net: Network):
        s = net.size
        self.bias = [ZERO] * (s + 1)
        self.binary = [[] for _ in range(s + 1)]
        self.analog = [ZERO] * (s + 1)
        for (j, i), w in net.weights.items():
            if i == 0:
                self.bias[j] = w
            elif i == s:
                self.analog[j] = w
            else:
                self.binary[j].append((i, w))

    def affine(self, j: int, br: _Branch) -> tuple[Fraction, Fraction]:
        a = self.bias[j]
        bits = br.bits
        for i, w in self.binary[j]:
            if bits[i - 1]:
                a += w
        w_an = self.analog[j]
        if w_an == 0:
            return a, ZERO
        return a + w_an * br.a, w_an * br.b


def build_partition_refined(
    net: Network,
    horizon: int,
    words: Iterable[str],
    alphabet: Alphabet | None = None,
    *,
    starts: Sequence[tuple[int, ...]] | None = None,
) -> PartitionResult:
    """Partition from symbolic protocol runs over the given words.

    Every start binary state (all of them when starts is None) is paired with
    every word; the analog value is left as an unknown y in [0, 1] and each
    run is followed with the analog state kept affine in y. Whenever a unit's
    excitation sign depends on y, the current piece splits at the crossing
    point, and the crossing points of all runs become the partition
    endpoints. Runs are followed through the word, the formal extra symbol,
    and the verdict delay; branches that overrun the query gap bound stop
    contributing, mirroring how replays on concrete points are scored.
    """
    if horizon < 1:
        raise ValidationError("horizon must be positive")
    alphabet = alphabet or Alphabet.default_for(net)
    wordlist = sorted(set(words), key=lambda w: (len(w), w))
    if not wordlist:
        raise ValidationError("refined construction needs at least one word")
    rows = _Rows(net)
    pairs: set[HalfLinePair] = set(CORNER_PAIRS)
    for bits0 in _admit_starts(net, starts, len(wordlist), "words"):
        for word in wordlist:
            _run_symbolic(net, rows, alphabet, bits0, word, pairs)
    return _finish(net, horizon, pairs, "refined", words=wordlist)


def _admit_starts(
    net: Network, starts: Sequence[tuple[int, ...]] | None, per_start: int, what: str
) -> Iterable[tuple[int, ...]]:
    """The start binary states, every one when starts is None, within budget."""
    count = 2 ** (net.size - 1) if starts is None else len(starts)
    if count * per_start > ENDPOINT_BUDGET:
        raise ResourceBudgetError(
            "%d start states times %d %s exceeds the budget of %d"
            % (count, per_start, what, ENDPOINT_BUDGET)
        )
    if starts is None:
        return itertools.product((0, 1), repeat=net.size - 1)
    return starts


def _run_symbolic(net, rows, alphabet, bits0, word, pairs) -> None:
    symbols = [alphabet.index(ch) for ch in word] + [0]
    stack = [_Branch(_UNIT, tuple(bits0), ZERO, ONE)]
    while stack:
        br = stack.pop()
        if br.fed >= len(symbols):
            if br.t >= br.horizon_due:
                continue
        elif br.t + 1 > br.last_query + net.delta:
            continue  # query gap exceeded; concrete replays here reject
        clamp: dict[int, int] = {}
        if br.bits[net.nxt - 1] == 1 and br.fed < len(symbols):
            clamp = _clamp(net, symbols[br.fed])
        _step_symbolic(net, rows, br, clamp, stack, pairs)


def _clamp(net: Network, sym: int) -> dict[int, int]:
    return {u: (1 if k == sym else 0) for k, u in enumerate(net.input_units)}


def fire_states(net: Network) -> list[tuple[int, ...]]:
    """Binary states the network can hold at a fire instant, over-approximated.

    At a fire instant the nxt unit is on, so the next symbol lands one step
    later. The search starts from the initial configuration and, from every
    fire state found, clamps each symbol with the analog value left unknown
    in [0, 1], following the run symbolically until nxt fires again.
    Branches that overrun the query gap bound are dropped, since concrete
    runs raise there. Every real analog value lies in [0, 1], so the result
    holds every state that some word reaches, and possibly a few more. The
    branch count is held to the endpoint budget.
    """
    rows = _Rows(net)
    cut_points: set[HalfLinePair] = set()  # split points are not needed here
    init = net.initial_configuration()
    stack = [_Branch(_UNIT, init.binary, init.analog, ZERO)]
    found: set[tuple[int, ...]] = set()
    branches = 0
    while stack:
        br = stack.pop()
        branches += 1
        if branches > ENDPOINT_BUDGET:
            raise ResourceBudgetError(
                "fire-state search passed %d symbolic branches" % ENDPOINT_BUDGET
            )
        if br.t + 1 > br.last_query + net.delta:
            continue
        if not br.bits[net.nxt - 1]:
            _step_symbolic(net, rows, br, {}, stack, cut_points)
        elif br.bits not in found:
            found.add(br.bits)
            for sym in range(len(net.input_units)):
                fresh = _Branch(_UNIT, br.bits, ZERO, ONE)
                _step_symbolic(net, rows, fresh, _clamp(net, sym), stack, cut_points)
    return sorted(found)


def _step_symbolic(net, rows, br: _Branch, clamp, stack, pairs) -> None:
    s = net.size
    forced_zero = set(net.input_units) if not clamp else set()
    parts: list[tuple[Interval, list[int]]] = [(br.piece, [])]
    for j in range(1, s):
        if j in clamp:
            for _, acc in parts:
                acc.append(clamp[j])
            continue
        if j in forced_zero:
            for _, acc in parts:
                acc.append(0)
            continue
        nxt_parts: list[tuple[Interval, list[int]]] = []
        for piece, acc in parts:
            a, b = rows.affine(j, br)
            if b == 0:
                acc.append(1 if a >= 0 else 0)
                nxt_parts.append((piece, acc))
                continue
            ystar = -a / b
            if b > 0:
                on, off, orient = _clip_ge(piece, ystar), _clip_lt(piece, ystar), -1
            else:
                on, off, orient = _clip_le(piece, ystar), _clip_gt(piece, ystar), 1
            if on is not None and off is not None:
                pairs.add(HalfLinePair(ystar, orient))
                nxt_parts.append((on, acc + [1]))
                nxt_parts.append((off, acc + [0]))
            elif on is not None:
                acc.append(1)
                nxt_parts.append((on, acc))
            else:
                acc.append(0)
                nxt_parts.append((off, acc))
        parts = nxt_parts
    for piece, acc in parts:
        _finish_step(net, rows, br, piece, acc, clamp, stack, pairs)


def _finish_step(net, rows, br: _Branch, piece, acc, clamp, stack, pairs) -> None:
    s = net.size
    a, b = rows.affine(s, br)
    if b == 0:
        sat = ONE if a >= 1 else (a if a > 0 else ZERO)
        regions = [(piece, sat, ZERO)]
    else:
        y0, y1 = -a / b, (1 - a) / b
        if b > 0:
            dead = _clip_le(piece, y0)
            upper = _clip_gt(piece, y0)
            mid = _clip_lt(upper, y1) if upper is not None else None
            full = _clip_ge(piece, y1)
            ordered = [(dead, ZERO, ZERO), (mid, a, b), (full, ONE, ZERO)]
            cuts = [(y0, 1), (y1, -1)]
        else:
            dead = _clip_ge(piece, y0)
            lower = _clip_lt(piece, y0)
            mid = _clip_gt(lower, y1) if lower is not None else None
            full = _clip_le(piece, y1)
            ordered = [(full, ONE, ZERO), (mid, a, b), (dead, ZERO, ZERO)]
            cuts = [(y1, 1), (y0, -1)]
        for k in range(2):
            if ordered[k][0] is not None and ordered[k + 1][0] is not None:
                v, orient = cuts[k]
                pairs.add(HalfLinePair(v, orient))
        regions = ordered
    for region, na, nb in regions:
        if region is None:
            continue
        child = _Branch(
            piece=region,
            bits=tuple(acc),
            a=na,
            b=nb,
            t=br.t + 1,
            fed=br.fed,
            last_query=br.last_query,
            horizon_due=br.horizon_due,
        )
        if clamp:
            child.fed = br.fed + 1
            child.last_query = child.t
            child.horizon_due = child.t + net.output_delay
        stack.append(child)


# -- behavior tables over a partition -------------------------------------


@dataclass(frozen=True)
class ExtrapolationTable:
    """Verdict of one probe word from every (binary state, interval) start."""

    word: str
    partition: IntervalPartition
    rows: Mapping[tuple[tuple[int, ...], int], bool]

    def value(self, bits: tuple[int, ...], analog: Fraction) -> bool:
        return self.rows[(bits, self.partition.index_of(analog))]


def extrapolation_table(
    net: Network,
    result: PartitionResult,
    word: str,
    alphabet: Alphabet | None = None,
    *,
    starts: Sequence[tuple[int, ...]] | None = None,
) -> ExtrapolationTable:
    """Tabulate the word's verdict from every start binary state and interval.

    starts None means every binary state. Each row replays the online run
    from a concrete start whose analog value is the interval's representative
    point. Runs that violate the query gap bound count as rejecting; the
    partition construction keeps that uniform within an interval.
    """
    alphabet = alphabet or Alphabet.default_for(net)
    if net.delta * (len(word) + 1) > result.horizon:
        raise ValidationError(
            "word %r needs horizon %d, partition was built for horizon %d"
            % (word, net.delta * (len(word) + 1), result.horizon)
        )
    part = result.partition
    reps = [iv.representative() for iv in part.intervals]
    rows: dict[tuple[tuple[int, ...], int], bool] = {}
    for bits in _admit_starts(net, starts, len(reps), "intervals"):
        for idx, rep in enumerate(reps):
            rows[(bits, idx)] = probe_verdict(net, Configuration(bits, rep), word, alphabet)
    return ExtrapolationTable(word=word, partition=part, rows=rows)


def probe_verdict(
    net: Network, start: Configuration, word: str, alphabet: Alphabet | None = None
) -> bool:
    """Online verdict of word from an arbitrary start; gap violations reject."""
    try:
        return RunSession(net, alphabet, start=start).verdict_after(word)
    except QueryGapError:
        return False
