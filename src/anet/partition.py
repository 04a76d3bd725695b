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

Each result records what it covers, and extrapolation tables admit only
covered words: a refined result covers exactly the words it replayed, from
its starts, in its alphabet; an exhaustive one covers every start and every
word with delta * (len(word) + 1) + output_delay <= horizon. A table reads
its verdicts off the word's full symbolic rows, as the refined replay does,
and refuses an interval on which they disagree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ResourceBudgetError, ValidationError
from .network import _UNIT, Network, _step_symbolic, pack, unpack
from . import protocol
from .protocol import Alphabet, resolve_alphabet, suffix_units, symbolic_row
from .rationals import (
    CORNER_PAIRS,
    ONE,
    ZERO,
    HalfLinePair,
    IntervalPartition,
    partition_from_pairs,
)


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
    _, tests, c, a, _, _ = net._row(pack(bits))  # c_s and a_s, scaled by L_s
    if unit in net.input_units:  # clamped, so no row tests it
        c = net.weight(unit, 0) + sum(net.weight(unit, i) for i in range(1, s) if bits[i - 1])
        a = net.weight(unit, s)
    elif unit != s:
        c, a = next(((c_j, a_j) for bit, c_j, a_j in tests if bit == 1 << (unit - 1)), (0, 0))
    if a == 0:
        raise ValidationError("unit %d has no weight from the analog unit" % unit)
    return Fraction(-c, a)


@dataclass(frozen=True)
class PartitionResult:
    """A partition and what it covers, as the module docstring says."""

    method: str
    partition: IntervalPartition
    pairs: tuple[HalfLinePair, ...]
    horizon: int | None = None  # exhaustive only, as is bound
    bound: int | None = None
    words: tuple[str, ...] | None = None  # refined only: the replayed words
    starts: tuple[tuple[int, ...], ...] | None = None  # None: every binary state
    alphabet: Alphabet | None = None  # None: the network's default

    @property
    def interval_count(self) -> int:
        return len(self.partition.intervals)


def build_partition_exhaustive(net: Network, horizon: int) -> PartitionResult:
    """Endpoint enumeration over all binary state sequences up to the horizon.

    Candidate endpoints fall into three families: comparison points of binary
    units fed by the analog unit (input units are clamped, so none of theirs),
    propagated backwards through up to horizon steps of the analog recurrence,
    and the crossing points of the analog saturation at 0 and at 1,
    propagated the same way. Each endpoint carries an orientation saying on
    which side of the point the firing region is closed.

    Cost grows like 2**((size-1)*horizon); runs past protocol.ENDPOINT_BUDGET
    are refused.
    """
    if horizon < 1:
        raise ValidationError("horizon must be positive")
    s, budget = net.size, protocol.ENDPOINT_BUDGET
    if (s - 1) * horizon >= budget.bit_length():  # 2**((s-1)*horizon) > budget
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
    fed_binary = [j for j in range(1, s) if net.weight(j, s) != 0 and j not in net.input_units]
    if w_self == 0:
        # analog history beyond one step is erased, only direct comparisons remain
        for j in fed_binary:
            orient = -_sgn(net.weight(j, s))
            pairs.update(HalfLinePair(_clip(v), orient) for v in pivot_set(j))
        return _finish(pairs, "exhaustive", horizon=horizon, bound=endpoint_bound(s, horizon))

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
    return _finish(pairs, "exhaustive", horizon=horizon, bound=endpoint_bound(s, horizon))


def _clip(v: Fraction) -> Fraction:
    if v < ZERO:
        return ZERO
    if v > ONE:
        return ONE
    return v


def _finish(pairs: set[HalfLinePair], method: str, **cover) -> PartitionResult:
    return PartitionResult(method, partition_from_pairs(pairs), tuple(sorted(pairs)), **cover)


# -- refined construction -------------------------------------------------


def build_partition_refined(
    net: Network,
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
    point, and the ends of the pieces the runs visit become the partition
    endpoints. A run is the full protocol.symbolic_row of the word's probe
    from the start, through the word, the formal extra symbol and the
    verdict delay; branches that overrun the query gap bound stop
    contributing, mirroring how replays on concrete points are scored. Each
    run's branch count is held to protocol.ENDPOINT_BUDGET. The result
    covers exactly these words from these starts.
    """
    alphabet = resolve_alphabet(net, alphabet)
    wordlist = tuple(sorted(set(words), key=lambda w: (len(w), w)))
    if not wordlist:
        raise ValidationError("refined construction needs at least one word")
    starts = None if starts is None else tuple(map(tuple, starts))
    pieces: set[tuple] = set()
    for bits0 in _admit_starts(net, starts, len(wordlist), "words"):
        for word in wordlist:
            row = symbolic_row(net, pack(bits0), 0, (), suffix_units(net, word, alphabet))
            pieces.update(piece[:6] for piece in row)
    pairs: set[HalfLinePair] = set(CORNER_PAIRS)
    for ln, ld, ls, hn, hd, hs in pieces:  # each end is the half-line that cut it: closed inside, open outside
        pairs.add(HalfLinePair(Fraction(ln, ld), 1 if ls else -1))
        pairs.add(HalfLinePair(Fraction(hn, hd), -1 if hs else 1))
    return _finish(pairs, "refined", words=wordlist, starts=starts, alphabet=alphabet)


def _admit_starts(
    net: Network, starts: Sequence[tuple[int, ...]] | None, per_start: int, what: str
) -> Iterable[tuple[int, ...]]:
    """The start binary states, every one when starts is None, within budget."""
    count = 2 ** (net.size - 1) if starts is None else len(starts)
    if count * per_start > protocol.ENDPOINT_BUDGET:
        raise ResourceBudgetError(
            "%d start states times %d %s exceeds the budget of %d"
            % (count, per_start, what, protocol.ENDPOINT_BUDGET)
        )
    if starts is None:
        return itertools.product((0, 1), repeat=net.size - 1)
    return starts


def fire_states(net: Network) -> list[tuple[int, ...]]:
    """Binary states the network can hold at a fire instant, over-approximated.

    At a fire instant the nxt unit is on, so the next symbol lands one step
    later. The search starts from the initial configuration and, from every
    fire state found, clamps each symbol with the analog value left unknown
    in [0, 1], following the run symbolically until nxt fires again.
    Branches that overrun the query gap bound are dropped, since concrete
    runs raise there. Every real analog value lies in [0, 1], so the result
    holds every state that some word reaches, and possibly a few more. The
    search keeps its own clock, since alone, because it forgets y at the
    fire instant rather than at the query; its branch count is held to
    protocol.ENDPOINT_BUDGET.
    """
    found: set[int] = set()
    mask, p, q = net.initial_configuration()
    stack = [((_UNIT, mask, p, 0, q), 0)]  # a branch and the steps since its last query
    walked = 0
    while stack:
        br, since = stack.pop()
        walked += 1
        if walked > protocol.ENDPOINT_BUDGET:
            raise ResourceBudgetError("symbolic run passed %d branches" % protocol.ENDPOINT_BUDGET)
        if since >= net.delta:
            continue
        bits = br[1]
        if not bits >> (net.nxt - 1) & 1:
            stack += [(s, since + 1) for s in _step_symbolic(net, br, {})]
        elif bits not in found:  # a fire instant: forget y, then clamp each symbol
            found.add(bits)
            for u in net.input_units:
                stack += [(s, 0) for s in _step_symbolic(net, (_UNIT, bits, 0, 1, 1), {u: 1})]
    return sorted(map(unpack, found))


# -- behavior tables over a partition -------------------------------------


@dataclass(frozen=True)
class ExtrapolationTable:
    """Verdict of one probe word from every (binary state, interval) start."""

    word: str
    partition: IntervalPartition
    rows: Mapping[tuple[tuple[int, ...], int], bool]

    def value(self, bits: tuple[int, ...], analog: Fraction) -> bool:
        return self.rows[(bits, self.partition.index_of(analog))]


def extrapolation_table(net: Network, result: PartitionResult, word: str) -> ExtrapolationTable:
    """Tabulate the word's verdict from every covered start and every interval.

    The result must cover the word, as the module docstring says, or
    ValidationError is raised. From each of result.starts the word, read in
    result.alphabet, steps one full protocol.symbolic_row, whose pieces tile
    [0, 1] as the intervals do; one merge by high ends finds the pieces that
    meet each interval, which must share an outcome (a query gap rejects),
    or ValidationError names the word, the start and the interval.
    """
    if result.words is not None and word not in result.words:
        raise ValidationError("word %r is not among the replayed words %r" % (word, result.words))
    need = net.delta * (len(word) + 1) + net.output_delay
    if result.words is None and need > result.horizon:
        raise ValidationError(
            "word %r needs horizon %d, partition was built for horizon %d" % (word, need, result.horizon)
        )
    part = result.partition
    ends = [(iv.hi, -(not iv.hi_closed)) for iv in part.intervals]  # an open end v- before a closed v
    rows: dict[tuple[tuple[int, ...], int], bool] = {}
    for bits in _admit_starts(net, result.starts, len(ends), "intervals"):
        row = symbolic_row(net, pack(bits), 0, (), suffix_units(net, word, result.alphabet))
        pieces = sorted(((Fraction(hn, hd), -hs), outcome is True) for *_, hn, hd, hs, outcome in row)
        k = 0
        for idx, end in enumerate(ends):
            seen = {pieces[k][1]}
            while pieces[k][0] < end:  # the piece ends inside the interval, so the next one meets it
                k += 1
                seen.add(pieces[k][1])
            if len(seen) > 1:
                raise ValidationError("word %r from %s: verdicts differ on %s" % (word, bits, part.intervals[idx]))
            rows[(bits, idx)] = seen.pop()
            k += pieces[k][0] == end
    return ExtrapolationTable(word=word, partition=part, rows=rows)
