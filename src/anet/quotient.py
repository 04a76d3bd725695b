"""Suffix-quotient networks.

Given a base acceptor and two suffix words, the built network reads a word x
online and decides a set difference of the two quotient languages, e.g.
"x + longer suffix is accepted but x + shorter suffix is not". It works by
freezing the base's state when a prefix is complete, classifying the frozen
analog value into a partition interval through a bank of half-line detectors,
and looking the (binary state, interval) pair up in a precomputed table of
extrapolated verdicts. The table lookup is a two-level threshold circuit, so
the whole construction stays a network of the same kind with the analog unit
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import ValidationError
from .network import Network, make_network
from .protocol import Alphabet, resolve_alphabet, select_words, suffix_units
from .partition import (
    ExtrapolationTable,
    PartitionResult,
    build_partition_refined,
    extrapolation_table,
    fire_states,
)

SECOND_MINUS_FIRST = "second_minus_first"
FIRST_MINUS_SECOND = "first_minus_second"
_MODES = (SECOND_MINUS_FIRST, FIRST_MINUS_SECOND)

# the report unit lags each query instant by three steps: detectors and state
# copies fire first, then the row matchers, then any-row, then the report
OUTPUT_DELAY = 3


@dataclass(frozen=True)
class QuotientSpec:
    """What to build: base acceptor, the two suffixes, and the difference direction.

    first probes x + first; second probes x + second + first. Mode
    second_minus_first accepts x exactly when the second probe accepts and the
    first does not; first_minus_second is the reverse difference.

    The built network tabulates every (fire state, interval) pair, where the
    fire states are those the base can reach when it requests a symbol, so
    it is correct for words of every length.
    """

    base: Network
    first: str
    second: str
    mode: str
    alphabet: Alphabet | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValidationError("mode must be one of %s, got %r" % (_MODES, self.mode))
        if not self.first or not self.second:
            raise ValidationError("both suffix words must be nonempty")
        alpha = resolve_alphabet(self.base, self.alphabet)
        for word in (self.first, self.second):
            for ch in word:
                alpha.index(ch)


@dataclass(frozen=True)
class QuotientBuild:
    network: Network
    partition: PartitionResult
    first_table: ExtrapolationTable  # perfbench/tracer.py reads its rows
    truth: Mapping[tuple[tuple[int, ...], int], bool]


def combine_verdicts(mode: str, first: bool, second: bool) -> bool:
    if mode == SECOND_MINUS_FIRST:
        return second and not first
    if mode == FIRST_MINUS_SECOND:
        return first and not second
    raise ValidationError("unknown combination mode %r" % mode)


def quotient_difference_language(
    base: Network,
    first: str,
    second: str,
    mode: str,
    max_len: int,
    alphabet: Alphabet | None = None,
) -> set[str]:
    """Brute-force reference: probe x+first and x+second+first for every x.

    One select_words walk with the two probes as its keys, so a node copies
    the words below an earlier node whose proven cell holds its state, and
    the cost is two probe lookups per node walked. Probes that break the
    query gap bound count as rejecting.
    """
    if mode not in _MODES:
        raise ValidationError("mode must be one of %s" % (_MODES,))
    alphabet = resolve_alphabet(base, alphabet)
    first_units = suffix_units(base, first, alphabet)
    second_units = suffix_units(base, second + first, alphabet)

    def keep(first_outcome: bool | str, second_outcome: bool | str) -> bool:  # a gap's message rejects
        return combine_verdicts(mode, first_outcome is True, second_outcome is True)

    return set(select_words(base, alphabet, max_len, ((first_units, second_units), keep)))


def build_quotient_network(spec: QuotientSpec) -> QuotientBuild:
    """Assemble the quotient acceptor.

    The base runs unchanged inside the result; on top sit, in firing order,
    the half-line detector bank over the analog value, one-step delayed copies
    of the base binary units (so both reach the row matchers aligned), one
    matcher per accepted table row, a unit firing when any matcher does, and
    the report unit. The report therefore shows, with delay 3, the table value
    of the state the base had one step before a query instant, which is the
    state after exactly the consumed prefix.
    """
    base = spec.base
    second_word = spec.second + spec.first
    part = build_partition_refined(
        base, [spec.first, second_word], spec.alphabet, starts=fire_states(base)
    )
    t_first = extrapolation_table(base, part, spec.first)
    t_second = extrapolation_table(base, part, second_word)
    truth = {
        key: combine_verdicts(spec.mode, first, t_second.rows[key])
        for key, first in t_first.rows.items()
    }
    true_rows = sorted(key for key, v in truth.items() if v)

    pairs = part.pairs
    n_pairs = len(pairs)
    s = base.size
    reps = [iv.representative() for iv in part.partition.intervals]
    det_pattern = {
        idx: tuple(1 if pr.contains(rep) else 0 for pr in pairs)
        for idx, rep in enumerate(reps)
    }

    det_lo = s  # the base's old analog slot becomes the first detector
    copy_lo = det_lo + n_pairs
    row_lo = copy_lo + (s - 1)
    any_row = row_lo + len(true_rows)
    report = any_row + 1
    analog = report + 1

    def remap(u: int) -> int:
        return analog if u == s else u

    weights: list[tuple[int, int, Fraction]] = []
    for (j, i), w in base.weights.items():
        weights.append((remap(j), i if i == 0 else remap(i), w))
    for r, pr in enumerate(pairs):
        unit = det_lo + r
        weights.append((unit, 0, Fraction(pr.b) * pr.a))
        weights.append((unit, analog, Fraction(-pr.b)))
    for i in range(1, s):
        unit = copy_lo + (i - 1)
        weights.append((unit, 0, Fraction(-1)))
        weights.append((unit, i, Fraction(1)))
    n_literals = n_pairs + (s - 1)
    for k, (bits, idx) in enumerate(true_rows):
        unit = row_lo + k
        pattern = det_pattern[idx] + bits
        positives = sum(pattern)
        weights.append((unit, 0, Fraction(-positives)))
        for m, bit in enumerate(pattern):
            src = det_lo + m if m < n_pairs else copy_lo + (m - n_pairs)
            weights.append((unit, src, Fraction(1) if bit else Fraction(-(n_literals + 1))))
    weights.append((any_row, 0, Fraction(-1)))
    for k in range(len(true_rows)):
        weights.append((any_row, row_lo + k, Fraction(1)))
    weights.append((report, 0, Fraction(-1)))
    weights.append((report, any_row, Fraction(1)))

    comment = "quotient acceptor over a %d-unit base; detectors %d..%d, state copies %d..%d, rows %d..%d, report %d" % (
        s,
        det_lo,
        det_lo + n_pairs - 1,
        copy_lo,
        copy_lo + s - 2,
        row_lo,
        any_row - 1,
        report,
    )
    net = make_network(
        analog,
        base.input_units,
        nxt=base.nxt,
        out=report,
        delta=base.delta,
        weights=weights,
        output_delay=OUTPUT_DELAY,
        init_active=base.init_active,
        init_analog=base.init_analog,
        comment=comment,
    )

    return QuotientBuild(network=net, partition=part, first_table=t_first, truth=truth)
