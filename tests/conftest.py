import itertools
import random
import sys
from fractions import Fraction

import pytest

from anet.errors import QueryGapError
from anet.network import Configuration, Network, make_network
from anet.protocol import Alphabet, make_state, resolve_alphabet, verdict


def all_words(symbols, length: int) -> list[str]:
    """Every word of the given length over symbols, in the order of the symbols."""
    return ["".join(w) for w in itertools.product(symbols, repeat=length)]


def _at_digit_limit(limit, fn):
    """fn() with Python's int-to-str digit limit set to limit (0 lifts it), restored after."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return fn()
    finally:
        sys.set_int_max_str_digits(old)


def probe_verdict(net: Network, start: Configuration, word: str, alphabet: Alphabet | None = None) -> bool:
    """Online verdict of word from an arbitrary start; gap violations reject.

    The reference that extrapolation tables, which read verdicts off symbolic
    rows, are checked against: one probe through the segment table.
    """
    try:
        return verdict(net, make_state(net, start), word, resolve_alphabet(net, alphabet))
    except QueryGapError:
        return False


def make_skeleton_net(seed: int, max_size: int = 6) -> Network:
    """Random validated network with the online protocol skeleton embedded.

    Unit 1 is the query unit with no incoming weights, so it fires every step
    (query gap 1); unit 2 is the single input unit of a unary alphabet; unit 3
    reports. Remaining binary units and the analog unit get random rational
    weights with numerator and denominator bounded by 8.
    """
    rng = random.Random(seed)
    size = rng.randint(4, max_size)
    weights = []
    targets = list(range(3, size)) + [size]
    for j in targets:
        for i in range(0, size + 1):
            if rng.random() < 0.6:
                num = rng.randint(-8, 8)
                if num == 0:
                    continue
                weights.append((j, i, Fraction(num, rng.randint(1, 8))))
    return make_network(
        size,
        (2,),
        nxt=1,
        out=3,
        delta=1,
        weights=weights,
        comment="random skeleton seed %d" % seed,
    )


def make_protocol_net(seed: int) -> Network:
    """Random two-letter network whose query unit depends on the state.

    Unit 1 queries (nxt), units 2 and 3 are the input units of the letters
    0 and 1, unit 4 reports (out), the units after it up to size - 1 are
    hidden, and unit size is analog. The query unit, the out unit, the hidden
    units and the analog unit get random rational weights, numerator and
    denominator bounded by 8, from the bias and from every unit; the input
    units get none, since they are clamped. delta is 1 to 4 and the output
    delay 0 to 2, so runs meet query gaps that depend on the state and
    verdicts that settle after later queries.
    """
    rng = random.Random(seed)
    size = rng.randint(5, 7)
    weights = []
    for j in [1] + list(range(4, size + 1)):
        for i in range(0, size + 1):
            if rng.random() < 0.5:
                num = rng.randint(-8, 8)
                if num:
                    weights.append((j, i, Fraction(num, rng.randint(1, 8))))
    return make_network(
        size,
        (2, 3),
        nxt=1,
        out=4,
        delta=rng.randint(1, 4),
        weights=weights,
        output_delay=rng.randint(0, 2),
        comment="random protocol network seed %d" % seed,
    )


@pytest.fixture
def skeleton_net_factory():
    return make_skeleton_net


# Filled by tests/test_acceptance.py; one entry per acceptance criterion.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, float, float]] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, title, ok, elapsed, limit in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(
            "criterion %d: %s  %-42s (%.2fs, limit %.0fs)"
            % (num, "PASS" if ok else "FAIL", title, elapsed, limit)
        )
