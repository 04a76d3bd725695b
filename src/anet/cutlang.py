"""Threshold languages of positional expansions in a rational base, and the
eight-unit online acceptor for their reversals.

A word of binary digits x_1..x_n has value sum_k x_k * base^-k. The language
keeps the words with value strictly below the threshold. The acceptor built
here reads a word online and accepts exactly when the reversal of the word
lies in the language; its analog unit accumulates the value of the reversed
prefix, scaled by (base - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import ResourceBudgetError, ValidationError
from .network import Network, make_network
from .rationals import ONE, ZERO, format_rational, rational


@dataclass(frozen=True)
class CutParams:
    """Base and threshold of a threshold language over binary digits."""

    base: Fraction
    threshold: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.base, Fraction) or not isinstance(self.threshold, Fraction):
            raise ValidationError("base and threshold must be Fractions")
        if self.base <= 1:
            raise ValidationError("base must exceed 1")
        if not (0 < self.threshold < 1):
            raise ValidationError("threshold must lie strictly between 0 and 1")

    @property
    def tail_sup(self) -> Fraction:
        """Largest value an infinite digit tail can contribute: 1/(base-1)."""
        return 1 / (self.base - 1)


def cut_params(base, threshold) -> CutParams:
    return CutParams(rational(base), rational(threshold))


def _scaled_value(word: str, params: CutParams) -> tuple[int, int]:
    """(P, A**n) with value P / A**n for base A/B: P = sum_k x_k B^k A^(n-k) by Horner's rule."""
    a, b = params.base.numerator, params.base.denominator
    num, bk = 0, 1
    for ch in word:
        bk *= b
        num *= a
        if ch == "1":
            num += bk
        elif ch != "0":
            raise ValidationError("digit words use characters 0 and 1, got %r" % ch)
    return num, a ** len(word)


def cut_member(word: str, params: CutParams) -> bool:
    """Membership in the threshold language (value strictly below the threshold)."""
    num, den = _scaled_value(word, params)
    return num * params.threshold.denominator < params.threshold.numerator * den


def reversal_member(word: str, params: CutParams) -> bool:
    """Membership of the reversed word; this is the language the acceptor recognizes."""
    return cut_member(word[::-1], params)


def _icbrt(n: int) -> int:
    """Integer cube root: the largest r with r**3 <= n, for n >= 0.

    Newton's iteration from an overestimate decreases monotonically to the
    floor of the real root, as in math.isqrt; no float is involved.
    """
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // 3)  # 2**ceil(bits/3) > cube root of n
    while True:
        nxt = (2 * r + n // (r * r)) // 3
        if nxt >= r:
            return r
        r = nxt


def _exact_cbrt(n: int) -> int | None:
    r = _icbrt(abs(n))
    if r**3 != abs(n):
        return None
    return r if n >= 0 else -r


def rational_cbrt(q: Fraction) -> Fraction | None:
    """Exact rational cube root, or None when q is not a cube of a rational."""
    num = _exact_cbrt(q.numerator)
    den = _exact_cbrt(q.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


# Unit layout of the acceptor: 1 and 2 are the inputs for digits 0 and 1,
# 3 requests the next digit and restarts the three-step cycle through 4 and 5,
# 6 compares the accumulated value with the threshold, 7 reports, 8 integrates.
U_IN0, U_IN1, U_NXT, U_CYC1, U_CYC2, U_TEST, U_OUT, U_ACC = range(1, 9)


def build_cut_acceptor(params: CutParams) -> Network:
    """Eight-unit acceptor for reversals of the threshold language.

    The analog self-weight is the inverse cube root of the base, so the base
    must be the cube of a rational; anything else is rejected rather than
    approximated.
    """
    root = rational_cbrt(params.base)
    if root is None:
        raise ValidationError(
            "base %s is not the cube of a rational; the analog self-weight would be irrational"
            % format_rational(params.base)
        )
    beta, c = params.base, params.threshold
    weights = [
        (U_ACC, U_IN1, (beta - 1) / beta),
        (U_ACC, U_ACC, 1 / root),
        (U_CYC1, U_NXT, ONE),
        (U_CYC2, U_CYC1, ONE),
        (U_NXT, U_CYC2, ONE),
        (U_TEST, U_CYC2, ONE),
        (U_TEST, U_ACC, ONE),
        (U_OUT, U_NXT, ONE),
        (U_OUT, U_TEST, -ONE),
        (U_NXT, 0, -ONE),
        (U_CYC1, 0, -ONE),
        (U_CYC2, 0, -ONE),
        (U_OUT, 0, -ONE),
        (U_TEST, 0, -1 - (beta - 1) * c),
    ]
    return make_network(
        size=8,
        inputs=(U_IN0, U_IN1),
        nxt=U_NXT,
        out=U_OUT,
        delta=3,
        weights=weights,
        comment="threshold-reversal acceptor, base %s, threshold %s"
        % (format_rational(beta), format_rational(c)),
    )


# -- quasi-periodicity of the threshold point -----------------------------

NOT_QP_WITNESS = "not_quasi_periodic_witness"
QP_CERTIFICATE = "quasi_periodic_certificate"
NO_EXPANSION = "no_expansion"
UNKNOWN = "unknown"

_DIGIT_SET = (0, 1)

# the growth orbit keeps every remainder, and the k-th one has O(k) bits, so
# memory grows quadratically in the depth
QP_DEPTH_LIMIT = 10_000

# trial divisors the growth-prime search may try (a prime 2^61 - 1 needs 1.5*10^9)
QP_TRIAL_LIMIT = 2**20

# remainders the windowed orbit search may visit; its frontier can double each layer
QP_WINDOW_LIMIT = 2**16


@dataclass(frozen=True)
class QpOutcome:
    """Result of exploring the remainder orbit r' = base*r - digit from the threshold.

    kind is one of the four module constants. Evidence fields are populated per
    kind so every verdict can be replayed: the witness carries the verified
    orbit prefix and the denominator growth factor, the certificate carries the
    closed remainder set with its transitions, no_expansion carries the dead
    exploration tree, unknown carries how far exploration got.
    """

    kind: str
    detail: str
    growth_prime: int | None = None
    orbit: tuple[Fraction, ...] = ()
    reachable: tuple[Fraction, ...] = ()
    edges: tuple[tuple[Fraction, int, Fraction], ...] = ()
    explored_depth: int = 0


def orbit_step(params: CutParams, r: Fraction, digit: int) -> Fraction:
    return params.base * r - digit


def digit_valid(params: CutParams, r: Fraction) -> bool:
    """A remainder can be continued by some tail iff it lies in [0, tail_sup]."""
    return ZERO <= r <= params.tail_sup


def _growth_prime(params: CutParams) -> int | None:
    """The least prime p dividing the base's denominator but not the threshold's numerator.

    When such a prime exists, every remainder orbit multiplies the p-part of
    its denominator by the base's denominator each step, with the numerator
    staying coprime to p; denominators then grow strictly, all remainders are
    pairwise distinct, and no expansion of the threshold can revisit a value.
    The primes shared with the numerator are stripped by gcd first, so every
    prime left qualifies; finding the least one tries up to QP_TRIAL_LIMIT.
    """
    n, num = params.base.denominator, params.threshold.numerator
    g = gcd(n, num)
    while g > 1:
        n //= g
        g = gcd(n, g)
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        if p == QP_TRIAL_LIMIT:
            raise ResourceBudgetError("no prime factor of the denominator within %d trial divisors" % QP_TRIAL_LIMIT)
        p += 1
    return n if n > 1 else None


def _padic(n: int, p: int, guess: int = 0) -> int:
    """The p-adic valuation of n != 0: the lowest set bit for p = 2, else one test of guess.

    A wrong guess falls back to stripping one factor of p at a time, so the result is exact.
    """
    if p == 2:
        return (n & -n).bit_length() - 1
    v = guess if guess > 0 and n % p**guess == 0 else 0
    n //= p**v
    while n % p == 0:
        n //= p
        v += 1
    return v


def qp_explore(params: CutParams, depth: int = 64) -> QpOutcome:
    """Semi-decision for quasi-periodicity of the threshold point.

    Priority order: the denominator-growth witness applies whenever it can be
    established (it is digit independent, so it holds even when no valid
    expansion exists); otherwise the windowed orbit graph is explored up to
    depth layers and classified as closed-with-cycle (quasi-periodic),
    closed-without-cycle (no expansion at all, vacuously quasi-periodic), or
    not yet closed (unknown).
    """
    if depth < 1:
        raise ValidationError("depth must be positive")
    if depth > QP_DEPTH_LIMIT:
        raise ResourceBudgetError("depth %d exceeds the limit of %d" % (depth, QP_DEPTH_LIMIT))
    prime = _growth_prime(params)
    if prime is not None:
        orbit = _verified_growth_orbit(params, prime, depth)
        qden = params.base.denominator
        return QpOutcome(
            kind=NOT_QP_WITNESS,
            detail=(
                "denominator growth: each step multiplies the denominator by %d while the "
                "numerator stays coprime to %d, for either digit choice; remainders are "
                "pairwise distinct under every digit sequence, so no expansion of %s can "
                "contain a constant infinite subsequence (verified along %d steps of the "
                "all-zero digit orbit plus both-digit one-step checks; whether any windowed "
                "expansion exists is a separate question)"
                % (qden, prime, format_rational(params.threshold), len(orbit) - 1)
            ),
            growth_prime=prime,
            orbit=tuple(orbit),
            explored_depth=len(orbit) - 1,
        )
    return _explore_window(params, depth)


def _verified_growth_orbit(params: CutParams, prime: int, depth: int):
    """Follow the all-zero digit orbit, checking the growth invariant each step.

    At every visited remainder the one-step property is checked for both
    digits, so the verdict does not depend on the digit policy chosen here.
    """
    vq = _padic(params.base.denominator, prime)
    r = params.threshold
    vr = _padic(r.denominator, prime)  # tracked: v_p of the current remainder's denominator
    orbit = [r]
    for _ in range(depth):
        steps = [orbit_step(params, r, d) for d in _DIGIT_SET]
        for d, nxt in zip(_DIGIT_SET, steps):
            if _padic(nxt.denominator, prime, vr + vq) != vr + vq:
                raise ValidationError(
                    "growth invariant broke at %s with digit %d" % (format_rational(r), d)
                )
            if nxt.numerator % prime == 0:
                raise ValidationError(
                    "numerator lost coprimality at %s with digit %d" % (format_rational(r), d)
                )
        r, vr = steps[0], vr + vq  # the digit-0 step is the next orbit point
        orbit.append(r)
    return orbit


def _explore_window(params: CutParams, depth: int) -> QpOutcome:
    sup = params.tail_sup
    r0 = params.threshold
    if not digit_valid(params, r0):
        return QpOutcome(
            kind=NO_EXPANSION,
            detail=(
                "threshold %s lies outside the tail window [0, %s]; no digit tail can sum "
                "to it (vacuously quasi-periodic)" % (format_rational(r0), format_rational(sup))
            ),
            explored_depth=0,
        )
    visited: set[Fraction] = {r0}
    edges: list[tuple[Fraction, int, Fraction]] = []
    frontier = [r0]
    layers = 0
    closed = False
    while layers < depth:
        layers += 1
        nxt_frontier: list[Fraction] = []
        for r in frontier:
            for d in _DIGIT_SET:
                r2 = orbit_step(params, r, d)
                if not digit_valid(params, r2):
                    continue
                edges.append((r, d, r2))
                if r2 not in visited:
                    if len(visited) == QP_WINDOW_LIMIT:
                        raise ResourceBudgetError("orbit search passed %d remainders" % QP_WINDOW_LIMIT)
                    visited.add(r2)
                    nxt_frontier.append(r2)
        frontier = nxt_frontier
        if not frontier:
            closed = True
            break
    if not closed:
        return QpOutcome(
            kind=UNKNOWN,
            detail="orbit not closed within %d layers; %d remainders seen so far"
            % (depth, len(visited)),
            reachable=tuple(sorted(visited)),
            edges=tuple(edges),
            explored_depth=layers,
        )
    # closed graph: an infinite expansion exists iff some node survives
    # repeated removal of dead ends, and then every infinite remainder
    # sequence ranges over a finite set, hence revisits a value forever
    succ: dict[Fraction, list[Fraction]] = {r: [] for r in visited}
    for r, _, r2 in edges:
        succ[r].append(r2)
    live = set(visited)
    changed = True
    while changed:
        changed = False
        for r in list(live):
            if not any(t in live for t in succ[r]):
                live.discard(r)
                changed = True
    if live:
        return QpOutcome(
            kind=QP_CERTIFICATE,
            detail=(
                "orbit closed over %d remainders, %d of them on cycles; every infinite "
                "expansion revisits a remainder infinitely often"
                % (len(visited), len(live))
            ),
            reachable=tuple(sorted(visited)),
            edges=tuple(edges),
            explored_depth=layers,
        )
    return QpOutcome(
        kind=NO_EXPANSION,
        detail=(
            "orbit closed over %d remainders with every branch dying within %d steps; "
            "the threshold has no infinite expansion (vacuously quasi-periodic)"
            % (len(visited), layers)
        ),
        reachable=tuple(sorted(visited)),
        edges=tuple(edges),
        explored_depth=layers,
    )
