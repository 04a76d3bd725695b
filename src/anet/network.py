"""Recurrent threshold networks with one saturated-linear analog unit.

Units are indexed 1..size; index 0 is the formal bias input (always 1) and the
analog unit is always the highest index. Binary units fire by Heaviside
(threshold at zero, closed), the analog unit clips its excitation to [0, 1].
All states and weights are exact rationals.

Stepping runs on per-target integer-scaled weights (each target's weights
times the lcm of their denominators), on the analog value's integer pair and
on the binary state as one int bitmask. The binary sums of each binary state
are computed once, into a cached transition row keyed by that mask, so a step
from a known state only compares the analog value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .errors import ResourceBudgetError, ValidationError
from .rationals import ZERO, RationalLike, format_rational, parse_rational, rational


# Fraction from a numerator and a positive denominator already in lowest
# terms, without the constructor's gcd (the keyword is Python 3.10/3.11's).
_coprime = getattr(Fraction, "_from_coprime_ints", None) or partial(Fraction, _normalize=False)

# Largest size of a network, however it is built or read: the tests and the
# benchmark stay in the hundreds, and a reduction grows by about 14 units per
# letter of its words.
NETWORK_SIZE_LIMIT = 2**16

# Largest query gap bound (delta) and output delay of a network: a run may
# step that many instants between two queries or before a verdict.
NETWORK_DELAY_LIMIT = 2**16

# Transition rows kept per network, counted as rows times (size - 1) bits:
# 16 rows at NETWORK_SIZE_LIMIT units.
ROW_CACHE_BITS = 2**20

# Exact integer arithmetic on Decimals for Network.analog_texts: a result
# that would need rounding raises. Only this context's methods are called,
# since Decimal operators use the thread's context, 28 digits by default.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX)  # with the default traps
_EXACT.traps[Inexact] = _EXACT.traps[Rounded] = True


class Configuration(tuple):
    """Network state at one instant: binary vector for units 1..size-1, analog value.

    The tuple (mask, p, q) holds unit j in bit j-1 of mask under a sentinel
    bit at position size-1, so that states of different lengths differ, and
    the analog value as p/q in lowest terms, q > 0; .binary and .analog build
    the bit tuple and the Fraction on each read.
    """

    __slots__ = ()

    def __new__(cls, binary: Sequence[int], analog: Fraction | int) -> "Configuration":
        if not isinstance(analog, (int, Fraction)):
            raise ValidationError("analog value must be an int or a Fraction, not %s" % type(analog).__name__)
        p, q = analog.as_integer_ratio()
        if not 0 <= p <= q:
            raise ValidationError("analog value outside [0,1]")
        return tuple.__new__(cls, (pack(tuple(binary)), p, q))

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return self.binary, self.analog

    def __repr__(self) -> str:
        return "Configuration(%r, %r)" % (self.binary, self.analog)

    binary = property(lambda self: unpack(self[0]), doc="States of units 1..size-1, built on each read.")

    @property
    def analog(self) -> Fraction:
        """The analog value as a canonical Fraction, built on each read."""
        return _coprime(self[1], self[2])

    def unit(self, j: int):
        """State of unit j (1-based; the analog unit is the last index)."""
        n = self[0].bit_length() - 1
        if j == n + 1:
            return self.analog
        if not 1 <= j <= n:
            raise ValidationError("unit %d is not in 1..%d" % (j, n + 1))
        return self[0] >> (j - 1) & 1


def pack(bits: Sequence[int]) -> int:
    """The mask of a binary vector: bit j-1 holds bits[j-1], a sentinel bit sits above."""
    if not set(bits) <= {0, 1}:
        raise ValidationError("binary states must be 0 or 1, not %r" % (tuple(bits),))
    return int("1" + "".join(["1" if b else "0" for b in reversed(bits)]), 2)


def unpack(mask: int) -> tuple[int, ...]:
    """The binary vector of a mask, below its sentinel bit."""
    return tuple(map(int, bin(mask)[:2:-1]))  # bin() gives "0b1" and the bits, highest first


@dataclass(frozen=True)
class Network:
    """Immutable network description.

    weights maps (target, source) to a rational weight; source 0 is the bias.
    input_units are clamped from outside by the run protocol: at a query
    instant they carry the one-hot symbol code, at every other instant zero.
    An instance is well formed however it was built: construction refuses
    a network past NETWORK_SIZE_LIMIT or NETWORK_DELAY_LIMIT with
    ResourceBudgetError and a malformed one with ValidationError, so every
    builder and the file reader share one rulebook. The nonzero weights are frozen
    into a read-only copy, since the step plan, the transition rows and the
    protocol's segment table are derived from them; the rows and the table
    are created with the instance, and the plan on its first use.
    """

    size: int
    input_units: tuple[int, ...]
    nxt: int
    out: int
    delta: int
    output_delay: int = 0
    weights: Mapping[tuple[int, int], Fraction] = field(default_factory=dict)
    init_active: tuple[int, ...] | None = None
    init_analog: Fraction = ZERO
    comment: str = ""

    def __post_init__(self) -> None:
        """Refuse an over-budget network, then a malformed one, then freeze its nonzero weights.

        The limits come first, so nothing is checked per unit of a network
        past them. The unit lists are copied into tuples. Every given weight
        is checked, zero or not; the zero ones are then dropped, so equal
        networks have equal weight mappings.
        """
        if self.size > NETWORK_SIZE_LIMIT:
            raise ResourceBudgetError("size %d exceeds the limit of %d units" % (self.size, NETWORK_SIZE_LIMIT))
        for name, steps in (("delta", self.delta), ("outdelay", self.output_delay)):
            if steps > NETWORK_DELAY_LIMIT:
                raise ResourceBudgetError("%s %d exceeds the limit of %d steps" % (name, steps, NETWORK_DELAY_LIMIT))
        object.__setattr__(self, "input_units", tuple(self.input_units))
        if self.init_active is not None:
            object.__setattr__(self, "init_active", tuple(self.init_active))
        s = self.size
        if s < 2:
            raise ValidationError("invalid network: size must be at least 2 (one binary unit plus the analog unit)")
        binary = range(1, s)
        bad: list[str] = []
        if not self.input_units:
            bad.append("at least one input unit is required")
        seen: set[int] = set()
        for u in self.input_units:
            if u not in binary:
                bad.append("input unit %d is not a binary unit index" % u)
            if u in seen:
                bad.append("duplicate input unit %d" % u)
            seen.add(u)
        for name, u in (("nxt", self.nxt), ("out", self.out)):
            if u not in binary:
                bad.append("%s unit %d is not a binary unit index" % (name, u))
        if self.nxt in seen:
            bad.append("nxt unit may not be an input unit")
        if self.delta < 1:
            bad.append("query gap bound must be at least 1")
        if self.output_delay < 0:
            bad.append("output delay must be nonnegative")
        for (j, i), w in self.weights.items():
            if j not in binary and j != s:
                bad.append("weight target %d out of range" % j)
            if i < 0 or i > s:
                bad.append("weight source %d out of range" % i)
            if not isinstance(w, Fraction):
                bad.append("weight (%d,%d) is not a Fraction" % (j, i))
        for j in self.init_active or ():
            if j not in binary:
                bad.append("initial active unit %d is not a binary unit index" % j)
        if not isinstance(self.init_analog, (int, Fraction)):
            bad.append("initial analog value must be an int or a Fraction, not %s" % type(self.init_analog).__name__)
        elif not 0 <= self.init_analog <= 1:
            bad.append("initial analog value outside [0,1]")
        if bad:
            raise ValidationError("invalid network: " + "; ".join(bad))
        weights = {key: w for key, w in self.weights.items() if w != 0}
        object.__setattr__(self, "weights", MappingProxyType(weights))
        object.__setattr__(self, "_rows", {})
        object.__setattr__(self, "_segments", _Segments())

    def weight(self, j: int, i: int) -> Fraction:
        return self.weights.get((j, i), ZERO)

    def initial_configuration(self) -> Configuration:
        """All binary units off except nxt (or the explicit init override), analog at init value."""
        active = self.init_active if self.init_active is not None else (self.nxt,)
        return Configuration([j in active for j in range(1, self.size)], self.init_analog)

    # -- stepping ---------------------------------------------------------

    def step(self, cfg: Configuration, inputs_next: Mapping[int, int] | None = None) -> Configuration:
        """One synchronous update of every unit.

        inputs_next gives the clamped states of the input units at the new
        instant (one-hot symbol code at a query instant); input units not
        listed, or all of them when inputs_next is None, are forced to zero.
        The update is _step_symbolic's on the constant branch of cfg.
        """
        ((_, mask, p, _, q),) = _step_symbolic(self, (_UNIT, cfg[0], cfg[1], 0, cfg[2]), inputs_next)
        return tuple.__new__(Configuration, (mask, p, q))

    def analog_texts(self, configs: Iterable[Configuration]) -> Iterator[str]:
        """format_rational's text of each configuration's analog value, in time linear in its length.

        str() of an int takes time quadratic in its digits. So a row p/q after
        a row pp/pq of this network's size is checked against the previous
        binary state's transition row (c_s, a_s, L_s): with g, r =
        divmod(L_s*pq, q), r == 0 and p*g == c_s*pq + a_s*pp say that p/q is
        the unclamped update of pp/pq. Such a row is rendered from pp and pq
        held as integer-valued Decimals, whose str() is linear and has no digit
        limit: they advance to ((pq*c_s + pp*a_s)/g, pq*L_s/g), which are p and
        q. When g divides L_s, c_s and a_s, they advance by products with
        c_s/g, a_s/g and L_s/g, a zero coefficient skipped, as the kernel's
        update does; otherwise by an exact division by g, which costs several
        products on long operands. A row 0 or 1 is printed as is. Any other
        row is rendered by format_rational, which may raise DigitLimitError,
        and the Decimals restart from its value.
        """
        ctx, prev, dec = _EXACT, None, None  # dec: prev's p and q as Decimals, built when needed
        for cfg in configs:
            _, p, q = cfg
            text = None
            if q == 1:
                text, dec = str(p), (Decimal(p), Decimal(1))
            elif prev is not None and prev[0].bit_length() == self.size:  # a state of this network's size
                state, pp, pq = prev
                try:
                    _, _, c_s, a_s, scale, _ = self._rows[state]
                except KeyError:
                    _, _, c_s, a_s, scale, _ = self._row(state)
                g, r = divmod(scale * pq, q)
                if not r and p * g == c_s * pq + a_s * pp:
                    dp, dq = dec or (Decimal(pp), Decimal(pq))
                    if scale % g or c_s % g or a_s % g:
                        dp = ctx.divide_int(ctx.add(ctx.multiply(dq, c_s), ctx.multiply(dp, a_s)), g)
                        dq = ctx.divide_int(ctx.multiply(dq, scale), g)
                    else:  # products with the small quotients, a zero coefficient skipped
                        c, a = c_s // g, a_s // g
                        if not c:
                            dp = ctx.multiply(dp, a)
                        elif not a:
                            dp = ctx.multiply(dq, c)
                        else:
                            dp = ctx.add(ctx.multiply(dq, c), ctx.multiply(dp, a))
                        dq = ctx.multiply(dq, scale // g)
                    dec = dp, dq
                    text = "%s/%s" % dec
            if text is None:
                text, dec = format_rational(cfg.analog), None
            prev = cfg
            yield text

    # -- transition rows and the step plan (cached, derived only from weights)

    def _row(self, mask: int) -> tuple:
        """The cached transition row (fixed, tests, c_s, a_s, L_s, k) of a binary state mask.

        fixed is the next state's mask with the tested bits and the input units
        cleared; a binary target j with an analog weight is tested instead:
        (1 << j-1, c_j, a_j) in tests, it fires iff c_j + a_j*y >= 0 at analog
        value y. The analog unit has sum c_s, weight a_s and scale L_s, and k
        = |a_s|*L_s bounds the factors its update cancels. All rows are
        cleared when they would pass ROW_CACHE_BITS.
        """
        rows = self._rows
        row = rows.get(mask)
        if row is None:
            if mask >> (self.size - 1) != 1:
                raise ValidationError("binary state %r does not have %d units" % (unpack(mask), self.size - 1))
            if (len(rows) + 1) * (self.size - 1) > ROW_CACHE_BITS:
                rows.clear()
            plan = self._plan
            acc, fixed, rest = list(plan.bias), plan.fires, mask ^ 1 << (self.size - 1)  # set bits, no sentinel
            reached = []
            while rest:
                low = rest & -rest
                rest ^= low
                for j, w in plan.out_edges.get(low.bit_length(), ()):
                    acc[j] += w
                reached += plan.free_edges.get(low.bit_length(), ())
            for j, bit in reached:  # only a target some active unit reaches can differ from fires
                if acc[j] >= 0:
                    fixed |= bit
                else:
                    fixed &= ~bit
            tests = tuple((1 << (j - 1), acc[j], a) for j, a in plan.tested)
            row = rows[mask] = (fixed, tests, acc[self.size], plan.analog_weight, plan.analog_scale, plan.analog_bound)
        return row

    @cached_property
    def _plan(self) -> "_StepPlan":
        """The step plan, built on the first row build: a network that never steps builds none."""
        return _StepPlan.build(self)


@dataclass(frozen=True)
class _StepPlan:
    """Target j's weights times L_j, the lcm of their denominators, as ints.

    tested lists, by unit, every binary target with an analog weight that is
    not an input unit; the analog unit's own weight a_s = analog_weight may be
    0, analog_scale is L_s and analog_bound is |a_s|*L_s. The other binary
    targets that are not input units are free: fires is the mask, sentinel
    included, of the free targets whose bias alone fires them, and
    free_edges[i] lists (j, 1 << j-1) for each free target j of source i.
    """

    bias: tuple[int, ...]
    out_edges: Mapping[int, tuple[tuple[int, int], ...]]
    tested: tuple[tuple[int, int], ...]
    analog_weight: int
    analog_scale: int
    analog_bound: int
    fires: int
    free_edges: Mapping[int, tuple[tuple[int, int], ...]]

    @staticmethod
    def build(net: Network) -> "_StepPlan":
        s = net.size
        scale = [1] * (s + 1)
        for (j, _), w in net.weights.items():
            scale[j] = lcm(scale[j], w.denominator)
        bias = [0] * (s + 1)
        out: dict[int, list] = {i: [] for i in range(1, s)}
        analog_in = {s: 0}
        for (j, i), w in net.weights.items():
            v = w.numerator * (scale[j] // w.denominator)
            if i == 0:
                bias[j] = v
            elif i == s:
                analog_in[j] = v
            else:
                out[i].append((j, v))
        edges = {i: tuple(v) for i, v in out.items() if v}
        tested = tuple(sorted((j, a) for j, a in analog_in.items() if j != s and j not in net.input_units))
        free = set(range(1, s)).difference(net.input_units, analog_in)
        fires = pack([j in free and bias[j] >= 0 for j in range(1, s)])
        free_edges = {i: tuple((j, 1 << (j - 1)) for j, _ in v if j in free) for i, v in edges.items()}
        bound = abs(analog_in[s]) * scale[s]
        return _StepPlan(tuple(bias), edges, tested, analog_in[s], scale[s], bound, fires, free_edges)


# -- symbolic stepping ---------------------------------------------------
#
# With the binary state fixed a step is affine in the analog value, so a run
# from an unknown analog value y in [0, 1] can be followed exactly: the analog
# value stays (an + bn*y)/d on a piece of the y range, and a piece splits where
# a tested unit's excitation or the analog unit's saturation changes sign.
# _step_symbolic is the one step update, on integers only: Network.step is its
# constant branch (bn = 0, piece [0, 1]), and the fire-state search and
# protocol.symbolic_row, which serves both the refined partition and the
# protocol's segment table, step through it from y in [0, 1]:
#
# - a piece is (ln, ld, ls, hn, hd, hs), the interval from ln/ld to hn/hd with
#   ld, hd > 0, ls and hs 1 at an open end and 0 at a closed one, so y = p/q
#   (q > 0) lies in it iff p*ld - ln*q >= ls and hn*q - p*hd >= hs;
# - a half-line is (vn, vd, b), vd > 0: y >= vn/vd when b is -1, y <= vn/vd
#   when b is +1, as in HalfLinePair;
# - a branch is (piece, bits, an, bn, d): concrete bits as a state mask and
#   the analog value (an + bn*y)/d, d > 0 and gcd(an, bn, d) = 1.

_UNIT = (0, 1, 0, 1, 1, 0)  # [0, 1]


class Part:
    """A protocol state's binary part (mask, since, pending), interned in a segment table; it hashes by identity.

    triple is (mask, since, pending), which names the part across clears of the table. feeds maps a key
    (a unit, None for the drain, or a tuple of units) to the pieces protocol learned for it.
    """

    __slots__ = ("mask", "since", "pending", "triple", "feeds")

    def __init__(self, mask: int, since: int, pending: tuple[int, ...]) -> None:
        self.mask, self.since, self.pending, self.feeds = mask, since, pending, {}
        self.triple = (mask, since, pending)


class _Segments(dict):
    """A network's segment table: binary part (mask, since, pending) -> its Part, interned on first use."""

    pieces = 0  # held in all interned parts; protocol bounds it

    def __missing__(self, triple: tuple) -> Part:
        part = self[triple] = Part(*triple)
        return part


def _split(piece: tuple, line: tuple) -> tuple[tuple | None, tuple | None]:
    """The parts of piece inside and outside the half-line, None where empty."""
    ln, ld, ls, hn, hd, hs = piece
    vn, vd, b = line
    if b == -1:  # inside [v, +inf), outside (-inf, v)
        inside = _interval(vn, vd, 0, hn, hd, hs) if vn * ld > ln * vd else piece
        outside = _interval(ln, ld, ls, vn, vd, 1) if vn * hd <= hn * vd else piece
    else:  # inside (-inf, v], outside (v, +inf)
        inside = _interval(ln, ld, ls, vn, vd, 0) if vn * hd < hn * vd else piece
        outside = _interval(vn, vd, 1, hn, hd, hs) if vn * ld >= ln * vd else piece
    return inside, outside


def _interval(ln: int, ld: int, ls: int, hn: int, hd: int, hs: int) -> tuple | None:
    """The piece from ln/ld to hn/hd, None when it is empty."""
    c = hn * ld - ln * hd
    if c > 0 or (c == 0 and not (ls or hs)):
        return ln, ld, ls, hn, hd, hs
    return None


def _line(n: int, m: int, b: int) -> tuple:
    """The half-line where n + m*y >= 0 (b = -1) or <= 0 (b = +1), m != 0, in lowest terms."""
    g = gcd(n, m)
    return (-n // g, m // g, b) if m > 0 else (n // g, -m // g, -b)


def _step_symbolic(net, br: tuple, clamp) -> list[tuple]:
    """The successor branches of one synchronous step of br, on the network's transition row.

    A tested target's excitation times L_j*d is n + m*y with n = c_j*d +
    a_j*an (c_j its binary sum, a_j its analog weight) and m = a_j*bn. The
    piece splits on the half-line where a tested unit fires, and on those
    where the analog unit saturates at 0 (n + m*y <= 0) and at 1 (n + m*y >=
    L_s*d). A successor's piece has a new end only where such a half-line cut
    its piece in two. clamp maps input units to their states, as Network.step's
    inputs_next, and may be None.

    The constant branch (bn = 0, or a_s = 0) has one value. With a_s = 0 it
    is c_s/L_s, small. Otherwise it is n/(L_s*d), clamped first, and an/d is
    in lowest terms. So G = gcd(n, L_s*d), which divides gcd(n, L_s)*gcd(n, d)
    with gcd(n, d) = gcd(a_s*an, d) = gcd(a_s, d), divides k = |a_s|*L_s,
    the row's last entry: G = gcd(n % k, k, L_s*d % k), at most two mods by
    a small int, and nothing more when G is 1. When G divides L_s, c_s and
    a_s, the reduced pair is ((c_s/G)*d + (a_s/G)*an, (L_s/G)*d), products
    only; otherwise n and L_s*d are divided by G. On long operands a mod or
    a division by a one-limb int costs about 4 to 7 times a product by one,
    and even // 1 is not free.
    """
    piece, bits, an, bn, d = br
    try:  # _row is called only to build a missing row
        fixed, tests, c_s, w, scale, k = net._rows[bits]
    except KeyError:
        fixed, tests, c_s, w, scale, k = net._row(bits)
    if clamp:
        for u, v in clamp.items():
            if u not in net.input_units:
                raise ValidationError("unit %d is not an input unit" % u)
            if v:
                fixed |= 1 << (u - 1)
    parts: list[tuple[tuple, int]] = [(piece, 0)]  # the tested bits each part adds to fixed
    for bit, c, a in tests:
        n, m = c * d + a * an, a * bn
        if m == 0:
            if n >= 0:
                fixed |= bit
            continue
        fire = _line(n, m, -1)
        split: list[tuple[tuple, int]] = []
        for part, mask in parts:
            on, off = _split(part, fire)
            if on is not None and off is not None:
                split += [(on, mask | bit), (off, mask)]
            else:
                split.append((part, mask | bit if on is not None else mask))
        parts = split

    if not w:  # the value is c_s/L_s whatever y is
        g = gcd(c_s, scale)
        n, d = (0, 1) if c_s <= 0 else (1, 1) if c_s >= scale else (c_s // g, scale // g)
        return [(part, fixed | mask, n, 0, d) for part, mask in parts]
    n, m, den = c_s * d + w * an, w * bn, scale * d
    if m == 0:  # bn = 0, so an/d is in lowest terms and G = gcd(n, L_s*d) divides k = |a_s|*L_s
        if n <= 0:
            n, den = 0, 1
        elif n >= den:
            n, den = 1, 1
        else:
            g = gcd(n % k, k)
            if g != 1 and (g := gcd(g, den % k)) != 1:
                if scale % g or c_s % g or w % g:
                    n, den = n // g, den // g
                else:  # products with the small quotients cost less than dividing the long ones
                    n, den = c_s // g * d + w // g * an, scale // g * d
        return [(part, fixed | mask, n, 0, den) for part, mask in parts]
    dead_line, full_line = _line(n, m, 1), _line(n - den, m, -1)
    g = gcd(n, m, den)
    mid_n, mid_m, mid_d = n // g, m // g, den // g
    successors: list[tuple] = []
    for part, mask in parts:
        mask |= fixed
        dead, rest = _split(part, dead_line)
        full, mid = _split(rest, full_line) if rest is not None else (None, None)
        if dead is not None:
            successors.append((dead, mask, 0, 0, 1))
        if mid is not None:
            successors.append((mid, mask, mid_n, mid_m, mid_d))
        if full is not None:
            successors.append((full, mask, 1, 0, 1))
    return successors


# -- wire format ---------------------------------------------------------

FORMAT_MAGIC = "anet v1"
_HEADER_KEYS = ("size", "analog", "inputs", "nxt", "out", "delta", "outdelay", "init", "inita")


def network_to_text(net: Network) -> str:
    """The network in the line-oriented v1 format, weights in canonical order."""
    lines = [FORMAT_MAGIC]
    if net.comment:  # the appended newline keeps a trailing empty comment line
        lines += ["# " + line for line in (net.comment + "\n").splitlines()]
    lines += [
        "size %d" % net.size,
        "analog %d" % net.size,
        "inputs " + " ".join(map(str, net.input_units)),
        "nxt %d" % net.nxt,
        "out %d" % net.out,
        "delta %d" % net.delta,
        "outdelay %d" % net.output_delay,
    ]
    if net.init_active is not None:
        lines.append("init " + " ".join(map(str, net.init_active)))
    if net.init_analog != 0:
        lines.append("inita " + format_rational(net.init_analog))
    lines += ["w %d %d %s" % (j, i, format_rational(w)) for (j, i), w in sorted(net.weights.items())]
    lines.append("")
    return "\n".join(lines)


def save_network(net: Network, fp: TextIO) -> None:
    fp.write(network_to_text(net))


def save_network_path(net: Network, path: str) -> None:
    """Write the network's text to path, rendered before path is opened: a DigitLimitError leaves path as it was."""
    text = network_to_text(net)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)


def load_network(fp: TextIO) -> Network:
    return network_from_text(fp.read())


def load_network_path(path: str) -> Network:
    return network_from_text(read_text(path))


def read_text(path: str) -> str:
    """The text of a UTF-8 file; other bytes are a ValidationError naming the file."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return fp.read()
        except UnicodeDecodeError as exc:
            raise ValidationError("%s is not UTF-8 text: %s" % (path, exc)) from None


def network_from_text(text: str) -> Network:
    """Read the v1 format: the magic line, the header keys, the int fields and analog == size are
    checked here, every other rule by make_network and Network."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_MAGIC:
        raise ValidationError("not a %r file" % FORMAT_MAGIC)
    fields: dict[str, str] = {}
    weights: list[tuple[int, int, Fraction]] = []
    comment_lines: list[str] = []
    for raw in lines[1:]:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment_lines.append(line[1:].strip())
            continue
        key, _, rest = line.partition(" ")
        if key == "w":
            parts = rest.split()
            if len(parts) != 3:
                raise ValidationError("bad weight line %r" % raw)
            j, i = _int_field("weight target", parts[0]), _int_field("weight source", parts[1])
            weights.append((j, i, parse_rational(parts[2])))
        else:
            if key not in _HEADER_KEYS:
                raise ValidationError("unknown header line %r" % key[:40])
            if key in fields:
                raise ValidationError("duplicate header line %r" % key)
            fields[key] = rest.strip()
    try:
        size = _int_field("size", fields["size"])
        analog = _int_field("analog", fields["analog"])
        inputs = [_int_field("inputs", x) for x in fields["inputs"].split()]
        nxt = _int_field("nxt", fields["nxt"])
        out = _int_field("out", fields["out"])
        delta = _int_field("delta", fields["delta"])
        outdelay = _int_field("outdelay", fields.get("outdelay", "0"))
    except KeyError as exc:
        raise ValidationError("missing header line %s" % exc) from None
    init_active = None
    if "init" in fields:
        init_active = [_int_field("init", x) for x in fields["init"].split()]
    net = make_network(
        size,
        inputs,
        nxt,
        out,
        delta,
        weights,
        output_delay=outdelay,
        init_active=init_active,
        init_analog=parse_rational(fields["inita"]) if "inita" in fields else ZERO,
        comment="\n".join(comment_lines),
    )
    if analog != size:
        raise ValidationError("analog unit must be the highest index (%d != %d)" % (analog, size))
    return net


def _int_field(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError("%s: %r is not an integer" % (name, text[:40])) from None


def make_network(
    size: int,
    inputs: Sequence[int],
    nxt: int,
    out: int,
    delta: int,
    weights: Iterable[tuple[int, int, RationalLike]],
    output_delay: int = 0,
    init_active: Sequence[int] | None = None,
    init_analog: Fraction = ZERO,
    comment: str = "",
) -> Network:
    """Convenience constructor from (target, source, weight) triples.

    Each weight is read by rational(), so a float is refused. A (target,
    source) pair given twice is refused, even when one is zero.
    """
    table: dict[tuple[int, int], Fraction] = {}
    for j, i, w in weights:
        if (j, i) in table:
            raise ValidationError("duplicate weight (%d,%d)" % (j, i))
        table[(j, i)] = rational(w)
    return Network(
        size=size,
        input_units=inputs,
        nxt=nxt,
        out=out,
        delta=delta,
        output_delay=output_delay,
        weights=table,
        init_active=init_active,
        init_analog=init_analog,
        comment=comment,
    )
