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
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, TextIO

from .errors import ResourceBudgetError, ValidationError
from .rationals import ZERO, ONE, HalfLinePair, Interval, format_rational, parse_rational


# Fraction from a numerator and a positive denominator already in lowest
# terms, without the constructor's gcd (the keyword is Python 3.10/3.11's).
_coprime = getattr(Fraction, "_from_coprime_ints", None) or partial(Fraction, _normalize=False)

# Transition rows kept per network, counted as rows times (size - 1) bits:
# 16 rows at NETWORK_SIZE_LIMIT units.
ROW_CACHE_BITS = 2**20


def saturation(xi: Fraction) -> Fraction:
    """Analog activation: identity clipped to [0, 1]."""
    if xi <= 0:
        return ZERO
    if xi >= 1:
        return ONE
    return xi


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
    The weights are frozen into a read-only copy, since the cached step plan,
    the transition rows and the protocol's feed memo and segment table are
    derived from them.
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
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))

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
        """
        state, p, q = cfg
        try:
            mask, tests, c_s, a_s, scale = self.__dict__["_rows"][state]
        except KeyError:
            mask, tests, c_s, a_s, scale = self._row(state)
        for bit, c, a in tests:  # with analog value p/q, excitation times L_j * q
            if c * q + a * p >= 0:
                mask |= bit
        if inputs_next:
            for u, v in inputs_next.items():
                if u not in self.input_units:
                    raise ValidationError("unit %d is not an input unit" % u)
                if v:
                    mask |= 1 << (u - 1)

        g = gcd(a_s, q)  # gcd(p, q) = 1, so gcd(num, q) = gcd(a_s, q)
        num, den = (c_s * q + a_s * p) // g, q // g
        if num <= 0:
            num, den = 0, 1
        elif num >= scale * den:
            num, den = 1, 1
        else:  # num is now coprime to den, so only the small scale shares factors
            g = gcd(num, scale)
            num, den = num // g, scale // g * den
        return tuple.__new__(Configuration, (mask, num, den))

    # -- transition rows and the step plan (cached, derived only from weights)

    def _row(self, mask: int) -> tuple:
        """The cached transition row (fixed, tests, c_s, a_s, L_s) of a binary state mask.

        fixed is the next state's mask with the tested bits and the input units
        cleared; a binary target j with an analog weight is tested instead:
        (1 << j-1, c_j, a_j) in tests, it fires iff c_j + a_j*y >= 0 at analog
        value y. The analog unit has sum c_s, weight a_s and scale L_s. All rows
        are cleared when they would pass ROW_CACHE_BITS.
        """
        rows = self.__dict__.setdefault("_rows", {})
        row = rows.get(mask)
        if row is None:
            if mask >> (self.size - 1) != 1:
                raise ValidationError("binary state %r does not have %d units" % (unpack(mask), self.size - 1))
            if (len(rows) + 1) * (self.size - 1) > ROW_CACHE_BITS:
                rows.clear()
            plan = self.__dict__.get("_plan_cache")
            if plan is None:
                plan = self.__dict__["_plan_cache"] = _StepPlan.build(self)
            acc = plan.binary_sums(mask)
            fixed = pack([x >= 0 for x in acc[1 : self.size]])
            for u in (*self.input_units, *(j for j, _ in plan.tested)):
                fixed &= ~(1 << (u - 1))
            tests = tuple((1 << (j - 1), acc[j], a) for j, a in plan.tested)
            row = rows[mask] = (fixed, tests, acc[self.size], plan.analog_weight, plan.analog_scale)
        return row

    # -- validation -------------------------------------------------------

    def violations(self) -> list[str]:
        """Structural problems, empty when the network is well formed."""
        bad: list[str] = []
        s = self.size
        if s < 2:
            bad.append("size must be at least 2 (one binary unit plus the analog unit)")
            return bad
        binary = range(1, s)
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
        if self.init_active is not None:
            for j in self.init_active:
                if j not in binary:
                    bad.append("initial active unit %d is not a binary unit index" % j)
        if self.init_analog < ZERO or self.init_analog > ONE:
            bad.append("initial analog value outside [0,1]")
        return bad

    def require_valid(self) -> "Network":
        bad = self.violations()
        if bad:
            raise ValidationError("invalid network: " + "; ".join(bad))
        return self


@dataclass(frozen=True)
class _StepPlan:
    """Target j's weights times L_j, the lcm of their denominators, as ints.

    tested lists, by unit, every binary target with an analog weight that is
    not an input unit; the analog unit's own weight a_s = analog_weight may be
    0, and analog_scale is L_s.
    """

    bias: tuple[int, ...]
    out_edges: Mapping[int, tuple[tuple[int, int], ...]]
    tested: tuple[tuple[int, int], ...]
    analog_weight: int
    analog_scale: int

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
            if w == 0:
                continue
            v = w.numerator * (scale[j] // w.denominator)
            if i == 0:
                bias[j] = v
            elif i == s:
                analog_in[j] = v
            else:
                out[i].append((j, v))
        edges = {i: tuple(v) for i, v in out.items() if v}
        tested = tuple(sorted((j, a) for j, a in analog_in.items() if j != s and j not in net.input_units))
        return _StepPlan(tuple(bias), edges, tested, analog_in[s], scale[s])

    def binary_sums(self, mask: int) -> list[int]:
        """Per target j, L_j times its bias plus its weights from the active binary units.

        mask holds the states of units 1..size-1; the analog term is the caller's.
        """
        acc, rest = list(self.bias), mask ^ 1 << (mask.bit_length() - 1)  # set bits, no sentinel
        while rest:
            low = rest & -rest
            rest ^= low
            for j, w in self.out_edges.get(low.bit_length(), ()):
                acc[j] += w
        return acc


# -- symbolic stepping ---------------------------------------------------
#
# With the binary state fixed a step is affine in the analog value, so a run
# from an unknown analog value y in [0, 1] can be followed exactly: the analog
# value stays a + b*y on a piece of the y range, and a piece splits where a
# tested unit's excitation or the analog unit's saturation changes sign. The
# refined partition, the fire-state search and the protocol's segment table
# all step through _step_symbolic.


@dataclass
class _Branch:
    """One piece of a symbolic run: concrete bits as a state mask, analog value a + b*y."""

    piece: Interval
    bits: int
    a: Fraction
    b: Fraction
    fed: int = 0
    since: int = 0  # steps since the last query instant, or since the start
    left: int = 0  # steps until the last fed symbol's verdict is read


_UNIT = Interval(ZERO, ONE, True, True)


def _split(piece: Interval, line: HalfLinePair) -> tuple[Interval | None, Interval | None]:
    """The parts of piece inside and outside the half-line, None where empty."""
    v, lo, hi = line.a, piece.lo, piece.hi
    if line.b == -1:  # inside [v, +inf), outside (-inf, v)
        inside = _interval(v, True, hi, piece.hi_closed) if v > lo else piece
        outside = _interval(lo, piece.lo_closed, v, False) if v <= hi else piece
    else:  # inside (-inf, v], outside (v, +inf)
        inside = _interval(lo, piece.lo_closed, v, True) if v < hi else piece
        outside = _interval(v, False, hi, piece.hi_closed) if v >= lo else piece
    return inside, outside


def _interval(lo: Fraction, lo_closed: bool, hi: Fraction, hi_closed: bool) -> Interval | None:
    if lo < hi or (lo == hi and lo_closed and hi_closed):
        return Interval(lo, hi, lo_closed, hi_closed)
    return None


def _cut(
    piece: Interval, line: HalfLinePair, pairs: set[HalfLinePair]
) -> tuple[Interval | None, Interval | None]:
    """_split, recording the half-line when it cuts the piece in two."""
    inside, outside = _split(piece, line)
    if inside is not None and outside is not None:
        pairs.add(line)
    return inside, outside


def _step_symbolic(net, br: _Branch, clamp, stack, pairs) -> None:
    """Push the successors of one synchronous step of br, on the network's transition row.

    With br.a = pa/qa and br.b = pb/qb, a tested target's excitation times
    L_j is c + d*y with c = n/qa, n = c_j*qa + a_j*pa (c_j its binary sum,
    a_j its analog weight) and d = m/qb, m = a_j*pb. The piece splits on the
    half-line where a tested unit fires, and on those where the analog unit
    saturates at 0 (c + d*y <= 0) and at 1 (c + d*y >= L_s).
    """
    try:  # read like Network.step: _row is called only to build a missing row
        fixed, tests, c_s, w, scale = net.__dict__["_rows"][br.bits]
    except KeyError:
        fixed, tests, c_s, w, scale = net._row(br.bits)
    pa, qa = br.a.as_integer_ratio()
    pb, qb = br.b.as_integer_ratio()
    for u, v in clamp.items():
        if u not in net.input_units:
            raise ValidationError("unit %d is not an input unit" % u)
        fixed |= v << (u - 1)
    parts: list[tuple[Interval, int]] = [(br.piece, fixed)]
    for bit, c, a in tests:
        n, m = c * qa + a * pa, a * pb
        if m == 0:
            if n >= 0:
                parts = [(piece, bits | bit) for piece, bits in parts]
            continue
        fire = HalfLinePair(Fraction(-n * qb, qa * m), -1 if m > 0 else 1)
        split: list[tuple[Interval, int]] = []
        for piece, bits in parts:
            on, off = _cut(piece, fire, pairs)
            if on is not None and off is not None:
                split += [(on, bits | bit), (off, bits)]
            else:
                split.append((piece, bits | bit if on is not None else bits))
        parts = split

    n, m = c_s * qa + w * pa, w * pb
    if clamp:
        clock = (br.fed + 1, 0, net.output_delay)
    else:
        clock = (br.fed, br.since + 1, br.left - 1)
    if m == 0:
        value = saturation(Fraction(n, qa * scale))
    else:
        dead_line = HalfLinePair(Fraction(-n * qb, qa * m), 1 if m > 0 else -1)
        full_line = HalfLinePair(Fraction((scale * qa - n) * qb, qa * m), -1 if m > 0 else 1)
        mid_a, mid_b = Fraction(n, qa * scale), Fraction(m, qb * scale)
    for piece, bits in parts:
        if m == 0:
            regions = [(piece, value, ZERO)]
        else:
            dead, rest = _cut(piece, dead_line, pairs)
            full, mid = _cut(rest, full_line, pairs) if rest is not None else (None, None)
            regions = [(dead, ZERO, ZERO), (mid, mid_a, mid_b), (full, ONE, ZERO)]
        for region, a, b in regions:
            if region is not None:
                stack.append(_Branch(region, bits, a, b, *clock))


# -- wire format ---------------------------------------------------------

FORMAT_MAGIC = "anet v1"
_HEADER_KEYS = ("size", "analog", "inputs", "nxt", "out", "delta", "outdelay", "init", "inita")

# Largest size a network file may declare: the tests and the benchmark stay in the
# hundreds, and a reduction grows by about 14 units per letter of its words.
NETWORK_SIZE_LIMIT = 2**16


def save_network(net: Network, fp: TextIO) -> None:
    """Serialize in the line-oriented v1 format; weight order is canonical."""
    fp.write(FORMAT_MAGIC + "\n")
    if net.comment:
        for line in net.comment.splitlines():
            fp.write("# %s\n" % line)
    fp.write("size %d\n" % net.size)
    fp.write("analog %d\n" % net.size)
    fp.write("inputs %s\n" % " ".join(str(u) for u in net.input_units))
    fp.write("nxt %d\n" % net.nxt)
    fp.write("out %d\n" % net.out)
    fp.write("delta %d\n" % net.delta)
    fp.write("outdelay %d\n" % net.output_delay)
    if net.init_active is not None:
        fp.write("init %s\n" % " ".join(str(u) for u in net.init_active))
    if net.init_analog != 0:
        fp.write("inita %s\n" % format_rational(net.init_analog))
    for (j, i) in sorted(net.weights):
        w = net.weights[(j, i)]
        if w != 0:
            fp.write("w %d %d %s\n" % (j, i, format_rational(w)))


def save_network_path(net: Network, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        save_network(net, fp)


def network_to_text(net: Network) -> str:
    import io

    buf = io.StringIO()
    save_network(net, buf)
    return buf.getvalue()


def load_network(fp: TextIO) -> Network:
    return network_from_text(fp.read())


def load_network_path(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as fp:
        return load_network(fp)


def network_from_text(text: str) -> Network:
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_MAGIC:
        raise ValidationError("not a %r file" % FORMAT_MAGIC)
    fields: dict[str, str] = {}
    weights: dict[tuple[int, int], Fraction] = {}
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
            w = parse_rational(parts[2])
            if (j, i) in weights:
                raise ValidationError("duplicate weight (%d,%d)" % (j, i))
            weights[(j, i)] = w
        else:
            if key not in _HEADER_KEYS:
                raise ValidationError("unknown header line %r" % key[:40])
            if key in fields:
                raise ValidationError("duplicate header line %r" % key)
            fields[key] = rest.strip()
    try:
        size = _int_field("size", fields["size"])
        if size > NETWORK_SIZE_LIMIT:
            raise ResourceBudgetError("size %d exceeds the limit of %d units" % (size, NETWORK_SIZE_LIMIT))
        analog = _int_field("analog", fields["analog"])
        inputs = tuple(_int_field("inputs", x) for x in fields["inputs"].split())
        nxt = _int_field("nxt", fields["nxt"])
        out = _int_field("out", fields["out"])
        delta = _int_field("delta", fields["delta"])
        outdelay = _int_field("outdelay", fields.get("outdelay", "0"))
    except KeyError as exc:
        raise ValidationError("missing header line %s" % exc) from None
    if analog != size:
        raise ValidationError("analog unit must be the highest index (%d != %d)" % (analog, size))
    init_active = None
    if "init" in fields:
        init_active = tuple(_int_field("init", x) for x in fields["init"].split())
    init_analog = parse_rational(fields["inita"]) if "inita" in fields else ZERO
    net = Network(
        size=size,
        input_units=inputs,
        nxt=nxt,
        out=out,
        delta=delta,
        output_delay=outdelay,
        weights=weights,
        init_active=init_active,
        init_analog=init_analog,
        comment="\n".join(comment_lines),
    )
    return net.require_valid()


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
    weights: Iterable[tuple[int, int, Fraction]],
    output_delay: int = 0,
    init_active: Sequence[int] | None = None,
    init_analog: Fraction = ZERO,
    comment: str = "",
) -> Network:
    """Convenience constructor from (target, source, weight) triples; validates.

    A (target, source) pair given twice is refused, zero weights are dropped.
    """
    table: dict[tuple[int, int], Fraction] = {}
    for j, i, w in weights:
        if (j, i) in table:
            raise ValidationError("duplicate weight (%d,%d)" % (j, i))
        table[(j, i)] = Fraction(w)
    net = Network(
        size=size,
        input_units=tuple(inputs),
        nxt=nxt,
        out=out,
        delta=delta,
        output_delay=output_delay,
        weights={key: w for key, w in table.items() if w != 0},
        init_active=tuple(init_active) if init_active is not None else None,
        init_analog=init_analog,
        comment=comment,
    )
    return net.require_valid()
