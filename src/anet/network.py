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
from .rationals import ZERO, ONE, RationalLike, format_rational, parse_rational, rational


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
    An instance is well formed however it was built: construction refuses
    a malformed network with ValidationError. The nonzero weights are frozen
    into a read-only copy, since the cached step plan, the transition rows
    and the protocol's feed memo and segment table are derived from them.
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
        """Refuse a malformed network, then freeze its nonzero weights.

        The unit lists are copied into tuples first. Every given weight is
        checked, zero or not; the zero ones are then dropped, so equal
        networks have equal weight mappings.
        """
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
# value stays (an + bn*y)/d on a piece of the y range, and a piece splits where
# a tested unit's excitation or the analog unit's saturation changes sign. The
# refined partition, the fire-state search and the protocol's segment table
# all step through _step_symbolic, on integers only:
#
# - a piece is (ln, ld, ls, hn, hd, hs), the interval from ln/ld to hn/hd with
#   ld, hd > 0, ls and hs 1 at an open end and 0 at a closed one, so y = p/q
#   (q > 0) lies in it iff p*ld - ln*q >= ls and hn*q - p*hd >= hs;
# - a half-line is (vn, vd, b), vd > 0: y >= vn/vd when b is -1, y <= vn/vd
#   when b is +1, as in HalfLinePair;
# - a branch is (piece, bits, an, bn, d): concrete bits as a state mask and
#   the analog value (an + bn*y)/d, d > 0 and gcd(an, bn, d) = 1.

_UNIT = (0, 1, 0, 1, 1, 0)  # [0, 1]


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
    its piece in two.
    """
    piece, bits, an, bn, d = br
    try:  # read like Network.step: _row is called only to build a missing row
        fixed, tests, c_s, w, scale = net.__dict__["_rows"][bits]
    except KeyError:
        fixed, tests, c_s, w, scale = net._row(bits)
    for u, v in clamp.items():
        if u not in net.input_units:
            raise ValidationError("unit %d is not an input unit" % u)
        fixed |= v << (u - 1)
    parts: list[tuple[tuple, int]] = [(piece, fixed)]
    for bit, c, a in tests:
        n, m = c * d + a * an, a * bn
        if m == 0:
            if n >= 0:
                parts = [(part, mask | bit) for part, mask in parts]
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

    n, m, den = c_s * d + w * an, w * bn, scale * d
    if m == 0:
        if n <= 0:
            n, den = 0, 1
        elif n >= den:
            n, den = 1, 1
        else:
            g = gcd(n, den)
            n, den = n // g, den // g
        return [(part, mask, n, 0, den) for part, mask in parts]
    dead_line, full_line = _line(n, m, 1), _line(n - den, m, -1)
    g = gcd(n, m, den)
    mid_n, mid_m, mid_d = n // g, m // g, den // g
    successors: list[tuple] = []
    for part, mask in parts:
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

# Largest size a network file may declare: the tests and the benchmark stay in the
# hundreds, and a reduction grows by about 14 units per letter of its words.
NETWORK_SIZE_LIMIT = 2**16

# Largest query gap bound (delta) and output delay a network file may declare: a
# run may step that many instants between two queries or before a verdict.
NETWORK_DELAY_LIMIT = 2**16


def save_network(net: Network, fp: TextIO) -> None:
    """Serialize in the line-oriented v1 format; weight order is canonical."""
    fp.write(FORMAT_MAGIC + "\n")
    if net.comment:  # the appended newline keeps a trailing empty comment line
        for line in (net.comment + "\n").splitlines():
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
    for (j, i), w in sorted(net.weights.items()):
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
    return network_from_text(read_text(path))


def read_text(path: str) -> str:
    """The text of a UTF-8 file; other bytes are a ValidationError naming the file."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            return fp.read()
        except UnicodeDecodeError as exc:
            raise ValidationError("%s is not UTF-8 text: %s" % (path, exc)) from None


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
        for name, steps in (("delta", delta), ("outdelay", outdelay)):
            if steps > NETWORK_DELAY_LIMIT:
                raise ResourceBudgetError("%s %d exceeds the limit of %d steps" % (name, steps, NETWORK_DELAY_LIMIT))
    except KeyError as exc:
        raise ValidationError("missing header line %s" % exc) from None
    if analog != size:
        raise ValidationError("analog unit must be the highest index (%d != %d)" % (analog, size))
    init_active = None
    if "init" in fields:
        init_active = tuple(_int_field("init", x) for x in fields["init"].split())
    init_analog = parse_rational(fields["inita"]) if "inita" in fields else ZERO
    return Network(
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
