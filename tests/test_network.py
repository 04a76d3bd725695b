import copy
import dataclasses
import io
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from anet import network, protocol
from anet.cutlang import build_cut_acceptor, cut_params
from anet.errors import AnetError, ResourceBudgetError, ValidationError
from anet.network import (
    NETWORK_SIZE_LIMIT,
    Configuration,
    Network,
    load_network,
    make_network,
    network_from_text,
    network_to_text,
    save_network,
)
from anet.rationals import format_rational
from conftest import _at_digit_limit, make_skeleton_net, probe_verdict


def heaviside(xi: Fraction) -> int:
    """Reference binary activation: fires exactly when the excitation is nonnegative."""
    return 1 if xi >= 0 else 0


def saturation(xi: Fraction) -> Fraction:
    """Reference analog activation: the identity clipped to [0, 1]."""
    return min(max(xi, Fraction(0)), Fraction(1))


def test_heaviside_fires_at_zero():
    assert heaviside(Fraction(0)) == 1
    assert heaviside(Fraction(1, 1000)) == 1
    assert heaviside(Fraction(-1, 1000)) == 0


def test_saturation_clips():
    assert saturation(Fraction(-3)) == 0
    assert saturation(Fraction(1, 3)) == Fraction(1, 3)
    assert saturation(Fraction(7, 2)) == 1
    assert saturation(Fraction(0)) == 0
    assert saturation(Fraction(1)) == 1


def _tiny_net():
    return make_network(
        3,
        (2,),
        nxt=1,
        out=1,
        delta=1,
        weights=[
            (1, 0, Fraction(0)),
            (3, 3, Fraction(1, 2)),
            (3, 2, Fraction(1, 4)),
        ],
    )


def test_unit_with_no_incoming_weights_fires_every_step():
    # H(0) = 1: an empty excitation sum means a permanently firing unit
    net = _tiny_net()
    cfg = net.initial_configuration()
    for _ in range(4):
        cfg = net.step(cfg)
        assert cfg.unit(1) == 1


def test_input_units_are_forced_to_zero_without_a_clamp():
    net = _tiny_net()
    cfg = Configuration((0, 1), Fraction(1, 2))
    nxt = net.step(cfg)
    assert nxt.unit(2) == 0
    clamped = net.step(cfg, {2: 1})
    assert clamped.unit(2) == 1
    # an input unit that its weights would fire, the analog one included, stays off
    fed = make_network(3, (2,), nxt=1, out=1, delta=1, weights=[(2, 0, Fraction(1)), (2, 3, Fraction(1))])
    assert fed.step(cfg).unit(2) == 0 and fed.step(cfg, {2: 1}).unit(2) == 1


def test_analog_unit_integrates_and_clips():
    # excitations read the pre-state; a clamp lands in the post-state and
    # feeds the analog sum one step later
    net = _tiny_net()
    cfg = Configuration((0, 0), Fraction(1, 2))
    cfg = net.step(cfg, {2: 1})
    assert cfg.analog == Fraction(1, 4)
    assert cfg.unit(2) == 1
    cfg = net.step(cfg)
    assert cfg.analog == Fraction(3, 8)  # 1/2 * 1/4 + 1/4 * 1
    for _ in range(20):
        cfg = net.step(cfg)
    assert cfg.analog == Fraction(3, 8) / 2 ** 20


def test_initial_configuration_defaults():
    net = _tiny_net()
    cfg = net.initial_configuration()
    assert cfg.binary == (1, 0)  # nxt active by default
    assert cfg.analog == 0


# -- Configuration: the tuple (binary, p, q), a Fraction only when read -------


def test_constructed_and_stepped_states_are_equal():
    net = _tiny_net()
    three_quarters = net.step(Configuration((0, 1), 1))  # 1/2 * 1 + 1/4 * 1
    zero = net.step(Configuration((0, 0), Fraction(0)))
    for stepped, built in (
        (three_quarters, Configuration((1, 0), Fraction(6, 8))),
        (zero, Configuration([1, 0], 0)),
    ):
        assert built == stepped and hash(built) == hash(stepped)
        assert_canonical(built.analog)
        assert_canonical(stepped.analog)
    assert tuple(three_quarters) == (0b101, 3, 4)  # unit 1 on, unit 2 off, the sentinel
    assert zero != three_quarters


def test_configuration_reads_units_and_copies():
    cfg = Configuration((1, 0), Fraction(6, 8))
    assert cfg.binary == (1, 0)
    assert cfg.analog == Fraction(3, 4)
    assert (cfg.unit(1), cfg.unit(2), cfg.unit(3)) == (1, 0, Fraction(3, 4))
    assert type(cfg.unit(3)) is Fraction
    for back in (copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert type(back) is Configuration and back == cfg
    assert repr(cfg) == "Configuration((1, 0), Fraction(3, 4))"


def test_configuration_refuses_what_no_state_can_be():
    for value in (0.1, 0.5, Decimal("0.5"), "1/2", None):
        with pytest.raises(ValidationError, match="int or a Fraction"):
            Configuration((1, 0), value)
    for value in (Fraction(-1, 3), Fraction(4, 3), -1, 2):
        with pytest.raises(ValidationError, match="outside"):
            Configuration((1, 0), value)
    cfg = Configuration((1, 0, 1), Fraction(1, 2))
    assert [cfg.unit(j) for j in (1, 2, 3, 4)] == [1, 0, 1, Fraction(1, 2)]
    for j in (0, -1, 5, 9):
        with pytest.raises(ValidationError, match="not in 1..4"):
            cfg.unit(j)
    assert Configuration((0,), 0).analog == 0 and Configuration((0,), True).analog == 1


def test_binary_state_is_a_sentinel_topped_mask():
    # bit j-1 holds unit j and the sentinel fixes the length, so states of
    # different lengths differ and an all-zero state keeps its width
    assert Configuration((0, 0), 0) != Configuration((0, 0, 0), 0)
    zero = Configuration((0, 0, 0), 0)
    assert tuple(zero) == (0b1000, 0, 1) and zero.binary == (0, 0, 0)
    off = make_network(3, (2,), nxt=1, out=1, delta=1, weights=[(1, 0, Fraction(-1))])
    stepped = off.step(Configuration((1, 1), Fraction(1, 2)))
    assert stepped.binary == (0, 0) and stepped == Configuration([0, 0], 0) == Configuration(iter((0, 0)), 0)
    wide = tuple(j % 3 == 0 for j in range(118))
    long = Configuration(wide, Fraction(5, 7))
    assert long.binary == tuple(map(int, wide)) and long.unit(117) == 0 and long.unit(118) == 1
    for cfg in (zero, stepped, long, Configuration((1, 0, 1), Fraction(1, 2))):
        for back in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert type(back) is Configuration and back == cfg and hash(back) == hash(cfg)
            assert back.binary == cfg.binary and back.analog == cfg.analog


def test_malformed_binary_vectors_are_refused():
    net = build_cut_acceptor(cut_params(Fraction(27, 8), Fraction(1, 4)))
    assert net.size == 8
    net.step(net.initial_configuration())  # a warm row does not admit other lengths
    short = Configuration((1,), 0)
    for run in (
        lambda: net.step(short),
        lambda: protocol.verdict(net, protocol.make_state(net, short), "1"),
        lambda: net.step(Configuration((0,) * 9, 0)),
        lambda: probe_verdict(net, Configuration((1,) * 6, 0), "1"),
    ):
        with pytest.raises(ValidationError, match="does not have 7 units"):
            run()
    for bits in ((2, 0, 1, 0, 0, 0, 0), (0, -1), (Fraction(1, 2),), "01"):
        with pytest.raises(ValidationError, match="must be 0 or 1"):
            Configuration(bits, 0)


def test_constructed_start_hits_the_stepped_piece(monkeypatch):
    net = build_cut_acceptor(cut_params(Fraction(27, 8), Fraction(1, 4)))
    state = protocol.make_state(net, net.initial_configuration())
    for sym in "10":
        state = protocol.advance(net, state, net.input_units[int(sym)])[0]
    stepped, since, pending = protocol.plain_state(state)
    assert (since, pending) == (0, ())  # the state probe_verdict constructs from a start
    want = protocol.verdict(net, state, "1")  # keeps the probe's cell that holds the stepped state
    table = net._segments
    pieces = table.pieces
    start = Configuration(stepped.binary, stepped.analog)
    assert start is not stepped and protocol.make_state(net, start)[0] is state[0]
    branches = []
    step = protocol._step_symbolic
    monkeypatch.setattr(protocol, "_step_symbolic", lambda *args: branches.append(args) or step(*args))
    assert probe_verdict(net, start, "1") is want
    assert table.pieces == pieces and not branches  # the same piece served it, with no symbolic step


def test_validation_rejects_bad_structure():
    with pytest.raises(ValidationError):
        make_network(3, (2,), nxt=3, out=1, delta=1, weights=[])  # nxt is analog
    with pytest.raises(ValidationError):
        make_network(3, (1,), nxt=1, out=1, delta=1, weights=[])  # nxt clamped
    with pytest.raises(ValidationError):
        make_network(3, (2,), nxt=1, out=1, delta=0, weights=[])
    with pytest.raises(ValidationError):
        make_network(3, (2,), nxt=1, out=1, delta=1, weights=[(4, 0, Fraction(1))])
    for first in (Fraction(0), Fraction(1)):  # a zero weight still claims its pair
        with pytest.raises(ValidationError):
            make_network(3, (2,), nxt=1, out=1, delta=1, weights=[(3, 0, first), (3, 0, Fraction(1, 2))])


def test_construction_refuses_what_used_to_slip_through():
    # a network is checked however it is built, before any walk can run on it
    with pytest.raises(ValidationError, match="^invalid network: query gap bound must be at least 1$"):
        dataclasses.replace(_tiny_net(), delta=0)
    with pytest.raises(ValidationError, match="^invalid network: size must be at least 2"):
        Network(size=1, input_units=(1,), nxt=1, out=1, delta=1)
    with pytest.raises(ValidationError, match="initial analog value must be an int or a Fraction, not float"):
        make_network(3, (2,), nxt=1, out=1, delta=1, weights=[], init_analog=0.5)
    for key in ((4, 0), (3, 4)):  # a zero weight is checked before it is dropped
        with pytest.raises(ValidationError, match="out of range"):
            Network(size=3, input_units=(2,), nxt=1, out=1, delta=1, weights={key: Fraction(0)})


def test_make_network_reads_weights_as_exact_rationals():
    # ints, Fractions and "p/q" text build the same weights; a float or decimal text
    # would become its binary expansion, so make_network refuses it
    def tiny(bias, self_weight):
        return make_network(3, (2,), nxt=1, out=1, delta=1, weights=[(3, 0, bias), (3, 3, self_weight)])

    want = tiny(Fraction(1, 2), Fraction(-3))
    for half, three in ((Fraction(1, 2), -3), ("1/2", "-3"), ("2/4", Fraction(-3))):
        net = tiny(half, three)
        assert net == want and network_to_text(net) == network_to_text(want)
    for bad in (0.1, "0.1", "1e5", float("nan"), None, Decimal("0.5")):
        with pytest.raises(ValidationError):
            tiny(bad, 1)


def test_zero_weights_are_dropped_at_construction():
    bare = Network(size=3, input_units=(2,), nxt=1, out=1, delta=1)
    zeros = dataclasses.replace(bare, weights={(1, 0): Fraction(0), (3, 3): Fraction(0)})
    assert zeros.weights == {} and zeros == bare
    assert network_to_text(zeros) == network_to_text(bare)


# -- reference oracle: every unit's excitation summed directly ---------------


def excitation(net: Network, cfg: Configuration, j: int) -> Fraction:
    """Weighted sum feeding unit j from the given state, bias included."""
    acc = net.weight(j, 0)
    for (tgt, src), w in net.weights.items():
        if tgt == j and src != 0 and cfg.unit(src):
            acc += w * cfg.unit(src)
    return acc


def step_dense(net: Network, cfg: Configuration, inputs_next=None) -> Configuration:
    """Reference implementation of Network.step."""
    bits = [heaviside(excitation(net, cfg, j)) for j in range(1, net.size)]
    analog = saturation(excitation(net, cfg, net.size))
    for u in net.input_units:
        bits[u - 1] = 0
    for u, v in (inputs_next or {}).items():
        if u not in net.input_units:
            raise ValidationError("unit %d is not an input unit" % u)
        bits[u - 1] = 1 if v else 0
    return Configuration(tuple(bits), analog)


small_weight = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)
# mixed denominators per target make every target's scale a nontrivial lcm
wide_weight = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=10**6
)
wide_analog = st.one_of(
    st.sampled_from((Fraction(0), Fraction(1))),
    st.fractions(min_value=0, max_value=1, max_denominator=32),
    st.fractions(min_value=0, max_value=1, max_denominator=2**256),
)


@st.composite
def nets_and_states(draw):
    size = draw(st.integers(min_value=3, max_value=6))
    weights = []
    for j in list(range(3, size)) + [size]:
        for i in range(0, size + 1):
            if draw(st.booleans()):
                w = draw(st.one_of(small_weight, wide_weight))
                if w:
                    weights.append((j, i, w))
    net = make_network(size, (2,), nxt=1, out=3 if size > 3 else 1, delta=1, weights=weights)
    bits = tuple(draw(st.integers(0, 1)) for _ in range(size - 1))
    analog = draw(wide_analog)
    clamp = draw(st.sampled_from((None, {2: 1})))
    return net, Configuration(bits, analog), clamp


def assert_canonical(x):
    """A Fraction in lowest terms with a positive denominator; anything else breaks equality."""
    assert type(x) is Fraction
    assert x.denominator > 0
    assert gcd(x.numerator, x.denominator) == 1


@given(nets_and_states())
@settings(max_examples=200, deadline=None)
def test_sparse_and_dense_steps_agree(case):
    net, cfg, clamp = case
    got = net.step(cfg, clamp)
    want = step_dense(net, cfg, clamp)
    assert got == want
    assert_canonical(got.analog)
    # the identity branch y over [0, 1]: the successor whose piece holds cfg's
    # value steps it like step_dense, and every successor keeps the kernel's
    # invariant d > 0 and gcd(an, bn, d) = 1, which its constant path relies on
    y, successors = cfg.analog, network._step_symbolic(net, (network._UNIT, cfg[0], 0, 1, 1), clamp)
    held = [
        (mask, Fraction(an, d) + Fraction(bn, d) * y)
        for (ln, ld, ls, hn, hd, hs), mask, an, bn, d in successors
        if (Fraction(ln, ld) < y or Fraction(ln, ld) == y and not ls)
        and (y < Fraction(hn, hd) or y == Fraction(hn, hd) and not hs)
    ]
    assert held == [(want[0], want.analog)]
    for _, _, an, bn, d in successors:
        assert d > 0 and gcd(an, bn, d) == 1


@given(nets_and_states(), st.lists(st.tuples(st.booleans(), wide_analog), min_size=6, max_size=10))
@settings(max_examples=60, deadline=None)
def test_warm_rows_step_like_dense_steps(case, walk):
    # each step is repeated from the same binary state at another analog
    # value, which reads the row the first step built
    net, cfg, clamp = case
    for clamped, other in walk:
        got = net.step(cfg, clamp)
        assert got == step_dense(net, cfg, clamp)
        assert cfg[0] in net._rows
        again = Configuration(cfg.binary, other)
        assert net.step(again, clamp) == step_dense(net, again, clamp)
        cfg, clamp = got, {2: 1} if clamped else None
    net.step(cfg)
    for bad in ({1: 1}, {net.size: 1}, {2: 1, 1: 0}):  # a warm row still checks the clamp
        with pytest.raises(ValidationError, match="not an input unit"):
            net.step(cfg, bad)


@pytest.mark.parametrize(
    "net",
    [build_cut_acceptor(cut_params(Fraction(27, 8), Fraction(1, 4))), make_skeleton_net(3)],
    ids=["cut", "skeleton"],
)
def test_row_cache_is_bounded_and_refills(net, monkeypatch):
    monkeypatch.setattr(network, "ROW_CACHE_BITS", 3 * (net.size - 1))  # three rows
    net = dataclasses.replace(net)  # no rows yet
    rng = random.Random(12)
    cfg, sizes = net.initial_configuration(), []
    for _ in range(300):
        if rng.random() < 0.2:  # jump to another state, so that many rows are built
            bits = [rng.randint(0, 1) for _ in range(net.size - 1)]
            cfg = Configuration(bits, Fraction(rng.randint(0, 64), 64))
        clamp = rng.choice([None, {rng.choice(net.input_units): 1}])
        nxt = net.step(cfg, clamp)
        assert nxt == step_dense(net, cfg, clamp)
        sizes.append(len(net._rows))
        assert sizes[-1] * (net.size - 1) <= network.ROW_CACHE_BITS
        cfg = nxt
    cleared = [k for k in range(1, len(sizes)) if sizes[k] < sizes[k - 1]]
    assert cleared and sizes[cleared[0]] == 1 and 3 in sizes[cleared[0]:]


def test_analog_value_shares_a_factor_with_the_scale():
    # x/3 + 1/3 at x = 5/2^200: 3 divides 5 + 2^200, so the scale 3 cancels
    net = make_network(
        3, (2,), nxt=1, out=1, delta=1, weights=[(3, 3, Fraction(1, 3)), (3, 0, Fraction(1, 3))]
    )
    got = net.step(Configuration((0, 0), Fraction(5, 2**200))).analog
    assert (got.numerator, got.denominator) == ((5 + 2**200) // 3, 2**200)
    assert_canonical(got)


def test_long_cut_run_agrees_with_dense_steps():
    # the analog denominator grows as 3^t over 400 steps of the 27/8 acceptor
    net = build_cut_acceptor(cut_params(Fraction(27, 8), Fraction(1, 4)))
    rng = random.Random(4)
    cfg = net.initial_configuration()
    for _ in range(400):
        fires = cfg.unit(net.nxt) == 1
        clamp = {rng.choice(net.input_units): 1} if fires else None
        nxt = net.step(cfg, clamp)
        assert nxt == step_dense(net, cfg, clamp)
        assert_canonical(nxt.analog)
        cfg = nxt
    assert cfg.analog.denominator.bit_length() > 150


# -- the constant branch's reduction: G = gcd(n, L_s*d) divides |a_s|*L_s ----


def _prime_factors(n: int) -> list[int]:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def _update(net: Network, cfg: Configuration) -> tuple[int, int, int]:
    """(n, L_s*d, |a_s|*L_s) of cfg's analog update: its value n/(L_s*d) before the clamp."""
    _, _, c_s, a_s, scale, k = net._row(cfg[0])
    assert k == abs(a_s) * scale
    return c_s * cfg[2] + a_s * cfg[1], scale * cfg[2], k


@st.composite
def wide_constant_steps(draw):
    """A three-unit network and a state whose denominator, 1,000 to 4,000 bits, is built to share factors with the row.

    The denominator is a power of each prime of L_s and a_s times a part
    coprime to them, so the update's gcd takes every form: 1, a divisor of
    L_s, c_s and a_s, and one that divides a_s or L_s alone.
    """
    # few primes in the denominators, so that the row's three numbers often share one (the
    # 27/8, 1/4 cut acceptor's row is c_s = 0, a_s = 18, L_s = 27); the first choices are
    # the likeliest, and they put the value inside (0, 1)
    num = st.sampled_from((2, 1, 3, 6, 5, -1, -2, -4, -5, 0))
    weights = [(3, 3, Fraction(draw(num), draw(st.sampled_from((3, 1, 2, 4, 9)))))]
    weights.append((3, 0, Fraction(draw(st.sampled_from((0, 1, -1, 2))), draw(st.sampled_from((3, 1, 2, 9))))))
    for i in (1, 2):
        weights.append((3, i, Fraction(draw(num), draw(st.sampled_from((27, 9, 8, 4, 3, 2, 5))))))
    net = make_network(3, (2,), nxt=1, out=1, delta=1, weights=weights)
    bits = (draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    _, _, _, a_s, scale, _ = net._row(Configuration(bits, 0)[0])
    primes = _prime_factors((abs(a_s) or 1) * scale)
    d = 1
    for p in primes:
        d *= p ** draw(st.integers(0, 60))
    coprime = draw(st.integers(min_value=2**1000 // d + 1, max_value=2**4000 // d))
    while gcd(coprime, d * 30030) != 1:  # 30030 = 2*3*5*7*11*13, so the coprime part shares no small prime either
        coprime += 1
    d *= coprime
    an = (d * draw(st.integers(1, 15)) // 16 + draw(st.integers(0, 2**64))) % d  # y spread over [0, 1]
    while gcd(an, d) != 1:
        an += 1  # ends at d - 1 at the latest
    return net, Configuration(bits, Fraction(an, d)), draw(st.sampled_from((None, {2: 1})))


@given(wide_constant_steps())
@settings(max_examples=150, deadline=None)
def test_wide_constant_steps_cancel_only_factors_of_the_bound(case):
    net, cfg, clamp = case
    assert 1000 <= cfg[2].bit_length() <= 4000 + 1
    got = net.step(cfg, clamp)
    assert got == step_dense(net, cfg, clamp)
    assert_canonical(got.analog)
    n, den, k = _update(net, cfg)
    assert k % gcd(n, den) == 0


def _net3(*weights):
    return make_network(3, (2,), nxt=1, out=1, delta=1, weights=weights)


_D = 7**120  # a 337-bit denominator, coprime to every scale below
# y' = sat(2y/3 + x_2/27): L_s = 27, a_s = 18, and c_s is 0 or 1 as unit 2 is off or on
_CANCELS = _net3((3, 3, Fraction(2, 3)), (3, 2, Fraction(1, 27)))


@pytest.mark.parametrize(
    "net, bits, y, g, want",
    [
        # c_s = -1, a_s = 15, L_s = 10: n = 15*an - d is odd and prime to 5
        (_net3((3, 3, Fraction(3, 2)), (3, 0, Fraction(-1, 10))), (1, 0), Fraction(_D // 3 + 2, _D), 1, None),
        # n = 18*an and L_s*d = 27*d with an and d prime to 3: G = 9 divides 27, 0 and 18, so products
        (_CANCELS, (1, 0), Fraction(_D // 3 + 1, _D), 9, Fraction(2 * (_D // 3 + 1), 3 * _D)),
        # n = 9*d + 18*an with d = 9*_D: G = 9 divides L_s and a_s but not c_s = 1, so a division
        (_CANCELS, (1, 1), Fraction(3 * _D + 2, 9 * _D), 9, Fraction(7 * _D + 4, 27 * _D)),
        # n = 18*d + 18*an with d = 18*_D: G = 18 does not divide L_s either; its 2 comes from
        # a_s, so a bound of L_s alone misses it
        (_CANCELS, (1, 1), Fraction(6 * _D + 1, 18 * _D), 18, Fraction(7 * _D + 1, 27 * _D)),
        # a_s = 0: the value is c_s/L_s = (5 + 3)/15 whatever y is
        (_net3((3, 0, Fraction(1, 3)), (3, 2, Fraction(1, 5))), (1, 1), Fraction(_D // 3 + 1, _D), None, Fraction(8, 15)),
        # y/2 - 1/2 <= 0 and y/2 + 5/3 >= 1: the clamps, before any gcd
        (_net3((3, 3, Fraction(1, 2)), (3, 0, Fraction(-1, 2))), (1, 0), Fraction(_D // 3 + 1, _D), None, Fraction(0)),
        (_net3((3, 3, Fraction(1, 2)), (3, 0, Fraction(5, 3))), (1, 0), Fraction(_D // 3 + 1, _D), None, Fraction(1)),
    ],
    ids=[
        "G == 1", "G divides L_s c_s a_s", "G does not divide c_s", "G does not divide L_s",
        "a_s == 0", "saturates at 0", "saturates at 1",
    ],
)
def test_constant_branch_reduces_by_each_clause(net, bits, y, g, want):
    cfg = Configuration(bits, y)
    got = net.step(cfg)
    assert got == step_dense(net, cfg)
    assert_canonical(got.analog)
    if want is not None:
        assert got.analog == want
    n, den, _ = _update(net, cfg)
    if g is not None:  # the clause the case is for
        assert 0 < n < den and gcd(n, den) == g


# -- analog_texts: rows checked against the update, never recomputed --------

walk_move = st.tuples(st.sampled_from(("step", "jump", "other net")), st.booleans(), wide_analog)
# y' = sat(3y/2 - x_2 - 1/10): it climbs to 1 from 1/3, and an input drops it to 0
_CLAMPING = make_network(
    3, (2,), nxt=1, out=1, delta=1, weights=[(3, 3, Fraction(3, 2)), (3, 2, -1), (3, 0, Fraction(-1, 10))]
)
_NEGATIVE_WIDE = make_network(
    3, (2,), nxt=1, out=1, delta=1, weights=[(3, 3, Fraction(-7, 5)), (3, 2, Fraction(1, 999983)), (3, 0, Fraction(9, 10))]
)


@given(nets_and_states(), nets_and_states(), st.lists(walk_move, min_size=6, max_size=12))
@example(
    (_CLAMPING, Configuration((1, 0), Fraction(1, 3)), None),
    (_NEGATIVE_WIDE, Configuration((1, 1), Fraction(1, 3)), None),
    [("step", False, 0)] * 5 + [("step", True, 0)] * 3 + [("other net", False, 0), ("step", False, 0)] * 2,
)
@settings(max_examples=60, deadline=None)
def test_analog_texts_render_stepped_rows_from_the_row_before(case, second, walk):
    # a row the walk stepped from the row before it never goes through
    # format_rational; a jump to another value or a row of a second network
    # may, and every text is str() of its value
    net, cfg, clamp = case
    other_net, other, _ = second
    rows, stepped = [cfg], set()
    for move, clamped, value in walk:
        if move == "other net":
            other = other_net.step(other)
            rows.append(other)
            continue
        if move == "step":
            if rows[-1] is cfg:
                stepped.add(len(rows))
            cfg = net.step(cfg, clamp)
        else:
            cfg = Configuration(cfg.binary, value)
        rows.append(cfg)
        clamp = {2: 1} if clamped else None
    calls, texts, fell = [], [], set()
    with mock.patch.object(network, "format_rational", lambda x: calls.append(x) or format_rational(x)):
        for k, text in enumerate(net.analog_texts(rows)):
            texts.append(text)
            if calls:
                fell.add(k)
                calls.clear()
    assert texts == _at_digit_limit(0, lambda: [str(row.analog) for row in rows])
    assert not stepped & fell


@pytest.mark.parametrize("row", [Fraction(1, 5), Fraction(5, 6)], ids=["denominator", "numerator"])
def test_analog_texts_render_a_row_off_the_update_alone(row):
    # from (0, 0) at y = 1/3, _tiny_net's update is 2/12 = 1/6: c_s = 0,
    # a_s = 2, L_s = 4, so g = 2. The row 1/5 has g = 12 // 5 = 2 and p*g = 2
    # but q*g != 12; the row 5/6 has q*g = 12 but p*g != 2. A check without
    # the one clause it fails would print 1/6 for it
    net, start = _tiny_net(), Configuration((0, 0), Fraction(1, 3))
    assert net.step(start).analog == Fraction(1, 6)
    assert list(net.analog_texts([start, Configuration((1, 0), row)])) == ["1/3", str(row)]


@pytest.mark.parametrize(
    "net, bits, y, products",
    [
        # c_s = 9, a_s = 18, L_s = 27: 5/9 from 1/3 has g = 9, which divides all three
        (_net3((3, 3, Fraction(2, 3)), (3, 0, Fraction(1, 3)), (3, 2, Fraction(1, 27))), (1, 0), Fraction(1, 3), True),
        # c_s = 1: 7/27 from 1/3 has g = 3, which does not divide c_s, so an exact division
        (_net3((3, 3, Fraction(2, 3)), (3, 0, Fraction(1, 27))), (1, 0), Fraction(1, 3), False),
        # c_s = 0: 2/9 from 1/3 has g = 9, and the pair advances as (2*dp, 3*dq)
        (_CANCELS, (1, 0), Fraction(1, 3), True),
        # a_s = 0: 8/15 from 0 has g = 1, and the pair advances as (8*dq, 15*dq)
        (_net3((3, 0, Fraction(1, 3)), (3, 2, Fraction(1, 5))), (1, 1), Fraction(0), True),
    ],
    ids=["g divides L_s c_s a_s", "g does not divide c_s", "c_s == 0", "a_s == 0"],
)
def test_analog_texts_advance_by_each_clause(net, bits, y, products):
    start = Configuration(bits, y)
    rows = [start, net.step(start)]
    _, _, c_s, a_s, scale, _ = net._row(start[0])
    g = scale * y.denominator // rows[1].analog.denominator
    assert products == (scale % g == c_s % g == a_s % g == 0)
    calls = []
    with mock.patch.object(network, "format_rational", lambda x: calls.append(x) or format_rational(x)):
        assert list(net.analog_texts(rows)) == [format_rational(row.analog) for row in rows]
    assert calls == ([] if y.denominator == 1 else [y])  # the second row off the first one's Decimals


def test_weights_are_read_only():
    net = _tiny_net()
    with pytest.raises(TypeError):
        net.weights[(3, 3)] = Fraction(1, 3)
    assert net.weight(3, 3) == Fraction(1, 2)
    tight = dataclasses.replace(net, delta=2)
    assert tight.delta == 2 and tight.weights == net.weights
    with pytest.raises(TypeError):
        tight.weights[(3, 0)] = Fraction(1)


def test_weights_are_copied_at_construction():
    table = {(1, 0): Fraction(0), (3, 3): Fraction(1, 2)}
    inputs, active = [2], [1]
    net = Network(size=3, input_units=inputs, nxt=1, out=1, delta=1, weights=table, init_active=active)
    table[(3, 3)] = Fraction(1, 3)
    inputs.append(1)
    active.append(3)
    assert net.weight(3, 3) == Fraction(1, 2)
    assert net.input_units == (2,) and net.init_active == (1,)


def test_wire_round_trip():
    net = make_network(
        4,
        (2, 3),
        nxt=1,
        out=3,
        delta=3,
        weights=[
            (1, 0, Fraction(0)),
            (4, 4, Fraction(2, 3)),
            (4, 2, Fraction(19, 27)),
            (3, 0, Fraction(-51, 32)),
        ],
        output_delay=2,
        init_active=(1, 3),
        init_analog=Fraction(1, 7),
        comment="round trip probe",
    )
    text = network_to_text(net)
    back = network_from_text(text)
    assert back == net
    # byte-identical re-serialization
    assert network_to_text(back) == text

    buf = io.StringIO(text)
    assert load_network(buf) == net


def test_wire_format_rejects_decimal_weights():
    net = _tiny_net()
    text = network_to_text(net).replace("1/2", "0.5")
    with pytest.raises(ValidationError):
        network_from_text(text)


def test_wire_format_rejects_unknown_header_keys():
    text = network_to_text(_tiny_net()).replace("delta 1\n", "delta 1\nbogus 7\n")
    with pytest.raises(ValidationError, match="unknown header"):
        network_from_text(text)


def test_wire_format_refuses_sizes_past_the_limit():
    # the declared size is refused before anything is allocated per unit
    text = network_to_text(_tiny_net())
    top = str(NETWORK_SIZE_LIMIT)
    at_limit = text.replace("size 3", "size " + top).replace("analog 3", "analog " + top)
    assert network_from_text(at_limit.replace("w 3 ", "w %s " % top)).size == NETWORK_SIZE_LIMIT
    for size in (NETWORK_SIZE_LIMIT + 1, 10**12):
        with pytest.raises(ResourceBudgetError):
            network_from_text(text.replace("size 3\n", "size %d\n" % size))


def test_wire_format_rejects_bad_magic():
    net = _tiny_net()
    text = "something else\n" + network_to_text(net).split("\n", 1)[1]
    with pytest.raises(ValidationError):
        network_from_text(text)


@given(st.integers(min_value=0, max_value=2 ** 30))
def test_round_trip_random_skeletons(seed):
    from conftest import make_skeleton_net

    net = make_skeleton_net(seed)
    assert network_from_text(network_to_text(net)) == net


# -- mutated anet v1 files: refused, or loaded into a network that round-trips

CUT_LINES = network_to_text(build_cut_acceptor(cut_params(Fraction(27, 8), Fraction(1, 4)))).splitlines()
field_text = st.one_of(
    st.integers(min_value=-3, max_value=12).map(str),
    st.fractions(min_value=-4, max_value=4, max_denominator=64).map(str),
    st.sampled_from(("-0", "0/1", "+1", "1/0", "0.5", "1e3", "65537", "9" * 5000, "#", "w", "size", "")),
    st.text(alphabet="0123456789-/+# w", max_size=6),
)


@st.composite
def mutated_cut_files(draw, most: int = 3) -> str:
    """The 27/8, 1/4 acceptor's file after one to most line mutations."""
    lines = list(CUT_LINES)
    for _ in range(draw(st.integers(min_value=1, max_value=most))):
        k = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        kind = draw(st.sampled_from(("replace", "drop", "duplicate", "truncate")))
        if kind == "replace":
            fields = lines[k].split(" ")
            fields[draw(st.integers(min_value=0, max_value=len(fields) - 1))] = draw(field_text)
            lines[k] = " ".join(fields)
        elif kind == "drop":
            del lines[k]
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        else:
            lines[k] = lines[k][: draw(st.integers(min_value=0, max_value=len(lines[k])))]
    return "".join(line + "\n" for line in lines)


@settings(max_examples=400, deadline=None)
@given(mutated_cut_files())
@example("\n".join(CUT_LINES).replace("\nw 3 0 -1\n", "\nw 3 0 -0\n") + "\n")
@example("\n".join(CUT_LINES[:2] + ["#"] + CUT_LINES[2:]) + "\n")  # a trailing empty comment line
def test_mutated_files_are_refused_or_round_trip(text):
    try:
        net = network_from_text(text)
    except AnetError:
        return
    saved = network_to_text(net)
    back = network_from_text(saved)
    assert back == net
    assert network_to_text(back) == saved
