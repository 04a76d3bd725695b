from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from anet import cutlang
from anet.cutlang import (
    NO_EXPANSION,
    NOT_QP_WITNESS,
    QP_CERTIFICATE,
    _padic,
    build_cut_acceptor,
    cut_member,
    cut_params,
    digit_valid,
    orbit_step,
    qp_explore,
    rational_cbrt,
    reversal_member,
)
from anet.errors import ResourceBudgetError, ValidationError


def test_cut_params_validation():
    with pytest.raises(ValidationError):
        cut_params(F(1), F(1, 2))  # base must exceed 1
    with pytest.raises(ValidationError):
        cut_params(F(3), F(0))
    with pytest.raises(ValidationError):
        cut_params(F(3), F(1))
    p = cut_params(F(27, 8), F(1, 4))
    assert p.tail_sup == F(8, 19)


def test_rational_cbrt():
    assert rational_cbrt(F(27, 8)) == F(3, 2)
    assert rational_cbrt(F(27)) == F(3)
    assert rational_cbrt(F(1)) == F(1)
    assert rational_cbrt(F(2)) is None
    assert rational_cbrt(F(9, 4)) is None
    # past float precision and past float range
    assert rational_cbrt(F((10**17 + 3) ** 3)) == 10**17 + 3
    assert rational_cbrt(F(10**400)) is None
    assert rational_cbrt(F(-8, 27)) == F(-2, 3)


@given(
    st.integers(min_value=-(10**400), max_value=10**400),
    st.integers(min_value=1, max_value=10**400),
)
@settings(max_examples=60, deadline=None)
def test_rational_cbrt_inverts_cube(num, den):
    q = F(num, den)
    assert rational_cbrt(q**3) == q
    if q > 0:
        assert rational_cbrt(q**3 + F(1, q.denominator**3)) is None


def _padic_by_division(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@given(
    st.sampled_from((2, 3, 5)),
    st.integers(min_value=1, max_value=10**60),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=0, max_value=500),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_padic_matches_division_loop(p, unit, power, guess, negative):
    n = unit * p**power * (-1 if negative else 1)
    want = _padic_by_division(n, p)
    assert _padic(n, p, guess) == want
    assert _padic(n, p, want) == want
    assert _padic(n, p) == want


def test_qp_witness_for_odd_growth_prime():
    # base 64/27 at threshold 1/4: remainder n is 64^n / (4 * 27^n), whose
    # denominator gains 3^3 per step, so the general-prime valuation is used
    out = qp_explore(cut_params(F(64, 27), F(1, 4)), depth=40)
    assert out.kind == NOT_QP_WITNESS and out.growth_prime == 3
    assert out.explored_depth == 40
    for n, r in enumerate(out.orbit):
        assert _padic_by_division(r.denominator, 3) == 3 * n


# independently derived: value of the reversed word under negative powers of
# the base, e.g. for 101 in base 27/8 the reversal reads 101 again, giving
# 1*(8/27) + 0*(8/27)^2 + 1*(8/27)^3 = 6344/19683
FROZEN_VALUES = [
    ("101", F(27, 8), F(6344, 19683)),
    ("1", F(27, 8), F(8, 27)),
    ("10", F(27, 8), F(64, 729)),
    ("", F(27, 8), F(0)),
    ("110", F(27), F(28, 19683)),
]


def beta_value(word: str, params, reverse: bool = False) -> F:
    """Positional value sum_k x_k base^-k by the oracles' integer kernel; reverse reads the word backwards."""
    return F(*cutlang._scaled_value(word[::-1] if reverse else word, params))


@pytest.mark.parametrize("word,base,value", FROZEN_VALUES)
def test_beta_value_frozen(word, base, value):
    params = cut_params(base, F(1, 4))
    assert beta_value(word, params, reverse=True) == value


def beta_value_by_fractions(word: str, base: F, reverse: bool = False) -> F:
    """Reference: one Fraction power of the base per digit, summed in order."""
    acc, scale = F(0), F(1)
    for ch in reversed(word) if reverse else word:
        scale /= base
        if ch == "1":
            acc += scale
    return acc


@given(
    st.text(alphabet="01", max_size=40),
    st.fractions(min_value=F(61, 60), max_value=F(40), max_denominator=60),
    st.fractions(min_value=F(1, 1000), max_value=F(999, 1000), max_denominator=1000),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_integer_oracles_match_fraction_loop(word, base, threshold, reverse):
    params = cut_params(base, threshold)
    want = beta_value_by_fractions(word, base, reverse)
    got = beta_value(word, params, reverse=reverse)
    assert type(got) is F and got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    member = reversal_member(word, params) if reverse else cut_member(word, params)
    assert member == (want < threshold)


def test_oracles_reject_non_binary_digits():
    params = cut_params(F(27, 8), F(1, 4))
    for oracle in (beta_value, cut_member, reversal_member):
        with pytest.raises(ValidationError):
            oracle("012", params)


@given(st.text(alphabet="01", max_size=10))
def test_reversal_member_is_cut_member_of_reversal(w):
    params = cut_params(F(27, 8), F(1, 4))
    assert reversal_member(w, params) == cut_member(w[::-1], params)


def test_acceptor_weights_base_27_8():
    net = build_cut_acceptor(cut_params(F(27, 8), F(1, 4)))
    assert net.size == 8
    assert net.input_units == (1, 2)
    assert net.nxt == 3 and net.out == 7
    assert net.delta == 3 and net.output_delay == 0
    w = net.weights
    assert w[(8, 2)] == F(19, 27)
    assert w[(8, 8)] == F(2, 3)
    assert w[(6, 0)] == F(-51, 32)
    for j, i in ((4, 3), (5, 4), (3, 5), (6, 5), (6, 8), (7, 3)):
        assert w[(j, i)] == 1
    assert w[(7, 6)] == -1
    for j in (3, 4, 5, 7):
        assert w[(j, 0)] == -1


def test_acceptor_weights_base_27():
    net = build_cut_acceptor(cut_params(F(27), F(1, 28)))
    w = net.weights
    assert w[(8, 2)] == F(26, 27)
    assert w[(8, 8)] == F(1, 3)
    assert w[(6, 0)] == F(-27, 14)


def test_acceptor_requires_cube_base():
    with pytest.raises(ValidationError):
        build_cut_acceptor(cut_params(F(2), F(1, 4)))
    with pytest.raises(ValidationError):
        build_cut_acceptor(cut_params(F(5, 2), F(1, 4)))


def test_orbit_step_and_digit_window():
    params = cut_params(F(3), F(1, 2))
    assert orbit_step(params, F(1, 2), 0) == F(3, 2)
    assert orbit_step(params, F(1, 2), 1) == F(1, 2)
    assert digit_valid(params, F(1, 2))
    assert not digit_valid(params, F(2, 3))  # above 1/(base-1)
    assert not digit_valid(params, F(-1, 8))


def test_qp_depth_past_the_limit_is_refused(monkeypatch):
    params = cut_params(F(27, 8), F(1, 4))
    assert cutlang.QP_DEPTH_LIMIT == 10_000
    # stored remainders grow by about 3 bits a step, so 10^12 would never
    # finish; the refusal comes before any of it
    with pytest.raises(ResourceBudgetError):
        qp_explore(params, depth=10**12)
    monkeypatch.setattr(cutlang, "QP_DEPTH_LIMIT", 5)
    assert qp_explore(params, depth=5).explored_depth == 5
    with pytest.raises(ResourceBudgetError):
        qp_explore(params, depth=6)


@given(st.integers(1, 3000), st.integers(1, 3000))
@settings(max_examples=200, deadline=None)
def test_growth_prime_is_the_least_prime_of_the_denominator_not_in_the_numerator(den, num):
    # the gcd stripping finds the prime a plain trial division finds
    primes = [p for p in range(2, den + 1) if den % p == 0 and all(p % k for k in range(2, p))]
    want = next((p for p in primes if num % p), None)
    assert cutlang._growth_prime(cut_params(F(2 * den + 1, den), F(num, num + 1))) == want


def test_qp_searches_are_bounded(monkeypatch):
    # a denominator whose least qualifying prime is past the trial bound,
    # and a windowed orbit that passes the remainder bound
    monkeypatch.setattr(cutlang, "QP_TRIAL_LIMIT", 10)
    assert qp_explore(cut_params(F(50, 49), F(1, 2))).growth_prime == 7
    with pytest.raises(ResourceBudgetError, match="within 10 trial divisors"):
        qp_explore(cut_params(F(122, 121), F(1, 2)))  # 11 * 11
    assert cutlang._growth_prime(cut_params(F(122, 121), F(11, 12))) is None  # 11 is stripped, untried
    monkeypatch.setattr(cutlang, "QP_WINDOW_LIMIT", 100)
    with pytest.raises(ResourceBudgetError, match="passed 100 remainders"):
        qp_explore(cut_params(F(9, 8), F(2, 3)))


def test_qp_witness_for_base_27_8():
    out = qp_explore(cut_params(F(27, 8), F(1, 4)))
    assert out.kind == NOT_QP_WITNESS
    assert out.growth_prime == 2
    assert out.orbit[0] == F(1, 4)
    for n, r in enumerate(out.orbit):
        assert r.denominator == 2 ** (3 * n + 2)
        assert r.numerator % 2 == 1


def test_qp_no_expansion_for_base_27():
    out = qp_explore(cut_params(F(27), F(1, 28)))
    assert out.kind == NO_EXPANSION


def test_qp_certificate_for_base_3():
    out = qp_explore(cut_params(F(3), F(1, 2)))
    assert out.kind == QP_CERTIFICATE
    assert out.reachable == (F(1, 2),)
    assert (F(1, 2), 1, F(1, 2)) in out.edges


def test_qp_certificate_edges_are_closed():
    out = qp_explore(cut_params(F(3), F(1, 2)))
    live = set(out.reachable)
    for src, digit, dst in out.edges:
        assert src in live and dst in live
        assert orbit_step(out_params(), src, digit) == dst


def out_params():
    return cut_params(F(3), F(1, 2))


@given(
    st.fractions(min_value=F(1, 64), max_value=F(63, 64), max_denominator=64),
)
@settings(max_examples=40, deadline=None)
def test_qp_explore_never_crashes_and_kinds_are_known(c):
    params = cut_params(F(27, 8), c)
    out = qp_explore(params, depth=12)
    assert out.kind in (NOT_QP_WITNESS, QP_CERTIFICATE, NO_EXPANSION, "unknown")
