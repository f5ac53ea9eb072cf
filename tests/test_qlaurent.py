"""Ring, exact division and quantum-integer behavior of the Laurent layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotslope.qlaurent import (
    ONE,
    ZERO,
    LaurentPoly,
    NonExactDivision,
    ZeroPolynomial,
    exact_div,
    qbinom,
    qfact,
    qint,
    qmultinom,
)


def naive_div(num, den):
    """Independent long division oracle on term dicts, Fraction coefficients.

    Returns (quotient, remainder) with num = quotient*den + remainder and
    remainder degree span below the divisor's.
    """
    num = {e: Fraction(c) for e, c in num.items() if c}
    den = {e: Fraction(c) for e, c in den.items() if c}
    quot = {}
    lead_e = max(den)
    lead_c = den[lead_e]
    while num and max(num) - min(num) >= max(den) - min(den):
        e = max(num)
        f = num[e] / lead_c
        quot[e - lead_e] = f
        for de, dc in den.items():
            ne = e - lead_e + de
            num[ne] = num.get(ne, Fraction(0)) - f * dc
            if not num[ne]:
                del num[ne]
    return quot, num


def test_qint_base_cases():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(2) == LaurentPoly({2: 1, -2: 1})


def test_qint_4_by_long_division():
    # [4] = (v^8 - v^-8)/(v^2 - v^-2), divided out by the oracle.
    quot, rem = naive_div({8: 1, -8: -1}, {2: 1, -2: -1})
    assert not rem
    assert LaurentPoly({e: int(c) for e, c in quot.items()}) == qint(4)
    assert qint(4) == LaurentPoly({6: 1, 2: 1, -2: 1, -6: 1})


def test_qint_rejects_negative():
    with pytest.raises(ValueError):
        qint(-1)


def test_qint_degrees_closed_form():
    for k in range(1, 51):
        p = qint(k)
        assert p.max_deg == 2 * k - 2
        assert p.min_deg == -(2 * k - 2)
        assert p.leading_coeff == 1


def test_qfact_and_multinom_small():
    assert qfact(0) == ONE
    assert qfact(3) == qint(3) * qint(2)
    assert qmultinom([1, 1]) == qint(2)
    assert qmultinom([0, 2, 0]) == ONE
    with pytest.raises(ValueError):
        qmultinom([1, -1])


def test_qmultinom_is_factorial_quotient():
    # Dual route: the binomial-chain value must equal the exact division
    # of factorials that defines it.
    cases = [(1, 1), (2, 3), (4, 2), (3, 3, 2), (0, 5), (2, 2, 2), (1, 4, 3)]
    for parts in cases:
        expected = qfact(sum(parts))
        for part in parts:
            expected = exact_div(expected, qfact(part))
        assert qmultinom(parts) == expected


def test_qmultinom_symmetry():
    base = (3, 1, 2)
    value = qmultinom(base)
    assert value == qmultinom((1, 2, 3)) == qmultinom((2, 3, 1)) == qmultinom((3, 2, 1))


def test_qbinom_against_factorials():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert qbinom(n, k) == exact_div(qfact(n), qfact(k) * qfact(n - k))


def test_ring_op_examples():
    p = qint(2)
    assert p + (-p) == ZERO
    assert p * p == LaurentPoly({4: 1, 0: 2, -4: 1})
    assert ONE.shift(-4, -1) == LaurentPoly({-4: -1})
    assert (p - p).is_zero()
    assert 3 * p == LaurentPoly({2: 3, -2: 3})
    assert p ** 0 == ONE and p ** 3 == p * p * p


def test_exact_div_examples():
    assert exact_div(qint(2) * qint(3), qint(2)) == qint(3)
    # [4]/[2]: long-division oracle fixes the true quotient v^4 + v^-4.
    quot, rem = naive_div(dict(qint(4).terms()), dict(qint(2).terms()))
    assert not rem
    expected = LaurentPoly({e: int(c) for e, c in quot.items()})
    assert expected == LaurentPoly({4: 1, -4: 1})
    assert exact_div(qint(4), qint(2)) == expected
    with pytest.raises(ZeroDivisionError):
        exact_div(ONE, ZERO)
    with pytest.raises(NonExactDivision):
        exact_div(qint(3), qint(2))
    with pytest.raises(NonExactDivision):
        exact_div(LaurentPoly({0: 3}), LaurentPoly({0: 2}))


def test_degree_accessors():
    p = qint(2)
    assert (p.max_deg, p.min_deg) == (2, -2)
    assert p.leading_coeff == 1
    with pytest.raises(ZeroPolynomial):
        _ = ZERO.max_deg
    with pytest.raises(ZeroPolynomial):
        _ = ZERO.min_deg


def test_text_round_trip():
    p = LaurentPoly({4: 2, 0: -1, -3: 7})
    assert p.to_text() == "2*v^4 + -1*v^0 + 7*v^-3"
    assert LaurentPoly.from_text(p.to_text()) == p
    assert ZERO.to_text() == "0"
    assert LaurentPoly.from_text("0") == ZERO


def test_json_round_trip():
    p = LaurentPoly({10: 123456789012345678901234567890, -2: -4})
    pairs = p.to_json()
    assert pairs[0][0] == 10 and isinstance(pairs[0][1], str)
    assert LaurentPoly.from_json(pairs) == p


small_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys)
def test_mul_degree_is_additive(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).max_deg == p.max_deg + q.max_deg
        assert (p * q).min_deg == p.min_deg + q.min_deg


@settings(max_examples=150, deadline=None)
@given(small_polys, small_polys)
def test_exact_div_inverts_mul(p, q):
    if q.is_zero():
        return
    assert exact_div(p * q, q) == p
