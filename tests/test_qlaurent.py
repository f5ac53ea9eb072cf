"""Ring, exact division and quantum-integer behavior of the Laurent layer."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    add,
    binomial_product,
    common_stride,
    cyclotomic,
    peel,
    qbinom,
    qfact,
    schoolbook_div,
    sub,
    unpack,
)

from knotslope.ktg import SignedMonomial
from knotslope.qlaurent import (
    ONE,
    ZERO,
    LaurentPoly,
    NonExactDivision,
    Packed,
    PackedRing,
    ZeroPolynomial,
    exact_div,
    factorial_binomials,
    qint,
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
    # A multinomial is a chain of binomials: [2; 1, 1] and [2; 0, 2, 0].
    assert qbinom(2, 1) * qbinom(1, 1) == qint(2)
    assert qbinom(2, 0) * qbinom(2, 2) == ONE
    # [3]! = v^-6 (q^2 - 1)(q^3 - 1)/(q - 1)^2, with the divisor's signs.
    assert factorial_binomials((3,), ()) == (-6, {1: 2, 2: -1, 3: -1})
    assert factorial_binomials((3, 0), (3, 1)) == (0, {})


def test_qbinom_against_factorials():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert qbinom(n, k) == schoolbook_div(qfact(n), qfact(k) * qfact(n - k))
    for n, k in ((2, 3), (2, -1)):
        with pytest.raises(ValueError):
            qbinom(n, k)


def test_ring_op_examples():
    p = qint(2)
    assert p * p == LaurentPoly({4: 1, 0: 2, -4: 1})
    assert ONE.shift(-4, -1) == LaurentPoly({-4: -1})
    assert p.shift(0, -1) * p.shift(0, -1) == p * p
    assert ZERO.shift(5, -1) == ZERO
    # The one ring operation is *: sums are packed (PackedRing), and the
    # tests' polynomial sums are oracles.add.
    with pytest.raises(TypeError):
        p + p
    with pytest.raises(TypeError):
        -p
    assert add(p, p.shift(0, -1)) == ZERO == add()
    assert sub(p, p).is_zero()
    assert add(p, p.shift(0, -1), p) == p
    # A polynomial equals only a polynomial, even the constant one.
    assert ONE != 1 and ZERO != 0
    with pytest.raises(ValueError):
        p.shift(2, 0)


def test_exact_div_examples():
    # [k] = v^(-2(k-1)) (q^k - 1)/(q - 1) with q = v^4, so
    # [4]/[2] = [4] v^2 (q - 1)/(q^2 - 1) = v^4 + v^-4.
    for k in range(2, 9):
        assert exact_div(qint(k), {k: 1, 1: -1}) == ONE.shift(-2 * (k - 1))
        assert exact_div(ONE, {k: -1, 1: 1}).shift(-2 * (k - 1)) == qint(k)
    assert exact_div(qint(4), {2: 1, 1: -1}).shift(2) == LaurentPoly({4: 1, -4: 1})
    assert exact_div(qint(2) * qint(3), {}) == qint(2) * qint(3)
    # The sign: (q - 1)/(q^2 - 1) is 1/(q + 1), not its negative.
    assert exact_div(LaurentPoly({4: 1, 0: -1}), {1: 1}) == ONE
    assert exact_div(LaurentPoly({8: 1, 0: -1}), {2: 1, 1: -1}) == LaurentPoly({4: 1, 0: -1})
    assert exact_div(ZERO, {3: 2, 1: -1}) == ZERO
    with pytest.raises(NonExactDivision):
        exact_div(qint(3), {2: 1})
    with pytest.raises(NonExactDivision):
        exact_div(LaurentPoly({0: 3}), {1: 1})
    # Not in one coset v^k Z[v^4]: no dense array in q to divide.
    with pytest.raises(ArithmeticError) as info:
        exact_div(LaurentPoly({0: 1, 2: 1}), {1: 1})
    assert not isinstance(info.value, NonExactDivision)


def test_schoolbook_div_examples():
    assert schoolbook_div(qint(2) * qint(3), qint(2)) == qint(3)
    # [4]/[2]: long-division oracle fixes the true quotient v^4 + v^-4.
    quot, rem = naive_div(dict(qint(4).terms()), dict(qint(2).terms()))
    assert not rem
    expected = LaurentPoly({e: int(c) for e, c in quot.items()})
    assert expected == LaurentPoly({4: 1, -4: 1})
    assert schoolbook_div(qint(4), qint(2)) == expected
    with pytest.raises(ZeroDivisionError):
        schoolbook_div(ONE, ZERO)
    with pytest.raises(NonExactDivision):
        schoolbook_div(qint(3), qint(2))
    with pytest.raises(NonExactDivision):
        schoolbook_div(LaurentPoly({0: 3}), LaurentPoly({0: 2}))


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
    assert repr(p) == "<LaurentPoly 2*v^4 + -1*v^0 + 7*v^-3>"
    assert ZERO.to_text() == "0"


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
    assert add(p, q) == add(q, p)
    assert p * q == q * p
    assert add(add(p, q), r) == add(p, add(q, r))
    assert (p * q) * r == p * (q * r)
    assert p * add(q, r) == add(p * q, p * r)


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
    # The schoolbook oracle inverts any product; exact_div inverts the
    # product by binomials, here with the exponents of p stretched into
    # one coset mod 4 and q's terms read as a binomial vector.
    if not q.is_zero():
        assert schoolbook_div(p * q, q) == p
    p4 = LaurentPoly({4 * e + 2: c for e, c in p.terms()})
    binomials = {abs(e) + 1: c % 3 for e, c in q.terms()}
    product = exact_div(p4, {j: -e for j, e in binomials.items()})
    assert exact_div(product, binomials) == p4


# -- packed ring and the division oracle against their references ---------

HUGE = 2 ** 1000

coefficients = st.one_of(
    st.integers(1, 9),
    st.integers(-9, -1),
    st.integers(HUGE, 4 * HUGE),
    st.integers(-4 * HUGE, -HUGE),
)


@st.composite
def strided_terms(draw, max_terms=24):
    """A nonzero term map on offset + stride * k, stride 1 to 4."""
    stride = draw(st.sampled_from([1, 2, 3, 4]))
    offset = draw(st.integers(-12, 12))
    ks = draw(st.sets(st.integers(0, 30), min_size=1, max_size=max_terms))
    return {offset + stride * k: draw(coefficients) for k in sorted(ks)}


def test_stride_examples():
    assert common_stride({3: 1, 7: 2, 15: 1}) == 4
    assert common_stride({3: 1, 7: 2}, {-2: 1, 6: 5}) == 4
    assert common_stride({3: 1, 7: 2}, {-2: 1, 4: 5}) == 2
    assert common_stride({5: 1}, {-2: 1}) == 1
    assert common_stride({5: 1}, {-2: 1, 7: 1}) == 9


def test_mul_small_and_sparse_operands_take_loop():
    # Operands spread over a span far wider than their term count, which a
    # dense representation would expand into billions of slots.  Every
    # exponent sum (i - j) * 10^9 + i % 2 - 3j is distinct.
    a = LaurentPoly({i * 10 ** 9 + (i % 2): 1 + i for i in range(40)})
    b = LaurentPoly({-(j * 10 ** 9) - 3 * j: j - 17 for j in range(40)})
    expected = LaurentPoly({(i - j) * 10 ** 9 + (i % 2) - 3 * j: (1 + i) * (j - 17)
                            for i in range(40) for j in range(40)})
    assert len(expected) == 40 * 39
    assert a * b == expected
    assert qint(2) * qint(2) == LaurentPoly({4: 1, 0: 2, -4: 1})


def pack(ring, p):
    """The LaurentPoly p packed in ring, through its dense form."""
    return ring.pack(p.dense(ring.stride))


def l1_norm(p):
    return sum(abs(c) for _, c in p.terms())


def packed_product(a, b, bound, stride):
    """a * b for term maps a, b, through a PackedRing(bound, stride)."""
    ring = PackedRing(bound, stride)
    return unpack(ring, pack(ring, LaurentPoly(a)) * pack(ring, LaurentPoly(b)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3, 4]), st.integers(-12, 12), st.integers(1, 40),
       coefficients, coefficients)
def test_packed_ring_cancellation(g, offset, k, c, d):
    # c*(1 + x + ... + x^(k-1)) times d*(1 - x) with x = v^g: every
    # middle coefficient of the product cancels to zero.
    a = {offset + g * i: c for i in range(k)}
    b = {0: d, g: -d}
    expected = LaurentPoly({offset: c * d, offset + g * k: -c * d})
    assert LaurentPoly(a) * LaurentPoly(b) == expected
    bound = k * abs(c * d)
    assert packed_product(a, b, bound, g) == expected
    assert packed_product(a, b, bound, 1) == expected


def test_packed_ring_at_the_slot_bound():
    # Equal coefficients make the middle product coefficient reach the
    # bound min(len) * max|a| * max|b| exactly, including bounds whose bit
    # length fills whole bytes, where only the sign bit keeps slots apart.
    for m in range(1, 6):
        for c in (127, 128, 255, 256, 2 ** 16 - 1, 2 ** 64 - 1, HUGE - 1):
            for sign in (1, -1):
                a = {4 * i: c for i in range(m)}
                b = {4 * i + 1: sign * c for i in range(m)}
                expected = LaurentPoly(a) * LaurentPoly(b)
                bound = m * c * c
                assert max(abs(x) for _, x in expected.terms()) == bound
                assert packed_product(a, b, bound, 4) == expected
                assert packed_product(a, b, bound, 1) == expected


WIDE = 2 ** 200

ring_coefficients = st.one_of(
    st.integers(-9, 9),
    st.integers(WIDE, 4 * HUGE),
    st.integers(-4 * HUGE, -WIDE),
)


@st.composite
def packed_ring_operands(draw):
    """Sparse signed term maps p, q, r, stride 1 to 4, with p * q and r in
    one coset mod the stride but at different lowest exponents."""
    stride = draw(st.sampled_from([1, 2, 3, 4]))

    def terms(coset):
        lo = coset + stride * draw(st.integers(-6, 6))
        ks = draw(st.sets(st.integers(0, 40), max_size=10))
        return {lo + stride * k: draw(ring_coefficients) for k in ks}

    cp, cq = draw(st.integers(0, stride - 1)), draw(st.integers(0, stride - 1))
    return stride, terms(cp), terms(cq), terms((cp + cq) % stride)


@settings(max_examples=120, deadline=None)
@given(packed_ring_operands())
def test_packed_ring_matches_dict_arithmetic(operands):
    stride, a, b, c = operands
    p, q, r = LaurentPoly(a), LaurentPoly(b), LaurentPoly(c)
    norms = [l1_norm(x) for x in (p, q, r)]
    bound = max(*norms, norms[0] * norms[1] + norms[2])
    product = p * q
    # At the operands' stride and at stride 1, which holds every coset.
    for ring_stride in {stride, 1}:
        ring = PackedRing(bound, ring_stride)
        pp, pq, pr = pack(ring, p), pack(ring, q), pack(ring, r)
        packed = pp * pq
        assert unpack(ring, packed) == product
        assert ring.dense(packed) == product.dense(ring_stride)
        assert unpack(ring, pp * pq + pr) == add(product, r)
        assert unpack(ring, sum([pr, pp * pq])) == add(product, r)
        # Cancellation to zero, in the same coset and at another lowest exponent.
        assert unpack(ring, pp * pq + pack(ring, product.shift(0, -1))) == ZERO
        assert unpack(ring, pr + pack(ring, r.shift(0, -1))) == ZERO
        assert ring.muls == 4


@settings(max_examples=80, deadline=None)
@given(packed_ring_operands(), st.sampled_from([1, -1]), st.integers(-20, 20))
def test_packed_shift_matches_laurent_shift(operands, sign, exponent):
    # A twist by a signed monomial is LaurentPoly.shift read back from the
    # ring, commutes with packed * and +, and forms no product.
    stride, a, b, c = operands
    p, q, r = LaurentPoly(a), LaurentPoly(b), LaurentPoly(c)
    m = SignedMonomial(sign, exponent)
    norms = [l1_norm(x) for x in (p, q, r)]
    ring = PackedRing(max(*norms, norms[0] * norms[1] + norms[2]), stride)
    pp, pq, pr = pack(ring, p), pack(ring, q), pack(ring, r)
    for x, packed in ((p, pp), (q, pq), (r, pr)):
        assert unpack(ring, packed.shift(m)) == x.shift(exponent, sign)
    total = add(p * q, r).shift(exponent, sign)
    assert unpack(ring, (pp * pq + pr).shift(m)) == total
    assert unpack(ring, pp.shift(m) * pq + pr.shift(m)) == total
    assert unpack(ring, pp * pq.shift(m) + pr.shift(m)) == total
    assert ring.muls == 3


def test_packed_sum_across_cosets_raises():
    ring = PackedRing(3, 4)
    two, one = pack(ring, qint(2)), pack(ring, ONE)  # v^2 + v^-2 and 1
    with pytest.raises(ArithmeticError):
        two + one
    with pytest.raises(ArithmeticError):
        LaurentPoly({0: 1, 2: 1}).dense(4)
    # Zero lies in every coset; v^4 * 1 lies in the coset of 1.
    assert ZERO.dense(4) == ([], 0)
    assert unpack(ring, two + pack(ring, ZERO)) == qint(2)
    assert unpack(ring, one + pack(ring, LaurentPoly({4: -3}))) == LaurentPoly({0: 1, 4: -3})


@st.composite
def widen_operands(draw):
    """(stride, narrow bound, wide bound, forms): one to three dense forms
    with lowest exponents in one coset mod stride, whose sum fits the
    slots of PackedRing(narrow bound, stride); the wide bound is at least
    the narrow one, and often of the same slot width."""
    stride = draw(st.sampled_from([1, 4]))
    narrow = draw(st.one_of(st.integers(0, 300), st.integers(0, 2 ** 130)))
    wide = narrow + draw(st.one_of(st.integers(0, 2), st.integers(0, 2 ** 200)))
    count = draw(st.integers(1, 3))
    top = ((1 << (8 * PackedRing(narrow, stride).width - 1)) - 1) // count
    coefficient = st.one_of(st.sampled_from([top, -top]), st.integers(-top, top))
    coset = draw(st.integers(0, stride - 1))
    forms = [(draw(st.lists(coefficient, max_size=12)),
              coset + stride * draw(st.integers(-6, 6))) for _ in range(count)]
    return stride, narrow, wide, forms


@settings(max_examples=150, deadline=None)
@given(widen_operands())
@example((4, 300, 2 ** 70, [([], 0)]))
@example((4, 1, 1, [([127, -127, 0, 5], -3)]))
@example((1, 2 ** 64, 2 ** 100, [([2 ** 71 - 1, -(2 ** 71 - 1), 0, 1], 7)]))
@example((4, 1000, 2 ** 90, [([1, -2, 3], 0), ([-4, 5], 8), ([6], -4)]))
def test_widen_matches_packing_in_the_wide_ring(operands):
    # Widening a packed sum from the narrow ring gives the value and lo
    # that the sum of the same forms packed in the wide ring has: at the
    # slot edges +/-(2^(w-1) - 1), for zero, and at equal slot widths.
    stride, narrow_bound, wide_bound, forms = operands
    narrow, wide = PackedRing(narrow_bound, stride), PackedRing(wide_bound, stride)
    packed = sum(narrow.pack(d) for d in forms[1:]) + narrow.pack(forms[0])
    expected = sum(wide.pack(d) for d in forms[1:]) + wide.pack(forms[0])
    widened = wide.widen(packed)
    assert (widened.value, widened.lo, widened.ring) == (expected.value, expected.lo, wide)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(-2 ** 400, 2 ** 400),
       st.integers(-9, 9))
@example(0, 3, 2 ** 15 - 1, 0)
@example(9, 0, 2 ** 31 - 1, -2)
@example(9, 20, -(2 ** 47), 5)
def test_widen_reads_any_value(narrow_bits, extra_bits, value, lo):
    # Any integer, also one packed from coefficients too wide for the
    # narrow slots, widens without raising, to the digits dense reads.
    # A value just below a slot boundary, 2^(w k - 1) - 1, needs the one
    # slot read above its top one.
    narrow = PackedRing(2 ** narrow_bits, 1)
    wide = PackedRing(2 ** (narrow_bits + extra_bits), 1)
    packed = Packed(value, lo, narrow)
    assert unpack(wide, wide.widen(packed)) == unpack(narrow, packed)


def stride1_div(p, q):
    """The oracle's peel on uncompressed (stride 1) coefficient arrays."""
    num, num_off = p.dense(1)
    den, den_off = q.dense(1)
    quot = peel(num, den)
    return LaurentPoly({num_off - den_off + i: c for i, c in enumerate(quot)})


def division_outcome(divide, p, q):
    try:
        return divide(p, q)
    except NonExactDivision:
        return NonExactDivision


@settings(max_examples=60, deadline=None)
@given(strided_terms(12), strided_terms(12), strided_terms(6), st.booleans())
def test_strided_exact_div_matches_stride1(a, b, c, perturb):
    # The division oracle's stride compression against its own peel on
    # uncompressed arrays.
    p, q = LaurentPoly(a), LaurentPoly(b)
    prod = p * q
    assert schoolbook_div(prod, q) == p == stride1_div(prod, q)
    # Near misses and unrelated pairs: both paths agree, including on
    # raising NonExactDivision; dividend and divisor strides may differ.
    other = add(prod, LaurentPoly(c)) if perturb else LaurentPoly(c)
    if other.is_zero():
        return
    outcome = division_outcome(schoolbook_div, other, q)
    assert outcome == division_outcome(stride1_div, other, q)
    if outcome is not NonExactDivision:
        assert outcome * q == other


def test_strided_exact_div_examples():
    q = qint(3)  # stride 4
    p = qint(4) * q  # stride 4
    assert schoolbook_div(p, q) == qint(4)
    # A dividend of stride 2 over a divisor of stride 4: common stride 2.
    p2 = q * LaurentPoly({0: 1, 2: 3})
    assert schoolbook_div(p2, q) == LaurentPoly({0: 1, 2: 3})
    with pytest.raises(NonExactDivision):
        schoolbook_div(add(p2, LaurentPoly({1: 1})), q)
    with pytest.raises(NonExactDivision):
        schoolbook_div(add(p, LaurentPoly({p.min_deg + 2: 1})), q)
    with pytest.raises(NonExactDivision):
        schoolbook_div(qint(2), qint(3))


# -- exact_div against the schoolbook oracle ----------------------------------


@st.composite
def binomial_quotients(draw):
    """(p, binomials): a nonzero p in one coset mod 4 and a binomial vector
    with exponents in [-4, 4], j in [1, 7]; the final division of the
    state sum divides by (q^j - 1)^(4 beta_j)."""
    offset = draw(st.integers(-12, 12))
    ks = draw(st.sets(st.integers(0, 20), min_size=1, max_size=12))
    p = LaurentPoly({offset + 4 * k: draw(coefficients) for k in ks})
    binomials = draw(st.dictionaries(st.integers(1, 7), st.integers(-4, 4), max_size=5))
    return p, binomials


@settings(max_examples=80, deadline=None)
@given(binomial_quotients(), st.sampled_from(["low", "middle", "top"]),
       st.sampled_from([1, -1]))
def test_exact_div_matches_schoolbook(operands, where, delta):
    # With N' and D the products of the binomials of positive and of
    # negative exponent, exact_div(p N', binomials) is p D, and so is the
    # oracle's N' \ (p N' D).
    p, binomials = operands
    numer = binomial_product({j: e for j, e in binomials.items() if e > 0})
    denom = binomial_product({j: -e for j, e in binomials.items() if e < 0})
    dividend = p * numer
    assert exact_div(dividend, binomials) == p * denom == \
        schoolbook_div(dividend * denom, numer)
    # One coefficient off by one: both paths agree, and both raise unless
    # N' divides D (a perturbation by a monomial m leaves m D to divide).
    coeffs, lo = dividend.dense(4)
    k = {"low": 0, "middle": len(coeffs) // 2, "top": len(coeffs) - 1}[where]
    other = add(dividend, LaurentPoly({lo + 4 * k: delta}))
    if other.is_zero():
        return
    expected = division_outcome(schoolbook_div, other * denom, numer)
    assert division_outcome(exact_div, other, binomials) == expected
    if division_outcome(schoolbook_div, denom, numer) is NonExactDivision:
        assert expected is NonExactDivision


@st.composite
def factorial_multisets(draw):
    """(numerator, denominator): factorial arguments in [0, 9] and [0, 5],
    with the denominator's sum added to the numerator half the time, so
    that exact quotients (multinomials times factorials) are drawn often."""
    denominator = draw(st.lists(st.integers(0, 5), max_size=4))
    numerator = draw(st.lists(st.integers(0, 9), max_size=3))
    if draw(st.booleans()):
        numerator.append(sum(denominator))
    return numerator, denominator


@settings(max_examples=120, deadline=None)
@given(factorial_multisets())
@example(([5], [2, 3]))
@example(([2], [3]))
@example(([4, 1], [2, 2, 2]))
def test_factorial_binomials_match_schoolbook(operands):
    # v^exponent exact_div(ONE, binomials) against the products of qfact
    # divided by the oracle: equal where the quotient is a Laurent
    # polynomial, and both raise NonExactDivision where it is not.
    numerator, denominator = operands
    exponent, binomials = factorial_binomials(numerator, denominator)
    num = math.prod(map(qfact, numerator), start=ONE)
    den = math.prod(map(qfact, denominator), start=ONE)
    expected = division_outcome(schoolbook_div, num, den)
    built = division_outcome(exact_div, ONE, binomials)
    if expected is NonExactDivision:
        assert built is NonExactDivision
    else:
        assert built.shift(exponent) == expected


# Phi_d(x) for d <= 12 as ascending coefficient lists in x.
KNOWN_CYCLOTOMIC = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    7: [1] * 7,
    8: [1, 0, 0, 0, 1],
    9: [1, 0, 0, 1, 0, 0, 1],
    10: [1, -1, 1, -1, 1],
    11: [1] * 11,
    12: [1, 0, -1, 0, 1],
}


def test_cyclotomic_known_values():
    for d, coeffs in KNOWN_CYCLOTOMIC.items():
        expected = LaurentPoly({4 * i: c for i, c in enumerate(coeffs)})
        assert cyclotomic(d) == expected
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_qint_factors_into_cyclotomics():
    # [k] = v^(-2(k-1)) * prod over d | k, d > 1, of Phi_d(v^4).
    for k in range(1, 25):
        product = ONE
        for d in range(2, k + 1):
            if k % d == 0:
                product = product * cyclotomic(d)
        assert qint(k) == product.shift(-2 * (k - 1))
