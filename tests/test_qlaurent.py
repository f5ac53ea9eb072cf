"""Ring, exact division and quantum-integer behavior of the Laurent layer."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    add,
    binomial_product,
    cyclotomic,
    from_terms,
    peel,
    qbinom,
    qfact,
    schoolbook_div,
    sub,
    term_pair_product,
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
    assert qint(2) == from_terms({2: 1, -2: 1})


def test_qint_4_by_long_division():
    # [4] = (v^8 - v^-8)/(v^2 - v^-2), divided out by the oracle.
    quot, rem = naive_div({8: 1, -8: -1}, {2: 1, -2: -1})
    assert not rem
    assert from_terms({e: int(c) for e, c in quot.items()}) == qint(4)
    assert qint(4) == from_terms({6: 1, 2: 1, -2: 1, -6: 1})


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
    assert p * p == from_terms({4: 1, 0: 2, -4: 1})
    assert ONE.shift(-4, -1) == from_terms({-4: -1})
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
    # Like a packed sum, a sum across cosets mod 4 raises.
    with pytest.raises(ArithmeticError):
        add(p, ONE)
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
    assert exact_div(qint(4), {2: 1, 1: -1}).shift(2) == from_terms({4: 1, -4: 1})
    assert exact_div(qint(2) * qint(3), {}) == qint(2) * qint(3)
    # The sign: (q - 1)/(q^2 - 1) is 1/(q + 1), not its negative.
    assert exact_div(from_terms({4: 1, 0: -1}), {1: 1}) == ONE
    assert exact_div(from_terms({8: 1, 0: -1}), {2: 1, 1: -1}) == from_terms({4: 1, 0: -1})
    assert exact_div(ZERO, {3: 2, 1: -1}) == ZERO
    with pytest.raises(NonExactDivision):
        exact_div(qint(3), {2: 1})
    with pytest.raises(NonExactDivision):
        exact_div(from_terms({0: 3}), {1: 1})


def test_exact_div_leaves_its_dividend_unchanged():
    # exact_div works in place on a copy of p's coefficients, so neither
    # the shared ONE nor p changes.
    p = qint(5) * qint(3)
    records = [(x.coeffs, x.lo) for x in (ONE, p)]
    assert exact_div(ONE, {2: -1, 3: -2}) == binomial_product({2: 1, 3: 2})
    assert exact_div(p, {5: 1, 3: 1, 1: -2}) == ONE.shift(-12)
    assert exact_div(p, {}) == p
    with pytest.raises(NonExactDivision):
        exact_div(p, {7: 1})
    assert [(x.coeffs, x.lo) for x in (ONE, p)] == records
    assert ONE == LaurentPoly([1]) and p == from_terms(dict(p.terms()))


def test_schoolbook_div_examples():
    assert schoolbook_div(qint(2) * qint(3), qint(2)) == qint(3)
    # [4]/[2]: long-division oracle fixes the true quotient v^4 + v^-4.
    quot, rem = naive_div(dict(qint(4).terms()), dict(qint(2).terms()))
    assert not rem
    expected = from_terms({e: int(c) for e, c in quot.items()})
    assert expected == from_terms({4: 1, -4: 1})
    assert schoolbook_div(qint(4), qint(2)) == expected
    with pytest.raises(ZeroDivisionError):
        schoolbook_div(ONE, ZERO)
    with pytest.raises(NonExactDivision):
        schoolbook_div(qint(3), qint(2))
    with pytest.raises(NonExactDivision):
        schoolbook_div(from_terms({0: 3}), from_terms({0: 2}))


def test_degree_accessors():
    p = qint(2)
    assert (p.max_deg, p.min_deg) == (2, -2)
    assert p.leading_coeff == 1
    with pytest.raises(ZeroPolynomial):
        _ = ZERO.max_deg
    with pytest.raises(ZeroPolynomial):
        _ = ZERO.min_deg
    with pytest.raises(ZeroPolynomial):
        _ = ZERO.leading_coeff
    # The record: coefficients at lo, lo + 4, ..., trimmed at both ends,
    # with zero at lo = 0 however it was built or shifted.
    assert (p.coeffs, p.lo) == ((1, 1), -2)
    assert LaurentPoly([0, 0, 3, 0, -1, 0], 5) == from_terms({13: 3, 21: -1})
    assert LaurentPoly([0, 0], 7) == ZERO == ZERO.shift(3) == LaurentPoly([], 9)
    assert (ZERO.shift(3).coeffs, ZERO.shift(3).lo) == ((), 0)
    assert len(from_terms({13: 3, 21: -1})) == 2 and len(ZERO) == 0


def test_text_round_trip():
    p = from_terms({8: 2, 0: -1, -4: 7})
    assert p.to_text() == "2*v^8 + -1*v^0 + 7*v^-4"
    assert repr(p) == "<LaurentPoly 2*v^8 + -1*v^0 + 7*v^-4>"
    assert ZERO.to_text() == "0"


def test_json_round_trip():
    p = from_terms({10: 123456789012345678901234567890, -2: -4})
    pairs = p.to_json()
    assert pairs[0][0] == 10 and isinstance(pairs[0][1], str)
    assert LaurentPoly.from_json(pairs, (-2, 10)) == p
    # Every exponent in one coset mod 4 and within the window, both ends
    # included: an exponent outside raises as it is read, before any slot
    # is allocated, however few terms the record holds.
    assert LaurentPoly.from_json([[6, "1"], [-6, "2"]], (-6, 6)) == from_terms({6: 1, -6: 2})
    assert LaurentPoly.from_json([], (0, 0)) == ZERO
    for pairs, reason in (([[6, "1"], [0, "2"]], "different cosets mod 4"),
                          ([[4, "1"], [0, "0"], [3, "5"]], "different cosets mod 4"),
                          ([[10, "1"], [-6, "2"]], r"JSON exponent -6 outside \[-2, 10\]"),
                          ([[4 * 10 ** 12, "1"]] + p.to_json(), "JSON exponent 4000000000000 outside")):
        with pytest.raises(ValueError, match=reason):
            LaurentPoly.from_json(pairs, (-2, 10))
    assert LaurentPoly.from_json([[28, "1"], [0, "2"]], (0, 28)) == from_terms({28: 1, 0: 2})


def small_polys(coset):
    """Polynomials with up to 4 coefficients in [-9, 9] from the lowest
    exponent coset + 4k, k in [-2, 2]: zero, single terms and inner zeros
    included."""
    return st.builds(LaurentPoly, st.lists(st.integers(-9, 9), max_size=4),
                     st.integers(-2, 2).map(lambda k: coset + 4 * k))


any_small_poly = st.integers(0, 3).flatmap(small_polys)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3).flatmap(lambda c: st.tuples(*[small_polys(c)] * 3)))
def test_ring_axioms(polys):
    # Sums need one coset, so the three operands share one.
    p, q, r = polys
    assert add(p, q) == add(q, p)
    assert p * q == q * p
    assert add(add(p, q), r) == add(p, add(q, r))
    assert (p * q) * r == p * (q * r)
    assert p * add(q, r) == add(p * q, p * r)


@settings(max_examples=150, deadline=None)
@given(any_small_poly, any_small_poly)
def test_mul_degree_is_additive(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).max_deg == p.max_deg + q.max_deg
        assert (p * q).min_deg == p.min_deg + q.min_deg


@settings(max_examples=150, deadline=None)
@given(any_small_poly, any_small_poly)
def test_exact_div_inverts_mul(p, q):
    # The schoolbook oracle inverts any product; exact_div inverts the
    # product by binomials, here with q's terms read as a binomial vector.
    if not q.is_zero():
        assert schoolbook_div(p * q, q) == p
    binomials = {abs(e) + 1: c % 3 for e, c in q.terms()}
    product = exact_div(p, {j: -e for j, e in binomials.items()})
    assert exact_div(product, binomials) == p


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(lambda c: st.tuples(small_polys(c), any_small_poly)),
       st.sampled_from([1, -1]))
@example((LaurentPoly([3], -2), ZERO), 1)
@example((LaurentPoly([-2], 5), LaurentPoly([7], -3)), -1)
@example((LaurentPoly([1, 0, 0, 2], 4), LaurentPoly([0, 5, -5], 1)), 1)
def test_mul_matches_term_pairs(operands, sign):
    # The convolution of coefficient tuples against the loop over term
    # pairs, on one-coset operands including zero, single terms and
    # inner zeros, and with the product in either order.
    p, q = operands
    q = q.shift(0, sign)
    assert p * q == term_pair_product(p, q) == q * p
    assert len(p * q) <= len(p) * len(q)
    assert p * ONE == p and ZERO * p == ZERO


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(-9, 9), st.integers(-2 ** 100, 2 ** 100)), max_size=12),
       st.integers(-40, 40))
def test_json_round_trips_one_coset_records(coeffs, lo):
    p = LaurentPoly(coeffs, lo)
    window = (lo, lo + 4 * max(len(coeffs) - 1, 0))
    assert LaurentPoly.from_json(p.to_json(), window) == p
    assert LaurentPoly.from_json(list(reversed(p.to_json())), window) == p


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
    """A nonzero term map on offset + stride * k, stride 4, 8 or 12: one
    coset mod 4, with every second or third slot empty at strides 8
    and 12."""
    stride = draw(st.sampled_from([4, 8, 12]))
    offset = draw(st.integers(-12, 12))
    ks = draw(st.sets(st.integers(0, 30), min_size=1, max_size=max_terms))
    return {offset + stride * k: draw(coefficients) for k in sorted(ks)}


def test_mul_small_and_sparse_operands_take_loop():
    # Operands of 40 terms each, spread over 3,901 and 118 slots: the
    # product skips the empty slots of the shorter.  Every exponent sum
    # 4 (100 i - 3 j) + 2 is distinct, so no two term pairs cancel.
    a = from_terms({400 * i + 2: 1 + i for i in range(40)})
    b = from_terms({-12 * j: j - 17 for j in range(40)})
    expected = from_terms({400 * i + 2 - 12 * j: (1 + i) * (j - 17)
                            for i in range(40) for j in range(40)})
    assert len(expected) == 40 * 39 and (len(a.coeffs), len(b.coeffs)) == (3901, 118)
    assert a * b == expected
    assert qint(2) * qint(2) == from_terms({4: 1, 0: 2, -4: 1})


def l1_norm(p):
    return sum(abs(c) for _, c in p.terms())


def packed_product(a, b, bound):
    """a * b for term maps a, b, through a PackedRing(bound)."""
    ring = PackedRing(bound)
    return ring.dense(ring.pack(from_terms(a)) * ring.pack(from_terms(b)))


@settings(max_examples=40, deadline=None)
@given(st.integers(-12, 12), st.integers(1, 40), coefficients, coefficients)
def test_packed_ring_cancellation(offset, k, c, d):
    # c*(1 + q + ... + q^(k-1)) times d*(1 - q) with q = v^4: every
    # middle coefficient of the product cancels to zero.
    a = {offset + 4 * i: c for i in range(k)}
    b = {0: d, 4: -d}
    expected = from_terms({offset: c * d, offset + 4 * k: -c * d})
    assert from_terms(a) * from_terms(b) == expected
    assert packed_product(a, b, k * abs(c * d)) == expected


def test_packed_ring_at_the_slot_bound():
    # Equal coefficients make the middle product coefficient reach the
    # bound min(len) * max|a| * max|b| exactly, including bounds whose bit
    # length fills whole bytes, where only the sign bit keeps slots apart.
    for m in range(1, 6):
        for c in (127, 128, 255, 256, 2 ** 16 - 1, 2 ** 64 - 1, HUGE - 1):
            for sign in (1, -1):
                a = {4 * i: c for i in range(m)}
                b = {4 * i + 1: sign * c for i in range(m)}
                expected = from_terms(a) * from_terms(b)
                bound = m * c * c
                assert max(abs(x) for _, x in expected.terms()) == bound
                assert packed_product(a, b, bound) == expected


WIDE = 2 ** 200

ring_coefficients = st.one_of(
    st.integers(-9, 9),
    st.integers(WIDE, 4 * HUGE),
    st.integers(-4 * HUGE, -WIDE),
)


@st.composite
def packed_ring_operands(draw):
    """Sparse signed one-coset polynomials p, q, r, with p * q and r in
    one coset mod 4 but at different lowest exponents."""

    def terms(coset):
        lo = coset + 4 * draw(st.integers(-6, 6))
        ks = draw(st.sets(st.integers(0, 40), max_size=10))
        return from_terms({lo + 4 * k: draw(ring_coefficients) for k in ks})

    cp, cq = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return terms(cp), terms(cq), terms((cp + cq) % 4)


@settings(max_examples=120, deadline=None)
@given(packed_ring_operands())
def test_packed_ring_matches_dict_arithmetic(operands):
    p, q, r = operands
    norms = [l1_norm(x) for x in (p, q, r)]
    bound = max(*norms, norms[0] * norms[1] + norms[2])
    product = p * q
    ring = PackedRing(bound)
    pp, pq, pr = ring.pack(p), ring.pack(q), ring.pack(r)
    assert ring.dense(pp * pq) == product
    assert ring.dense(pp * pq + pr) == add(product, r)
    assert ring.dense(sum([pr, pp * pq])) == add(product, r)
    # Cancellation to zero, in the same coset and at another lowest exponent.
    assert ring.dense(pp * pq + ring.pack(product.shift(0, -1))) == ZERO
    assert ring.dense(pr + ring.pack(r.shift(0, -1))) == ZERO
    assert ring.muls == 4


@settings(max_examples=80, deadline=None)
@given(packed_ring_operands(), st.sampled_from([1, -1]), st.integers(-20, 20))
def test_packed_shift_matches_laurent_shift(operands, sign, exponent):
    # A twist by a signed monomial is LaurentPoly.shift read back from the
    # ring, commutes with packed * and +, and forms no product.
    p, q, r = operands
    m = SignedMonomial(sign, exponent)
    norms = [l1_norm(x) for x in (p, q, r)]
    ring = PackedRing(max(*norms, norms[0] * norms[1] + norms[2]))
    pp, pq, pr = ring.pack(p), ring.pack(q), ring.pack(r)
    for x, packed in ((p, pp), (q, pq), (r, pr)):
        assert ring.dense(packed.shift(m)) == x.shift(exponent, sign)
    total = add(p * q, r).shift(exponent, sign)
    assert ring.dense((pp * pq + pr).shift(m)) == total
    assert ring.dense(pp.shift(m) * pq + pr.shift(m)) == total
    assert ring.dense(pp * pq.shift(m) + pr.shift(m)) == total
    assert ring.muls == 3


def test_packed_sum_across_cosets_raises():
    ring = PackedRing(3)
    two, one = ring.pack(qint(2)), ring.pack(ONE)  # v^2 + v^-2 and 1
    with pytest.raises(ArithmeticError):
        two + one
    # Zero lies in every coset; v^4 * 1 lies in the coset of 1.
    assert ring.dense(two + ring.pack(ZERO)) == qint(2)
    assert ring.dense(one + ring.pack(from_terms({4: -3}))) == from_terms({0: 1, 4: -3})


@st.composite
def widen_operands(draw):
    """(narrow bound, wide bound, forms): one to three LaurentPolys with
    lowest exponents in one coset mod 4, whose sum fits the slots of
    PackedRing(narrow bound); the wide bound is at least the narrow one,
    and often of the same slot width."""
    narrow = draw(st.one_of(st.integers(0, 300), st.integers(0, 2 ** 130)))
    wide = narrow + draw(st.one_of(st.integers(0, 2), st.integers(0, 2 ** 200)))
    count = draw(st.integers(1, 3))
    top = ((1 << (8 * PackedRing(narrow).width - 1)) - 1) // count
    coefficient = st.one_of(st.sampled_from([top, -top]), st.integers(-top, top))
    coset = draw(st.integers(0, 3))
    forms = [LaurentPoly(draw(st.lists(coefficient, max_size=12)),
                         coset + 4 * draw(st.integers(-6, 6))) for _ in range(count)]
    return narrow, wide, forms


@settings(max_examples=150, deadline=None)
@given(widen_operands())
@example((300, 2 ** 70, [ZERO]))
@example((1, 1, [LaurentPoly([127, -127, 0, 5], -3)]))
@example((2 ** 64, 2 ** 100, [LaurentPoly([2 ** 71 - 1, -(2 ** 71 - 1), 0, 1], 7)]))
@example((1000, 2 ** 90, [LaurentPoly([1, -2, 3], 0), LaurentPoly([-4, 5], 8),
                          LaurentPoly([6], -4)]))
def test_widen_matches_packing_in_the_wide_ring(operands):
    # Widening a packed sum from the narrow ring gives the value and lo
    # that the sum of the same forms packed in the wide ring has: at the
    # slot edges +/-(2^(w-1) - 1), for zero, and at equal slot widths.
    narrow_bound, wide_bound, forms = operands
    narrow, wide = PackedRing(narrow_bound), PackedRing(wide_bound)
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
    narrow = PackedRing(2 ** narrow_bits)
    wide = PackedRing(2 ** (narrow_bits + extra_bits))
    packed = Packed(value, lo, narrow)
    assert wide.dense(wide.widen(packed)) == narrow.dense(packed)


def stride1_div(p, q):
    """The oracle's peel on uncompressed (stride 1) coefficient arrays,
    one slot per exponent of v."""
    def array(x):
        out = [0] * (x.max_deg - x.min_deg + 1)
        for e, c in x.terms():
            out[e - x.min_deg] = c
        return out

    quot = peel(array(p), array(q))
    return from_terms({p.min_deg - q.min_deg + i: c for i, c in enumerate(quot)})


def division_outcome(divide, p, q):
    try:
        return divide(p, q)
    except NonExactDivision:
        return NonExactDivision


@settings(max_examples=60, deadline=None)
@given(strided_terms(12), strided_terms(12), strided_terms(6), st.booleans())
def test_strided_exact_div_matches_stride1(a, b, c, perturb):
    # The division oracle's peel in q = v^4 against its own peel on
    # arrays over every exponent of v.
    p, q = from_terms(a), from_terms(b)
    prod = p * q
    assert schoolbook_div(prod, q) == p == stride1_div(prod, q)
    # Near misses and unrelated pairs: both paths agree, including on
    # raising NonExactDivision; dividend and divisor cosets and strides
    # may differ.  A near miss is moved into the product's coset.
    other = from_terms(c)
    if perturb:
        other = add(prod, other.shift((prod.lo - other.lo) % 4))
    if other.is_zero():
        return
    outcome = division_outcome(schoolbook_div, other, q)
    assert outcome == division_outcome(stride1_div, other, q)
    if outcome is not NonExactDivision:
        assert outcome * q == other


def test_strided_exact_div_examples():
    q = qint(3)  # coset 0 mod 4
    p = qint(4) * q  # coset 2 mod 4
    assert schoolbook_div(p, q) == qint(4)
    # A dividend at stride 8 over a divisor at stride 4, in another coset.
    p2 = q * from_terms({1: 1, 9: 3})
    assert schoolbook_div(p2, q) == from_terms({1: 1, 9: 3})
    with pytest.raises(NonExactDivision):
        schoolbook_div(add(p2, from_terms({p2.max_deg: 1})), q)
    with pytest.raises(NonExactDivision):
        schoolbook_div(add(p, from_terms({p.min_deg + 4: 1})), q)
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
    p = from_terms({offset + 4 * k: draw(coefficients) for k in ks})
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
    k = {"low": 0, "middle": len(dividend.coeffs) // 2,
         "top": len(dividend.coeffs) - 1}[where]
    other = add(dividend, LaurentPoly([delta], dividend.lo + 4 * k))
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
        assert cyclotomic(d) == LaurentPoly(coeffs)
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
