"""Building-block evaluators against hand expansions and degree laws."""

from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    add,
    bd_tetrahedron,
    factorial_delta6j,
    factorial_theta,
    orthogonality,
    qbinom,
    qfact,
    schoolbook_div,
    sub,
)

from knotslope import ktg
from knotslope.degopt import brute_max_objective
from knotslope.jones import KnotParams, _triples, domain_points
from knotslope.ktg import (
    InadmissibleColoring,
    NonRealPhase,
    circle,
    delta6j,
    dplus_delta6j,
    dplus_theta,
    framing_power,
    is_admissible,
    theta,
)
from knotslope.qlaurent import (
    ONE,
    ZERO,
    LaurentPoly,
    NonExactDivision,
    PackedRing,
    factorial_binomials,
    qint,
)


def binom_by_factorials(n, k):
    """Quantum binomial straight from the factorial quotient."""
    return schoolbook_div(qfact(n), qfact(k) * qfact(n - k))


def delta_oracle(a, b, c, alpha, beta, gamma, binom=binom_by_factorials):
    """The 6j quotient recomputed independently as binomial products.

    Same alternating z-sum, but every binomial is a polynomial, by default
    an exact factorial division, multiplied out instead of a factorial
    quotient divided by exact_div, and the range is found by scanning
    instead of interval arithmetic.
    """
    half = (a + b + c) // 2
    tops = [(-a + b + c) // 2, (a - b + c) // 2, (a + b - c) // 2]
    offsets = [(a + beta + gamma) // 2, (alpha + b + gamma) // 2, (alpha + beta + c) // 2]
    acc = ZERO
    for z in range(0, a + b + c + alpha + beta + gamma + 2):
        if not 0 <= half + 1 <= z + 1:
            continue
        if any(not 0 <= z - o <= t for t, o in zip(tops, offsets)):
            continue
        term = binom(z + 1, half + 1)
        for t, o in zip(tops, offsets):
            term = term * binom(t, z - o)
        acc = add(acc, term.shift(0, (-1) ** (z + half)))
    return acc


def test_admissibility():
    assert is_admissible(0, 0, 0)
    assert is_admissible(2, 2, 2)
    assert not is_admissible(2, 0, 0)
    assert not is_admissible(1, 1, 1)
    assert not is_admissible(-2, 2, 0)


def test_theta_examples():
    assert theta(0, 0, 0) == ONE
    assert theta(2, 0, 2) == qint(3)
    assert theta(2, 2, 2) == (qint(4) * qint(3) * qint(2)).shift(0, -1)
    with pytest.raises(InadmissibleColoring):
        theta(2, 0, 0)
    with pytest.raises(InadmissibleColoring):
        theta(1, 1, 1)


def test_theta_symmetry():
    for triple in [(2, 4, 6), (0, 2, 2), (4, 4, 4), (2, 6, 8), (6, 8, 10)]:
        values = {theta(*perm) for perm in permutations(triple)}
        assert len(values) == 1


def test_theta_is_factorial_quotient():
    # Dual route: theta's two-binomial product must equal the exact division
    # of factorials that defines the multinomial, on every admissible triple.
    triples = 0
    for a in range(11):
        for b in range(11):
            for c in range(11):
                if not is_admissible(a, b, c):
                    continue
                h = (a + b + c) // 2
                den = qfact(h - a) * qfact(h - b) * qfact(h - c)
                assert theta(a, b, c) == circle(h) * schoolbook_div(qfact(h), den), (a, b, c)
                triples += 1
    assert triples == 381


def test_leaves_match_the_qbinom_products_on_state_sum_shapes():
    # Each leaf as a product of Pascal-recurrence binomials, multiplied
    # out, against the one exact division of its factorial quotient, on
    # every leaf shape of the state sum for n <= 7: theta and the 6j
    # quotient of each sorted admissible triple, theta(x,n,n), and the
    # (b, d) quotient.
    for n in range(8):
        evens = range(0, 2 * n + 1, 2)
        for a in evens:
            for b in evens[a // 2:]:
                for c in evens[b // 2:]:
                    if not is_admissible(a, b, c):
                        continue
                    h = (a + b + c) // 2
                    assert theta(a, b, c) == \
                        circle(h) * qbinom(h, h - a) * qbinom(a, h - b), (a, b, c)
                    assert delta6j(a, b, c, n, n, n) == \
                        delta_oracle(a, b, c, n, n, n, qbinom), (a, b, c, n)
        for x in evens:
            h = x // 2 + n
            assert theta(x, n, n) == circle(h) * qbinom(h, n - x // 2) * qbinom(x, x // 2)
            for d in evens:
                assert delta6j(x, n, n, d, n, n) == \
                    delta_oracle(x, n, n, d, n, n, qbinom), (x, d, n)


def test_bd_leaves_have_tetrahedral_symmetry():
    # The tetrahedral-symmetry oracle: Tet = delta6j theta(b,n,n) with
    # faces (b,n,n) twice and (d,n,n) twice is the same tetrahedron with b
    # and d exchanged, so the (b, d) leaf times theta(b,n,n) equals the
    # (d, b) leaf times theta(d,n,n), on every bd shape for n <= 8.
    for n in range(9):
        evens = range(0, 2 * n + 1, 2)
        for b in evens:
            for d in evens[b // 2 + 1:]:
                assert bd_tetrahedron(b, d, n) == bd_tetrahedron(d, b, n), (b, d, n)


# Values at the edges of pack and dense besides the leaves: zero slots at
# either end, which the constructor trims, zero itself, and negative top
# coefficients.
EDGE_VALUES = (LaurentPoly([0, 0, 5, -3, 0], -6), LaurentPoly([0, 7, 0, 0], 3), ZERO,
               LaurentPoly([4, 0, -9], 2), LaurentPoly([0, -1, 0], -8))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packing_a_leaf_equals_packing_its_polynomial(data):
    # The state sum packs each theta and 6j leaf as it comes from ktg; the
    # packed value is the leaf's polynomial evaluated at v^4 = 2^w, and
    # dense reads the leaf back, so its coefficients have nonzero ends and
    # its lo is the lowest exponent.  The same holds for EDGE_VALUES.
    n = data.draw(st.integers(0, 7))
    color = st.integers(0, n).map(lambda k: 2 * k)
    a, b, c, d = (data.draw(color) for _ in range(4))
    leaves = [ktg.delta6j(b, n, n, d, n, n), *EDGE_VALUES]
    if is_admissible(a, b, c):
        leaves += [ktg.theta(a, b, c), ktg.delta6j(a, b, c, n, n, n)]
    for leaf in leaves:
        norm = sum(abs(x) for _, x in leaf.terms())
        ring = PackedRing(max(norm, 1) * data.draw(st.integers(1, 2 ** 70)))
        packed = ring.pack(leaf)
        w = 8 * ring.width
        assert packed.value == sum(x << (w * k) for k, x in enumerate(leaf.coeffs))
        assert packed.lo == leaf.lo
        assert ring.dense(packed) == leaf


def test_leaves_match_the_factorial_route_on_state_sum_shapes():
    # The Gaussian-row leaves against the factorial route they replaced,
    # one exact division of +/-v^exponent per theta and per 6j z-term, on
    # every leaf shape of the state sum for n <= 9.
    shapes = 0
    for n in range(10):
        evens = range(0, 2 * n + 1, 2)
        for a, b, c in _triples(n):
            if a <= b <= c:
                assert ktg.theta(a, b, c) == factorial_theta(a, b, c), (a, b, c)
                assert ktg.delta6j(a, b, c, n, n, n) == \
                    factorial_delta6j(a, b, c, n, n, n), (a, b, c, n)
                shapes += 2
        for x in evens:
            assert ktg.theta(x, n, n) == factorial_theta(x, n, n), (x, n)
            for d in evens:
                assert ktg.delta6j(x, n, n, d, n, n) == \
                    factorial_delta6j(x, n, n, d, n, n), (x, d, n)
            shapes += 1 + len(evens)
    assert shapes == 1280


def test_leaves_raise_on_a_wrong_binomial_vector(monkeypatch):
    # Each theta and 6j z-term of the factorial route is an exact division
    # of 1, so a vector with one binomial too many in the divisor is
    # caught, not multiplied out.
    def one_too_many(numerator, denominator):
        exponent, binomials = factorial_binomials(numerator, denominator)
        top = max(numerator)
        return exponent, {**binomials, top: binomials.get(top, 0) + 1}

    monkeypatch.setattr("knotslope.ktg.factorial_binomials", one_too_many)
    monkeypatch.setattr("oracles.factorial_binomials", one_too_many)
    with pytest.raises(NonExactDivision):
        factorial_theta(2, 2, 2)
    with pytest.raises(NonExactDivision):
        factorial_delta6j(2, 2, 2, 2, 2, 2)


def test_leaves_raise_on_a_wrong_gaussian_row(monkeypatch):
    # The Gaussian route's tripwire: a row whose inner entries G(m, k),
    # 0 < k < m, each carry 1 too many in the constant term has the wrong
    # coefficient sum, so theta, which reads G(h+1, 1), and the 6j
    # quotient, whose z = 4 term reads G(5, 4), no longer sum to their
    # value at q = 1.  The rows built while patched are dropped.
    row = ktg._gaussian_row

    def one_too_many(m, width):
        entries = row(m, width)
        return tuple(g if k in (0, m) else g + g.ring.pack(ONE)
                     for k, g in enumerate(entries))

    row.cache_clear()
    monkeypatch.setattr(ktg, "_gaussian_row", one_too_many)
    try:
        with pytest.raises(ArithmeticError, match="is not the value"):
            ktg.theta(2, 2, 2)
        with pytest.raises(ArithmeticError, match="is not the value"):
            ktg.delta6j(2, 2, 2, 2, 2, 2)
    finally:
        row.cache_clear()


def test_six_j_orthogonality():
    # The orthogonality oracle: every state-sum shape a = b = c = d = n for
    # n <= 6, and every a, b, c, d <= 4, over every pair (i, k).  It reads
    # the leaves and no z-sum, so it checks the z-sum's faces, relative
    # signs and normalization from outside both leaf routes; an overall
    # sign of the 6j quotient cancels, as Tet appears squared.
    shapes = [(n,) * 4 for n in range(7)] + list(product(range(5), repeat=4))
    pairs = 0
    for shape in shapes:
        for (i, k), (lhs, rhs) in orthogonality(*shape).items():
            assert lhs == rhs, (shape, i, k)
            assert rhs.is_zero() == (i != k), (shape, i, k)
            pairs += 1
    assert pairs == 140 + 855


def test_circle_examples():
    assert circle(0) == ONE
    assert circle(1) == qint(2).shift(0, -1)
    assert circle(2) == qint(3)
    for k in range(21):
        assert circle(k) == qint(k + 1).shift(0, (-1) ** k)
        assert circle(k).max_deg == 2 * k
    with pytest.raises(ValueError):
        circle(-1)


def test_framing_power_examples():
    assert framing_power(2, 1) == (-1, -4)
    assert framing_power(0, 5) == (1, 0)
    assert framing_power(1, 4) == (1, -6)
    sign, exponent = framing_power(2, 1)
    assert LaurentPoly([sign], exponent) == LaurentPoly([-1], -4)
    with pytest.raises(NonRealPhase):
        framing_power(1, 1)
    with pytest.raises(ValueError):
        framing_power(-2, 1)


def test_delta6j_examples():
    assert delta6j(0, 0, 0, 0, 0, 0) == ONE
    d = delta6j(2, 2, 2, 2, 2, 2)
    # Hand expansion: z=3 gives +1, z=4 gives -[5].
    assert d == sub(ONE, qint(5))
    assert d == LaurentPoly([-1, -1, 0, -1, -1], -8)
    assert d.max_deg == 8
    assert delta6j(2, 1, 1, 2, 1, 1) == ONE
    # Non-triangle first triple vanishes rather than erroring.
    assert delta6j(4, 0, 0, 0, 2, 2) == ZERO
    # An odd vertex sum is an error: alpha + b + gamma = 5.
    with pytest.raises(InadmissibleColoring):
        delta6j(2, 2, 2, 1, 2, 2)


def test_delta6j_against_factorial_oracle():
    cases = [
        (0, 0, 0, 0, 0, 0),
        (2, 2, 2, 2, 2, 2),
        (2, 2, 0, 1, 1, 1),
        (2, 2, 2, 3, 3, 3),
        (4, 2, 2, 3, 3, 3),
        (2, 1, 1, 2, 1, 1),
        (4, 3, 3, 2, 3, 3),
        (0, 2, 2, 4, 2, 2),
    ]
    for args in cases:
        assert delta6j(*args) == delta_oracle(*args), args


def test_delta6j_symmetric_in_the_first_triple():
    # With alpha = beta = gamma = n, permuting (a, b, c) permutes the four
    # quantum binomials of each z-term, so the state sum may share one
    # value per sorted triple.
    for n in range(0, 6):
        evens = range(0, 2 * n + 1, 2)
        for a in evens:
            for b in evens[a // 2:]:
                for c in evens[b // 2:]:
                    if not is_admissible(a, b, c):
                        continue
                    values = {delta6j(*perm, n, n, n) for perm in permutations((a, b, c))}
                    assert len(values) == 1, (a, b, c, n)


def test_dplus_theta_examples():
    assert dplus_theta(2, 2, 2) == 12 == theta(2, 2, 2).max_deg
    assert dplus_theta(0, 0, 0) == 0


def test_dplus_delta6j_example():
    assert dplus_delta6j(2, 2, 2, 2, 2, 2) == 8
    with pytest.raises(InadmissibleColoring):
        dplus_delta6j(4, 0, 0, 0, 2, 2)


@pytest.fixture
def empty_leaf_memos():
    """Empty the dplus_theta and dplus_delta6j caches before and after a test."""
    dplus_theta.cache_clear()
    dplus_delta6j.cache_clear()
    yield
    dplus_theta.cache_clear()
    dplus_delta6j.cache_clear()


def test_theta_memo_equals_the_unwrapped_degree(empty_leaf_memos):
    # Every theta argument degree_objective reads for n <= 9, (a,b,c)
    # and the four (x,n,n): each distinct argument misses once, then hits
    # once, and both reads equal the uncached body.
    args = {shape for n in range(10) for a, b, c, d in domain_points(n)
            for shape in ((a, b, c), *((x, n, n) for x in (a, b, c, d)))}
    for arg in sorted(args):
        assert dplus_theta(*arg) == dplus_theta.__wrapped__(*arg) == dplus_theta(*arg), arg
    assert len(args) == 535
    info = dplus_theta.cache_info()
    assert (info.misses, info.hits, info.currsize) == (535, 535, 535)


def test_theta_memo_keeps_no_errors(empty_leaf_memos):
    # An odd color sum raises on every call: lru_cache stores no
    # exception, so nothing enters the memo.
    for _ in range(2):
        with pytest.raises(InadmissibleColoring):
            dplus_theta(1, 0, 0)
    info = dplus_theta.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 0)


def test_delta_memo_equals_the_unwrapped_degree(empty_leaf_memos):
    # Every 6j shape degree_objective reads for n <= 9,
    # delta6j(a,b,c,n,n,n) and delta6j(b,n,n,d,n,n): each distinct
    # argument misses once, then hits once, and both reads equal the
    # uncached body.
    args = {shape for n in range(10) for a, b, c, d in domain_points(n)
            for shape in ((a, b, c, n, n, n), (b, n, n, d, n, n))}
    for arg in sorted(args):
        assert dplus_delta6j(*arg) == dplus_delta6j.__wrapped__(*arg) == dplus_delta6j(*arg), arg
    assert len(args) == 1900
    info = dplus_delta6j.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1900, 1900, 1900)


def test_delta_memo_keeps_no_errors(empty_leaf_memos):
    # An empty z-range raises on every call: lru_cache stores no
    # exception, so nothing enters the memo.
    for _ in range(2):
        with pytest.raises(InadmissibleColoring):
            dplus_delta6j(4, 0, 0, 0, 2, 2)
    info = dplus_delta6j.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 0)


def test_delta_memo_is_knot_independent(empty_leaf_memos):
    # Nothing knot-dependent enters either key: after the exhaustive scan
    # of one tuple for n <= 5, the scan of a tuple of another case reads
    # the five theta degrees and both 6j degrees of every lattice point
    # from the memos.
    first, second = KnotParams(-3, 2, 3, -3), KnotParams(-3, 6, 5, -3)
    for n in range(6):
        brute_max_objective(first, n)
    theta_before, delta_before = dplus_theta.cache_info(), dplus_delta6j.cache_info()
    assert (theta_before.misses, delta_before.misses) == (123, 313)
    for n in range(6):
        brute_max_objective(second, n)
    theta_after, delta_after = dplus_theta.cache_info(), dplus_delta6j.cache_info()
    points = sum(len(domain_points(n)) for n in range(6))
    assert points == 1183
    assert (theta_after.misses, theta_after.hits - theta_before.hits) == (
        theta_before.misses, 5 * points)
    assert (delta_after.misses, delta_after.hits - delta_before.hits) == (
        delta_before.misses, 2 * points)


def test_theta_degree_law_sweep():
    for a in range(0, 21, 2):
        for b in range(a, 21, 2):
            for c in range(b, min(a + b, 20) + 1, 2):
                assert theta(a, b, c).max_deg == dplus_theta(a, b, c)
    # odd-color admissible triples obey the law too
    for triple in [(1, 1, 2), (3, 5, 6), (1, 3, 4), (5, 5, 8), (7, 9, 10)]:
        assert theta(*triple).max_deg == dplus_theta(*triple)


def test_delta_degree_law_state_sum_shapes():
    for n in range(0, 7):
        for b in range(0, min(2 * n, 12) + 1, 2):
            for d in range(0, min(2 * n, 12) + 1, 2):
                value = delta6j(b, n, n, d, n, n)
                if value.is_zero():
                    continue
                assert value.max_deg == dplus_delta6j(b, n, n, d, n, n), (b, d, n)


def test_delta_emptiness_and_degree_law_on_general_shapes():
    # Every 6-tuple with entries 0..6 and even vertex sums: the quotient
    # is zero exactly when its degree raises for an empty z-range, and
    # otherwise the degree law holds.  The empty ones include a negative
    # top, (4,0,0,0,2,2), and an empty range with every top non-negative,
    # (2,2,0,4,0,0).
    counts = {True: 0, False: 0}
    for a, b, c, alpha, beta, gamma in product(range(7), repeat=6):
        sums = (a + b + c, a + beta + gamma, alpha + b + gamma, alpha + beta + c)
        if any(x % 2 for x in sums):
            continue
        args = (a, b, c, alpha, beta, gamma)
        value = delta6j(*args)
        try:
            degree = dplus_delta6j(*args)
        except InadmissibleColoring:
            assert value.is_zero(), args
            counts[True] += 1
            continue
        assert value.max_deg == degree, args
        counts[False] += 1
    assert counts == {True: 11478, False: 3418}
    for args in ((4, 0, 0, 0, 2, 2), (2, 2, 0, 4, 0, 0)):
        assert delta6j(*args) == ZERO
        with pytest.raises(InadmissibleColoring):
            dplus_delta6j(*args)
