"""State-sum assembly: domain, summands, the polynomial and its degree."""

import hashlib
import logging
import math
import random
import re
import types

import pytest
from oracles import (
    add,
    binomial_product,
    cyclotomic,
    delta6j,
    from_terms,
    habiro_coefficients,
    leaf_poly,
    schoolbook_div,
    summand,
    theta,
    theta_exponents,
)

import knotslope.jones as jones_mod
from knotslope.degopt import (
    brute_max_objective,
    closed_form_dplus,
    degree_model,
    degree_objective,
)
from knotslope.jones import (
    KnotParams,
    _fold,
    _state_tables,
    colored_jones,
    domain_points,
    exponent_window,
    lcm_binomials,
    theta_lcm_exponents,
)
from knotslope.ktg import circle, framing_power, theta_factors
from knotslope.qlaurent import (
    ONE,
    ZERO,
    LaurentPoly,
    NonExactDivision,
    PackedRing,
    exact_div,
    qint,
)


@pytest.fixture
def fresh_state_tables():
    """Empty the per-n table cache before and after the test, so that a
    table cached by an earlier test cannot hide a patch of the norm, the
    ring or a leaf function, and a table built under one cannot leak."""
    _state_tables.cache_clear()
    yield
    _state_tables.cache_clear()


def flat_state_sum(params, N, points=None):
    """Oracle: the state sum term by term over one common denominator.

    Independent of the grouping and cofactors of colored_jones: every pair
    (num, den) from summand is brought over D = prod_x theta(x,n,n)^4 by an
    exact division, the numerators are added in the given order, and D is
    divided out once before the framing prefactor.
    """
    n = N - 1
    if points is None:
        points = domain_points(n)
    common = ONE
    for x in range(0, 2 * n + 1, 2):
        common = common * math.prod([theta(x, n, n)] * 4, start=ONE)
    total = ZERO
    for colors in points:
        num, den = summand(params, n, colors)
        total = add(total, num * schoolbook_div(common, den))
    prefactor = framing_power(n, -4 * params.u)
    sign = prefactor.sign * (-1 if n % 2 else 1)
    return schoolbook_div(total, common).shift(prefactor.exponent, sign)


def test_params_validation():
    KnotParams(-3, 2, 3, -1)
    with pytest.raises(ValueError):
        KnotParams(-2, 2, 3, -1)  # r even
    with pytest.raises(ValueError):
        KnotParams(-3, 3, 3, -1)  # s odd
    with pytest.raises(ValueError):
        KnotParams(-3, 2, 3, 1)  # u positive
    with pytest.raises(ValueError):
        KnotParams(-1, 2, 3, -1)  # r too large
    with pytest.raises(ValueError):
        KnotParams(-3, 2, 3, -2)  # u even


def test_domain_points_small():
    assert domain_points(0) == [(0, 0, 0, 0)]
    pts = domain_points(1)
    assert len(pts) == 10
    triples = {p[:3] for p in pts}
    assert triples == {(0, 0, 0), (0, 2, 2), (2, 0, 2), (2, 2, 0), (2, 2, 2)}
    assert {p[3] for p in pts} == {0, 2}
    assert pts == sorted(pts)
    with pytest.raises(ValueError):
        domain_points(-1)


def test_domain_points_count_against_filter():
    # Independent enumeration: filter the full even cube by the conditions.
    for n in (2, 3):
        expected = [
            (a, b, c, d)
            for a in range(0, 2 * n + 1, 2)
            for b in range(0, 2 * n + 1, 2)
            for c in range(0, 2 * n + 1, 2)
            for d in range(0, 2 * n + 1, 2)
            if a <= b + c and b <= a + c and c <= a + b
        ]
        assert domain_points(n) == expected


def test_summand_trivial_point():
    params = KnotParams(-3, 2, 3, -3)
    assert summand(params, 0, (0, 0, 0, 0)) == (ONE, ONE)


def test_summand_composes_factors():
    params = KnotParams(-3, 2, 3, -3)
    n = 1
    colors = (2, 2, 2, 2)
    value = summand(params, n, colors)
    d1 = delta6j(2, 2, 2, n, n, n)
    num = theta(2, 2, 2) * d1 * d1 * delta6j(2, n, n, 2, n, n)
    for w in (-3, 2, 3, -3):
        m = framing_power(2, w)
        num = num.shift(m.exponent, m.sign)
    num = num * math.prod([circle(2)] * 4, start=ONE)
    den = math.prod([theta(2, n, n)] * 4, start=ONE)
    assert not value[0].is_zero()
    assert value == (num, den)


def test_summand_factor_cross_check():
    params = KnotParams(-3, 2, 3, -3)
    n = 1
    colors = (2, 2, 0, 0)
    value = summand(params, n, colors)
    d1 = delta6j(2, 2, 0, n, n, n)
    expected_num = theta(2, 2, 0) * d1 * d1 * delta6j(2, n, n, 0, n, n)
    fa = framing_power(2, -3)
    fb = framing_power(2, 2)
    expected_num = expected_num.shift(fa.exponent + fb.exponent, fa.sign * fb.sign)
    expected_num = expected_num * circle(2) * circle(2)
    expected_den = theta(2, n, n) * theta(2, n, n) * theta(0, n, n) * theta(0, n, n)
    assert value == (expected_num, expected_den)


def test_summand_rejects_bad_colors():
    params = KnotParams(-3, 2, 3, -3)
    with pytest.raises(ValueError):
        summand(params, 1, (2, 0, 0, 0))
    with pytest.raises(ValueError):
        summand(params, 1, (1, 1, 0, 0))


def test_colored_jones_normalization():
    for tup in [(-3, 2, 3, -3), (-3, 4, 5, -1), (-5, 2, 3, -1), (-3, 6, 5, -3)]:
        assert colored_jones(KnotParams(*tup), 1) == ONE
    with pytest.raises(ValueError):
        colored_jones(KnotParams(-3, 2, 3, -3), 0)


# One quadratic-case and one linear-case tuple for the flat-sum oracle.
FLAT_ORACLE_TUPLES = [(-3, 2, 3, -3), (-3, 6, 5, -3)]


def test_colored_jones_equals_summand_total():
    # One tuple of every tag: 1 and 2.2 above, then 2.1, 2.3 and 2.4.
    for tup in FLAT_ORACLE_TUPLES + [(-5, 6, 7, -1), (-5, 8, 9, -1), (-3, 4, 5, -3)]:
        params = KnotParams(*tup)
        for N in range(1, 5):
            assert colored_jones(params, N) == flat_state_sum(params, N)


# SHA-256 of colored_jones(...).to_text(), recorded from the product-
# denominator implementation that the LCM denominator replaced.
POLY_DIGESTS = {
    ((-3, 2, 3, -3), 5): "aa5d91d1c1adf572000a64f31e176050b236558fea8d3ca5b595e669e41f11c5",
    ((-3, 2, 3, -3), 6): "41af03258aa4dad45f66cbd89566c80906af8d85669b051f98e0633df5375798",
    ((-3, 2, 3, -3), 7): "386569d9e5284f026092af8f3bf3784e8a045eb6de12a69160def2bdaf787b7f",
    ((-3, 6, 5, -3), 5): "795e8e5fff61f49701b6f36049cf16f8ce72338494216d333df0fe513ade3052",
    ((-3, 6, 5, -3), 6): "115b9156dd74ea97962c8fab0246b72ff08cae2006a91b633b7bab26ca8621a6",
    ((-3, 6, 5, -3), 7): "d1f2def84c4eb3b68e31dc5a9a382691313b9b89f3a03361668d983a4a8e7aa3",
    # Recorded from the dict-arithmetic state sum that packed integers replaced.
    ((-3, 2, 3, -3), 8): "4d236bc50c00f6a7453abe79334cce4a973e8670aa7a2c49f0719ac61b85fe3f",
    ((-3, 6, 5, -3), 8): "03f797f397a356acd7fefba99f4229b7abe8b188df2a1d41fbd872db75947659",
    # Recorded from the three-level grouped sum that the q and r tables replaced.
    ((-3, 2, 3, -3), 9): "524c85356a6f726673c6e2f554c22e540eb86237efa84813d0920e9db5fd469c",
    ((-3, 6, 5, -3), 9): "1a9bf28b731d4ba8ad598dec13af12aeb9aa73c0db52434ccc22c0fd55bf1c29",
    # Beyond the CLI ceiling, where the leaves' slots are widest; recorded
    # from the factorial-quotient leaves that the Gaussian rows replaced.
    ((-3, 2, 3, -3), 10): "240b6a0aa284807d87262afb54bdd4ea9896cee2d3228d7ec9ccd69f277a5102",
    ((-3, 6, 5, -3), 10): "d7f3439a1399bc6c611dc90b5c62387f9fde5f3f3b7785cee82bd550ca3c93ec",
    ((-3, 2, 3, -3), 11): "b8bc73f3b79af7d6c5875089773b0594a84f948c81a5b2a39a52151169d8e3ef",
    ((-3, 6, 5, -3), 11): "a22366af5af25f140c516a9cb04a734304abfa3e1c93337f4ac3cb5ae100663f",
}


def test_colored_jones_digest_pin():
    for (tup, N), digest in POLY_DIGESTS.items():
        text = colored_jones(KnotParams(*tup), N).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_exponent_window_holds_sparse_colored_jones():
    # J_2 of (-3, 2, t, -1) keeps 6 terms while its span grows with t, so
    # the share of its slots that it fills falls from 62% at t = 3 to 13%
    # at t = 41: the window must follow the state sum's shape, not the
    # term count.  Its leaf-degree bound is crude; the symmetry argument
    # behind it also holds with the exact largest leaf degree, the knot-
    # independent part of degree_objective, which is checked here too.
    no_twist = types.SimpleNamespace(astuple=lambda: (0, 0, 0, 0))
    tuples = [(-3, 2, t, -1) for t in range(3, 42, 6)]
    for tup in tuples + [(-5, 6, 13, -1), (-3, 2, 25, -3), (-15, 12, 13, -9)]:
        params = KnotParams(*tup)
        for N in range(1, 8):
            n = N - 1
            poly = colored_jones(params, N)
            lo, hi = exponent_window(params, N)
            assert lo <= poly.min_deg <= poly.max_deg <= hi
            leaves = max(degree_objective(no_twist, n, s) for s in domain_points(n))
            radius = leaves + 2 * n * (n + 1) * sum(map(abs, tup))
            assert abs(poly.min_deg - (lo + hi) // 2) <= radius
            assert abs(poly.max_deg - (lo + hi) // 2) <= radius


def cyclotomic_power_product(exponents):
    result = ONE
    for d, m in exponents.items():
        result = result * math.prod([cyclotomic(d)] * m, start=ONE)
    return result


def test_theta_is_monomial_times_cyclotomic_powers():
    for n in range(13):
        for x in range(0, 2 * n + 1, 2):
            value = theta(x, n, n)
            product = cyclotomic_power_product(theta_exponents(x, n))
            sign = value.leading_coeff
            assert sign in (1, -1)
            assert value == product.shift(value.max_deg - product.max_deg, sign)


def test_lcm_missing_a_factor_is_not_divisible():
    # L is a common multiple of the thetas, and the least one: dropping
    # one Phi_d from L breaks the division by a theta that carries Phi_d
    # to the full multiplicity.
    n = 7
    lcm = theta_lcm_exponents(n)
    full = cyclotomic_power_product(lcm)
    for x in range(0, 2 * n + 1, 2):
        schoolbook_div(full, theta(x, n, n))
    for d, top in lcm.items():
        short = schoolbook_div(full, cyclotomic(d))
        x = next(x for x in range(0, 2 * n + 1, 2) if theta_exponents(x, n).get(d) == top)
        with pytest.raises(NonExactDivision):
            schoolbook_div(short, theta(x, n, n))


def test_lcm_binomials_are_the_cyclotomic_product():
    # prod (q^j - 1)^beta_j is L = prod Phi_d(q)^m_d: multiplied out with
    # the negative beta_j moved to the other side, and as the division
    # chain that _state_tables builds L with.
    for n in range(16):
        beta = lcm_binomials(n)
        lcm = cyclotomic_power_product(theta_lcm_exponents(n))
        assert binomial_product({j: b for j, b in beta.items() if b > 0}) == \
            lcm * binomial_product({j: -b for j, b in beta.items() if b < 0}), n
        assert exact_div(ONE, {j: -b for j, b in beta.items()}) == lcm, n


def test_theta_binomials_have_the_cyclotomic_content():
    # q^j - 1 carries Phi_d(q) once for each divisor d of j, so theta's
    # binomial vector carries Phi_d to the sum of gamma_j over the
    # multiples j of d: the floor counts for d > 1, and 0 for d = 1.
    # theta_factors gives the divisor's vector, -gamma.
    for n in range(13):
        for x in range(0, 2 * n + 1, 2):
            gamma = {j: -e for j, e in theta_factors(x, n, n)[1].items()}
            content = {d: sum(e for j, e in gamma.items() if j % d == 0)
                       for d in range(1, x // 2 + n + 2)}
            assert content.pop(1) == 0, (x, n)
            assert {d: m for d, m in content.items() if m} == theta_exponents(x, n), (x, n)


def test_state_tables_reject_an_lcm_missing_a_factor(monkeypatch):
    # With one Phi_d dropped from L, the cofactor of a theta that carries
    # Phi_d to the full multiplicity is not exact.
    n = 7
    full = theta_lcm_exponents(n)
    for d in full:
        short = dict(full)
        short[d] -= 1
        monkeypatch.setattr("knotslope.jones.theta_lcm_exponents", lambda n, short=short: short)
        with pytest.raises(NonExactDivision):
            _state_tables.__wrapped__(n)


def test_lcm_multiplicities_in_closed_form():
    # The closed form of theta_lcm_exponents is the per-d maximum of the
    # floor counts of every theta(x,n,n): Phi_d(v^4) twice for
    # 2 <= d <= n+1 with d not dividing n+1, and once for the divisors of
    # n+1 and for n+1 < d <= 2n+1.
    for n in range(41):
        expected = {}
        for x in range(0, 2 * n + 1, 2):
            for d, m in theta_exponents(x, n).items():
                expected[d] = max(expected.get(d, 0), m)
        assert theta_lcm_exponents(n) == expected, n


def debug_counts(params, N, caplog):
    """The DEBUG line of one colored_jones call: (line, table slot bits,
    slot bits, bound bits, total max |coef| bits, packed multiplies,
    packed adds)."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="knotslope.jones"):
        colored_jones(params, N)
    lines = [r.getMessage() for r in caplog.records if r.name == "knotslope.jones"]
    assert len(lines) == 1
    return (lines[0], *map(int, re.search(
        r"(\d+)-bit table slots, (\d+)-bit slots for an l1 bound of (\d+) bits, "
        r"total max \|coef\| "
        r"(\d+) bits; (\d+) packed multiplies, (\d+) packed adds", lines[0]).groups()))


def test_colored_jones_logs_denominator_spans(fresh_state_tables, caplog, capsys):
    line, table_slot, slot, bound, coef, muls, adds = debug_counts(
        KnotParams(-3, 2, 3, -3), 4, caplog)
    # L = (q^4 - 1)(q^5 - 1)(q^6 - 1)(q^7 - 1)(q^3 - 1) / ((q^2 - 1)(q - 1)^4),
    # in all 10 binomial factors, of span 4 * 19 in v.
    assert line.startswith("colored_jones n=3: L has 10 binomial factors, span 76 ")
    # The spans of theta(x,3,3), read off their binomial vectors, sum to
    # the span of their product as polynomials: 12 + 36 + 52 + 60.
    assert "(product of thetas 160)" in line and "before the peel" in line
    assert slot % 8 == 0 and slot - 8 < bound + 1 <= slot
    assert table_slot % 8 == 0 and table_slot <= slot
    assert 0 < coef <= bound
    # One product per b, n + 1 = 4 in all; the fold into q and r is done
    # with the cached tables, not in the call.  Each sum adds all but the
    # first term of its group: for each b, the (a, c) with (a, b, c)
    # admissible and the n + 1 values of d, then the n + 1 products.  The
    # counts are over both rings: the per-b sums add in the table ring,
    # the products and their sum form in the result ring.
    triples = len({p[:3] for p in domain_points(3)})
    assert (muls, adds) == (4, (triples - 4) + 4 * 3 + 3)
    # A second knot at the same n reads the cached tables and logs this
    # call's counts, not the ring's running totals.
    assert debug_counts(KnotParams(-5, 6, 5, -1), 4, caplog)[5:] == (muls, adds)
    assert capsys.readouterr().out == ""


# The DEBUG lines at N = 8 on the benchmark's two tuples, recorded when
# the line read L's and the total's spans and the total's largest
# coefficient off LaurentPolys; it reads them off L's binomial vector and
# the total's dense list.
DEBUG_LINES = {
    (-3, 2, 3, -3): "colored_jones n=7: L has 20 binomial factors, span 340 (product of "
                    "thetas 1344); total span 2380 before the peel; 80-bit table slots, "
                    "112-bit slots for an l1 bound of 111 bits, total max |coef| 98 bits; "
                    "8 packed multiplies, 315 packed adds",
    (-3, 6, 5, -3): "colored_jones n=7: L has 20 binomial factors, span 340 (product of "
                    "thetas 1344); total span 2928 before the peel; 80-bit table slots, "
                    "112-bit slots for an l1 bound of 111 bits, total max |coef| 99 bits; "
                    "8 packed multiplies, 315 packed adds",
}


def test_colored_jones_debug_line_pins(caplog):
    for tup, line in DEBUG_LINES.items():
        assert debug_counts(KnotParams(*tup), 8, caplog)[0] == line, tup


def test_l1_bound_covers_the_total(monkeypatch):
    # The same fold over dict-arithmetic factors (the identity leaf map),
    # each term twisted by its framing as a LaurentPoly shift, is the
    # reference for the packed total that colored_jones reads back, once,
    # from the result ring, and its coefficients stay within the ring's
    # l1 bound.  Every per-b sum over (a, c) and over d, which
    # colored_jones widens from the table ring, stays within the table
    # ring's bound.
    reads = []
    dense = PackedRing.dense
    monkeypatch.setattr(PackedRing, "dense",
                        lambda ring, p: reads.append((ring, dense(ring, p))) or reads[-1][1])
    for tup in FLAT_ORACLE_TUPLES:
        params = KnotParams(*tup)
        for N in range(1, 8):
            n = N - 1
            evens = range(0, 2 * n + 1, 2)
            lcm = cyclotomic_power_product(theta_lcm_exponents(n))
            base = {x: circle(x) * schoolbook_div(lcm, theta(x, n, n)) for x in evens}
            bd = {(b, d): delta6j(b, n, n, d, n, n) for b in evens for d in evens}
            factors = {abc: (theta(*abc), delta6j(*abc, n, n, n))
                       for abc in {tuple(sorted(p[:3])) for p in domain_points(n)}}
            q, r = _fold(n, lambda p: p, base, bd, factors)
            fr, fs, ft, fu = ({x: framing_power(x, w) for x in evens}
                              for w in params.astuple())
            colored_jones(params, N)
            table, ring, _, _ = _state_tables(n)
            total = ZERO
            for b in evens:
                qb = add(*(v.shift(fr[a].exponent + ft[c].exponent, fr[a].sign * ft[c].sign)
                           for (a, c), v in q[b].items()))
                rb = add(*(v.shift(fu[d].exponent, fu[d].sign) for d, v in r[b].items()))
                for partial in (qb, rb):
                    assert max(abs(c) for _, c in partial.terms()) <= table.bound, (n, b)
                total = add(total, (qb * rb).shift(fs[b].exponent, fs[b].sign))

            assert [d for rg, d in reads if rg is ring] == [(list(total.coeffs), total.lo)]
            reads.clear()
            assert max(abs(c) for _, c in total.terms()) <= ring.bound


# The ring's l1 bound for n = 0..9, recorded from the hand-written norm
# fold that _fold's leaf map replaced (bit lengths 1, 14, 33, 48, 68, 82,
# 107, 111, 138 and 155).  A looser bound would still cover the total,
# but it would widen the slots, 8 to 160 bits here, and slow every
# packed multiply.
RING_BOUNDS = (
    1,
    12960,
    8087040000,
    258557044032000,
    184992581711314944000,
    2453949102244065958224000,
    152476351161369646918381508874240,
    2237844711978116593698040689496320,
    230469638437075336299409026956640216678400,
    27698263347646360977760389778811175529557540864,
)


def test_ring_bound_pin():
    for n, bound in enumerate(RING_BOUNDS):
        assert _state_tables(n)[1].bound == bound, n


# The table ring's l1 bound for n = 0..9, the largest per-b sum of the
# norm tables, recorded when the tables moved to their own ring (bit
# lengths 1, 9, 21, 31, 43, 52, 67, 72, 87 and 98): slots of 8, 16, 24,
# 32, 48, 56, 72, 80, 88 and 104 bits against the result ring's 8 to 160.
TABLE_BOUNDS = (
    1,
    432,
    1296000,
    1192464000,
    5422733568000,
    3105413197286400,
    120308923100663256960,
    2649272259327943721472,
    144732804949313190642032000,
    260602648849224554208262318080,
)


def test_table_bound_pin():
    for n, bound in enumerate(TABLE_BOUNDS):
        assert _state_tables(n)[0].bound == bound, n


def test_state_tables_are_reused_across_knots(fresh_state_tables):
    # A second knot at the same n reads the tables the first one built,
    # and its result equals the one from tables built afresh.
    for N in (4, 6):
        colored_jones(KnotParams(-3, 2, 3, -3), N)
        hits = _state_tables.cache_info().hits
        warm = colored_jones(KnotParams(-5, 6, 5, -1), N)
        assert _state_tables.cache_info().hits == hits + 1
        _state_tables.cache_clear()
        assert colored_jones(KnotParams(-5, 6, 5, -1), N) == warm


def test_colored_jones_rejects_too_narrow_slots(fresh_state_tables, monkeypatch):
    # A result ring no wider than the table ring makes the slots far too
    # narrow for the total, while every table entry and per-b sum still
    # fits its slots; the total's misread digits fail the final peel.
    ring_bounds = jones_mod._ring_bounds
    monkeypatch.setattr(jones_mod, "_ring_bounds",
                        lambda norm_q, norm_r: (ring_bounds(norm_q, norm_r)[0],) * 2)
    for N in (3, 4):
        with pytest.raises(ArithmeticError) as info:
            colored_jones(KnotParams(-3, 2, 3, -3), N)
        assert not isinstance(info.value, OverflowError)


def test_colored_jones_rejects_too_narrow_table_slots(fresh_state_tables, monkeypatch):
    # Table slots of 8 bits, under a result ring of the right width.  At
    # N = 3 every leaf packs, but table entries and per-b sums overflow
    # their slots and widen to wrong digits that fail the final peel; at
    # N = 4 and 5 a leaf too wide to pack raises OverflowError.  Either
    # way the call raises and returns no polynomial.
    ring_bounds = jones_mod._ring_bounds
    monkeypatch.setattr(jones_mod, "_ring_bounds",
                        lambda norm_q, norm_r: (1, ring_bounds(norm_q, norm_r)[1]))
    for N in (3, 4, 5):
        with pytest.raises(ArithmeticError):
            colored_jones(KnotParams(-3, 2, 3, -3), N)


def seed_total(monkeypatch, fault):
    """Make colored_jones at N = 4 read back fault(T) for its total T, as
    LaurentPolys.  The tables are built first, so the one PackedRing.dense
    call left in colored_jones is the total's read-back."""
    _state_tables(3)
    dense = PackedRing.dense

    def read_back(ring, packed):
        total = fault(leaf_poly(dense(ring, packed)))
        return list(total.coeffs), total.lo

    monkeypatch.setattr(PackedRing, "dense", read_back)


def test_colored_jones_checks_the_final_division(fresh_state_tables, monkeypatch):
    # A total off by 1 in its lowest slot is not divisible by L^4: the
    # final division's remainder check catches it, before J_N(1) = N.
    seed_total(monkeypatch, lambda total: add(total, LaurentPoly([1], total.min_deg)))
    with pytest.raises(NonExactDivision):
        colored_jones(KnotParams(-3, 2, 3, -3), 4)


def test_colored_jones_checks_the_classical_limit(fresh_state_tables, monkeypatch):
    # A total off by L^4 passes the division by L^4; only J_N(1) = N
    # catches it.
    lcm4 = math.prod([cyclotomic_power_product(theta_lcm_exponents(3))] * 4, start=ONE)
    seed_total(monkeypatch, lambda total: add(total, lcm4))
    with pytest.raises(ArithmeticError, match=r"J_4\(1\)"):
        colored_jones(KnotParams(-3, 2, 3, -3), 4)


# One tuple of every tag, as for the flat oracle, plus 2.4 at u = -1.
HABIRO_TUPLES = FLAT_ORACLE_TUPLES + [(-5, 6, 7, -1), (-5, 8, 9, -1), (-3, 4, 5, -3),
                                      (-3, 4, 5, -1)]


def corruptions(poly):
    """Three wrong versions of poly that keep its value at v = 1 and its
    exponents' coset mod 4, as a corrupted cache record could: a +1/-1
    pair at the top and bottom terms, a swap of the top coefficient with
    the first unequal one, and the top term moved down one slot."""
    terms = dict(poly.terms())
    top, bottom = poly.max_deg, poly.min_deg
    pair = add(poly, from_terms({top: 1, bottom: -1}))
    other = next(e for e in sorted(terms, reverse=True) if terms[e] != terms[top])
    swapped = dict(terms)
    swapped[top], swapped[other] = terms[other], terms[top]
    moved = dict(terms)
    moved[top - 4] = moved.get(top - 4, 0) + moved.pop(top)
    return [pair, from_terms(swapped), from_terms(moved)]


def test_habiro_coefficients_across_colors():
    # Habiro's theorem ties J_N to every J_M with M < N: each H_k is a
    # Laurent polynomial, H_0 = 1, and a corrupted J_N breaks the division
    # that yields H_(N-1).
    for tup in HABIRO_TUPLES:
        polys = [colored_jones(KnotParams(*tup), N) for N in range(1, 8)]
        coeffs = habiro_coefficients(polys)
        assert len(coeffs) == 7 and coeffs[0] == ONE, tup
        for N in range(2, 8):
            for bad in corruptions(polys[N - 1]):
                assert sum(c for _, c in bad.terms()) == N
                with pytest.raises(NonExactDivision):
                    habiro_coefficients(polys[:N - 1] + [bad])


def test_summand_order_independence():
    for tup in FLAT_ORACLE_TUPLES:
        params = KnotParams(*tup)
        points = domain_points(2)
        random.Random(7).shuffle(points)
        assert flat_state_sum(params, 3, points) == colored_jones(params, 3)
        assert flat_state_sum(params, 3, reversed(points)) == colored_jones(params, 3)


def test_classical_limit_is_color():
    # At v = 1 every quantum integer [k] degenerates to k, so the whole
    # invariant collapses to its unknot value: the color N itself.  This
    # checks the sign conventions of every factor at once.
    for tup in [(-3, 2, 3, -3), (-3, 4, 5, -1), (-3, 6, 5, -3), (-5, 6, 7, -1)]:
        for N in range(1, 5):
            poly = colored_jones(KnotParams(*tup), N)
            assert sum(c for _, c in poly.terms()) == N
            assert all(e % 2 == 0 for e, _ in poly.terms())


def values_at_roots_of_unity(poly):
    """P(-1), |P(i)|^2, |P(omega)|^2 and V(i) for V = poly = v^k P(v^4), exactly.

    omega is a primitive cube root of unity.  P(i) = a + bi and
    P(omega) = a + b omega are kept as integer pairs, whose norms are
    a^2 + b^2 and a^2 - ab + b^2.  V(i) is V at v^4 = i with the v^k
    factor kept, which needs k = 0 mod 4; it is returned as the pair
    (real part, imaginary part).
    """
    k = poly.min_deg
    assert k % 4 == 0
    at_minus_one = re = im = a = b = v_re = v_im = 0
    for e, c in poly.terms():
        m, rest = divmod(e - k, 4)
        assert rest == 0
        at_minus_one += c if m % 2 == 0 else -c
        re += c * (1, 0, -1, 0)[m % 4]
        im += c * (0, 1, 0, -1)[m % 4]
        a += c * (1, 0, -1)[m % 3]
        b += c * (0, 1, -1)[m % 3]
        v_re += c * (1, 0, -1, 0)[e // 4 % 4]
        v_im += c * (0, 1, 0, -1)[e // 4 % 4]
    return at_minus_one, re * re + im * im, a * a - a * b + b * b, (v_re, v_im)


def test_two_colored_values_at_roots_of_unity():
    # Ground truth from outside the state sum.  V = J_2 / [2] is the Jones
    # polynomial, v^k P(v^4).  For a knot, |V(-1)| is the determinant,
    # which for M(1/r, u/(su-1), 1/t) is |(su-1)t + rtu + r(su-1)| from
    # the tangle fractions alone; V(i) = +/-1 (the Arf invariant) and
    # V(omega) is a unit.  With v^4 = i, V(i) = (-1)^Arf, where the Arf
    # invariant is 0 exactly when det = +/-1 mod 8 (Murakami 1986).  A
    # wrong convention in the state sum can keep J_N(1) = N and the top
    # degree and still break these (a flipped s-tangle framing does); the
    # mirror image, v -> 1/v, passes them.
    count = 0
    for r in range(-11, -2, 2):
        for s in range(2, 11, 2):
            for t in range(3, 12, 2):
                for u in range(-7, 0, 2):
                    poly = schoolbook_div(colored_jones(KnotParams(r, s, t, u), 2), qint(2))
                    at_minus_one, norm_i, norm_omega, at_i = values_at_roots_of_unity(poly)
                    det = (s * u - 1) * t + r * t * u + r * (s * u - 1)
                    arf_sign = 1 if det % 8 in (1, 7) else -1
                    assert (abs(at_minus_one), norm_i, norm_omega, at_i) == \
                        (abs(det), 1, 1, (arf_sign, 0)), (r, s, t, u)
                    count += 1
    assert count == 500


def test_exact_dplus_examples():
    poly = colored_jones(KnotParams(-3, 2, 3, -3), 1)
    assert (poly.max_deg, poly.leading_coeff) == (0, 1)
    poly = colored_jones(KnotParams(-3, 2, 3, -3), 4)
    assert poly.max_deg == 2 * 16 - 24 + 2 == 10
    assert poly.leading_coeff > 0
    poly = colored_jones(KnotParams(-3, 4, 5, -1), 3)
    assert poly.max_deg == 2 * (-1) * (3 - 1) == -4
    assert poly.leading_coeff > 0


def test_exact_dplus_matches_closed_form_case1():
    params = KnotParams(-3, 2, 3, -3)
    for N in range(2, 6):
        expected = 2 * N * N - 6 * N + (2 if N % 2 == 0 else 4)
        assert closed_form_dplus(degree_model(params), N) == expected
        assert colored_jones(params, N).max_deg == expected


def test_exact_dplus_matches_brute():
    for tup in [(-3, 2, 3, -3), (-3, 4, 5, -1)]:
        params = KnotParams(*tup)
        for N in range(1, 5):
            assert colored_jones(params, N).max_deg == brute_max_objective(params, N - 1)


def test_leading_term_counts_the_maximizers():
    # The top degree of J_N is the exhaustive maximum of degree_objective
    # over the lattice, and its coefficient is the number of lattice points
    # that reach it: the maximizers' top terms never cancel, and each
    # is +1.  Tags 1, 2.1, 2.2 and 2.3, then 2.4 at both u.
    for tup in [(-3, 2, 3, -3), (-5, 6, 7, -1), (-3, 6, 5, -3), (-5, 8, 9, -1),
                (-3, 4, 5, -3), (-3, 4, 5, -1)]:
        params = KnotParams(*tup)
        for N in range(1, 7):
            n = N - 1
            values = [degree_objective(params, n, colors) for colors in domain_points(n)]
            top = max(values)
            poly = colored_jones(params, N)
            assert (poly.max_deg, poly.leading_coeff) == (top, values.count(top)), (tup, N)
