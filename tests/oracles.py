"""Test-only oracles: independent computations that the package is checked against.

  add, sub    the sum and difference of LaurentPolys, slot by slot: the
              polynomial arithmetic of the tests, as the package adds
              only packed values; adding across cosets mod 4 raises
  from_terms  the LaurentPoly of a term map {exponent: coefficient}, a
              sum of monomials, so a map across cosets raises
  term_pair_product
              the product by the loop over term pairs into one dict, the
              reference for LaurentPoly's convolution of coefficient tuples
  schoolbook_div
              exact division by any polynomial: the schoolbook peel
              (peel) on the operands' coefficient lists in q = v^4.  The
              reference that qlaurent.exact_div, which divides by
              binomials v^(4j) - 1 only, is checked against, and the
              division for the tests whose divisors are other polynomials
  binomial_product
              prod (v^(4j) - 1)^e by the LaurentPoly product, the products
              that exact_div's divisors stand for
  cyclotomic  Phi_d(v^4), by exact division of v^(4d) - 1 by the
              Phi_e(v^4) of the proper divisors e of d: the reference
              that L and every theta are the cyclotomic products the
              package's binomial vectors claim
  qfact       the quantum factorial, which the qbinom, theta and 6j
              tests divide against, and the products that the tests of
              qlaurent.factorial_binomials divide by schoolbook_div
  qbinom      the symmetric quantum binomial by the Pascal recurrence,
              with no division: the route by which theta and the 6j
              z-terms were built as polynomial products, which ktg's
              leaves are checked against
  theta_exponents
              the cyclotomic exponent vector of theta(x,n,n) by floor
              counts, the reference for theta's factorization and for
              the closed form of jones.theta_lcm_exponents
  summand     one exact state-sum term, which the flat oracle of
              tests/test_jones.py sums term by term against the packed
              two-level sum of colored_jones
  unpack      a packed value read back as a LaurentPoly, through
              PackedRing.dense: the tests' view of a packed result
  leaf_poly, theta, delta6j
              the polynomial view of ktg's leaves: ktg.theta and
              ktg.delta6j return a dense coefficient list in q = v^4 and
              its lowest exponent, the fields of a LaurentPoly, and the
              tests read them as LaurentPoly through leaf_poly
  factorial_theta, factorial_delta6j
              the factorial route to ktg's leaves, which ktg's packed
              Gaussian rows replaced: each theta and 6j z-term one
              exact divide_binomials of [+/-1] by the binomial vector of
              its quotient of quantum factorials, so a wrong vector
              raises NonExactDivision
  bd_tetrahedron
              Tet(b,n,n,d,n,n) = delta6j(b,n,n,d,n,n) theta(b,n,n), ktg's
              two leaves multiplied by the schoolbook convolution of their
              dense lists: the tetrahedral-symmetry oracle, whose
              identity Tet(b,n,n,d,n,n) = Tet(d,n,n,b,n,n) checks the
              z-sum's faces and signs without the factorial or qbinom
              products that the other 6j oracles share with it
  orthogonality
              both sides of the orthogonality of the 6j quotients,
              sum_j Delta_j Tet Tet / (theta theta) = delta_ik theta
              theta / Delta_i, over a binomial common denominator and
              multiplied out in one PackedRing: a check of the z-sum's
              faces and normalization that evaluates no z-sum
  habiro_coefficients
              Habiro's cyclotomic coefficients H_k of J_1..J_N, a
              cross-N check of every coefficient by a theorem the
              package does not use
  ending_u    the closed form (t-1)s/(ts+t-1) of the u-coordinate where
              the interior-ending system's paths end, which the report's
              u0 and E3 read from the built system
  line_check  an independent three-line check of that ending u-coordinate

None of them runs in the package itself.
"""

import math
from fractions import Fraction
from functools import lru_cache

from knotslope import ktg
from knotslope.degopt import classify
from knotslope.ktg import SignedMonomial, circle, framing_power, is_admissible
from knotslope.qlaurent import (
    ONE,
    ZERO,
    LaurentPoly,
    NonExactDivision,
    PackedRing,
    divide_binomials,
    factorial_binomials,
    qint,
)


def add(*polys):
    """The sum of LaurentPolys, slot by slot from the lowest exponent;
    add() is zero.  Like Packed.__add__, it raises ArithmeticError for
    nonzero operands in different cosets mod 4.  The package has no
    polynomial sum: the state sum adds packed values."""
    polys = [p for p in polys if not p.is_zero()]
    lo = min((p.lo for p in polys), default=0)
    out = [0] * max(((p.lo - lo) // 4 + len(p.coeffs) for p in polys), default=0)
    for p in polys:
        start, rem = divmod(p.lo - lo, 4)
        if rem:
            raise ArithmeticError(f"adding v^{lo} and v^{p.lo} terms across cosets mod 4")
        for i, c in enumerate(p.coeffs):
            out[start + i] += c
    return LaurentPoly(out, lo)


def from_terms(terms):
    """The LaurentPoly of a term map {exponent: coefficient}, as the sum
    of its monomials: ArithmeticError unless its nonzero terms lie in one
    coset mod 4."""
    return add(*(LaurentPoly((c,), e) for e, c in terms.items()))


def term_pair_product(p, q):
    """p * q by the loop over the term pairs of p and q into one dict."""
    out = {}
    for ea, ca in p.terms():
        for eb, cb in q.terms():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return from_terms(out)


def sub(p, q):
    """The difference p - q of LaurentPolys."""
    return add(p, q.shift(0, -1))


def unpack(ring, packed):
    """The LaurentPoly of a value packed in ring, from ring.dense; zero
    gives the zero polynomial.  The package reads packed values back as
    dense lists only."""
    return LaurentPoly(*ring.dense(packed))


def leaf_poly(dense):
    """The LaurentPoly of a dense form (coeffs, lo) in q = v^4."""
    return LaurentPoly(*dense)


def theta(a, b, c):
    """ktg.theta as a LaurentPoly."""
    return leaf_poly(ktg.theta(a, b, c))


def delta6j(a, b, c, alpha, beta, gamma):
    """ktg.delta6j as a LaurentPoly."""
    return leaf_poly(ktg.delta6j(a, b, c, alpha, beta, gamma))


def factorial_theta(a, b, c):
    """theta(a,b,c) in dense form by the factorial route: theta_factors'
    quotient of quantum factorials as one divide_binomials of [+/-1], so
    a wrong binomial vector raises NonExactDivision."""
    unit, binomials = ktg.theta_factors(a, b, c)
    return divide_binomials([unit.sign], binomials), unit.exponent


def factorial_delta6j(a, b, c, alpha, beta, gamma):
    """delta6j in dense form by the factorial route: each z-term is one
    divide_binomials of [+/-1] by its factorial quotient's binomial
    vector, added into one list at the offset (exponent - lo) / 4 from
    the lowest exponent lo."""
    half, tops, offsets, zlo, zhi = ktg._delta_frame(a, b, c, alpha, beta, gamma)
    terms = []
    for z in range(zlo, zhi + 1):
        bottoms = [k for t, o in zip(tops, offsets) for k in (z - o, t - z + o)]
        exponent, binomials = factorial_binomials((z + 1, *tops),
                                                  (half + 1, z - half, *bottoms))
        sign = -1 if (z + half) % 2 else 1
        terms.append((divide_binomials([sign], binomials), exponent))
    lo = min((exponent for _, exponent in terms), default=0)
    acc = [0] * max(((exponent - lo) // 4 + len(coeffs) for coeffs, exponent in terms),
                    default=0)
    for coeffs, exponent in terms:
        start = (exponent - lo) // 4
        for i, x in enumerate(coeffs):
            acc[start + i] += x
    return acc, lo


def bd_tetrahedron(b, d, n):
    """The dense form of delta6j(b,n,n,d,n,n) theta(b,n,n) in q = v^4,
    the tetrahedron with faces (b,n,n), (b,n,n), (d,n,n) and (d,n,n).
    Both leaves are nonzero for even b, d in [0, 2n]."""
    (x, lx), (y, ly) = ktg.delta6j(b, n, n, d, n, n), ktg.theta(b, n, n)
    out = [0] * (len(x) + len(y) - 1)
    for i, c in enumerate(x):
        for j, e in enumerate(y):
            out[i + j] += c * e
    return out, lx + ly


def orthogonality(a, b, c, d):
    """Both sides of the orthogonality of ktg's 6j quotients, as
    {(i, k): (lhs, rhs)} over the pairs of colors i, k with (i,a,b) and
    (i,c,d) admissible; the two LaurentPolys are equal where it holds.

    With Tet(i,a,b,j,c,d) = delta6j(i,a,b,j,c,d) theta(i,a,b), the
    tetrahedron with faces (i,a,b), (i,c,d), (j,a,d) and (j,b,c), and
    Delta_x = circle(x), the identity is

        sum over j of Delta_j Tet(i,a,b,j,c,d) Tet(k,a,b,j,c,d)
                      / (theta(j,a,d) theta(j,b,c))
            = delta_ik theta(i,a,b) theta(i,c,d) / Delta_i,

    j over the colors with (j,a,d) and (j,b,c) admissible (Kauffman and
    Lins 1994; Masbaum and Vogel 1994).  By ktg.theta_factors each
    1/(theta(j,a,d) theta(j,b,c)) is a signed monomial times a product of
    binomials (q^m - 1)^e, q = v^4, with e of either sign.  D is the
    product of (q^m - 1)^M_m with M_m the largest -e over j, so that
    Delta_j D / (theta(j,a,d) theta(j,b,c)) is Delta_j times binomials
    only, which divide_binomials multiplies out.  Both sides times
    Delta_i D are then products of ktg's leaves and these lists, formed in
    one PackedRing whose bound is an l1 bound of either side, so each
    side reads back exactly.  Nothing here evaluates a z-sum.
    """
    def l1(dense):
        return sum(map(abs, dense[0]))

    colors = [i for i in range(abs(a - b), a + b + 1, 2) if is_admissible(i, c, d)]
    js = [j for j in range(abs(a - d), a + d + 1, 2) if is_admissible(j, b, c)]
    inverse = {}
    for j in js:
        (u, e), (w, f) = ktg.theta_factors(j, a, d), ktg.theta_factors(j, b, c)
        inverse[j] = (SignedMonomial(u.sign * w.sign, -u.exponent - w.exponent),
                      {m: e.get(m, 0) + f.get(m, 0) for m in e.keys() | f.keys()})
    clear = {}
    for _, vector in inverse.values():
        for m, x in vector.items():
            clear[m] = max(clear.get(m, 0), -x)
    factor = {}
    for j, (unit, vector) in inverse.items():
        delta = circle(j)
        factor[j] = divide_binomials(list(delta.coeffs), {m: -(vector.get(m, 0) + x)
                                                          for m, x in clear.items()}), delta.lo
    common = divide_binomials([1], {m: -x for m, x in clear.items()}), 0
    deltas = {i: (circle(i).coeffs, circle(i).lo) for i in colors}
    thetas = {i: (ktg.theta(i, a, b), ktg.theta(i, c, d)) for i in colors}
    leaves = {(i, j): ktg.delta6j(i, a, b, j, c, d) for i in colors for j in js}
    bound = max((max(l1(deltas[i]) * sum(l1(leaves[i, j]) * l1(leaves[k, j]) * l1(factor[j])
                                         for j in js) * l1(thetas[i][0]) * l1(thetas[k][0]),
                     l1(thetas[i][0]) * l1(thetas[i][1]) * l1(common))
                 for i in colors for k in colors), default=0)
    ring = PackedRing(bound)
    pack = ring.pack
    tet = {(i, j): pack(leaf) * pack(thetas[i][0]) for (i, j), leaf in leaves.items()}
    weight = {j: pack(factor[j]).shift(inverse[j][0]) for j in js}
    sides = {}
    for i in colors:
        rhs = unpack(ring, pack(thetas[i][0]) * pack(thetas[i][1]) * pack(common))
        for k in colors:
            lhs = pack(deltas[i]) * sum(tet[i, j] * tet[k, j] * weight[j] for j in js)
            sides[i, k] = unpack(ring, lhs), rhs if i == k else ZERO
    return sides


def peel(num, den):
    """Schoolbook quotient of dense ascending coefficient lists.

    Raises NonExactDivision unless den divides num exactly over Z.
    """
    dn, dd = len(num) - 1, len(den) - 1
    if dn < dd:
        raise NonExactDivision("dividend degree span below divisor")
    lead = den[-1]
    quot = [0] * (dn - dd + 1)
    work = list(num)
    for i in range(dn - dd, -1, -1):
        c = work[i + dd]
        if c == 0:
            continue
        f, r = divmod(c, lead)
        if r:
            raise NonExactDivision("leading coefficient not divisible")
        quot[i] = f
        for j in range(dd + 1):
            work[i + j] -= f * den[j]
    if any(work[:dd]):
        raise NonExactDivision("nonzero remainder")
    return quot


def schoolbook_div(p, q):
    """Exact quotient p / q in the Laurent ring, for any divisor q.

    Raises NonExactDivision if q does not divide p over Z[v, v^-1], and
    ZeroDivisionError for a zero divisor.  peel divides the operands'
    coefficient lists in q = v^4.  An exact quotient of p in
    v^a Z[v^4] by q in v^b Z[v^4] lies in v^(a-b) Z[v^4], as its parts
    in the other cosets times q would add to zero, so the peel in q
    performs the same nonzero steps and the same checks as one over
    every exponent.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return ZERO
    return LaurentPoly(peel(p.coeffs, q.coeffs), p.lo - q.lo)


def binomial_product(binomials):
    """prod (v^(4j) - 1)^e over the items of binomials, every e >= 0, by
    the LaurentPoly product."""
    product = ONE
    for j, e in binomials.items():
        product = math.prod([from_terms({4 * j: 1, 0: -1})] * e, start=product)
    return product


@lru_cache(maxsize=None)
def cyclotomic(d):
    """Cyclotomic polynomial Phi_d(v^4), d >= 1.

    Built as v^(4d) - 1 divided exactly by Phi_e(v^4) for every proper
    divisor e of d.  Each quantum integer factors as
    [k] = v^(-2(k-1)) * prod over d | k, d > 1, of Phi_d(v^4).
    """
    if d < 1:
        raise ValueError(f"cyclotomic polynomial undefined for {d}")
    p = from_terms({4 * d: 1, 0: -1})
    for e in range(1, d):
        if d % e == 0:
            p = schoolbook_div(p, cyclotomic(e))
    return p


@lru_cache(maxsize=None)
def qbinom(n, k):
    """Symmetric quantum binomial [n]! / ([k]! [n-k]!), 0 <= k <= n.

    Computed by the Pascal recurrence
        [n;k] = v^(2k) [n-1;k] + v^(-2(n-k)) [n-1;k-1],
    which needs no division.
    """
    if not 0 <= k <= n:
        raise ValueError(f"quantum binomial needs 0 <= k <= n, got ({n}, {k})")
    if k == 0 or k == n:
        return ONE
    if 2 * k > n:
        return qbinom(n, n - k)
    return add(qbinom(n - 1, k).shift(2 * k), qbinom(n - 1, k - 1).shift(-2 * (n - k)))


@lru_cache(maxsize=None)
def qfact(k):
    """Quantum factorial [k]! = [k][k-1]...[1], with [0]! = 1."""
    if k < 0:
        raise ValueError(f"quantum factorial undefined for negative {k}")
    if k == 0:
        return ONE
    return qfact(k - 1) * qint(k)


def theta_exponents(x, n):
    """Cyclotomic exponent vector of theta(x,n,n), as {d: m} with m > 0.

    With h = x/2 + n, theta(x,n,n) = +/-[h+1] [h]! / ([n-x/2]! [x/2]!^2),
    and [k] is a monomial times the product of Phi_d(v^4) over d | k,
    d > 1.  So theta(x,n,n) is a signed monomial times prod_d Phi_d(v^4)^m
    with m = [d | h+1] + floor(h/d) - floor((n-x/2)/d) - 2 floor((x/2)/d).
    """
    k = x // 2
    h = k + n
    exponents = {}
    for d in range(2, h + 2):
        m = ((h + 1) % d == 0) + h // d - (n - k) // d - 2 * (k // d)
        if m:
            exponents[d] = m
    return exponents


def validate_colors(colors, n):
    """Reject an (a, b, c, d) point outside the summation domain at color n."""
    a, b, c, d = colors
    top = 2 * n
    for x in (a, b, c, d):
        if x % 2 or not 0 <= x <= top:
            raise ValueError(f"color {x} outside the even range [0, {top}]")
    if not is_admissible(a, b, c):
        raise ValueError(f"({a}, {b}, {c}) is not admissible")


def summand(params, n, colors):
    """One state-sum term as the exact pair (numerator, denominator).

    The numerator is the product of every factor but the theta
    denominators; the denominator is the product of the four
    theta(x,n,n).  The pair is never reduced, so callers can clear it over
    any common multiple.
    """
    validate_colors(colors, n)
    a, b, c, d = colors
    num = theta(a, b, c)
    d1 = delta6j(a, b, c, n, n, n)
    num = num * d1 * d1 * delta6j(b, n, n, d, n, n)
    for x, w in zip((a, b, c, d), params.astuple()):
        twist = framing_power(x, w)
        num = num.shift(twist.exponent, twist.sign)
    den = ONE
    for x in (a, b, c, d):
        num = num * circle(x)
        den = den * theta(x, n, n)
    return num, den


def habiro_coefficients(polys):
    """Habiro's coefficients H_0, ..., H_(M-1) of the colored Jones
    polynomials polys = [J_1, ..., J_M] of one 0-framed knot.

    J_N / [N] = sum over k < N of H_k prod_(j=1..k) {N+j}{N-j}, with
    {m} = v^(2m) - v^(-2m), and every H_k is a Laurent polynomial that
    does not depend on N (K. Habiro, Invent. Math. 171, 2008).  So J_N
    gives H_(N-1) by one exact division once H_0..H_(N-2) are known, and
    it is a polynomial only if J_N agrees with every J_M for M < N.
    Every division is schoolbook_div's; NonExactDivision means polys is
    not the sequence of one knot.
    """
    def braces(m):
        return from_terms({2 * m: 1, -2 * m: -1})

    coeffs = []
    for N, poly in enumerate(polys, start=1):
        products = [ONE]
        for j in range(1, N):
            products.append(products[-1] * braces(N + j) * braces(N - j))
        rest = sub(schoolbook_div(poly, qint(N)),
                   add(*(h * p for h, p in zip(coeffs, products))))
        coeffs.append(schoolbook_div(rest, products[N - 1]))
    return coeffs


def ending_u(params):
    """Common ending u-coordinate of the interior-ending system: (t-1)s/(ts+t-1)."""
    r, s, t, u = params.astuple()
    return Fraction((t - 1) * s, t * s + t - 1)


def line_check(params):
    """Verify the ending u solves the three-line equation and sits leftmost.

    The final edges of the three paths extend to the lines v = u/(t-1),
    v = u/s and v = u - 1; their v-values at the ending u must sum to zero,
    and the ending u must lie strictly left of the u-coordinates of <1/t>,
    <1/(s+1)> and <1/r>.
    """
    r, s, t, u = params.astuple()
    u0 = ending_u(params)
    if u0 / (t - 1) + u0 / s + (u0 - 1) != 0:
        return False
    disc = classify(params).disc
    checks = [
        (u0 - Fraction(t - 1, t), Fraction(-((t - 1) ** 2), t * (s * t + t - 1))),
        (u0 - Fraction(s, s + 1), Fraction(-(s * s), (s + 1) * (s * t + t - 1))),
        (u0 - Fraction(-r - 1, -r), Fraction(-disc, r * (s * t + t - 1))),
    ]
    return all(actual == closed and actual < 0 for actual, closed in checks)
