"""Exact colored Jones polynomials of the knots M(1/r, 1/(s-1/u), 1/t).

The family is parametrized by four integers with r, u, t odd, s even,
u <= -1 and r < -1 < 1 < s, t.  The N-colored invariant is assembled as a
state sum over a four-dimensional lattice of even colors: with n = N - 1,

    J(N) = (-1)^n f(n)^(-4u) * sum over (a,b,c,d) in D_n of
           theta(a,b,c) delta6j(a,b,c,n,n,n)^2 delta6j(b,n,n,d,n,n)
           f(a)^r f(b)^s f(c)^t f(d)^u O^a O^b O^c O^d
           / (theta(a,n,n) theta(b,n,n) theta(c,n,n) theta(d,n,n)),

where D_n is the set of even (a,b,c,d) in [0, 2n] with (a,b,c) admissible.
The total is guaranteed to be a Laurent polynomial; a failed final division
signals an implementation fault, never bad input.

Every theta(x,n,n) is a signed monomial times a product of cyclotomic
polynomials Phi_d(v^4).  colored_jones brings the sum over the one common
denominator L = lcm_x theta(x,n,n), the product of Phi_d(v^4) to the
largest multiplicity over x, which is 1 or 2 in closed form
(theta_lcm_exponents), and divides L^4 out at the end.  In q = v^4, L
and every theta are products of binomials q^j - 1 (lcm_binomials, and
ktg.theta_factors up to a signed monomial), which is the one kind of
divisor qlaurent.exact_div takes.  L itself, the cofactors
L / theta(x,n,n) and the final division are exact divisions, so a wrong
exponent vector or a total that is not a Laurent polynomial raises
NonExactDivision.  No polynomial gcd is ever taken, and the result is
bit-identical however the work is ordered.

The knot enters only through the framing factors f(x)^w, signed
monomials.  Everything else folds, once per n (_state_tables), into two
tables over L: q[b][a, c], the theta, the squared 6j quotient and the a-
and c-cofactors, and r[b][d], the (b, d) 6j quotient and the b- and
d-cofactors.  A knot then costs a two-level sum, over (a, c) and over d
for each b, and one product per b.  Every polynomial that crosses a
function boundary is a LaurentPoly: the theta and 6j leaves come from
ktg, which builds each from packed Gaussian binomials and checks it
against its value at q = 1 (ArithmeticError), and L, the cofactors and
the final division are exact divisions (exact_div).  The sum is
big-integer arithmetic in two PackedRings (qlaurent), each of whose
values is a polynomial evaluated once at v^4 = 2^w: a framing factor is
a Packed.shift with no multiply, and only the total is read back, once
(PackedRing.dense).  exact_div divides it by L^4, the prefactor's shift
gives the result, and its coefficient sum is checked against
J_N(1) = N.  The tables and each b's two sums live in the table ring;
PackedRing.widen repacks the two sums into the wider slots of the
result ring, where their product and the total are formed.
One fold (_fold) builds the tables from their leaves, and a twist keeps
every l1 norm, so the same fold over the leaves' l1 norms, once per n,
gives norm tables whose per-b sums bound the coefficients of each b's
two sums, and whose two-level sum bounds those of the total: the two
bounds set the two slot widths.  The final divisions and the classical
limit J_N(1) = N check the result, so a result slot too narrow for it
raises ArithmeticError; a table slot too narrow for a leaf raises
OverflowError when the leaf is packed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

from .ktg import circle, delta6j, framing_power, theta, theta_factors
from .qlaurent import ONE, PackedRing, exact_div

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class KnotParams:
    """The tangle integers (r, s, t, u) of one knot in the family."""

    r: int
    s: int
    t: int
    u: int

    def __post_init__(self):
        r, s, t, u = self.r, self.s, self.t, self.u
        if r % 2 == 0 or t % 2 == 0 or u % 2 == 0:
            raise ValueError(f"r, t, u must be odd, got r={r}, t={t}, u={u}")
        if s % 2:
            raise ValueError(f"s must be even, got s={s}")
        if not (r < -1 and u <= -1 and s > 1 and t > 1):
            raise ValueError(
                f"need r < -1, u <= -1, s > 1, t > 1, got ({r}, {s}, {t}, {u})"
            )

    def astuple(self):
        return (self.r, self.s, self.t, self.u)

    def as_dict(self):
        """The {"r", "s", "t", "u"} mapping that JSON records and reports carry."""
        return {"r": self.r, "s": self.s, "t": self.t, "u": self.u}


def _triples(n):
    """The admissible even triples (a, b, c) in [0, 2n], in lexicographic order."""
    evens = range(0, 2 * n + 1, 2)
    return [(a, b, c) for a in evens for b in evens
            for c in range(abs(a - b), min(a + b, 2 * n) + 1, 2)]


def domain_points(n):
    """The summation domain at ambient color n: its even lattice points as
    (a, b, c, d) tuples, in lexicographic order."""
    if n < 0:
        raise ValueError(f"negative ambient color {n}")
    return [(*abc, d) for abc in _triples(n) for d in range(0, 2 * n + 1, 2)]


def theta_lcm_exponents(n):
    """Exponent vector of L = lcm_x theta(x,n,n) over the even x in [0, 2n].

    The vector is {d: 1 if d | n+1 or d > n+1, else 2} over 2 <= d <= 2n+1.

    Proof.  With k = x/2 and h = k + n,
    theta(x,n,n) = +/-[h+1] [h]! / ([n-k]! [k]!^2), and [j] is a monomial
    times the product of Phi_d(v^4) over the d > 1 that divide j.  So
    Phi_d(v^4) occurs in theta(x,n,n) to the power

        m_d(k) = [d | h+1] + floor(h/d) - floor((n-k)/d) - 2 floor(k/d)
               = floor((rho + 2 sigma + 1)/d),

    with rho = (n-k) mod d and sigma = k mod d, as h + 1 = (n-k) + 2k + 1.
    As rho, sigma < d, m_d(k) <= 2.  Let nu = n mod d.  If sigma <= nu,
    then rho = nu - sigma and rho + 2 sigma + 1 = nu + sigma + 1 < 2d, so
    m_d(k) = 2 needs sigma > nu.  Some k in [0, n] has sigma > nu exactly
    when d <= n+1 and d does not divide n+1 (for d > n+1, sigma = k <= n
    = nu), and k = d-1 then gives 2.  Otherwise the maximum is 1, reached
    at k = d-1 for d <= n+1 and at k = n for n+1 < d <= 2n+1.  For
    d > 2n+1 every m_d(k) = floor((n+k+1)/d) is 0.
    """
    return {d: 1 if (n + 1) % d == 0 or d > n + 1 else 2 for d in range(2, 2 * n + 2)}


def lcm_binomials(n):
    """The binomial vector of L = lcm_x theta(x,n,n): {j: beta_j}, nonzero
    entries only, with L = prod (v^(4j) - 1)^beta_j.

    q^j - 1 is the product of Phi_d(q) over the divisors d of j, so
    L = prod over d of Phi_d(q)^m_d, with m = theta_lcm_exponents(n) and
    m_1 = 0, exactly when the beta_j over the multiples j of d sum to m_d
    for every d >= 1.  Solved from the top d = 2n+1 down:
    beta_d = m_d - sum of beta_j over the multiples j > d of d.
    """
    m = theta_lcm_exponents(n)
    beta = {}
    for d in range(2 * n + 1, 0, -1):
        beta[d] = m.get(d, 0) - sum(beta[j] for j in range(2 * d, 2 * n + 2, d))
    return {j: b for j, b in beta.items() if b}


@lru_cache(maxsize=None)
def _state_tables(n):
    """The knot-independent tables of the state sum at ambient color n.

    Returns (table, ring, q, r): the table PackedRing, the result
    PackedRing, and _fold's q and r packed in the narrower table ring.
    L = lcm_x theta(x,n,n) is built here and not kept.  The fold reads base,
    which maps each even color x to O^x L / theta(x,n,n), bd, which maps
    (b, d) to delta6j(b,n,n,d,n,n), and factors, which maps each
    admissible sorted triple a <= b <= c to (theta(a,b,c),
    delta6j(a,b,c,n,n,n)).  Every leaf is a LaurentPoly, as ktg builds
    theta and delta6j and as the product O^x times the cofactor is, so
    PackedRing.pack and _l1_norm read its coefficients directly.
    The product theta delta6j^2 is symmetric in (a, b, c): permuting the
    triple permutes the four quantum binomials of each z-term and leaves
    the z-range unchanged.  _fold runs twice over these leaves: first
    over their l1 norms, which a twist keeps, and _ring_bounds reads the
    two bounds off the norm tables; then over the leaves packed in the
    table ring.  As ||PQ|| <= ||P|| ||Q||, ||P + Q|| <= ||P|| + ||Q||,
    and no coefficient exceeds the l1 norm, the table bound covers every
    leaf and each b's twisted sums over (a, c) and over d, and the
    result bound covers the total.  L and each cofactor L / theta(x,n,n)
    are exact divisions by binomials, the cofactor's read from
    ktg.theta_factors(x, n, n), so an L that misses a factor of some
    theta raises NonExactDivision here.
    Callers share the tables and only read them; the rings' counters move.
    """
    lcm = exact_div(ONE, {j: -b for j, b in lcm_binomials(n).items()})
    evens = range(0, 2 * n + 1, 2)
    base = {}
    for x in evens:
        unit, binomials = theta_factors(x, n, n)
        cofactor = exact_div(lcm, {j: -e for j, e in binomials.items()})
        base[x] = circle(x) * cofactor.shift(-unit.exponent, unit.sign)
    bd = {(b, d): delta6j(b, n, n, d, n, n) for b in evens for d in evens}
    factors = {abc: (theta(*abc), delta6j(*abc, n, n, n))
               for abc in _triples(n) if abc[0] <= abc[1] <= abc[2]}
    table_bound, bound = _ring_bounds(*_fold(n, _l1_norm, base, bd, factors))
    table = PackedRing(table_bound)
    return (table, PackedRing(bound), *_fold(n, table.pack, base, bd, factors))


def _l1_norm(poly):
    """The l1 norm of a LaurentPoly: the sum of |coeffs|."""
    return sum(map(abs, poly.coeffs))


def _ring_bounds(norm_q, norm_r):
    """The bounds (table, result) of the two rings, from the norm tables.

    With A_b and D_b the sums of norm_q[b] and of norm_r[b], they bound the
    l1 norms of the per-b sums over (a, c) and over d, and A_b D_b that of
    their product.  The table bound is the largest A_b or D_b, and the
    result bound the sum over b of A_b D_b.
    """
    sums = [(sum(norm_q[b].values()), sum(norm_r[b].values())) for b in norm_q]
    return max(map(max, sums)), sum(a * d for a, d in sums)


def _fold(n, f, base, bd, factors):
    """The tables q and r of the state sum, each keyed by b first, over
    the leaves mapped by f.

    With tri = f(theta) f(delta)^2 for each (theta, delta) of factors,
    q[b][a, c] = tri[sorted(a, b, c)] f(base[a]) f(base[c]) over the
    admissible (a, b, c), and r[b][d] = f(bd[b, d]) f(base[b]) f(base[d]).
    Each product f(base[a]) f(base[c]) is formed once per unordered pair,
    and q[b][a, c] once for a <= c, as q is symmetric in a and c; bd is
    not symmetric.  Only * is applied to the mapped leaves, so f can map
    to LaurentPoly factors, packed integers or l1 norms alike.
    """
    evens = range(0, 2 * n + 1, 2)
    base = {x: f(p) for x, p in base.items()}
    tri = {}
    for abc, (t, dl) in factors.items():
        delta = f(dl)
        tri[abc] = f(t) * delta * delta
    pair = {(a, c): base[a] * base[c] for a in evens for c in evens if a <= c}
    q = {b: {} for b in evens}
    for a, b, c in _triples(n):
        if a <= c:
            q[b][a, c] = q[b][c, a] = tri[tuple(sorted((a, b, c)))] * pair[a, c]
    r = {b: {d: f(bd[b, d]) * pair[min(b, d), max(b, d)] for d in evens} for b in evens}
    return q, r


def colored_jones(params, N):
    """The N-colored Jones polynomial of the knot, exactly.

    With f_w(x) = f(x)^w for the weights w of (r, s, t, u), the total
    J_sum L^4 is the sum over b of

        f_s(b) (sum over a, c of f_r(a) f_t(c) q[b][a, c])
               (sum over d of f_u(d) r[b][d])

    over _state_tables(n)'s q and r.  Each f is a signed monomial, applied
    by Packed.shift, so a call makes shifted adds, in the table ring for
    the two sums of each b, and n + 1 packed multiplies, one per b, in
    the result ring, into whose slots each of the 2(n + 1) sums is first
    widened.  Only the total is read back, as a LaurentPoly.  It carries
    L^4, and the final division by L^4's binomials (exact_div) and the
    classical limit J_N(1) = N, the result's coefficient sum, double as
    tripwires for the integrality of the sum and for the slot width.
    """
    if N < 1:
        raise ValueError(f"color N must be >= 1, got {N}")
    n = N - 1
    table, ring, q, r = _state_tables(n)
    fr, fs, ft, fu = ({x: framing_power(x, w) for x in q} for w in params.astuple())
    muls, adds = table.muls + ring.muls, table.adds + ring.adds
    widen = ring.widen
    total = ring.dense(sum(
        (widen(sum(v.shift(fr[a]).shift(ft[c]) for (a, c), v in q[b].items()))
         * widen(sum(v.shift(fu[d]) for d, v in r[b].items()))).shift(fs[b]) for b in q))

    beta = lcm_binomials(n)
    if log.isEnabledFor(logging.DEBUG):
        # L = prod (v^(4j) - 1)^beta_j spans 4 sum j beta_j, and theta(x,n,n),
        # a unit over prod (v^(4j) - 1)^e, spans -4 sum j e over its
        # binomial vector.  The total's coefficients lie 4 apart in v.
        log.debug(
            "colored_jones n=%d: L has %d binomial factors, span %d "
            "(product of thetas %d); total span %d before the peel; "
            "%d-bit table slots, %d-bit slots for an l1 bound of %d bits, "
            "total max |coef| %d bits; %d packed multiplies, %d packed adds",
            n, sum(map(abs, beta.values())), 4 * sum(j * b for j, b in beta.items()),
            sum(-4 * j * e for x in q for j, e in theta_factors(x, n, n)[1].items()),
            4 * max(len(total.coeffs) - 1, 0), 8 * table.width, 8 * ring.width,
            ring.bound.bit_length(), max(map(abs, total.coeffs), default=0).bit_length(),
            table.muls + ring.muls - muls, table.adds + ring.adds - adds,
        )
    # The total is J_sum L^4; divide L^4 out exactly.
    prefactor = framing_power(n, -4 * params.u)
    sign = prefactor.sign * (-1 if n % 2 else 1)
    poly = exact_div(total, {j: 4 * b for j, b in beta.items()}).shift(
        prefactor.exponent, sign)
    if sum(poly.coeffs) != N:
        raise ArithmeticError(f"J_{N}(1) = {sum(poly.coeffs)}, not {N}")
    return poly


def exponent_window(params, N):
    """Bounds (lo, hi) that hold every exponent of J_N, from the state
    sum's shape alone, with no polynomial built.

    With n = N - 1, each state (a, b, c, d) adds a sign times v^F T to
    J_N.  F is the framing exponent, 2un(n+2) - sum w x(x+2)/2 over the
    four pairs (x, w) of color and weight, and T is the quotient of the
    theta, 6j and unknot values by the four theta(x,n,n).  Each of these
    is symmetric under v -> 1/v, so the lowest degree of T is minus its
    highest, deg T.  The terms v^F T L^4 are Laurent polynomials and
    J_N L^4 is their sum, so every exponent of J_N lies within
    max |F - 2un(n+2)| + max deg T of 2un(n+2).

    On colors in [0, 2n], 0 <= x(x+2)/2 <= 2n(n+1), which bounds the
    first by 2n(n+1) (|r| + |s| + |t| + |u|).  The second is at most
    90n^2 + 34n + 2, by crude bounds: a quantum binomial [m; k] has
    degree 2k(m-k) <= m^2/2; theta(a,b,c) has degree at most
    (a+b+c)^2/2 <= 18n^2; each z-term of a 6j quotient of colors in
    [0, 2n] has z <= 6n, so degree at most (6n+1)^2/2 + 3(2n)^2/2, and
    the state has three; the four unknot values add 2x <= 4n each; and
    each theta(x,n,n), symmetric and nonzero, has degree at least 0.
    The window thus spans O(N^2) slots, however sparse J_N is.
    """
    n = N - 1
    centre = 2 * params.u * n * (n + 2)
    radius = 90 * n * n + 34 * n + 2 + 2 * n * (n + 1) * sum(map(abs, params.astuple()))
    return centre - radius, centre + radius
