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
polynomials Phi_d(v^4), with multiplicities given by floor counts
(theta_exponents).  colored_jones brings every level of the grouped sum
over the one common denominator L = lcm_x theta(x,n,n), the product of
Phi_d(v^4) to the largest of those multiplicities, and divides L^4 out
at the end.  The cofactors L / theta(x,n,n) and the final division are
exact divisions, so a wrong exponent vector or a total that is not a
Laurent polynomial raises NonExactDivision.  No polynomial gcd is ever
taken, and the result is bit-identical however the work is ordered.
summand gives one term as an unreduced (numerator, denominator) pair of
Laurent polynomials.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

from .ktg import circle, delta6j, framing_power, is_admissible, theta
from .qlaurent import ONE, ZERO, cyclotomic, exact_div

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

    def key(self):
        """Canonical parameter string, used for cache paths."""
        return f"{self.r}_{self.s}_{self.t}_{self.u}"


class ColorTuple(NamedTuple):
    """One even lattice point of the summation domain at ambient color n."""

    a: int
    b: int
    c: int
    d: int
    n: int

    def validate(self):
        top = 2 * self.n
        for x in (self.a, self.b, self.c, self.d):
            if x % 2 or not 0 <= x <= top:
                raise ValueError(f"color {x} outside the even range [0, {top}]")
        if not is_admissible(self.a, self.b, self.c):
            raise ValueError(f"({self.a}, {self.b}, {self.c}) is not admissible")


def domain_points(n):
    """The summation domain at ambient color n, in lexicographic order."""
    if n < 0:
        raise ValueError(f"negative ambient color {n}")
    top = 2 * n
    points = []
    for a in range(0, top + 1, 2):
        for b in range(0, top + 1, 2):
            c_lo = abs(a - b)
            c_hi = min(a + b, top)
            for c in range(c_lo, c_hi + 1, 2):
                for d in range(0, top + 1, 2):
                    points.append(ColorTuple(a, b, c, d, n))
    return points


def _summand_numerator(params, n, colors):
    """Product of all non-denominator factors of one summand."""
    a, b, c, d = colors.a, colors.b, colors.c, colors.d
    r, s, t, u = params.astuple()
    num = theta(a, b, c)
    d1 = delta6j(a, b, c, n, n, n)
    num = num * d1 * d1
    num = num * delta6j(b, n, n, d, n, n)
    for x, w in ((a, r), (b, s), (c, t), (d, u)):
        twist = framing_power(x, w)
        num = num.shift(twist.exponent, twist.sign)
    for x in (a, b, c, d):
        num = num * circle(x)
    return num


def summand(params, n, colors):
    """One state-sum term as the exact pair (numerator, denominator).

    The denominator is the product of the four theta(x,n,n) factors; the
    pair is never reduced, so callers can clear it over any common multiple.
    """
    colors.validate()
    num = _summand_numerator(params, n, colors)
    den = ONE
    for x in (colors.a, colors.b, colors.c, colors.d):
        den = den * theta(x, n, n)
    return num, den


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


def theta_lcm_exponents(n):
    """Exponent vector of L = lcm_x theta(x,n,n) over the even x in [0, 2n].

    The per-d maximum of the theta_exponents vectors.
    """
    exponents = {}
    for x in range(0, 2 * n + 1, 2):
        for d, m in theta_exponents(x, n).items():
            exponents[d] = max(exponents.get(d, 0), m)
    return exponents


def colored_jones(params, N):
    """The N-colored Jones polynomial of the knot, exactly.

    The sum is grouped so that the inner d-sum is formed once per b-value.
    Each level is brought over L = lcm_x theta(x,n,n), built from the
    per-d maximum of the exponent vectors, by multiplying with the
    cofactors L / theta(x,n,n).  The total then carries L^4, and the four
    final divisions by L double as an integrality tripwire.
    """
    if N < 1:
        raise ValueError(f"color N must be >= 1, got {N}")
    n = N - 1
    r, s, t, u = params.astuple()
    top = 2 * n
    evens = range(0, top + 1, 2)

    thetas = {x: theta(x, n, n) for x in evens}
    lcm_exponents = theta_lcm_exponents(n)
    lcm = ONE
    for d, m in lcm_exponents.items():
        lcm = lcm * cyclotomic(d) ** m
    # Exact: a wrong exponent vector raises NonExactDivision here.
    cof = {x: exact_div(lcm, thetas[x]) for x in evens}

    def twisted(x, w):
        m = framing_power(x, w)
        return (circle(x) * cof[x]).shift(m.exponent, m.sign)

    # Inner d-sum per b, over the common denominator L.
    d_factor = {d: twisted(d, u) for d in evens}
    w_num = {}
    for b in evens:
        acc = ZERO
        for d in evens:
            term = delta6j(b, n, n, d, n, n)
            if term.is_zero():
                continue
            acc = acc + term * d_factor[d]
        w_num[b] = acc

    b_factor = {b: twisted(b, s) * w_num[b] for b in evens}
    c_factor = {c: twisted(c, t) for c in evens}
    a_factor = {a: twisted(a, r) for a in evens}

    total = ZERO
    for a in evens:
        mid = ZERO
        for b in evens:
            if w_num[b].is_zero():
                continue
            inner = ZERO
            c_lo = abs(a - b)
            c_hi = min(a + b, top)
            for c in range(c_lo, c_hi + 1, 2):
                d1 = delta6j(a, b, c, n, n, n)
                if d1.is_zero():
                    continue
                inner = inner + theta(a, b, c) * d1 * d1 * c_factor[c]
            if inner.is_zero():
                continue
            mid = mid + inner * b_factor[b]
        if mid.is_zero():
            continue
        total = total + mid * a_factor[a]

    log.debug(
        "colored_jones n=%d: L has %d cyclotomic factors, span %d "
        "(product of thetas %d); total span %d before the peel",
        n, sum(lcm_exponents.values()), _span(lcm),
        sum(_span(p) for p in thetas.values()), _span(total),
    )
    # total == J_sum * L^4; peel L off exactly.
    for _ in range(4):
        total = exact_div(total, lcm)

    prefactor = framing_power(n, -4 * u)
    sign = prefactor.sign * (-1 if n % 2 else 1)
    return total.shift(prefactor.exponent, sign)


def _span(poly):
    """Degree span max_deg - min_deg, 0 for the zero polynomial."""
    return poly.max_deg - poly.min_deg if poly else 0


def exact_dplus(params, N):
    """Maximal degree and leading coefficient of the N-colored invariant."""
    poly = colored_jones(params, N)
    return poly.max_deg, poly.leading_coeff
