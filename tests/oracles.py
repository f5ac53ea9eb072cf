"""Test-only oracles: independent computations that the package is checked against.

  qfact       the quantum factorial, which the qbinom, theta and 6j
              tests divide against
  theta_exponents
              the cyclotomic exponent vector of theta(x,n,n) by floor
              counts, the reference for theta's factorization and for
              the closed form of jones.theta_lcm_exponents
  summand     one exact state-sum term, which the flat oracle of
              tests/test_jones.py sums term by term against the packed
              two-level sum of colored_jones
  ending_u    the closed form (t-1)s/(ts+t-1) of the u-coordinate where
              the interior-ending system's paths end, which the report's
              u0 and E3 read from the built system
  line_check  an independent three-line check of that ending u-coordinate

None of them runs in the package itself.
"""

from fractions import Fraction
from functools import lru_cache

from knotslope.degopt import classify
from knotslope.ktg import circle, delta6j, framing_power, is_admissible, theta
from knotslope.qlaurent import ONE, qint


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
