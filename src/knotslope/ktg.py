"""Building-block evaluators for colored trivalent-graph state sums.

Four atoms and their exact maximal degrees:

  theta(a,b,c)      value of the theta net with edge colors a, b, c,
                    and theta_factors, its unit and binomial vector
  circle(k)         value of the k-colored unknot, (-1)^k [k+1]
  framing_power     the framing-twist scalar f(a)^w as a signed monomial
  delta6j           the quotient of the 6j tetrahedron by the theta,
                    produced by the triangle move

Colors are non-negative integers.  A triple is admissible when its sum is
even and it satisfies the triangle inequality; theta vanishes conceptually
outside that set and we reject such input outright.

theta and each z-term of delta6j are a sign times a product of quantum
binomials [m; k] (Kauffman and Lins, Temperley-Lieb Recoupling Theory,
1994), and [m; k] is a monomial times the Gaussian binomial G(m, k), a
polynomial in q = v^4 with nonnegative coefficients.  _gaussian_row
keeps the rows of the q-Pascal triangle as Packed values of a
PackedRing, in a module-level cache per slot width, and _gaussian_sum
multiplies each term's binomials, adds the terms and reads the sum back
once.  The width is proven from the binomials' values at q = 1, which
bound every coefficient, and the coefficients read back must sum to the
leaf's signed value at q = 1, or ArithmeticError is raised.  theta and
delta6j are the leaves of the state sum's tables, and they return the
dense form (coeffs, lo) in q = v^4 that PackedRing.pack reads:
coeffs[i] is the coefficient of v^(lo + 4i), and zero is ([], 0).  No
leaf is ever a LaurentPoly.  theta_factors states theta as a quotient of
quantum factorials, the binomial vector by which jones divides L into
its cofactors.

dplus_theta and dplus_delta6j give the leaves' maximal degrees from the
colors alone, never the knot; the brute-force degree oracle
(degopt.brute_max_objective) sums them at every lattice point of every
tuple.  Both are memoized per process in module-level functools caches
keyed by their colors alone, so the few hundred arguments that recur at
every tuple of a verify grid are computed once.  Exceptions are not
cached: a bad argument raises on every call.

The framing scalar f(a) = (sqrt(-1))^(-a) v^(-a(a+2)/2) is only ever needed
in real combinations here (even colors, or fourth powers), so it is kept as
an exact sign plus exponent and never as a polynomial with imaginary
coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod
from typing import NamedTuple

from .qlaurent import Packed, PackedRing, factorial_binomials, qint


class InadmissibleColoring(ValueError):
    """Colors violate parity or the triangle inequality."""


class NonRealPhase(ValueError):
    """Framing power whose fourth-root-of-unity phase is not real."""


def is_admissible(x, y, z):
    """True when (x, y, z) has even sum and satisfies the triangle inequality."""
    if min(x, y, z) < 0:
        return False
    if (x + y + z) % 2:
        return False
    return x <= y + z and y <= x + z and z <= x + y


def require_admissible(x, y, z):
    if not is_admissible(x, y, z):
        raise InadmissibleColoring(f"({x}, {y}, {z}) is not an admissible triple")


class SignedMonomial(NamedTuple):
    """Exactly +/- v^exponent."""

    sign: int
    exponent: int


def circle(k):
    """Value of the k-colored unknot: (-1)^k [k+1]."""
    if k < 0:
        raise ValueError(f"negative unknot color {k}")
    p = qint(k + 1)
    return p if k % 2 == 0 else p.shift(0, -1)


def theta_factors(a, b, c):
    """theta(a,b,c) as (unit, binomials), with theta = unit times the
    quotient of 1 by divide_binomials(.., binomials).

    With h = (a+b+c)/2, theta = O^h [h]! / ([h-a]! [h-b]! [h-c]!)
    = (-1)^h [h+1]! / ([h-a]! [h-b]! [h-c]!), as O^h = (-1)^h [h+1].  The
    unit is (-1)^h times the factorial quotient's monomial.
    """
    require_admissible(a, b, c)
    h = (a + b + c) // 2
    exponent, binomials = factorial_binomials((h + 1,), (h - a, h - b, h - c))
    return SignedMonomial(-1 if h % 2 else 1, exponent), binomials


def theta(a, b, c):
    """Theta net value, symmetric in a, b, c, in dense form (coeffs, lo).

    With h = (a+b+c)/2, theta = (-1)^h [h+1] [h; h-a] [a; h-b], the
    factorial quotient of theta_factors regrouped into three quantum
    binomials, built by _gaussian_sum.  Nothing is cached here but the
    Gaussian rows: the state sum builds its theta tables once per n
    (jones._state_tables).
    """
    require_admissible(a, b, c)
    h = (a + b + c) // 2
    return _gaussian_sum([(h % 2, ((h + 1, 1), (h, h - a), (a, h - b)))])


@lru_cache(maxsize=None)
def _gaussian_row(m, width):
    """The Gaussian binomials G(m, k), k = 0..m, as Packed values of one
    PackedRing of width-byte slots, shared by every row of that width.

    G(m, k) = v^(2k(m-k)) [m; k] is a polynomial in q = v^4 with
    nonnegative coefficients, built by the q-Pascal rule
    G(m, k) = G(m-1, k-1) + q^k G(m-1, k) from G(0, 0) = 1 for
    k <= m/2, and mirrored by G(m, k) = G(m, m-k).  A packed row holds
    the exact values G(m, k)(2^w) whatever the width; the width only
    decides which products read back.
    """
    if m == 0:
        return (PackedRing((1 << (8 * width - 1)) - 1).pack(([1], 0)),)
    prev = _gaussian_row(m - 1, width)
    ring = prev[0].ring
    half = [prev[0], *(prev[k - 1] + Packed(prev[k].value, 4 * k, ring)
                       for k in range(1, m // 2 + 1))]
    return (*half, *reversed(half[:(m + 1) // 2]))


def _gaussian_sum(terms):
    """The dense form (coeffs, lo) of the sum over terms (parity, pairs)
    of (-1)^parity times the product of the quantum binomials [m; k] over
    pairs; no terms give zero, ([], 0).

    Each [m; k] is v^(-2k(m-k)) G(m, k), with G from _gaussian_row, so a
    term is a product of Packed rows shifted by a signed monomial, and
    the terms are summed packed and read back once.  The slot width is
    proven before any product: the coefficients of each G(m, k) are
    nonnegative and sum to the binomial C(m, k), so a term's l1 norm is
    its product of C(m, k), and the sum of those over the terms bounds
    every coefficient of the sum.  The signed sum of the same products is
    the value at q = 1, which the coefficients read back must sum to, or
    ArithmeticError is raised.
    """
    if not terms:
        return [], 0
    sizes = [prod(comb(m, k) for m, k in pairs) for _, pairs in terms]
    width = PackedRing(sum(sizes)).width
    total = 0
    for parity, pairs in terms:
        factors = [_gaussian_row(m, width)[k] for m, k in pairs]
        monomial = SignedMonomial(-1 if parity else 1,
                                  -2 * sum(k * (m - k) for m, k in pairs))
        total = prod(factors[1:], start=factors[0]).shift(monomial) + total
    coeffs, lo = total.ring.dense(total)
    at_one = sum(-size if parity else size for (parity, _), size in zip(terms, sizes))
    if sum(coeffs) != at_one:
        raise ArithmeticError(
            f"coefficient sum {sum(coeffs)} is not the value {at_one} at q = 1")
    return coeffs, lo


def framing_power(a, w):
    """The scalar f(a)^w as a SignedMonomial.

    f(a)^w has phase (sqrt(-1))^(-aw), real only when a*w is even, and
    v-exponent -w*a(a+2)/2.  a(a+2)*w is even exactly when a*w is, so a
    real phase also makes the exponent an integer.
    """
    if a < 0:
        raise ValueError(f"negative color {a}")
    if (a * w) % 2:
        raise NonRealPhase(f"f({a})^{w} has a non-real phase")
    sign = -1 if (a * w // 2) % 2 else 1
    return SignedMonomial(sign, -(w * a * (a + 2)) // 2)


def _delta_frame(a, b, c, alpha, beta, gamma):
    """Common index bookkeeping for the 6j quotient and its degree.

    Returns (half_sum, tops, offsets, zlo, zhi) where the four binomials of
    the z-sum are [z+1; half_sum+1] and [tops[i]; z - offsets[i]].  The
    z-range zlo..zhi holds exactly the z for which every argument is in
    range, so it is empty (zhi < zlo) when a top is negative.
    """
    for total in (a + b + c, a + beta + gamma, alpha + b + gamma, alpha + beta + c):
        if total % 2:
            raise InadmissibleColoring(
                f"6j quotient with odd vertex sum in ({a},{b},{c},{alpha},{beta},{gamma})"
            )
    half = (a + b + c) // 2
    tops = ((-a + b + c) // 2, (a - b + c) // 2, (a + b - c) // 2)
    offsets = ((a + beta + gamma) // 2, (alpha + b + gamma) // 2, (alpha + beta + c) // 2)
    zlo = max(half, *offsets)
    zhi = min(t + o for t, o in zip(tops, offsets)) if min(tops) >= 0 else zlo - 1
    return half, tops, offsets, zlo, zhi


def delta6j(a, b, c, alpha, beta, gamma):
    """The 6j/theta quotient of the triangle move, as an alternating z-sum,
    in dense form (coeffs, lo).

    The z-term is (-1)^(z+half) [z+1; half+1] times the product of the
    [tops[i]; z - offsets[i]], with [m; k] = [m]! / ([k]! [m-k]!), and
    _gaussian_sum builds and adds the terms.  z runs over exactly the
    indices for which all four quantum binomials have in-range arguments;
    an empty range gives zero, ([], 0), so that state sums can skip
    vanishing summands uniformly.

    The z-terms lie in one coset mod 4, as their packed sum requires: from
    z to z + 1 the lowest exponent of the term moves by
    4 - 4 half + 12 z - 4 sum(offsets), as the tops sum to half.
    """
    half, tops, offsets, zlo, zhi = _delta_frame(a, b, c, alpha, beta, gamma)
    return _gaussian_sum([
        ((z + half) % 2, ((z + 1, half + 1), *((t, z - o) for t, o in zip(tops, offsets))))
        for z in range(zlo, zhi + 1)])


def binomial_max_deg(n, k):
    """Maximal degree of the symmetric quantum binomial [n; k]: 2k(n-k)."""
    return 2 * k * (n - k)


@lru_cache(maxsize=None)
def dplus_theta(a, b, c):
    """Maximal degree of theta(a,b,c): a(1-a)+b(1-b)+c(1-c)+(a+b+c)^2/2.

    Memoized per process, keyed by the three colors alone; the
    InadmissibleColoring raise is not cached, so it fires on every bad
    call.
    """
    require_admissible(a, b, c)
    s = a + b + c
    return a * (1 - a) + b * (1 - b) + c * (1 - c) + (s * s) // 2


@lru_cache(maxsize=None)
def dplus_delta6j(a, b, c, alpha, beta, gamma):
    """Maximal degree of the 6j quotient.

    The degree is the top z-term's: the binomial degrees at the range end
    z = zhi, where 2*zhi = a+b+c+alpha+beta+gamma - max(a+alpha, b+beta, c+gamma).
    Raises InadmissibleColoring when the z-range is empty (zero value has
    no degree).  Memoized per process, keyed by the six colors alone;
    the InadmissibleColoring and ArithmeticError raises are not cached,
    so they fire on every bad call.
    """
    half, tops, offsets, zlo, zhi = _delta_frame(a, b, c, alpha, beta, gamma)
    if zlo > zhi:
        raise InadmissibleColoring(
            f"empty summation range for ({a},{b},{c},{alpha},{beta},{gamma})"
        )
    total = a + b + c + alpha + beta + gamma
    if total - max(a + alpha, b + beta, c + gamma) != 2 * zhi:
        raise ArithmeticError(
            f"top z-term is not the range end {zhi} for ({a},{b},{c},{alpha},{beta},{gamma})"
        )
    return binomial_max_deg(zhi + 1, half + 1) + sum(
        binomial_max_deg(t, zhi - o) for t, o in zip(tops, offsets)
    )

