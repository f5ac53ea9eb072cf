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

The grouped sum runs on packed integers (qlaurent.PackedRing): each
factor is evaluated once at v^4 = 2^w, every level of the sum is
big-integer arithmetic, and only the total is read back into a Laurent
polynomial.  The slot width w comes from a first run of the same grouped
sum over the factors' l1 norms, which bounds every coefficient of the
total.  The final divisions and the classical limit J_N(1) = N check the
result, so a slot too narrow for it raises ArithmeticError.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

from .ktg import circle, delta6j, framing_power, theta
from .qlaurent import ONE, LaurentPoly, PackedRing, cyclotomic, exact_div

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


def _c_range(a, b, n):
    """The even c in [0, 2n] that make (a, b, c) admissible."""
    return range(abs(a - b), min(a + b, 2 * n) + 1, 2)


def domain_points(n):
    """The summation domain at ambient color n: its even lattice points as
    (a, b, c, d) tuples, in lexicographic order."""
    if n < 0:
        raise ValueError(f"negative ambient color {n}")
    top = 2 * n
    points = []
    for a in range(0, top + 1, 2):
        for b in range(0, top + 1, 2):
            for c in _c_range(a, b, n):
                for d in range(0, top + 1, 2):
                    points.append((a, b, c, d))
    return points


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


class _Leaves(NamedTuple):
    """The factors of the grouped state sum at one ambient color n.

    a, b, c, d map each even color x to its twisted factor
    O^x f(x)^w L / theta(x,n,n), with w = r, s, t, u; bd maps (b, d) to
    delta6j(b,n,n,d,n,n); theta and delta map each admissible sorted
    triple a <= b <= c to theta(a,b,c) and delta6j(a,b,c,n,n,n), which are
    symmetric in (a, b, c): permuting the triple permutes the four
    quantum binomials of each z-term and leaves the z-range unchanged.
    """

    a: dict
    b: dict
    c: dict
    d: dict
    bd: dict
    theta: dict
    delta: dict

    def map(self, f):
        """The same tables with f applied to every factor."""
        return _Leaves(*({k: f(v) for k, v in table.items()} for table in self))


def _leaves(params, n, lcm):
    """The factor tables of the state sum, brought over L = lcm.

    Each cofactor L / theta(x,n,n) is an exact division, so an L that
    misses a factor of some theta raises NonExactDivision here.
    """
    evens = range(0, 2 * n + 1, 2)
    base = {x: circle(x) * exact_div(lcm, theta(x, n, n)) for x in evens}

    def twisted(w):
        table = {}
        for x in evens:
            m = framing_power(x, w)
            table[x] = base[x].shift(m.exponent, m.sign)
        return table

    triples = [(a, b, c) for a in evens for b in evens for c in _c_range(a, b, n)
               if a <= b <= c]
    return _Leaves(
        *(twisted(w) for w in params.astuple()),
        bd={(b, d): delta6j(b, n, n, d, n, n) for b in evens for d in evens},
        theta={abc: theta(*abc) for abc in triples},
        delta={abc: delta6j(*abc, n, n, n) for abc in triples},
    )


def _grouped_sum(n, f):
    """The grouped state sum over the factor tables f: J_sum * L^4.

    The inner d-sum is formed once per b-value, and the product
    theta(a,b,c) delta6j(a,b,c,n,n,n)^2 once per sorted triple.  Only + and
    * are applied to the factors, so the same traversal runs over
    LaurentPoly factors, over packed integers, and over l1 norms, where it
    gives an upper bound of the l1 norm of the total, because
    ||PQ|| <= ||P|| ||Q|| and ||P + Q|| <= ||P|| + ||Q||.
    """
    evens = range(0, 2 * n + 1, 2)
    w = {b: f.b[b] * sum(f.bd[b, d] * f.d[d] for d in evens) for b in evens}
    tri = {abc: f.theta[abc] * f.delta[abc] * f.delta[abc] for abc in f.theta}
    total = 0
    for a in evens:
        mid = 0
        for b in evens:
            inner = 0
            for c in _c_range(a, b, n):
                inner = inner + tri[tuple(sorted((a, b, c)))] * f.c[c]
            mid = mid + inner * w[b]
        total = total + mid * f.a[a]
    return total


def colored_jones(params, N):
    """The N-colored Jones polynomial of the knot, exactly.

    The grouped sum runs twice over the same factor tables: once over
    their l1 norms, which bounds every coefficient of the total, and once
    over the factors packed into integers at v^4 = 2^w by a PackedRing
    built for that bound.  Only the total is unpacked.  It carries L^4,
    and the four final divisions by L and the classical limit J_N(1) = N
    double as tripwires for the integrality of the sum and for the slot
    width.
    """
    if N < 1:
        raise ValueError(f"color N must be >= 1, got {N}")
    n = N - 1
    lcm_exponents = theta_lcm_exponents(n)
    lcm = ONE
    for d, m in lcm_exponents.items():
        lcm = lcm * cyclotomic(d) ** m

    leaves = _leaves(params, n, lcm)
    bound = _grouped_sum(n, leaves.map(LaurentPoly.l1_norm))
    ring = PackedRing(bound, 4)
    packed = leaves.map(ring.pack)
    del leaves  # only the packed tables are used from here; free the rest
    total = ring.unpack(_grouped_sum(n, packed))

    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "colored_jones n=%d: L has %d cyclotomic factors, span %d "
            "(product of thetas %d); total span %d before the peel; "
            "%d-bit slots for an l1 bound of %d bits, total max |coef| "
            "%d bits; %d packed multiplies, %d packed adds",
            n, sum(lcm_exponents.values()), _span(lcm),
            sum(_span(theta(x, n, n)) for x in range(0, 2 * n + 1, 2)),
            _span(total), 8 * ring.width, bound.bit_length(),
            max((abs(c) for _, c in total.terms()), default=0).bit_length(),
            ring.muls, ring.adds,
        )
    # total == J_sum * L^4; peel L off exactly.
    for _ in range(4):
        total = exact_div(total, lcm)

    prefactor = framing_power(n, -4 * params.u)
    sign = prefactor.sign * (-1 if n % 2 else 1)
    result = total.shift(prefactor.exponent, sign)
    at_one = sum(c for _, c in result.terms())
    if at_one != N:
        raise ArithmeticError(f"J_{N}(1) = {at_one}, not {N}")
    return result


def _span(poly):
    """Degree span max_deg - min_deg, 0 for the zero polynomial."""
    return poly.max_deg - poly.min_deg if poly else 0
