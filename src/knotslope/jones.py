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
polynomial.  The knot enters only through the framing factors f(x)^w,
signed monomials, so the factors, L and the ring are built once per n
(_state_tables) and a knot twists them by Packed.shift, with no
multiply.  A twist keeps every l1 norm, so one run of the same grouped
sum over the factors' l1 norms per n bounds every coefficient of the
total and sets the slot width w.  The final divisions and the classical
limit J_N(1) = N check the result, so a slot too narrow for it raises
ArithmeticError.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _state_tables(n):
    """The knot-independent tables of the state sum at ambient color n.

    Returns (lcm, ring, base, bd, tri): L = lcm_x theta(x,n,n), and the
    PackedRing and the tables packed in it, where base maps each even color
    x to O^x L / theta(x,n,n), bd maps (b, d) to delta6j(b,n,n,d,n,n), and
    tri maps each admissible sorted triple a <= b <= c to
    theta(a,b,c) delta6j(a,b,c,n,n,n)^2, which is symmetric in (a, b, c):
    permuting the triple permutes the four quantum binomials of each
    z-term and leaves the z-range unchanged.  The ring's bound is the
    grouped sum over the l1 norms with base's norms for all four twisted
    tables.  Each cofactor L / theta(x,n,n) is an exact division, so an L
    that misses a factor of some theta raises NonExactDivision here.
    Callers share the tables and only read them; the ring's counters move.
    """
    lcm = ONE
    for d, m in theta_lcm_exponents(n).items():
        for _ in range(m):
            lcm = lcm * cyclotomic(d)
    evens = range(0, 2 * n + 1, 2)
    base = {x: circle(x) * exact_div(lcm, theta(x, n, n)) for x in evens}
    bd = {(b, d): delta6j(b, n, n, d, n, n) for b in evens for d in evens}
    triples = [(a, b, c) for a in evens for b in evens for c in _c_range(a, b, n)
               if a <= b <= c]
    factors = {abc: (theta(*abc), delta6j(*abc, n, n, n)) for abc in triples}

    norm = LaurentPoly.l1_norm
    base_norm = {x: norm(p) for x, p in base.items()}
    ring = PackedRing(_grouped_sum(
        n, base_norm, base_norm, base_norm, base_norm,
        {k: norm(p) for k, p in bd.items()},
        {abc: norm(t) * norm(dl) * norm(dl) for abc, (t, dl) in factors.items()}), 4)
    pack = ring.pack
    tri = {}
    for abc, (t, dl) in factors.items():
        packed_delta = pack(dl)
        tri[abc] = pack(t) * packed_delta * packed_delta
    return (lcm, ring, {x: pack(p) for x, p in base.items()},
            {k: pack(p) for k, p in bd.items()}, tri)


def _grouped_sum(n, fa, fb, fc, fd, bd, tri):
    """The grouped state sum: J_sum * L^4 for the twisted factor tables
    fa, fb, fc, fd and _state_tables' bd and tri.

    The inner d-sum is formed once per b-value.  Only + and * are applied
    to the factors, so the same traversal runs over LaurentPoly factors,
    over packed integers, and over l1 norms, where it gives an upper
    bound of the l1 norm of the total, because ||PQ|| <= ||P|| ||Q|| and
    ||P + Q|| <= ||P|| + ||Q||.
    """
    evens = range(0, 2 * n + 1, 2)
    w = {b: fb[b] * sum(bd[b, d] * fd[d] for d in evens) for b in evens}
    total = 0
    for a in evens:
        mid = 0
        for b in evens:
            inner = 0
            for c in _c_range(a, b, n):
                inner = inner + tri[tuple(sorted((a, b, c)))] * fc[c]
            mid = mid + inner * w[b]
        total = total + mid * fa[a]
    return total


def colored_jones(params, N):
    """The N-colored Jones polynomial of the knot, exactly.

    Each weight w of (r, s, t, u) twists _state_tables(n)'s base by
    f(x)^w, and the grouped sum runs over the four twisted tables and the
    cached bd and tri.  Only the total is unpacked.  It carries L^4, and
    the four final divisions by L and the classical limit J_N(1) = N
    double as tripwires for the integrality of the sum and for the slot
    width.
    """
    if N < 1:
        raise ValueError(f"color N must be >= 1, got {N}")
    n = N - 1
    lcm, ring, base, bd, tri = _state_tables(n)
    fa, fb, fc, fd = ({x: f.shift(framing_power(x, w)) for x, f in base.items()}
                      for w in params.astuple())
    muls, adds = ring.muls, ring.adds
    total = ring.unpack(_grouped_sum(n, fa, fb, fc, fd, bd, tri))

    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "colored_jones n=%d: L has %d cyclotomic factors, span %d "
            "(product of thetas %d); total span %d before the peel; "
            "%d-bit slots for an l1 bound of %d bits, total max |coef| "
            "%d bits; %d packed multiplies, %d packed adds",
            n, sum(theta_lcm_exponents(n).values()), _span(lcm),
            sum(_span(theta(x, n, n)) for x in range(0, 2 * n + 1, 2)),
            _span(total), 8 * ring.width, ring.bound.bit_length(),
            max((abs(c) for _, c in total.terms()), default=0).bit_length(),
            ring.muls - muls, ring.adds - adds,
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
