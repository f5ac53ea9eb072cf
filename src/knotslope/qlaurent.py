"""Exact Laurent polynomial and quantum integer arithmetic.

Everything downstream (theta nets, 6j quotients, state sums, degree bounds)
is built on a single value type: a sparse Laurent polynomial in one variable
v with arbitrary-precision integer coefficients.  This module supplies the
ring operations, exact division, quantum integers with their
binomials, and the cyclotomic polynomials
Phi_d(v^4) that quantum integers factor into.  There is no field of
fractions: state sums bring their quotients over a known common
denominator and clear it with exact_div, whose failure signals a fault.

LaurentPoly has one product: the schoolbook loop over term pairs of the
two dicts.  The state sum's polynomials have every exponent in
v^k Z[v^4], so exact_div first divides exponent offsets by the operands'
common stride (the gcd of the offsets, 4 there) and runs its schoolbook
peel on the compressed coefficient arrays, with every divisibility and
remainder check in place.

Kronecker substitution lives only in PackedRing, which keeps whole
computations packed: its values are Laurent polynomials of one coset
v^k Z[v^stride], held as integers evaluated at v^stride = 2^w, so that a
sum of products is big-integer arithmetic from the packed factors to the
one result that is read back from fixed-width slots, sized from a
bound on the coefficients when the ring is built.

Conventions:
  - the quantum integer [k] is sum_{i=0..k-1} v^(2k-2-4i), so [0] = 0,
    [1] = 1, [2] = v^2 + v^-2;
  - the zero polynomial is the empty term map; nonzero coefficients only;
  - canonical text form is "coeff*v^exp" terms joined by " + " in
    descending exponent order, e.g. "1*v^2 + 1*v^-2";
  - JSON form is a list of [exponent, "coefficient"] pairs, descending
    exponent, coefficients as decimal strings.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

# A coefficient as to_json writes it: a decimal integer.
_DECIMAL = re.compile(r"-?[0-9]+")


class ZeroPolynomial(ValueError):
    """Degree or leading coefficient requested for the zero polynomial."""


class NonExactDivision(ArithmeticError):
    """exact_div was called on a pair with a nonzero remainder."""


class LaurentPoly:
    """Sparse Laurent polynomial in v over the integers.

    Immutable after construction.  The term map never stores a zero
    coefficient, so equal values always have identical term maps and
    results of the ring operations are canonical.  The operands of +, -
    and * are polynomials, and + also takes the int 0, so that sum()
    works; there are no int scalars and no power.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[int(e)] = c
        self._terms = clean

    @classmethod
    def _raw(cls, clean_terms):
        # Internal fast path: caller guarantees no zero coefficients.
        p = object.__new__(cls)
        p._terms = clean_terms
        return p

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    @property
    def max_deg(self):
        if not self._terms:
            raise ZeroPolynomial("zero polynomial has no degree")
        return max(self._terms)

    @property
    def min_deg(self):
        if not self._terms:
            raise ZeroPolynomial("zero polynomial has no degree")
        return min(self._terms)

    @property
    def leading_coeff(self):
        return self._terms[self.max_deg]

    def terms(self):
        """Term list as (exponent, coefficient) pairs, descending exponent."""
        return sorted(self._terms.items(), reverse=True)

    def __len__(self):
        return len(self._terms)

    def l1_norm(self):
        """Sum of the absolute values of the coefficients."""
        return sum(map(abs, self._terms.values()))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if other == 0 or not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product of two polynomials, by the schoolbook loop over their
        term pairs accumulating into one dict; the result is canonical.
        Packed (Kronecker) products are PackedRing's job.
        """
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        bitems = list(b.items())
        for ea, ca in a.items():
            for eb, cb in bitems:
                e = ea + eb
                s = get(e, 0) + ca * cb
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return LaurentPoly._raw(out)

    def shift(self, exponent, sign=1):
        """Multiply by sign * v^exponent (sign must be +1 or -1)."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return LaurentPoly._raw({e + exponent: sign * c for e, c in self._terms.items()})

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- serialization --------------------------------------------------

    def to_text(self):
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*v^{e}" for e, c in self.terms())

    def to_json(self):
        return [[e, str(c)] for e, c in self.terms()]

    @classmethod
    def from_json(cls, pairs):
        """Read to_json's form back: [int exponent, "decimal coefficient"]
        pairs, each exponent once.  Anything else raises ValueError instead
        of being coerced by int()."""
        terms = {}
        for e, c in pairs:
            if type(e) is not int or type(c) is not str or not _DECIMAL.fullmatch(c):
                raise ValueError(f"malformed JSON term {[e, c]!r}")
            if e in terms:
                raise ValueError(f"duplicate exponent {e} in JSON polynomial")
            terms[e] = int(c)
        return cls(terms)

    def __repr__(self):
        return f"<LaurentPoly {self.to_text()}>"

    # -- dense helpers (internal) ----------------------------------------

    def _dense(self, stride=1):
        """Ascending coefficients at exponents lo, lo + stride, ..., plus lo.

        stride must divide every exponent offset from the lowest one.
        """
        lo = self.min_deg
        out = [0] * ((self.max_deg - lo) // stride + 1)
        for e, c in self._terms.items():
            out[(e - lo) // stride] = c
        return out, lo


ZERO = LaurentPoly._raw({})
ONE = LaurentPoly._raw({0: 1})


class PackedRing:
    """Laurent polynomials of one coset v^k Z[v^stride] as packed integers.

    A packed value v^lo * P(v^stride), with P a polynomial, is held as
    the integer P(2^w) and lo, w = 8 * width: the terms at exponents
    lo + stride * k, k >= 0, become the integer sum of c * 2^(w k).
    Evaluation at v^stride = 2^w is a ring homomorphism, so products and
    sums of packed values take big-integer arithmetic only, and
    intermediate values may have any coefficients.

    Each coefficient sits in one w-bit slot as a balanced digit: stored
    biased by half = 2^(w-1), so the slot is never negative, and read back
    minus half.  A slot therefore holds exactly the coefficients of
    magnitude below 2^(w-1).  The ring is built for coefficients of
    magnitude at most bound, so a slot is one bit wider than the bound,
    for the sign, rounded up to whole bytes.  unpack reads a result back
    exactly when its coefficients lie within the bound; pack raises
    OverflowError for a coefficient too wide for its slot.  The ring
    counts the products and sums it forms.
    """

    def __init__(self, bound, stride):
        self.bound = bound
        self.width = (bound.bit_length() + 8) // 8
        self.stride = stride
        self.muls = 0
        self.adds = 0

    def pack(self, poly):
        if not poly:
            return Packed(0, 0, self)
        terms, stride, width = poly._terms, self.stride, self.width
        lo = min(terms)
        if any((e - lo) % stride for e in terms):
            raise ArithmeticError(f"exponents outside one coset mod {stride}")
        half = 1 << (8 * width - 1)
        slots = [half] * ((max(terms) - lo) // stride + 1)
        for e, c in terms.items():
            slots[(e - lo) // stride] = c + half
        biased = b"".join([c.to_bytes(width, "little") for c in slots])
        bias = half.to_bytes(width, "little") * len(slots)
        value = int.from_bytes(biased, "little") - int.from_bytes(bias, "little")
        return Packed(value, lo, self)

    def unpack(self, packed):
        """The LaurentPoly of a packed value; zero gives the zero polynomial.

        The top nonzero slot of a value whose coefficients fit their slots
        lies at or below bit_length / w.  Reading one slot more than that
        keeps value plus the bias positive and below 2^(w * count) for any
        value, so a value packed from wider coefficients still reads back,
        as wrong digits, for the caller's exactness checks to catch.
        """
        width = self.width
        count = abs(packed.value).bit_length() // (8 * width) + 2
        half = 1 << (8 * width - 1)
        bias = int.from_bytes(half.to_bytes(width, "little") * count, "little")
        raw = (packed.value + bias).to_bytes(count * width, "little")
        from_bytes = int.from_bytes
        digits = [from_bytes(raw[i:i + width], "little") - half
                  for i in range(0, count * width, width)]
        lo, stride = packed.lo, self.stride
        return LaurentPoly._raw({lo + k * stride: c for k, c in enumerate(digits) if c})


class Packed:
    """One value of a PackedRing: v^lo times the polynomial packed in value.

    Supports * and + with values of the same ring, and + with the int 0,
    so that sum() works.  A sum aligns the two exponents by a left shift
    of w bits per stride step and raises ArithmeticError when they lie in
    different cosets; zero belongs to every coset.
    """

    __slots__ = ("value", "lo", "ring")

    def __init__(self, value, lo, ring):
        self.value = value
        self.lo = lo
        self.ring = ring

    def shift(self, monomial):
        """The value times a signed monomial (its sign and exponent): a
        sign flip and a move of lo, with no multiply."""
        return Packed(monomial.sign * self.value, self.lo + monomial.exponent, self.ring)

    def __mul__(self, other):
        self.ring.muls += 1
        return Packed(self.value * other.value, self.lo + other.lo, self.ring)

    def __add__(self, other):
        if other == 0 or not other.value:
            return self
        if not self.value:
            return other
        low, high = (self, other) if self.lo <= other.lo else (other, self)
        ring = self.ring
        steps, rem = divmod(high.lo - low.lo, ring.stride)
        if rem:
            raise ArithmeticError(
                f"adding v^{low.lo} and v^{high.lo} terms across cosets "
                f"mod {ring.stride}")
        ring.adds += 1
        return Packed(low.value + (high.value << (8 * ring.width * steps)),
                      low.lo, ring)

    __radd__ = __add__


# -- quantum integers ---------------------------------------------------


@lru_cache(maxsize=None)
def qint(k):
    """Quantum integer [k] = (v^2k - v^-2k)/(v^2 - v^-2), k >= 0."""
    if k < 0:
        raise ValueError(f"quantum integer undefined for negative {k}")
    return LaurentPoly._raw({2 * k - 2 - 4 * i: 1 for i in range(k)})


@lru_cache(maxsize=None)
def cyclotomic(d):
    """Cyclotomic polynomial Phi_d(v^4), d >= 1.

    Built as v^(4d) - 1 divided exactly by Phi_e(v^4) for every proper
    divisor e of d.  Each quantum integer factors as
    [k] = v^(-2(k-1)) * prod over d | k, d > 1, of Phi_d(v^4).
    """
    if d < 1:
        raise ValueError(f"cyclotomic polynomial undefined for {d}")
    p = LaurentPoly._raw({4 * d: 1, 0: -1})
    for e in range(1, d):
        if d % e == 0:
            p = exact_div(p, cyclotomic(e))
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
    return qbinom(n - 1, k).shift(2 * k) + qbinom(n - 1, k - 1).shift(-2 * (n - k))


# -- exact division -----------------------------------------------------


def _stride(*term_maps):
    """Common stride of nonzero term maps.

    The gcd of every exponent's offset from its own map's lowest exponent,
    or 1 when every map is a single term.
    """
    g = 0
    for t in term_maps:
        lo = min(t)
        g = math.gcd(g, *[e - lo for e in t])
    return g or 1


def exact_div(p, q):
    """Exact quotient p / q in the Laurent ring.

    Raises NonExactDivision if q does not divide p over Z[v, v^-1], and
    ZeroDivisionError for a zero divisor.  Used as a correctness tripwire:
    state-sum totals must clear their theta denominators exactly.

    Both operands are taken as dense coefficient arrays compressed by
    their common stride (the gcd of every exponent offset, 4 for the
    state sum's polynomials), and _peel divides those.  An exact quotient
    has the same stride, so the compressed peel performs the same
    nonzero steps and the same checks as the uncompressed one.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero():
        return ZERO
    g = _stride(p._terms, q._terms)
    num, num_off = p._dense(g)
    den, den_off = q._dense(g)
    quot = _peel(num, den)
    shift = num_off - den_off
    return LaurentPoly._raw({shift + i * g: c for i, c in enumerate(quot) if c})


def _peel(num, den):
    """Schoolbook quotient of dense ascending coefficient lists.

    Raises NonExactDivision unless den divides num exactly over Z.
    """
    dn, dd = len(num) - 1, len(den) - 1
    if dn < dd:
        raise NonExactDivision("dividend degree span below divisor")
    lead = den[-1]
    quot = [0] * (dn - dd + 1)
    work = num[:]
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
