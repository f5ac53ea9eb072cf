"""Exact Laurent polynomial and quantum integer arithmetic.

Everything downstream (theta nets, 6j quotients, state sums, degree bounds)
is built on polynomials of one kind: Laurent polynomials in one variable
v with arbitrary-precision integer coefficients, each lying in one coset
v^k Z[v^4].  J_N, L, every cofactor L / theta(x,n,n), every quantum
integer [k] and every product of them lie in one such coset, so a
polynomial is held as a dense coefficient list in q = v^4 and the
exponent of its lowest term.  This module supplies the one polynomial
type, LaurentPoly, its product, quantum integers, one exact division and
the packed ring in which sums are formed.  There is no field of
fractions: state sums bring their quotients over a known common
denominator and clear it with an exact division, whose failure signals a
fault.

LaurentPoly has one ring operation, its product: the convolution of the
two coefficient tuples.  It has no sum; sums are packed.  In q = v^4 a
quotient of quantum factorials is a monomial times a product of powers
of binomials q^j - 1, and factorial_binomials states it as that monomial
and binomial vector.  Every denominator of the state sum is a unit times
such a product, so the one division, exact_div, divides a LaurentPoly
by a product of binomials only, in one pass per binomial over its
coefficients in q, with the remainder checked each time.  It builds L,
the cofactors L / theta(x,n,n) and the final division of the state
sum's total by L^4 (ktg builds the theta and 6j leaves from Gaussian
binomials).

Kronecker substitution lives only in PackedRing, which keeps whole
computations packed: its values are Laurent polynomials of one coset
v^k Z[v^4], held as integers evaluated at v^4 = 2^w, so that a sum of
products is big-integer arithmetic from the packed factors to the one
result that is read back from fixed-width slots, sized from a bound on
the coefficients when the ring is built.  A ring packs LaurentPolys, the
form the building blocks are made in, and reads a packed value back into
one (PackedRing.dense).  Values with small coefficients can be summed in a
ring of narrow slots and then widened into a ring of wider slots for the
products whose coefficients are large, so that no big-integer product
carries slot width it does not need.

Conventions:
  - the quantum integer [k] is sum_{i=0..k-1} v^(2k-2-4i), so [0] = 0,
    [1] = 1, [2] = v^2 + v^-2;
  - a LaurentPoly (coeffs, lo) lists the coefficients at exponents lo,
    lo + 4, ..., ascending, in a tuple with nonzero ends, and the zero
    polynomial is ((), 0);
  - canonical text form is "coeff*v^exp" terms joined by " + " in
    descending exponent order, e.g. "1*v^2 + 1*v^-2";
  - JSON form is a list of [exponent, "coefficient"] pairs, descending
    exponent, coefficients as decimal strings.
"""

from __future__ import annotations

import re
from itertools import accumulate

# A coefficient as to_json writes it: a decimal integer.
_DECIMAL = re.compile(r"-?[0-9]+")


class ZeroPolynomial(ValueError):
    """Degree or leading coefficient requested for the zero polynomial."""


class NonExactDivision(ArithmeticError):
    """A division that must be exact left a nonzero remainder."""


class LaurentPoly:
    """Laurent polynomial over the integers in one coset v^lo Z[v^4].

    The record (coeffs, lo): coeffs is the tuple of the coefficients at
    v^lo, v^(lo+4), ..., trimmed at both ends, so that equal values have
    equal records; zero is ((), 0) however it is shifted.  The
    constructor trims whatever coefficients it is given.  Immutable after
    construction.  The one ring operation is *, on two polynomials; there
    is no sum, difference, negation, int scalar or power (shift negates).
    len() counts the nonzero coefficients.
    """

    __slots__ = ("coeffs", "lo")

    def __init__(self, coeffs=(), lo=0):
        coeffs = tuple(coeffs)
        end = len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        start = 0
        while start < end and not coeffs[start]:
            start += 1
        self.coeffs = coeffs[start:end]
        self.lo = lo + 4 * start if end else 0

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    @property
    def min_deg(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no degree")
        return self.lo

    @property
    def max_deg(self):
        return self.min_deg + 4 * (len(self.coeffs) - 1)

    @property
    def leading_coeff(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def terms(self):
        """Term list as (exponent, coefficient) pairs, descending exponent,
        nonzero coefficients only."""
        coeffs, lo = self.coeffs, self.lo
        return [(lo + 4 * k, coeffs[k]) for k in range(len(coeffs) - 1, -1, -1) if coeffs[k]]

    def __len__(self):
        return len(self.coeffs) - self.coeffs.count(0)

    # -- ring operations ----------------------------------------------

    def __mul__(self, other):
        """Product of two polynomials: the convolution of their coefficient
        tuples, one slice update per nonzero coefficient of the shorter.
        Packed (Kronecker) products are PackedRing's job.
        """
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return ZERO
        m = len(b)
        out = [0] * (len(a) + m - 1)
        for i, c in enumerate(a):
            if c:
                out[i:i + m] = [x + c * y for x, y in zip(out[i:i + m], b)]
        return LaurentPoly(out, self.lo + other.lo)

    def shift(self, exponent, sign=1):
        """Multiply by sign * v^exponent (sign must be +1 or -1)."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        coeffs = self.coeffs if sign > 0 else [-c for c in self.coeffs]
        return LaurentPoly(coeffs, self.lo + exponent)

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly)
                and self.lo == other.lo and self.coeffs == other.coeffs)

    # -- serialization --------------------------------------------------

    def to_text(self):
        return " + ".join(f"{c}*v^{e}" for e, c in self.terms()) or "0"

    def to_json(self):
        return [[e, str(c)] for e, c in self.terms()]

    @classmethod
    def from_json(cls, pairs, window):
        """Read to_json's form back: [int exponent, "decimal coefficient"]
        pairs, each exponent once, all in one coset mod 4 and within
        window = (lo, hi), inclusive.  Anything else raises ValueError
        instead of being coerced by int(); an exponent outside the window
        raises as it is read, so at most (hi - lo)/4 + 1 slots are ever
        allocated, whatever the pairs hold."""
        low, high = window
        terms = {}
        for e, c in pairs:
            if type(e) is not int or type(c) is not str or not _DECIMAL.fullmatch(c):
                raise ValueError(f"malformed JSON term {[e, c]!r}")
            if e in terms:
                raise ValueError(f"duplicate exponent {e} in JSON polynomial")
            if not low <= e <= high:
                raise ValueError(f"JSON exponent {e} outside [{low}, {high}]")
            terms[e] = int(c)
        if not terms:
            return ZERO
        lo = min(terms)
        coeffs = [0] * ((max(terms) - lo) // 4 + 1)
        for e, c in terms.items():
            k, rem = divmod(e - lo, 4)
            if rem:
                raise ValueError(f"JSON exponents {lo} and {e} lie in different cosets mod 4")
            coeffs[k] = c
        return cls(coeffs, lo)

    def __repr__(self):
        return f"<LaurentPoly {self.to_text()}>"


ZERO = LaurentPoly()
ONE = LaurentPoly((1,))


class PackedRing:
    """Laurent polynomials of one coset v^k Z[v^4] as packed integers.

    A packed value v^lo * P(v^4), with P a polynomial, is held as the
    integer P(2^w) and lo, w = 8 * width: the terms at exponents
    lo + 4k, k >= 0, become the integer sum of c * 2^(w k).
    Evaluation at v^4 = 2^w is a ring homomorphism, so products and
    sums of packed values take big-integer arithmetic only, and
    intermediate values may have any coefficients.

    Each coefficient sits in one w-bit slot as a balanced digit: stored
    biased by half = 2^(w-1), so the slot is never negative, and read back
    minus half.  A slot therefore holds exactly the coefficients of
    magnitude below 2^(w-1).  The ring is built for coefficients of
    magnitude at most bound, so a slot is one bit wider than the bound,
    for the sign, rounded up to whole bytes.  dense reads a result back
    exactly when its coefficients lie within the bound; pack raises
    OverflowError for a coefficient too wide for its slot.  widen
    moves a value of a ring with narrower slots into this ring's slots,
    digit by digit, with no product.  The ring counts
    the products and sums it forms.
    """

    def __init__(self, bound):
        self.bound = bound
        self.width = (bound.bit_length() + 8) // 8
        self.muls = 0
        self.adds = 0

    def pack(self, poly):
        """The packed value of the LaurentPoly poly; zero packs to zero."""
        coeffs = poly.coeffs
        width = self.width
        half = 1 << (8 * width - 1)
        biased = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
        bias = half.to_bytes(width, "little") * len(coeffs)
        value = int.from_bytes(biased, "little") - int.from_bytes(bias, "little")
        return Packed(value, poly.lo, self)

    def _biased_slots(self, value):
        """(raw, count, half): value plus the bias, as the bytes of count
        slots of this ring, each holding one balanced digit plus half.

        The top nonzero slot of a value whose coefficients fit their slots
        lies at or below bit_length / w.  Reading one slot more than that
        keeps value plus the bias positive and below 2^(w * count) for any
        value, so a value packed from wider coefficients still reads back,
        as wrong digits, for the caller's exactness checks to catch.
        """
        width = self.width
        count = abs(value).bit_length() // (8 * width) + 2
        half = 1 << (8 * width - 1)
        bias = int.from_bytes(half.to_bytes(width, "little") * count, "little")
        return (value + bias).to_bytes(count * width, "little"), count, half

    def dense(self, packed):
        """The LaurentPoly of a packed value, the form pack takes, read
        from every slot; the constructor trims the zero ends.  Any value
        reads back (_biased_slots)."""
        width = self.width
        raw, count, half = self._biased_slots(packed.value)
        from_bytes = int.from_bytes
        return LaurentPoly([from_bytes(raw[i:i + width], "little") - half
                            for i in range(0, count * width, width)], packed.lo)

    def widen(self, packed):
        """The value packed of a ring with slots no wider than this
        ring's, repacked in this ring's slots.

        The narrow ring reads the value into biased digits as dense does,
        so any value widens, one packed from coefficients too wide for the
        narrow slots to wrong digits.  Each byte of the narrow slots is
        copied into the same byte of the wide slots, across all slots at
        once, and the narrow bias, now in wide slots, is taken off again.
        """
        narrow, wide = packed.ring.width, self.width
        raw, count, half = packed.ring._biased_slots(packed.value)
        out = bytearray(count * wide)
        for j in range(narrow):
            out[j::wide] = raw[j::narrow]
        bias = int.from_bytes(half.to_bytes(wide, "little") * count, "little")
        return Packed(int.from_bytes(out, "little") - bias, packed.lo, self)


class Packed:
    """One value of a PackedRing: v^lo times the polynomial packed in value.

    Supports * and + with values of the same ring, and + with the int 0,
    so that sum() works.  A sum aligns the two exponents by a left shift
    of w bits per step of 4 and raises ArithmeticError when they lie in
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
        steps, rem = divmod(high.lo - low.lo, 4)
        if rem:
            raise ArithmeticError(
                f"adding v^{low.lo} and v^{high.lo} terms across cosets mod 4")
        ring.adds += 1
        return Packed(low.value + (high.value << (8 * ring.width * steps)),
                      low.lo, ring)

    __radd__ = __add__


# -- quantum integers ---------------------------------------------------


def qint(k):
    """Quantum integer [k] = (v^2k - v^-2k)/(v^2 - v^-2), k >= 0."""
    if k < 0:
        raise ValueError(f"quantum integer undefined for negative {k}")
    return LaurentPoly([1] * k, 2 - 2 * k)


def factorial_binomials(numerator, denominator):
    """The quotient prod [m]! over numerator / prod [m]! over denominator,
    as (exponent, binomials): the quotient is v^exponent times the
    quotient of 1 by exact_div, when it is a Laurent polynomial.

    The vector is the divisor's, the sign convention of exact_div:
    (j, e) stands for (q^j - 1)^(-e) in the quotient, q = v^4.  It
    follows from [m]! = v^(-m(m-1)) (q - 1)^(-m) prod_{j<=m} (q^j - 1), as
    [j] = v^(-2(j-1)) (q^j - 1)/(q - 1).  Entries that cancel are left out.
    """
    exponent, binomials = 0, {}
    for factorials, sign in ((numerator, 1), (denominator, -1)):
        for m in factorials:
            exponent -= sign * m * (m - 1)
            binomials[1] = binomials.get(1, 0) + sign * m
            for j in range(1, m + 1):
                binomials[j] = binomials.get(j, 0) - sign
    return exponent, {j: e for j, e in binomials.items() if e}


# -- exact division -----------------------------------------------------


def exact_div(p, binomials):
    """Exact quotient of the LaurentPoly p by prod (v^(4j) - 1)^e over the
    (j, e) items of binomials, j >= 1; a negative e multiplies.  The
    quotient keeps p's lo, and p is left as it was.

    Every product is applied, and then every division, to a copy of p's
    coefficients in q = v^4.  Over 1 - q^j instead of q^j - 1, a product
    is a subtraction of the list shifted by j, and a quotient is a running
    sum along each residue class mod j, whose top j entries are the
    remainder and must be zero; each factor's sign flip is applied once at
    the end.  A nonzero remainder raises NonExactDivision.

    The division stays the integrality tripwire of the state sum.  Write
    the divisor as N'/D, with N' and D the products of the binomials of
    positive and of negative e.  Then T / (N'/D) is a Laurent polynomial
    exactly when N' divides T D, and that holds exactly when every
    division of the chain on T D is exact: each factor of N' divides what
    is left of T D exactly when the rest of N' divides the quotient.
    """
    coeffs = list(p.coeffs)
    sign = 1
    for j, e in binomials.items():
        for _ in range(-e):
            coeffs = [a - b for a, b in zip(coeffs + [0] * j, [0] * j + coeffs)]
            sign = -sign
    for j, e in binomials.items():
        for _ in range(e):
            for i in range(j):
                coeffs[i::j] = accumulate(coeffs[i::j])
            if any(coeffs[-j:]):
                raise NonExactDivision(f"nonzero remainder mod v^{4 * j} - 1")
            del coeffs[-j:]
            sign = -sign
    return LaurentPoly(coeffs if sign > 0 else [-c for c in coeffs], p.lo)
