"""Exact Laurent polynomial and quantum integer arithmetic.

Everything downstream (theta nets, 6j quotients, state sums, degree bounds)
is built on a single value type: a sparse Laurent polynomial in one variable
v with arbitrary-precision integer coefficients.  This module supplies its
product, quantum integers, one exact division and the packed ring in
which sums are formed.  There is no field of fractions: state sums bring
their quotients over a known common denominator and clear it with
exact_div, whose failure signals a fault.

LaurentPoly has one ring operation, its product: the schoolbook loop
over term pairs of the two dicts.  It has no sum; sums are packed.  In
q = v^4 a quotient of quantum factorials is a monomial times a product
of powers of binomials q^j - 1, and factorial_binomials states it as
that monomial and binomial vector.  Every denominator of the state sum
is a unit times such a product, so the one division, divide_binomials,
divides a dense coefficient list in q by a product of binomials only,
in one pass per binomial, with the remainder checked each time.  It
builds L, the cofactors L / theta(x,n,n) and the final division by L^4
(ktg builds the theta and 6j leaves from Gaussian binomials), and
exact_div wraps it for the LaurentPoly dividends, L and the cofactors;
the final division takes the packed total's dense list directly.

Kronecker substitution lives only in PackedRing, which keeps whole
computations packed: its values are Laurent polynomials of one coset
v^k Z[v^stride], held as integers evaluated at v^stride = 2^w, so that a
sum of products is big-integer arithmetic from the packed factors to the
one result that is read back from fixed-width slots, sized from a
bound on the coefficients when the ring is built.  A ring packs dense
coefficient lists, the form the building blocks are made in, and reads
a packed value back into that form (PackedRing.dense); LaurentPoly.dense
gives the form of any polynomial.
Values with small coefficients can be summed in a ring of narrow slots
and then widened into a ring of wider slots for the products whose
coefficients are large, so that no big-integer product carries slot
width it does not need.

Conventions:
  - the quantum integer [k] is sum_{i=0..k-1} v^(2k-2-4i), so [0] = 0,
    [1] = 1, [2] = v^2 + v^-2;
  - the zero polynomial is the empty term map; nonzero coefficients only;
  - a dense form (coeffs, lo) lists the coefficients at exponents lo,
    lo + stride, ..., ascending; zero is ([], 0);
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
    """Sparse Laurent polynomial in v over the integers.

    Immutable after construction.  The term map never stores a zero
    coefficient, so equal values always have identical term maps and
    results of the ring operations are canonical.  The one ring
    operation is *, on two polynomials; there is no sum, difference,
    negation, int scalar or power (shift negates).
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

    # -- ring operations ----------------------------------------------

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

    # -- dense form -----------------------------------------------------

    def dense(self, stride):
        """The dense form (coeffs, lo): ascending coefficients at exponents
        lo, lo + stride, ..., from the lowest exponent lo; ([], 0) for zero.

        Raises ArithmeticError unless every exponent lies in the coset of
        the lowest one mod stride.
        """
        terms = self._terms
        if not terms:
            return [], 0
        lo = min(terms)
        out = [0] * ((max(terms) - lo) // stride + 1)
        for e, c in terms.items():
            k, rem = divmod(e - lo, stride)
            if rem:
                raise ArithmeticError(f"exponents outside one coset mod {stride}")
            out[k] = c
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
    for the sign, rounded up to whole bytes.  dense reads a result back
    exactly when its coefficients lie within the bound; pack raises
    OverflowError for a coefficient too wide for its slot.  widen
    moves a value of a ring with narrower slots and the same stride into
    this ring's slots, digit by digit, with no product.  The ring counts
    the products and sums it forms.
    """

    def __init__(self, bound, stride):
        self.bound = bound
        self.width = (bound.bit_length() + 8) // 8
        self.stride = stride
        self.muls = 0
        self.adds = 0

    def pack(self, dense):
        """The packed value of a dense form (coeffs, lo) at the ring's
        stride, as LaurentPoly.dense gives it; ([], 0) packs to zero."""
        coeffs, lo = dense
        width = self.width
        half = 1 << (8 * width - 1)
        biased = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
        bias = half.to_bytes(width, "little") * len(coeffs)
        value = int.from_bytes(biased, "little") - int.from_bytes(bias, "little")
        return Packed(value, lo, self)

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
        """The dense form (coeffs, lo) of a packed value at the ring's
        stride, the form pack takes, from its lowest to its highest nonzero
        slot; zero gives ([], 0).  Any value reads back (_biased_slots)."""
        width = self.width
        raw, count, half = self._biased_slots(packed.value)
        from_bytes = int.from_bytes
        coeffs = [from_bytes(raw[i:i + width], "little") - half
                  for i in range(0, count * width, width)]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if not coeffs:
            return [], 0
        start = next(k for k, c in enumerate(coeffs) if c)
        return coeffs[start:], packed.lo + start * self.stride

    def widen(self, packed):
        """The value packed of a ring with this stride and slots no wider
        than this ring's, repacked in this ring's slots.

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


def qint(k):
    """Quantum integer [k] = (v^2k - v^-2k)/(v^2 - v^-2), k >= 0."""
    if k < 0:
        raise ValueError(f"quantum integer undefined for negative {k}")
    return LaurentPoly._raw({2 * k - 2 - 4 * i: 1 for i in range(k)})


def factorial_binomials(numerator, denominator):
    """The quotient prod [m]! over numerator / prod [m]! over denominator,
    as (exponent, binomials): the quotient is v^exponent times the
    quotient of 1 by divide_binomials, when it is a Laurent polynomial.

    The vector is the divisor's, the sign convention of divide_binomials:
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


def divide_binomials(coeffs, binomials):
    """The dense quotient of the dense coeffs, in q = v^4, by
    prod (q^j - 1)^e over the (j, e) items of binomials, j >= 1; a
    negative e multiplies.

    Every product is applied, and then every division.  Over 1 - q^j
    instead of q^j - 1, a product is a subtraction of the list shifted by
    j, and a quotient is a running sum along each residue class mod j,
    whose top j entries are the remainder and must be zero; each factor's
    sign flip is applied once at the end.  A nonzero remainder raises
    NonExactDivision.  The division works in place on coeffs, which the
    caller gives up.

    The division stays the integrality tripwire of the state sum.  Write
    the divisor as N'/D, with N' and D the products of the binomials of
    positive and of negative e.  Then T / (N'/D) is a Laurent polynomial
    exactly when N' divides T D, and that holds exactly when every
    division of the chain on T D is exact: each factor of N' divides what
    is left of T D exactly when the rest of N' divides the quotient.
    """
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
    return coeffs if sign > 0 else [-c for c in coeffs]


def exact_div(p, binomials):
    """Exact quotient of the LaurentPoly p by prod (v^(4j) - 1)^e over the
    (j, e) items of binomials: divide_binomials on p's dense form in
    q = v^4.

    p must lie in one coset v^k Z[v^4]; a nonzero remainder raises
    NonExactDivision.
    """
    if p.is_zero():
        return ZERO
    coeffs, lo = p.dense(4)
    return LaurentPoly._raw({lo + 4 * i: c for i, c in
                             enumerate(divide_binomials(coeffs, binomials)) if c})
