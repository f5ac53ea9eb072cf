"""Degree engine: the quadratic integer program behind the state sum.

The maximal degree of the N-colored invariant equals the maximum over the
summation domain of an integer-valued objective assembled from the
building-block degrees.  This module evaluates that objective, maximizes
it three independent ways (exhaustive scan, case analysis, closed form),
and fits quadratic quasi-polynomials to computed degree sequences.  It
holds no report format: the verification report's one writer is
pipeline.Report.to_json.

Writing A = -(r+s+1)/2, B = -(r+1), C = -(r+t)/2 and disc = 4AC - B^2 for
the quadratic form of the objective restricted to the face a = b+c,
d = 2n, the parameter space splits into

  tag "1"    A >= 0 or C >= 0
  tag "2.1"  A, C < 0 and disc < 0        (same conclusion as "1")
  tag "2.2"  A, C < 0 and disc > 0
  tag "2.3"  A, C < 0, disc = 0, (r+s-1, r+t-2) != (0, 0)
  tag "2.4"  A, C < 0, disc = 0, r = -3, s = 4, t = 5

Tags "1" and "2.1" give a quadratic degree with period (s+t-1)/2 in the
color (Classification.quadratic); the rest give the linear degree
2u(N-1).  degree_model makes that split once per tuple and returns one
frozen DegreeModel (growth, two_b, residues and one constant per
residue class), which closed_form_dplus reads.  Residue class j takes
its constant at the odd integer nearest x = 2(t-1)j/(s+t-1), which is
2*ceil(x/2) - 1 (residue_data).
face_objective reads its quadratic part from classify, and
fast_max_objective takes the split from classify but no closed-form
coefficient: it evaluates face_objective on the boundary line c = 2n - b
near the real peak (line_peak), so it stays an oracle independent of the
closed form.

The closed form (DegreeModel.coeffs) and a fit (fit_quasi's result) are
one value, a tuple of (a, two_b, c) per residue class, so they compare
with ==; they share one evaluator (quasi_value) and one walk for the N
from which samples agree with them (stabilization_threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .jones import domain_points
from .ktg import dplus_delta6j, dplus_theta


class NoQuadraticFit(ValueError):
    """A residue class has too few samples to pin a quadratic."""


@dataclass(frozen=True)
class Classification:
    """Quadratic-form data of the face objective and the case tag.

    bb, bc, cc are the coefficients of b^2, bc and c^2 (the A, B, C of the
    report format); disc = 4*bb*cc - bc^2.
    """

    bb: int
    bc: int
    cc: int
    disc: int
    tag: str

    @property
    def quadratic(self):
        """True when the degree is quadratic in the color (tags 1 and 2.1)."""
        return self.tag in ("1", "2.1")


@dataclass(frozen=True)
class ResidueData:
    """Constant term data for one residue class of the quadratic form.

    nearest_odd is v = 2*ceil(x/2) - 1 with x = 2(t-1)j/(s+t-1): the odd
    integer nearest x, the smaller one when x is even.  offset is
    v - 1 - x and the constant is -((s+t-1)/2)((v-x)^2 - 1) - 2(u+2),
    which reads v only through (v-x)^2, so both odd neighbours of an even
    x give the same constant.
    """

    j: int
    nearest_odd: int
    offset: Fraction
    constant: Fraction


@dataclass(frozen=True)
class DegreeModel:
    """Per-residue quadratic degree model: growth*N^2 + two_b*N + constants[j].

    j = N mod period, and the period is len(constants).  residues holds
    the ResidueData of each class in the quadratic cases and is empty in
    the linear ones.
    """

    classification: Classification
    growth: Fraction
    two_b: int
    residues: tuple
    constants: tuple

    @property
    def period(self):
        return len(self.constants)

    @property
    def coeffs(self):
        """(growth, two_b, constant) per residue: the layout fit_quasi returns."""
        return tuple((self.growth, self.two_b, c) for c in self.constants)


def classify(params):
    """Exact quadratic-form coefficients and case tag for the parameters."""
    r, s, t, u = params.astuple()
    if (r + s + 1) % 2 or (r + t) % 2:
        raise ArithmeticError(f"r + s + 1 and r + t must be even, got {params}")
    bb = -(r + s + 1) // 2
    bc = -(r + 1)
    cc = -(r + t) // 2
    disc = 4 * bb * cc - bc * bc
    if bb >= 0 or cc >= 0:
        tag = "1"
    elif disc < 0:
        tag = "2.1"
    elif disc > 0:
        tag = "2.2"
    elif (r + s - 1) ** 2 + (r + t - 2) ** 2 != 0:
        tag = "2.3"
    else:
        tag = "2.4"
        if (r, s, t) != (-3, 4, 5):
            raise ArithmeticError(f"case 2.4 away from (r, s, t) = (-3, 4, 5): {params}")
    return Classification(bb, bc, cc, disc, tag)


def degree_objective(params, n, colors):
    """The summand degree bound at one lattice point, an exact integer.

    Sum of the maximal degrees of every factor of the summand (thetas and
    6j quotients positively, the four theta denominators negatively, the
    framing monomial exponents with their multiplicities, the unknot
    values, and the global framing correction).  The half-integer framing
    terms always combine to an integer on even colors.
    """
    r, s, t, u = params.astuple()
    a, b, c, d = colors
    value = dplus_theta(a, b, c)
    value += 2 * dplus_delta6j(a, b, c, n, n, n)
    value += dplus_delta6j(b, n, n, d, n, n)
    for x, w in ((a, r), (b, s), (c, t), (d, u)):
        twist = -w * x * (x + 2)
        if twist % 2:
            raise ArithmeticError(f"half-integer framing degree at color {x}")
        value += twist // 2
    for x in (a, b, c, d):
        value += 2 * x
        value -= dplus_theta(x, n, n)
    value += 2 * u * n * (n + 2)
    return value


def face_objective(params, n, b, c):
    """The objective on the face a = b+c, d = 2n, directly as a quadratic.

    Equals degree_objective(params, n, (b+c, b, c, 2n)) for even lattice
    points of the triangle b, c >= 0, b + c <= 2n.  The quadratic part is
    classify's form bb*b^2 + bc*b*c + cc*c^2.
    """
    r, s, t, u = params.astuple()
    cls = classify(params)
    return (cls.bb * b * b + cls.bc * b * c + cls.cc * c * c
            - (r + s - 1) * b - (r + t - 2) * c + 2 * u * n)


def line_peak(params, n):
    """Real maximizer of the boundary-line quadratic."""
    r, s, t, u = params.astuple()
    return Fraction(2 * (t - 1) * n - s + t - 1, s + t - 1)


def brute_max_objective(params, n):
    """Exhaustive maximum of the objective over the whole domain.

    degree_objective runs at every lattice point, so the scan shares
    nothing with fast_max_objective or the closed form.  Both of its leaf
    degrees, dplus_theta and dplus_delta6j, are memoized per process on
    their colors alone: after the first tuple at a given n, a scan of
    another tuple reads every one of them from the cache.
    """
    return max(degree_objective(params, n, colors) for colors in domain_points(n))


def fast_max_objective(params, n):
    """Case-analysis maximum of the objective, no domain scan.

    Quadratic cases restrict to the face a = b+c, d = 2n and compare the
    face values on the boundary line c = 2n - b at the even b bracketing
    the real peak (clamped to [0, 2n]) with the face value at the origin;
    linear cases return the origin value 2un outright.  At n = 0 the
    domain is the origin alone and both branches return 0.
    """
    if n < 0:
        raise ValueError(f"fast maximization needs n >= 0, got {n}")
    if not classify(params).quadratic:
        return 2 * params.u * n
    peak = line_peak(params, n)
    lo = ((peak.numerator // peak.denominator) // 2) * 2
    candidates = {0, 2 * n}
    for b in (lo - 2, lo, lo + 2, lo + 4):
        if 0 <= b <= 2 * n:
            candidates.add(b)
    best = max(face_objective(params, n, b, 2 * n - b) for b in candidates)
    return max(best, face_objective(params, n, 0, 0))


def degree_model(params):
    """The closed-form degree model of one tuple, built once.

    Quadratic cases: period (s+t-1)/2, growth 2(t-1)^2/(s+t-1) - 2(r+t),
    two_b = 2(r+u+3) and one residue class per j.  Linear cases: period 1,
    growth 0, two_b = 2u, constant -2u and no residue table.
    """
    cls = classify(params)
    r, s, t, u = params.astuple()
    if not cls.quadratic:
        return DegreeModel(cls, Fraction(0), 2 * u, (), (Fraction(-2 * u),))
    residues = tuple(residue_data(params, j) for j in range((s + t - 1) // 2))
    growth = Fraction(2 * (t - 1) ** 2, s + t - 1) - 2 * (r + t)
    return DegreeModel(cls, growth, 2 * (r + u + 3), residues,
                       tuple(res.constant for res in residues))


def residue_data(params, j):
    """Constant-term data for residue class j of the quadratic model."""
    r, s, t, u = params.astuple()
    p2 = s + t - 1
    if not 0 <= j < p2 // 2:
        raise ValueError(f"residue {j} outside [0, {p2 // 2})")
    x = Fraction(2 * (t - 1) * j, p2)
    v = 2 * ceil(x / 2) - 1
    constant = -Fraction(p2, 2) * ((v - x) ** 2 - 1) - 2 * (u + 2)
    return ResidueData(j, v, v - 1 - x, constant)


def quasi_value(coeffs, N):
    """a*N^2 + two_b*N + c for the (a, two_b, c) of N's residue class, exact."""
    a, two_b, c = coeffs[N % len(coeffs)]
    return a * N * N + two_b * N + c


def closed_form_dplus(model, N):
    """Degree of the N-colored invariant by the closed form of a DegreeModel.

    growth*N^2 + two_b*N + c_j with j = N mod period, which is 2u(N-1) in
    the linear cases.  The formula is only guaranteed from the
    stabilization threshold on; below it this is the raw value.
    """
    if N < 1:
        raise ValueError(f"color N must be >= 1, got {N}")
    value = quasi_value(model.coeffs, N)
    if value.denominator != 1:
        raise ArithmeticError(f"closed form not integral at N={N}")
    return int(value)


def fit_quasi(samples, p):
    """Fit a period-p quadratic quasi-polynomial to (N, degree) samples.

    Returns the (a, two_b, c) of each residue class j = N mod p, the layout
    of DegreeModel.coeffs: a*N^2 + two_b*N + c is the quadratic through the
    class's last three samples, so each class needs at least three.  The
    fit always reproduces the last sample, so stabilization_threshold of
    the fit over the same samples is never None.
    """
    if p < 1:
        raise ValueError(f"period must be positive, got {p}")
    by_class = [[] for _ in range(p)]
    for N, value in sorted(samples):
        by_class[N % p].append((N, value))
    for j, pts in enumerate(by_class):
        if len(pts) < 3:
            raise NoQuadraticFit(
                f"residue class {j} has {len(pts)} samples, need at least 3"
            )
    return tuple(_quadratic_through(pts[-3:]) for pts in by_class)


def _quadratic_through(pts):
    (x1, y1), (x2, y2), (x3, y3) = pts
    d21 = Fraction(y2 - y1, x2 - x1)
    d32 = Fraction(y3 - y2, x3 - x2)
    a = (d32 - d21) / (x3 - x1)
    two_b = d21 - a * (x1 + x2)
    c = y1 - a * x1 * x1 - two_b * x1
    return (a, two_b, c)


def stabilization_threshold(coeffs, samples):
    """Least sample N from which every later sample equals quasi_value(coeffs, N).

    samples is a list of (N, value) pairs.  Returns None when even the
    last sample disagrees.  Values are compared exactly and nothing is
    raised: a non-integral model value simply disagrees.
    """
    n0 = None
    for N, value in sorted(samples, reverse=True):
        if quasi_value(coeffs, N) != value:
            break
        n0 = N
    return n0
