"""Edgepath systems in the Hatcher-Oertel diagram, specialized to M(1/r, 1/(s-1/u), 1/t).

Projective curve systems [a, b, c] on the four-punctured sphere are plotted
in the uv-plane via u = b/(a+b), v = c/(a+b).  The systems built here
visit only arc vertices, each held as its slope p/q:

  <p/q>      curve system [1, q-1, p],  uv = ((q-1)/q, p/q)

An edgepath is the slopes it visits, from the vertex of its tangle to the
far vertex of its last edge, plus the fraction of that last edge it
traverses: 1 for a complete edge, k/m in (0, 1) for a partial edge ending
at the interpolated point.  Only the last edge can be partial in the
systems built here.  Its traversal points are the uv of every vertex but
the last, then the ending point; edge i runs from point i to point i+1.
The sign of an edge is +1/-1 as v increases/decreases along it and its
length is 1, or the fraction for the last edge.  A system is the tuple
of its edgepaths, one per tangle; the admissibility conditions are

  E1  each path starts at the vertex of its tangle fraction,
  E2  paths are minimal (every step is a diagram edge, no stopping,
      retracing, or two sides of one diagram triangle in succession),
  E3  ending points share one u-coordinate and their v-coordinates sum
      to zero,
  E4  paths proceed monotonically right to left.

check_admissible states them once, as the report's flags, a dict of
booleans keyed "E1".."E4" and "lemma41"; failed_conditions lists the
false names among E1-E4.

The twist of a system is the sum of -2 * sign * length over its edges;
boundary slopes are twist differences against the Seifert system.
slope_report builds the Seifert system once per tuple and the
interior-ending system once when its 1/r path has positive length; the
slope, the Euler ratio, the admissibility check and the report all read
those builds.  No degree-side quantity enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


def uv(slope):
    """The uv-point of the arc vertex <slope>."""
    q = slope.denominator
    return (Fraction(q - 1, q), slope)


def interp_point(near, far, fraction):
    """Projective interpolation of two vertices, weight `fraction` on far:
    the uv-point of the curve system [m, b, c] = k*[far] + (m-k)*[near]
    for fraction = k/m.  Edgepath keeps the fraction in (0, 1].
    """
    k, m = fraction.numerator, fraction.denominator
    b = k * (far.denominator - 1) + (m - k) * (near.denominator - 1)
    c = k * far.numerator + (m - k) * near.numerator
    return (Fraction(b, m + b), Fraction(c, m + b))


@dataclass(frozen=True)
class Edgepath:
    """The slopes visited from the tangle's vertex on, and the fraction of
    the last edge traversed."""

    tangle: Fraction
    vertices: tuple
    fraction: Fraction = Fraction(1)

    def __post_init__(self):
        if not 0 < self.fraction <= 1:
            raise ValueError(f"edge fraction {self.fraction} outside (0, 1]")

    @cached_property
    def points(self):
        """The traversal points: every vertex's uv but the last, then the
        ending point."""
        *head, near, far = self.vertices
        ending = interp_point(near, far, self.fraction)
        return [uv(v) for v in (*head, near)] + [ending]

    def signs(self):
        """+1/-1 per edge in traversal order, as v increases/decreases."""
        pts = self.points
        return [1 if b[1] > a[1] else -1 for a, b in zip(pts, pts[1:])]

    def length(self):
        return len(self.vertices) - 2 + self.fraction

    def twist(self):
        *whole, last = self.signs()
        return -2 * (sum(whole) + last * self.fraction)


def twist(paths):
    """Total twist: sum of -2 * sign * length over all edges."""
    return sum((p.twist() for p in paths), Fraction(0))


def _seifert_chain(s, u):
    """The slopes <k/(sk+1)> for k = -u down to 1, then <0>."""
    return tuple(Fraction(k, s * k + 1) for k in range(-u, 0, -1)) + (Fraction(0),)


def seifert_system(params):
    """Edgepath system of the Seifert surface.

    One complete edge from <1/r> to <0>, the chain from <-u/(-su+1)> down
    to <0> through the vertices <k/(sk+1)>, and one complete edge from
    <1/t> to <0>; all three paths end at the origin vertex <0>.
    """
    r, s, t, u = params.astuple()
    return (
        Edgepath(Fraction(1, r), (Fraction(1, r), Fraction(0))),
        Edgepath(Fraction(u, s * u - 1), _seifert_chain(s, u)),
        Edgepath(Fraction(1, t), (Fraction(1, t), Fraction(0))),
    )


def _chain_cut(params):
    """Total 1/r-path length, its complete-edge count and final fraction.

    The length is (t-1)^2/(s+t-1) - r - t; k = ceil(length) - 1 keeps the
    final partial fraction in (0, 1], a whole edge on the boundary case.
    """
    r, s, t, u = params.astuple()
    lam = Fraction((t - 1) ** 2, s + t - 1) - r - t
    k = -((-lam).numerator // (-lam).denominator) - 1
    return lam, k, lam - k


def gamma_system(params):
    """Edgepath system of the non-Seifert essential surface.

    It exists when the 1/r path has positive length
    (t-1)^2/(s+t-1) - r - t: that path climbs the chain <1/r>,
    <1/(r+1)>, ... for k complete edges and then takes a partial edge.
    The other two paths are the Seifert chains cut short by partial final
    edges toward <0>: the fraction s/(s+t-1) of the edge from <1/(s+1)>
    and (t-1)/(s+t-1) of the edge from <1/t>, the weights that put both
    endings at the u-coordinate (t-1)s/(ts+t-1).  That all three ending
    points share it and that their v-coordinates cancel is E3, which
    check_admissible evaluates.
    """
    r, s, t, u = params.astuple()
    lam, k, final_frac = _chain_cut(params)
    if lam <= 0:
        raise ValueError(f"no interior-ending system: 1/r-path length {lam} <= 0 for {params}")
    if not 0 <= k <= -r - 2:
        raise ArithmeticError(f"chain cut k={k} out of range for {params}")

    chain1 = tuple(Fraction(1, r + i) for i in range(k + 2))
    zero = Fraction(0)
    return (
        Edgepath(Fraction(1, r), chain1, final_frac),
        Edgepath(Fraction(u, s * u - 1), _seifert_chain(s, u), Fraction(s, s + t - 1)),
        Edgepath(Fraction(1, t), (Fraction(1, t), zero), Fraction(t - 1, s + t - 1)),
    )


def check_admissible(paths):
    """Evaluate E1-E4 and the essentiality direction test, without
    throwing: the report's flags {"E1", "E2", "E3", "E4", "lemma41"}."""
    e1 = all(p.vertices[0] == p.tangle for p in paths)
    e2 = all(_is_minimal(p.vertices) for p in paths)
    endings = [p.points[-1] for p in paths]
    e3 = len({u for u, _ in endings}) == 1 and sum(v for _, v in endings) == 0
    e4 = all(b[0] < a[0] for p in paths for a, b in zip(p.points, p.points[1:]))

    signs = {p.signs()[-1] for p in paths}
    lemma41 = e3 and endings[0][0] > 0 and len(signs) == 1
    return {"E1": e1, "E2": e2, "E3": e3, "E4": e4, "lemma41": lemma41}


def failed_conditions(flags):
    """The names of the conditions among E1-E4 that fail, in order."""
    return [name for name in ("E1", "E2", "E3", "E4") if not flags[name]]


def _joined(x, y):
    """True when the vertices <x> and <y> are joined by an edge of the diagram."""
    return abs(x.numerator * y.denominator - x.denominator * y.numerator) == 1


def _is_minimal(vertices):
    """Every step a diagram edge, no vertex repeated, and no two sides of a
    triangle in a row."""
    return (len(set(vertices)) == len(vertices)
            and all(_joined(x, y) for x, y in zip(vertices, vertices[1:]))
            and not any(_joined(x, z) for x, z in zip(vertices, vertices[2:])))


def euler_ratio(paths):
    """The ratio (Euler characteristic)/(number of sheets) of the surface.

    For a system whose paths end at u-coordinate u0 it is

        N - total length - (N - 2) / (1 - u0)

    with N = 3 tangles here.  The Seifert system ends at the origin vertex,
    u0 = 0, where this is 2 minus the total length.
    """
    total_length = sum((p.length() for p in paths), Fraction(0))
    return len(paths) - total_length - (len(paths) - 2) / (1 - paths[0].points[-1][0])


def boundary_slope(seifert_twist, gamma_twist):
    """Boundary slope of the distinguished essential surface.

    With an interior-ending system, the twist difference of it against
    the Seifert system.  Without one (gamma_twist None), the Seifert
    surface itself, slope 0.
    """
    if gamma_twist is None:
        return Fraction(0)
    return gamma_twist - seifert_twist


@dataclass(frozen=True)
class SurfaceSide:
    """Boundary slope and Euler ratio of the distinguished surface, plus
    the JSON-ready report fragment of the slope CLI and the verification
    report, whose "admissibility" entry holds the E1-E4 flags."""

    slope: Fraction
    euler: Fraction
    report: dict


def slope_report(params):
    """The surface side of one tuple, building each edgepath system once.

    The Seifert system is always built.  The interior-ending system is
    built when its 1/r path has positive length, and is then the
    distinguished surface (otherwise the Seifert surface is).
    check_admissible runs on the distinguished system alone, and each
    twist and Euler ratio is computed once.
    """
    seifert = seifert_system(params)
    lam, k, _ = _chain_cut(params)
    gamma = gamma_system(params) if lam > 0 else None
    seifert_twist = twist(seifert)
    gamma_twist = None if gamma is None else twist(gamma)
    seifert_euler = euler_ratio(seifert)
    surface = seifert if gamma is None else gamma
    euler = seifert_euler if gamma is None else euler_ratio(gamma)
    slope = boundary_slope(seifert_twist, gamma_twist)
    report = {
        "u0": None,
        "k": None,
        "gamma_lengths": None,
        "twists": {"seifert": str(seifert_twist), "gamma": None},
        "slope": str(slope),
        "euler_ratio_seifert": str(seifert_euler),
        "euler_ratio_gamma": None,
        "admissibility": check_admissible(surface),
    }
    if gamma is not None:
        report["u0"] = str(gamma[0].points[-1][0])
        report["k"] = k
        report["gamma_lengths"] = [str(p.length()) for p in gamma]
        report["twists"]["gamma"] = str(gamma_twist)
        report["euler_ratio_gamma"] = str(euler)
    return SurfaceSide(slope, euler, report)
