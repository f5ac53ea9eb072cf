"""Edgepath systems in the Hatcher-Oertel diagram, specialized to M(1/r, 1/(s-1/u), 1/t).

Projective curve systems [a, b, c] on the four-punctured sphere are plotted
in the uv-plane via u = b/(a+b), v = c/(a+b).  The systems built here
visit only arc vertices:

  arc <p/q>      curve system [1, q-1, p],  uv = ((q-1)/q, p/q)

An edgepath is stored as its edge list in ending-to-starting order, each
edge traversed from its right (larger-u) vertex to its left vertex; the
sign of an edge is +1/-1 as v increases/decreases along that traversal and
its length is 1 for a complete edge or the traversed fraction for a final
partial edge.  A system is one edgepath per tangle; the admissibility
conditions are

  E1  each path starts on the horizontal edge of its tangle fraction,
  E2  paths are minimal (no stopping, retracing, or two sides of one
      diagram triangle in succession),
  E3  ending points share one u-coordinate and their v-coordinates sum
      to zero,
  E4  paths proceed monotonically right to left.

The twist of a system is the sum of -2 * sign * length over its edges;
boundary slopes are twist differences against the Seifert system.
slope_report builds the Seifert system once per tuple and the
interior-ending system once, in the quadratic cases only; the slope, the
Euler ratio, the admissibility check and the report all read those builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .degopt import classify


@dataclass(frozen=True)
class DiagramVertex:
    """The arc vertex <p/q> of the diagram."""

    slope: Fraction

    def uv(self):
        q = self.slope.denominator
        return (Fraction(q - 1, q), self.slope)

    def curve_system(self):
        return (1, self.slope.denominator - 1, self.slope.numerator)

    def __str__(self):
        return f"<{self.slope}>"


def arc(slope):
    return DiagramVertex(Fraction(slope))


@dataclass(frozen=True)
class DiagramEdge:
    """One edge, traversed from its right vertex toward its left vertex.

    fraction is 1 for a complete edge and k/m in (0, 1) for a partial edge
    ending at the interpolated point.
    """

    right: DiagramVertex
    left: DiagramVertex
    fraction: Fraction = Fraction(1)

    def endpoint(self):
        """The uv-point reached at the left end of the traversal."""
        if self.fraction == 1:
            return self.left.uv()
        _, uv = interp_point(self.right, self.left, self.fraction)
        return uv


def nonhorizontal_edge(right, left, fraction=Fraction(1)):
    fraction = Fraction(fraction)
    if not 0 < fraction <= 1:
        raise ValueError(f"edge fraction {fraction} outside (0, 1]")
    if not _joined(right, left):
        raise ValueError(f"{right} and {left} are not joined by a diagram edge")
    return DiagramEdge(right, left, fraction)


def interp_point(near, far, fraction):
    """Projective interpolation of two vertices, weight `fraction` on far.

    Returns the combined curve system k*[far] + (m-k)*[near] for
    fraction = k/m, plus its uv-coordinates.
    """
    fraction = Fraction(fraction)
    if not 0 <= fraction <= 1:
        raise ValueError(f"interpolation fraction {fraction} outside [0, 1]")
    k, m = fraction.numerator, fraction.denominator
    na, nb, nc = near.curve_system()
    fa, fb, fc = far.curve_system()
    curve = (k * fa + (m - k) * na, k * fb + (m - k) * nb, k * fc + (m - k) * nc)
    a, b, c = curve
    return curve, (Fraction(b, a + b), Fraction(c, a + b))


def partial_fraction_from_u(near, far, u0):
    """The unique weight on `far` whose interpolated point has u-coordinate u0.

    With q, w the denominators of the near/far arc slopes, the projective
    sum gives k*w + (m-k)*q = m/(1-u0), so the weight is
    (1/(1-u0) - q) / (w - q).  u0 must lie in the edge's u-interval;
    hitting an endpoint returns 0 or 1.
    """
    u0 = Fraction(u0)
    u_near, _ = near.uv()
    u_far, _ = far.uv()
    lo, hi = min(u_near, u_far), max(u_near, u_far)
    if not lo <= u0 <= hi:
        raise ValueError(f"u0={u0} outside the edge interval [{lo}, {hi}]")
    q = near.slope.denominator
    w = far.slope.denominator
    f = (Fraction(1) / (1 - u0) - q) / (w - q)
    if not 0 <= f <= 1:
        raise ArithmeticError(f"edge weight {f} outside [0, 1] for u0={u0}")
    return f


def edge_measure(edge):
    """(sign, length) of an edge.

    Sign is +1/-1 as v increases/decreases right to left.  v never stays:
    joined vertices have distinct slopes, and nonhorizontal_edge makes the
    traversed fraction positive.
    """
    _, v_right = edge.right.uv()
    _, v_end = edge.endpoint()
    return (1 if v_end > v_right else -1), edge.fraction


@dataclass(frozen=True)
class Edgepath:
    """Edges in ending-to-starting order plus the tangle fraction served."""

    edges: tuple
    tangle: Fraction

    def start_vertex(self):
        return self.edges[-1].right

    def ending_point(self):
        return self.edges[0].endpoint()

    def length(self):
        return sum((e.fraction for e in self.edges), Fraction(0))


@dataclass(frozen=True)
class EdgepathSystem:
    paths: tuple

    def ending_u(self):
        return self.paths[0].ending_point()[0]

    def total_length(self):
        return sum((p.length() for p in self.paths), Fraction(0))


@dataclass(frozen=True)
class AdmissibilityReport:
    e1: bool
    e2: bool
    e3: bool
    e4: bool
    lemma41: bool

    def failed(self):
        """The names of the conditions among E1-E4 that fail, in order."""
        return [name for name, ok in (("E1", self.e1), ("E2", self.e2),
                                      ("E3", self.e3), ("E4", self.e4)) if not ok]

    def to_json(self):
        return {"E1": self.e1, "E2": self.e2, "E3": self.e3, "E4": self.e4,
                "lemma41": self.lemma41}


def twist(system):
    """Total twist: sum of -2 * sign * length over all edges."""
    total = Fraction(0)
    for path in system.paths:
        for edge in path.edges:
            sign, length = edge_measure(edge)
            total += -2 * sign * length
    return total


def seifert_system(params):
    """Edgepath system of the Seifert surface.

    One complete edge from <1/r> to <0>, the chain from <-u/(-su+1)> down
    to <0> through the vertices <k/(sk+1)>, and one complete edge from
    <1/t> to <0>; all three paths end at the origin vertex <0>.
    """
    r, s, t, u = params.astuple()
    zero = arc(Fraction(0))
    path1 = Edgepath((nonhorizontal_edge(arc(Fraction(1, r)), zero),), Fraction(1, r))
    chain = [zero] + [arc(Fraction(k, s * k + 1)) for k in range(1, -u + 1)]
    edges2 = tuple(
        nonhorizontal_edge(chain[i + 1], chain[i]) for i in range(len(chain) - 1)
    )
    path2 = Edgepath(edges2, Fraction(u, s * u - 1))
    path3 = Edgepath((nonhorizontal_edge(arc(Fraction(1, t)), zero),), Fraction(1, t))
    return EdgepathSystem((path1, path2, path3))


def ending_u(params):
    """Common ending u-coordinate of the non-Seifert system: (t-1)s/(ts+t-1)."""
    r, s, t, u = params.astuple()
    return Fraction((t - 1) * s, t * s + t - 1)


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
    """Edgepath system of the non-Seifert essential surface (quadratic cases).

    The 1/r path climbs the chain <1/r>, <1/(r+1)>, ... for k complete
    edges and then takes a partial edge so that its total length is
    (t-1)^2/(s+t-1) - r - t; the other two paths are the Seifert chains
    cut short by partial final edges.  All three ending points share the
    u-coordinate (t-1)s/(ts+t-1) and their v-coordinates cancel.
    """
    r, s, t, u = params.astuple()
    cls = classify(params)
    if cls.degree_model != "quadratic":
        raise ValueError(f"no interior-ending system for case {cls.tag} parameters")
    if cls.disc >= 0:
        raise ArithmeticError(f"quadratic case {cls.tag} with discriminant {cls.disc} >= 0")
    u0 = ending_u(params)

    lam, k, final_frac = _chain_cut(params)
    if not (0 <= k <= -r - 2 and 0 < final_frac <= 1):
        raise ArithmeticError(f"chain cut k={k} out of range for {params}")

    chain1 = [arc(Fraction(1, r + i)) for i in range(k + 2)]
    edges1 = [nonhorizontal_edge(chain1[k], chain1[k + 1], final_frac)]
    for i in range(k - 1, -1, -1):
        edges1.append(nonhorizontal_edge(chain1[i], chain1[i + 1]))
    path1 = Edgepath(tuple(edges1), Fraction(1, r))

    zero = arc(Fraction(0))
    chain2 = [zero] + [arc(Fraction(i, s * i + 1)) for i in range(1, -u + 1)]
    frac2 = partial_fraction_from_u(chain2[1], zero, u0)
    edges2 = [nonhorizontal_edge(chain2[1], zero, frac2)]
    for i in range(1, len(chain2) - 1):
        edges2.append(nonhorizontal_edge(chain2[i + 1], chain2[i]))
    path2 = Edgepath(tuple(edges2), Fraction(u, s * u - 1))

    frac3 = partial_fraction_from_u(arc(Fraction(1, t)), zero, u0)
    path3 = Edgepath(
        (nonhorizontal_edge(arc(Fraction(1, t)), zero, frac3),), Fraction(1, t)
    )

    system = EdgepathSystem((path1, path2, path3))
    for path in system.paths:
        if path.ending_point()[0] != u0:
            raise ArithmeticError(f"path ending off u0={u0} for {params}")
    if final_frac != partial_fraction_from_u(chain1[k], chain1[k + 1], u0):
        raise ArithmeticError(f"chain cut weight {final_frac} misses u0={u0} for {params}")
    if sum(p.ending_point()[1] for p in system.paths) != 0:
        raise ArithmeticError(f"ending v-coordinates do not cancel for {params}")
    return system


def check_admissible(system):
    """Evaluate E1-E4 and the essentiality direction test, without throwing."""
    e1 = all(_starts_on_tangle(p) for p in system.paths)
    e2 = all(_is_minimal(p) for p in system.paths)
    endings = [p.ending_point() for p in system.paths]
    e3 = len({uv[0] for uv in endings}) == 1 and sum(uv[1] for uv in endings) == 0
    e4 = all(_is_monotone(p) for p in system.paths)

    u_end = endings[0][0]
    signs = {edge_measure(p.edges[0])[0] for p in system.paths}
    lemma41 = e3 and u_end > 0 and len(signs) == 1
    return AdmissibilityReport(e1, e2, e3, e4, lemma41)


def _starts_on_tangle(path):
    return path.start_vertex().slope == path.tangle


def _traversal_vertices(path):
    vertices = [path.start_vertex()]
    for edge in reversed(path.edges):
        vertices.append(edge.left)
    return vertices


def _joined(v1, v2):
    """True when two vertices are joined by an edge of the diagram."""
    ps = v1.slope.numerator * v2.slope.denominator
    qr = v1.slope.denominator * v2.slope.numerator
    return abs(ps - qr) == 1


def _is_minimal(path):
    """No stopping or retracing, and no two sides of a triangle in a row."""
    vertices = _traversal_vertices(path)
    if len(set(vertices)) < len(vertices):
        return False
    for i in range(len(vertices) - 1):
        if not _joined(vertices[i], vertices[i + 1]):
            return False
    for i in range(len(vertices) - 2):
        if _joined(vertices[i], vertices[i + 2]):
            return False
    return True


def _is_monotone(path):
    """Every edge ends strictly left of its right vertex."""
    return all(e.endpoint()[0] < e.right.uv()[0] for e in path.edges)


def euler_ratio(system):
    """The ratio (Euler characteristic)/(number of sheets) of the surface.

    For a system whose paths end at u-coordinate u0 it is

        N - total length - (N - 2) / (1 - u0)

    with N = 3 tangles here.  The Seifert system ends at the origin vertex,
    u0 = 0, where this is 2 minus the total length.
    """
    n_paths = len(system.paths)
    return n_paths - system.total_length() - (n_paths - 2) / (1 - system.ending_u())


def boundary_slope(seifert, gamma):
    """Boundary slope of the distinguished essential surface.

    Quadratic cases: twist difference of the interior-ending system gamma
    against the Seifert system.  Linear cases (gamma None): the Seifert
    surface itself, slope 0.
    """
    if gamma is None:
        return Fraction(0)
    return twist(gamma) - twist(seifert)


@dataclass(frozen=True)
class SurfaceSide:
    """Boundary slope, Euler ratio and E1-E4 check of the distinguished
    surface, plus the JSON-ready report fragment of the slope CLI and the
    verification report."""

    slope: Fraction
    euler: Fraction
    admissibility: AdmissibilityReport
    report: dict


def slope_report(params):
    """The surface side of one tuple, building each edgepath system once.

    The Seifert system is always built; the interior-ending system only in
    the quadratic cases, where it is the distinguished surface (otherwise
    the Seifert surface is).  check_admissible runs on the distinguished
    system alone.
    """
    seifert = seifert_system(params)
    gamma = gamma_system(params) if classify(params).degree_model == "quadratic" else None
    surface = seifert if gamma is None else gamma
    slope = boundary_slope(seifert, gamma)
    euler = euler_ratio(surface)
    admissibility = check_admissible(surface)
    report = {
        "u0": None,
        "k": None,
        "gamma_lengths": None,
        "twists": {"seifert": str(twist(seifert)), "gamma": None},
        "slope": str(slope),
        "euler_ratio_seifert": str(euler_ratio(seifert)),
        "euler_ratio_gamma": None,
        "admissibility": admissibility.to_json(),
    }
    if gamma is not None:
        _, k, _ = _chain_cut(params)
        report["u0"] = str(ending_u(params))
        report["k"] = k
        report["gamma_lengths"] = [str(p.length()) for p in gamma.paths]
        report["twists"]["gamma"] = str(twist(gamma))
        report["euler_ratio_gamma"] = str(euler)
    return SurfaceSide(slope, euler, admissibility, report)
