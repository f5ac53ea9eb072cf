"""Diagram geometry, system construction, twists, slopes and Euler ratios."""

from fractions import Fraction

import pytest
from oracles import line_check

from knotslope.edgepath import (
    DiagramEdge,
    Edgepath,
    EdgepathSystem,
    arc,
    boundary_slope,
    check_admissible,
    edge_measure,
    ending_u,
    euler_ratio,
    gamma_system,
    interp_point,
    nonhorizontal_edge,
    partial_fraction_from_u,
    seifert_system,
    slope_report,
    twist,
)
from knotslope.jones import KnotParams

F = Fraction


def test_arc_uv_examples():
    assert arc(F(0)).uv() == (0, 0)
    assert arc(F(1, 3)).uv() == (F(2, 3), F(1, 3))
    assert arc(F(-1, 2)).uv() == (F(1, 2), F(-1, 2))


def test_interp_point_examples():
    near, far = arc(F(0)), arc(F(1, 3))
    curve, uv = interp_point(near, far, F(0))
    assert curve == (1, 0, 0) and uv == (0, 0)
    curve, uv = interp_point(near, far, F(1))
    assert curve == (1, 2, 1) and uv == (F(2, 3), F(1, 3))
    curve, uv = interp_point(near, far, F(1, 2))
    assert curve == (2, 2, 1) and uv == (F(1, 2), F(1, 4))
    for fraction in (F(-1, 2), F(3, 2)):
        with pytest.raises(ValueError):
            interp_point(near, far, fraction)


def test_partial_fraction_from_u():
    # The two partial arms of the interior-ending system at (s,t) = (2,5).
    s, t = 2, 5
    u0 = F((t - 1) * s, t * s + t - 1)
    zero = arc(F(0))
    assert partial_fraction_from_u(arc(F(1, s + 1)), zero, u0) == F(s, s + t - 1)
    assert partial_fraction_from_u(arc(F(1, t)), zero, u0) == F(t - 1, s + t - 1)
    # Degenerate endpoints give 0 and 1.
    assert partial_fraction_from_u(arc(F(1, 3)), zero, F(0)) == 1
    assert partial_fraction_from_u(arc(F(1, 3)), zero, F(2, 3)) == 0
    with pytest.raises(ValueError):
        partial_fraction_from_u(arc(F(1, 3)), zero, F(3, 4))


def test_edge_measure_examples():
    sign, length = edge_measure(nonhorizontal_edge(arc(F(1, 3)), arc(F(0))))
    assert (sign, length) == (-1, 1)
    sign, length = edge_measure(nonhorizontal_edge(arc(F(-1, 3)), arc(F(-1, 2))))
    assert (sign, length) == (-1, 1)
    sign, length = edge_measure(nonhorizontal_edge(arc(F(-1, 3)), arc(F(0))))
    assert (sign, length) == (1, 1)
    partial = nonhorizontal_edge(arc(F(1, 3)), arc(F(0)), F(1, 2))
    assert edge_measure(partial) == (-1, F(1, 2))
    # An edge traverses a positive fraction, at most the whole edge, so v
    # always changes along it.
    for fraction in (F(0), F(-1, 2), F(3, 2)):
        with pytest.raises(ValueError, match="outside"):
            nonhorizontal_edge(arc(F(1, 3)), arc(F(0)), fraction)


def test_edge_rejects_non_adjacent_vertices():
    with pytest.raises(ValueError):
        nonhorizontal_edge(arc(F(1, 3)), arc(F(1, 5)))


def test_seifert_system_shapes():
    system = seifert_system(KnotParams(-3, 2, 3, -1))
    assert [len(p.edges) for p in system.paths] == [1, 1, 1]
    assert system.total_length() == 3
    assert system.paths[1].start_vertex() == arc(F(1, 3))

    system = seifert_system(KnotParams(-3, 2, 3, -3))
    chain = system.paths[1]
    assert len(chain.edges) == 3
    vertices = [str(e.right) for e in chain.edges]
    assert vertices == ["<1/3>", "<2/5>", "<3/7>"]
    assert chain.start_vertex() == arc(F(3, 7))
    assert system.ending_u() == 0


def test_seifert_chain_determinants():
    for tup in [(-3, 2, 3, -5), (-5, 4, 3, -3), (-3, 6, 5, -1)]:
        system = seifert_system(KnotParams(*tup))
        for path in system.paths:
            for edge in path.edges:
                p1, q1 = edge.right.slope.numerator, edge.right.slope.denominator
                p2, q2 = edge.left.slope.numerator, edge.left.slope.denominator
                assert abs(p1 * q2 - q1 * p2) == 1


def test_seifert_twist_and_euler():
    for tup in [(-3, 2, 3, -3), (-5, 2, 3, -1), (-3, 4, 5, -1), (-5, 6, 7, -3)]:
        params = KnotParams(*tup)
        system = seifert_system(params)
        assert twist(system) == -2 * params.u
        assert euler_ratio(system) == params.u
        report = check_admissible(system)
        assert report.failed() == []


def test_gamma_system_collapsed_partial():
    params = KnotParams(-3, 2, 3, -3)
    system = gamma_system(params)
    gamma1 = system.paths[0]
    assert len(gamma1.edges) == 1
    assert gamma1.edges[0].fraction == 1
    assert gamma1.edges[0].right == arc(F(-1, 3))
    assert gamma1.edges[0].left == arc(F(-1, 2))
    assert gamma1.ending_point() == (F(1, 2), F(-1, 2))
    assert system.ending_u() == ending_u(params) == F(1, 2)
    endings = [p.ending_point() for p in system.paths]
    assert [uv[1] for uv in endings] == [F(-1, 2), F(1, 4), F(1, 4)]
    assert sum(uv[1] for uv in endings) == 0


def test_gamma_system_longer_chain():
    params = KnotParams(-5, 2, 3, -1)
    system = gamma_system(params)
    gamma1 = system.paths[0]
    # total length 3 = two complete edges plus a final whole "partial" edge
    assert gamma1.length() == 3
    assert gamma1.edges[0].right == arc(F(-1, 3))
    assert gamma1.edges[0].left == arc(F(-1, 2))
    assert gamma1.edges[0].fraction == 1
    assert gamma1.start_vertex() == arc(F(1, -5))
    assert system.ending_u() == F(1, 2)


def test_gamma_partial_fractions_match_u0():
    for tup in [(-3, 2, 3, -3), (-5, 2, 5, -3), (-3, 2, 5, -1), (-5, 6, 7, -1)]:
        params = KnotParams(*tup)
        u0 = ending_u(params)
        system = gamma_system(params)
        for path in system.paths:
            final = path.edges[0]
            if final.fraction != 1:
                assert final.fraction == partial_fraction_from_u(
                    final.right, final.left, u0
                )
            assert path.ending_point()[0] == u0


def test_gamma_twist_euler_slope():
    for tup in [(-3, 2, 3, -3), (-5, 2, 3, -1), (-3, 2, 5, -3), (-5, 6, 7, -1)]:
        params = KnotParams(*tup)
        r, s, t, u = params.astuple()
        system = gamma_system(params)
        assert twist(system) == F(2 * (t - 1) ** 2, s + t - 1) - 2 * (u + r + t)
        assert euler_ratio(system) == u + r + 3
        slope = F(2 * (t - 1) ** 2, s + t - 1) - 2 * (r + t)
        assert boundary_slope(seifert_system(params), system) == slope
        report = check_admissible(system)
        assert report.failed() == [] and report.lemma41


def test_gamma_rejects_linear_cases():
    with pytest.raises(ValueError):
        gamma_system(KnotParams(-3, 4, 5, -1))
    with pytest.raises(ValueError):
        gamma_system(KnotParams(-3, 6, 5, -3))


def test_boundary_slope_examples():
    assert slope_report(KnotParams(-3, 2, 3, -3)).slope == 2
    assert slope_report(KnotParams(-5, 2, 3, -1)).slope == 6
    assert slope_report(KnotParams(-3, 4, 5, -1)).slope == 0
    assert slope_report(KnotParams(-3, 6, 5, -3)).slope == 0
    assert boundary_slope(seifert_system(KnotParams(-3, 4, 5, -1)), None) == 0


def test_ending_u_and_line_check():
    assert ending_u(KnotParams(-3, 2, 3, -1)) == F(1, 2)
    assert ending_u(KnotParams(-3, 4, 5, -1)) == F(2, 3)
    for tup in [(-3, 2, 3, -3), (-5, 2, 3, -1), (-5, 6, 7, -1), (-3, 2, 5, -5)]:
        params = KnotParams(*tup)
        assert line_check(params)
        r, s, t, u = params.astuple()
        u0 = ending_u(params)
        assert u0 < min(F(t - 1, t), F(s, s + 1), F(-r - 1, -r))


def test_euler_ratio_fixture():
    params = KnotParams(-3, 2, 3, -3)
    system = gamma_system(params)
    assert system.total_length() == 4
    assert euler_ratio(system) == -3


def test_retraced_path_fails_minimality():
    there = nonhorizontal_edge(arc(F(1, 3)), arc(F(0)))
    back = DiagramEdge(arc(F(0)), arc(F(1, 3)))
    path = Edgepath((back, there), F(1, 3))
    system = EdgepathSystem((path, path, path))
    report = check_admissible(system)
    assert not report.e2
    # the way back runs left to right
    assert not report.e4
    assert report.failed() == ["E2", "E3", "E4"]


def test_two_triangle_sides_fail_minimality():
    # <0> -> <1/2> -> <1/3>: all three pairs are diagram edges, so the
    # second step runs along two sides of one triangle.
    e1 = nonhorizontal_edge(arc(F(1, 2)), arc(F(0)))
    e2 = nonhorizontal_edge(arc(F(1, 3)), arc(F(1, 2)))
    path = Edgepath((e1, e2), F(1, 3))
    system = EdgepathSystem((path, path, path))
    assert not check_admissible(system).e2


def test_unchained_edges_fail_minimality():
    # <1/3> -> <1/2>, then <1/5> -> <1/4>: each edge is a diagram edge and
    # no vertex repeats, but <1/2> and <1/4> are not joined.
    first = nonhorizontal_edge(arc(F(1, 3)), arc(F(1, 2)))
    second = nonhorizontal_edge(arc(F(1, 5)), arc(F(1, 4)))
    path = Edgepath((second, first), F(1, 3))
    assert check_admissible(EdgepathSystem((path, path, path))).failed()[:1] == ["E2"]


def test_slope_report_shape():
    report = slope_report(KnotParams(-3, 2, 3, -3)).report
    assert report["u0"] == "1/2" and report["k"] == 0
    assert report["twists"] == {"seifert": "6", "gamma": "8"}
    assert report["slope"] == "2"
    assert report["admissibility"]["lemma41"] is True
    report = slope_report(KnotParams(-3, 4, 5, -1)).report
    assert report["u0"] is None and report["slope"] == "0"
    assert report["euler_ratio_seifert"] == "-1"
