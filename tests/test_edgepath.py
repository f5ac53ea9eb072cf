"""Diagram geometry, system construction, twists, slopes and Euler ratios."""

import itertools
from fractions import Fraction

import pytest
from oracles import ending_u, line_check

import knotslope.edgepath as edgepath_mod
from knotslope.cli import main
from knotslope.degopt import classify
from knotslope.edgepath import (
    Edgepath,
    _chain_cut,
    boundary_slope,
    check_admissible,
    euler_ratio,
    failed_conditions,
    gamma_system,
    interp_point,
    seifert_system,
    slope_report,
    twist,
    uv,
)
from knotslope.jones import KnotParams

F = Fraction

# r -15..-3, s 2..12, t 3..13, u -9..-1 at the parities KnotParams takes.
GRID_1260 = list(itertools.product(
    range(-15, -2, 2), range(2, 13, 2), range(3, 14, 2), range(-9, 0, 2)))


def test_uv_examples():
    assert uv(F(0)) == (0, 0)
    assert uv(F(1, 3)) == (F(2, 3), F(1, 3))
    assert uv(F(-1, 2)) == (F(1, 2), F(-1, 2))


def test_interp_point_examples():
    near, far = F(0), F(1, 3)
    assert interp_point(near, far, F(0)) == (0, 0)
    assert interp_point(near, far, F(1)) == (F(2, 3), F(1, 3))
    assert interp_point(near, far, F(1, 2)) == (F(1, 2), F(1, 4))


def test_edge_signs_and_lengths():
    path = Edgepath(F(1, 3), (F(1, 3), F(0)))
    assert (path.signs(), path.length()) == ([-1], 1)
    path = Edgepath(F(-1, 3), (F(-1, 3), F(-1, 2)))
    assert (path.signs(), path.length()) == ([-1], 1)
    path = Edgepath(F(-1, 3), (F(-1, 3), F(0)))
    assert (path.signs(), path.length()) == ([1], 1)
    partial = Edgepath(F(1, 3), (F(1, 3), F(0)), F(1, 2))
    assert (partial.signs(), partial.length()) == ([-1], F(1, 2))
    assert partial.points == [(F(2, 3), F(1, 3)), (F(1, 2), F(1, 4))]
    # A path traverses a positive fraction of its last edge, at most the
    # whole edge, so v always changes along it.
    for fraction in (F(0), F(-1, 2), F(3, 2)):
        with pytest.raises(ValueError, match="outside"):
            Edgepath(F(1, 3), (F(1, 3), F(0)), fraction)


def test_seifert_system_shapes():
    system = seifert_system(KnotParams(-3, 2, 3, -1))
    assert [len(p.vertices) - 1 for p in system] == [1, 1, 1]
    assert sum(p.length() for p in system) == 3
    assert system[1].vertices[0] == F(1, 3)

    system = seifert_system(KnotParams(-3, 2, 3, -3))
    chain = system[1]
    assert len(chain.vertices) - 1 == 3
    assert chain.vertices == (F(3, 7), F(2, 5), F(1, 3), F(0))
    assert chain.vertices[0] == chain.tangle == F(3, 7)
    assert system[0].points[-1][0] == 0


def test_seifert_chain_determinants():
    for tup in [(-3, 2, 3, -5), (-5, 4, 3, -3), (-3, 6, 5, -1)]:
        system = seifert_system(KnotParams(*tup))
        for path in system:
            for x, y in zip(path.vertices, path.vertices[1:]):
                assert abs(x.numerator * y.denominator - x.denominator * y.numerator) == 1


def test_seifert_twist_and_euler():
    for tup in [(-3, 2, 3, -3), (-5, 2, 3, -1), (-3, 4, 5, -1), (-5, 6, 7, -3)]:
        params = KnotParams(*tup)
        system = seifert_system(params)
        assert twist(system) == -2 * params.u
        assert euler_ratio(system) == params.u
        assert failed_conditions(check_admissible(system)) == []


def test_gamma_system_collapsed_partial():
    params = KnotParams(-3, 2, 3, -3)
    system = gamma_system(params)
    gamma1 = system[0]
    assert len(gamma1.vertices) - 1 == 1
    assert gamma1.fraction == 1
    assert gamma1.vertices == (F(-1, 3), F(-1, 2))
    assert gamma1.points[-1] == (F(1, 2), F(-1, 2))
    assert system[0].points[-1][0] == ending_u(params) == F(1, 2)
    endings = [p.points[-1] for p in system]
    assert [v for _, v in endings] == [F(-1, 2), F(1, 4), F(1, 4)]
    assert sum(v for _, v in endings) == 0


def test_gamma_system_longer_chain():
    params = KnotParams(-5, 2, 3, -1)
    system = gamma_system(params)
    gamma1 = system[0]
    # total length 3 = two complete edges plus a final whole "partial" edge
    assert gamma1.length() == 3
    assert gamma1.vertices[-2:] == (F(-1, 3), F(-1, 2))
    assert gamma1.fraction == 1
    assert gamma1.vertices[0] == F(1, -5)
    assert gamma1.points[-1][0] == F(1, 2)


def test_gamma_partial_fractions_match_u0():
    for tup in [(-3, 2, 3, -3), (-5, 2, 5, -3), (-3, 2, 5, -1), (-5, 6, 7, -1)]:
        params = KnotParams(*tup)
        u0 = ending_u(params)
        system = gamma_system(params)
        for path in system:
            assert path.points[-1][0] == u0


def test_gamma_twist_euler_slope():
    for tup in [(-3, 2, 3, -3), (-5, 2, 3, -1), (-3, 2, 5, -3), (-5, 6, 7, -1)]:
        params = KnotParams(*tup)
        r, s, t, u = params.astuple()
        system = gamma_system(params)
        assert twist(system) == F(2 * (t - 1) ** 2, s + t - 1) - 2 * (u + r + t)
        assert euler_ratio(system) == u + r + 3
        slope = F(2 * (t - 1) ** 2, s + t - 1) - 2 * (r + t)
        assert boundary_slope(twist(seifert_system(params)), twist(system)) == slope
        flags = check_admissible(system)
        assert failed_conditions(flags) == [] and flags["lemma41"]


def test_gamma_rejects_linear_cases():
    with pytest.raises(ValueError, match="1/r-path length"):
        gamma_system(KnotParams(-3, 4, 5, -1))
    with pytest.raises(ValueError, match="1/r-path length"):
        gamma_system(KnotParams(-3, 6, 5, -3))


def test_boundary_slope_examples():
    assert slope_report(KnotParams(-3, 2, 3, -3)).slope == 2
    assert slope_report(KnotParams(-5, 2, 3, -1)).slope == 6
    assert slope_report(KnotParams(-3, 4, 5, -1)).slope == 0
    assert slope_report(KnotParams(-3, 6, 5, -3)).slope == 0
    assert boundary_slope(twist(seifert_system(KnotParams(-3, 4, 5, -1))), None) == 0


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
    assert sum(p.length() for p in system) == 4
    assert euler_ratio(system) == -3


@pytest.mark.parametrize("lemma41", [False, True])
@pytest.mark.parametrize("pattern", list(itertools.product([False, True], repeat=4)))
def test_failed_conditions_lists_the_false_names_in_order(pattern, lemma41):
    names = ["E1", "E2", "E3", "E4"]
    flags = dict(zip(names, pattern), lemma41=lemma41)
    assert failed_conditions(flags) == [n for n, ok in zip(names, pattern) if not ok]


def test_retraced_path_fails_minimality():
    path = Edgepath(F(1, 3), (F(1, 3), F(0), F(1, 3)))
    flags = check_admissible((path, path, path))
    assert not flags["E2"]
    # the way back runs left to right
    assert not flags["E4"]
    assert failed_conditions(flags) == ["E2", "E3", "E4"]


def test_two_triangle_sides_fail_minimality():
    # <1/3> -> <1/2> -> <0>: all three pairs are diagram edges, so the
    # second step runs along two sides of one triangle.
    path = Edgepath(F(1, 3), (F(1, 3), F(1, 2), F(0)))
    assert not check_admissible((path, path, path))["E2"]


def test_unchained_edges_fail_minimality():
    # <1/3> -> <1/2> -> <1/5> -> <1/4>: no vertex repeats and no step runs
    # along two sides of a triangle, but <1/2> and <1/5> are not joined.
    path = Edgepath(F(1, 3), (F(1, 3), F(1, 2), F(1, 5), F(1, 4)))
    assert failed_conditions(check_admissible((path, path, path)))[:1] == ["E2"]


def test_edge_rejects_non_adjacent_vertices():
    # A single step between vertices that no diagram edge joins builds,
    # and fails E2 alone among the path conditions.
    path = Edgepath(F(1, 5), (F(1, 5), F(1, 3)))
    flags = check_admissible((path, path, path))
    assert (flags["E1"], flags["E2"], flags["E4"]) == (True, False, True)


def test_slope_report_shape():
    report = slope_report(KnotParams(-3, 2, 3, -3)).report
    assert report["u0"] == "1/2" and report["k"] == 0
    assert report["twists"] == {"seifert": "6", "gamma": "8"}
    assert report["slope"] == "2"
    assert report["admissibility"]["lemma41"] is True
    report = slope_report(KnotParams(-3, 4, 5, -1)).report
    assert report["u0"] is None and report["slope"] == "0"
    assert report["euler_ratio_seifert"] == "-1"


def test_chain_length_decides_the_quadratic_case(monkeypatch):
    # The surface side picks its distinguished surface from its own
    # geometry: the 1/r-path length times s + t - 1 is minus the degree
    # side's discriminant, so the length is positive exactly in the
    # quadratic case.
    built = []
    real = edgepath_mod.gamma_system

    def counted(params):
        built.append(params)
        system = real(params)
        # E3 and the chain cut: every path ends at u0, which fixes each
        # final fraction (on these partial edges the ending's u strictly
        # decreases in it), and the ending v-coordinates cancel.
        u0 = ending_u(params)
        for path in system:
            assert path.points[-1][0] == u0, params
        assert sum(path.points[-1][1] for path in system) == 0, params
        return system

    monkeypatch.setattr(edgepath_mod, "gamma_system", counted)
    for tup in GRID_1260:
        params = KnotParams(*tup)
        r, s, t, u = tup
        cls = classify(params)
        assert _chain_cut(params)[0] * (s + t - 1) == -cls.disc, tup
        built.clear()
        slope_report(params)
        assert (built == [params]) == cls.quadratic, tup
    assert len(GRID_1260) == 1260


def test_missed_chain_cut_fails_e3(monkeypatch, tmp_path, capsys):
    # A 1/r path that stops short of u0 builds, and the admissibility
    # check reports it as E3 (the ending points no longer share one u);
    # verify then counts the tuple as a mismatch.
    real = edgepath_mod._chain_cut

    def halved(params):
        lam, k, final_frac = real(params)
        return lam, k, final_frac / 2

    monkeypatch.setattr(edgepath_mod, "_chain_cut", halved)
    side = slope_report(KnotParams(-3, 2, 3, -3))
    assert "E3" in failed_conditions(side.report["admissibility"])
    rc = main(["verify", "--grid", "r=-3;s=2;t=3;u=-3", "--n-max", "4",
               "--out", str(tmp_path / "e3.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("mismatch: (-3, 2, 3, -3): ") and "E3" in err
