"""Degree objective, its three maximizers, closed forms and quasi fitting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_edgepath import GRID_1260

from knotslope.degopt import (
    NoQuadraticFit,
    brute_max_objective,
    classify,
    closed_form_dplus,
    degree_model,
    degree_objective,
    face_objective,
    fast_max_objective,
    fit_quasi,
    line_peak,
    quasi_value,
    residue_data,
    stabilization_threshold,
)
from knotslope.jones import KnotParams, domain_points

CASE_EXAMPLES = {
    (-3, 2, 3, -3): "1",
    (-5, 4, 3, -1): "1",
    (-3, 4, 3, -1): "1",
    (-5, 6, 7, -1): "2.1",
    (-3, 6, 5, -3): "2.2",
    (-5, 6, 13, -1): "2.3",
    (-3, 4, 5, -1): "2.4",
    (-3, 4, 5, -5): "2.4",
}


def test_classify_examples():
    cls = classify(KnotParams(-3, 2, 3, -3))
    assert (cls.bb, cls.bc, cls.cc, cls.disc) == (0, 2, 0, -4)
    assert cls.tag == "1" and cls.quadratic
    cls = classify(KnotParams(-3, 4, 5, -1))
    assert (cls.bb, cls.bc, cls.cc, cls.disc) == (-1, 2, -1, 0)
    assert cls.tag == "2.4" and not cls.quadratic
    assert classify(KnotParams(-5, 4, 3, -1)).tag == "1"
    for tup, tag in CASE_EXAMPLES.items():
        assert classify(KnotParams(*tup)).tag == tag, tup


def test_objective_trivial_point():
    params = KnotParams(-3, 2, 3, -3)
    assert degree_objective(params, 0, (0, 0, 0, 0)) == 0


def test_objective_face_identity():
    # On the face a = b+c, d = 2n the objective is the explicit quadratic.
    for tup in CASE_EXAMPLES:
        params = KnotParams(*tup)
        for n in range(0, 9):
            for b in range(0, 2 * n + 1, 2):
                for c in range(0, 2 * n - b + 1, 2):
                    colors = (b + c, b, c, 2 * n)
                    assert degree_objective(params, n, colors) == face_objective(
                        params, n, b, c
                    ), (tup, n, b, c)


def test_objective_face_specific_point():
    params = KnotParams(-3, 2, 3, -3)
    assert degree_objective(params, 1, (2, 2, 0, 2)) == face_objective(
        params, 1, 2, 0
    )


def test_face_form_case24():
    # For the degenerate-parameter case the face reduces to -(b-c)^2 + 2un.
    params = KnotParams(-3, 4, 5, -1)
    for n in range(1, 7):
        for b in range(0, 2 * n + 1, 2):
            for c in range(0, 2 * n - b + 1, 2):
                assert face_objective(params, n, b, c) == -((b - c) ** 2) + 2 * params.u * n


def argmax(params, n):
    """Every maximizer of the objective over the domain, in enumeration order."""
    values = [(degree_objective(params, n, colors), colors) for colors in domain_points(n)]
    best = max(value for value, _ in values)
    return [colors for value, colors in values if value == best]


def line_value(params, n, b):
    """The face objective on the boundary line b + c = 2n."""
    return face_objective(params, n, b, 2 * n - b)


def test_brute_examples():
    params = KnotParams(-3, 2, 3, -3)
    assert brute_max_objective(params, 0) == 0
    assert argmax(params, 0) == [(0, 0, 0, 0)]
    assert brute_max_objective(params, 4) == closed_form_dplus(degree_model(params), 5) == 24
    # The paper's claim: the maximizers lie on the face a = b + c, d = 2n.
    assert all(d == 8 and a == b + c for a, b, c, d in argmax(params, 4))

    params = KnotParams(-3, 4, 5, -1)
    assert brute_max_objective(params, 3) == -6
    points = set(argmax(params, 3))
    assert (0, 0, 0, 6) in points
    assert all(b == c and a == b + c and d == 6 for a, b, c, d in points)


def test_monotone_in_d_and_a():
    # Discrete monotonicity behind the face restriction: the objective
    # grows along +2 steps in d, and in a when admissibility allows.
    for tup in [(-3, 2, 3, -3), (-5, 6, 7, -1), (-3, 4, 5, -1)]:
        params = KnotParams(*tup)
        for n in (1, 2, 3):
            for a, b, c, d in domain_points(n):
                base = degree_objective(params, n, (a, b, c, d))
                if d + 2 <= 2 * n:
                    assert degree_objective(params, n, (a, b, c, d + 2)) > base
                if a + 2 <= min(b + c, 2 * n):
                    assert degree_objective(params, n, (a + 2, b, c, d)) > base


def test_fast_equals_brute_on_grid():
    for tup in CASE_EXAMPLES:
        params = KnotParams(*tup)
        for n in range(0, 14):
            assert fast_max_objective(params, n) == brute_max_objective(params, n), (
                tup,
                n,
            )


def test_fast_case_values():
    assert fast_max_objective(KnotParams(-3, 2, 3, -3), 4) == 24
    assert fast_max_objective(KnotParams(-3, 6, 5, -3), 5) == 2 * (-3) * 5
    assert fast_max_objective(KnotParams(-3, 4, 5, -5), 6) == 2 * (-5) * 6
    with pytest.raises(ValueError):
        fast_max_objective(KnotParams(-3, 2, 3, -3), -1)


def test_line_tie_gives_equal_values():
    # Peak at an odd integer: both neighboring even points tie.
    params = KnotParams(-3, 2, 3, -3)
    n = 3
    assert line_peak(params, n) == 3
    assert line_value(params, n, 2) == line_value(params, n, 4) == 10
    assert brute_max_objective(params, n) == 10
    assert [(b, c) for _, b, c, _ in argmax(params, n)] == [(2, 4), (4, 2)]

    params = KnotParams(-5, 6, 7, -1)
    assert line_peak(params, 1) == 1
    assert line_value(params, 1, 0) == line_value(params, 1, 2)


def test_closed_form_examples():
    model = degree_model(KnotParams(-3, 2, 3, -3))
    for N in range(2, 10):
        expected = 2 * N * N - 6 * N + (2 if N % 2 == 0 else 4)
        assert closed_form_dplus(model, N) == expected
    linear = degree_model(KnotParams(-3, 4, 5, -1))
    for N in range(1, 10):
        assert closed_form_dplus(linear, N) == -2 * (N - 1)
    # raw value below the stabilization threshold
    assert closed_form_dplus(model, 2) == -2
    with pytest.raises(ValueError):
        closed_form_dplus(model, 0)


def test_residue_data_tie_and_values():
    model = degree_model(KnotParams(-3, 2, 3, -3))
    r0, r1 = model.residues
    # 2(t-1)j/(s+t-1) = 0 is an even integer: both odd neighbors agree.
    assert r0.nearest_odd == -1 and r0.constant == 2
    assert r1.nearest_odd == 1 and r1.offset == -1 and r1.constant == 4
    assert [r.j for r in model.residues] == [0, 1]
    assert model.constants == (2, 4)
    linear = degree_model(KnotParams(-3, 4, 5, -1))
    assert linear.constants == (2,) and linear.residues == ()
    for j in (-1, 2):
        with pytest.raises(ValueError):
            residue_data(KnotParams(-3, 2, 3, -3), j)


def test_residue_nearest_odd_on_grid():
    # v_j is the odd integer nearest x = 2(t-1)j/(s+t-1), the smaller one
    # on a tie, and the larger neighbour of a tie gives the same constant.
    classes = ties = 0
    for tup in GRID_1260:
        params = KnotParams(*tup)
        r, s, t, u = tup
        if not classify(params).quadratic:
            continue
        p2 = s + t - 1
        for res in degree_model(params).residues:
            x = Fraction(2 * (t - 1) * res.j, p2)
            v = res.nearest_odd
            assert v % 2 == 1 and abs(v - x) <= 1 and res.offset == v - 1 - x, (tup, res)
            classes += 1
            if abs(v - x) == 1:
                ties += 1
                assert v < x, (tup, res)
                offset = v + 1 - x
                constant = -Fraction(p2, 2) * offset * offset - p2 * offset - 2 * (u + 2)
                assert constant == res.constant, (tup, res)
    assert (classes, ties) == (7220, 1710)


def test_coefficients():
    model = degree_model(KnotParams(-3, 2, 3, -3))
    assert model.growth == 2
    assert model.two_b == -6
    assert model.period == 2
    model = degree_model(KnotParams(-3, 4, 5, -1))
    assert model.growth == 0
    assert model.two_b == -2
    assert model.period == 1
    assert degree_model(KnotParams(-5, 2, 3, -1)).growth == 6


def test_fit_quasi_on_generator():
    model = degree_model(KnotParams(-3, 2, 3, -3))
    samples = [(N, closed_form_dplus(model, N)) for N in range(2, 10)]
    fitted = fit_quasi(samples, 2)
    assert stabilization_threshold(fitted, samples) == 2
    for j, constant in ((0, 2), (1, 4)):
        a, two_b, c = fitted[j]
        assert (a, two_b, c) == (2, -6, constant)
    assert quasi_value(fitted, 12) == closed_form_dplus(model, 12)


@pytest.mark.parametrize("tup", [(-5, 4, 9, -1), (-3, 4, 5, -1)])
def test_fit_of_the_closed_form_is_the_model_coeffs(tup):
    # A fit and DegreeModel.coeffs share one layout, so a verification run
    # compares them with ==: fitted over a tuple's own closed-form degrees,
    # three per residue class, the fit is the model's tuple.  One quadratic
    # tuple of period 6 and one linear tuple.
    model = degree_model(KnotParams(*tup))
    samples = [(N, closed_form_dplus(model, N)) for N in range(1, 3 * model.period + 1)]
    fitted = fit_quasi(samples, model.period)
    assert type(fitted) is tuple and fitted == model.coeffs
    assert stabilization_threshold(fitted, samples) == 1


def test_fit_quasi_linear_and_constant():
    samples = [(N, -2 * (N - 1)) for N in range(1, 8)]
    fitted = fit_quasi(samples, 1)
    assert fitted == ((0, -2, 2),)
    assert stabilization_threshold(fitted, samples) == 1
    assert fit_quasi([(N, 7) for N in range(1, 6)], 1) == ((0, 0, 7),)


def test_fit_quasi_prefix_deviation_moves_n0():
    samples = [(1, 99)] + [(N, N * N) for N in range(2, 8)]
    fitted = fit_quasi(samples, 1)
    assert fitted == ((1, 0, 0),)
    assert stabilization_threshold(fitted, samples) == 2


@st.composite
def class_samples(draw):
    """A period 1..6 and integer samples at distinct N in 1..40, at least
    three in each residue class."""
    p = draw(st.integers(1, 6))
    samples = []
    for j in range(p):
        Ns = draw(st.sets(st.sampled_from([N for N in range(1, 41) if N % p == j]),
                          min_size=3))
        samples += [(N, draw(st.integers(-10**6, 10**6))) for N in Ns]
    return p, samples


@settings(max_examples=150, deadline=None)
@given(class_samples())
def test_fit_quasi_reproduces_its_last_sample(case):
    # Each class model passes through its last three samples, so the last
    # sample always agrees and the threshold always exists.
    p, samples = case
    fitted = fit_quasi(samples, p)
    last_N, last_value = max(samples)
    assert len(fitted) == p
    n0 = stabilization_threshold(fitted, samples)
    assert type(n0) is int and n0 <= last_N
    assert quasi_value(fitted, last_N) == last_value


def test_fit_quasi_needs_three_per_class():
    with pytest.raises(NoQuadraticFit):
        fit_quasi([(1, 0), (2, 1), (3, 2), (4, 3)], 2)
    with pytest.raises(ValueError):
        fit_quasi([(N, 7) for N in range(1, 6)], 0)


def test_stabilization_threshold():
    params = KnotParams(-5, 6, 7, -1)
    degrees = [(n + 1, brute_max_objective(params, n)) for n in range(1, 8)]
    assert stabilization_threshold(degree_model(params).coeffs, degrees) == 3
    params = KnotParams(-3, 2, 3, -3)
    degrees = [(n + 1, brute_max_objective(params, n)) for n in range(0, 7)]
    assert stabilization_threshold(degree_model(params).coeffs, degrees) == 1
