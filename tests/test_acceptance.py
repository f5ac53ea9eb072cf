"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All comparisons are exact (integers and rationals); the stated
runtime budgets are asserted as ceilings.
"""

import time
from fractions import Fraction
from itertools import permutations

import pytest
from oracles import ending_u

from knotslope.cli import main
from knotslope.degopt import (
    brute_max_objective,
    classify,
    closed_form_dplus,
    degree_model,
    fast_max_objective,
    stabilization_threshold,
)
from knotslope.edgepath import (
    check_admissible,
    failed_conditions,
    gamma_system,
    seifert_system,
    twist,
)
from knotslope.jones import KnotParams, colored_jones
from knotslope.ktg import delta6j, dplus_delta6j, dplus_theta, theta
from knotslope.pipeline import predict
from knotslope.qlaurent import ONE

# The 16-tuple core grid spans the quadratic case and the degenerate
# linear case; the extras cover every subdivision of the classification.
CORE_GRID = [
    (r, s, t, u)
    for r in (-3, -5)
    for s in (2, 4)
    for t in (3, 5)
    for u in (-1, -3)
]
EXTRA_TUPLES = [
    (-5, 6, 7, -1),   # quadratic form indefinite, negative discriminant
    (-5, 6, 7, -3),
    (-3, 6, 5, -1),   # positive discriminant
    (-3, 6, 5, -3),
    (-5, 6, 13, -1),  # zero discriminant, non-degenerate linear part
    (-3, 4, 5, -5),   # fully degenerate quadratic
]
GRID = CORE_GRID + EXTRA_TUPLES

CASE1_TUPLE = (-3, 2, 3, -3)
CASE2_TUPLES = [(-3, 4, 5, -1), (-3, 6, 5, -3)]


def _report(name, ok):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def exact_degrees():
    """Exact (degree, leading) tables for the criterion 1-2 tuples, N <= 6."""
    tables = {}
    for tup in [CASE1_TUPLE] + CASE2_TUPLES:
        params = KnotParams(*tup)
        polys = {N: colored_jones(params, N) for N in range(1, 7)}
        tables[tup] = {N: (poly.max_deg, poly.leading_coeff) for N, poly in polys.items()}
    return tables


def test_criterion_1_degree_closed_form_case1(exact_degrees):
    started = time.monotonic()
    params = KnotParams(*CASE1_TUPLE)
    table = exact_degrees[CASE1_TUPLE]
    model = degree_model(params)
    n0 = stabilization_threshold(model.coeffs, [(N, d) for N, (d, _) in table.items()])
    ok = n0 is not None and n0 <= 4
    for N in range(n0, 7):
        expected = 2 * N * N - 6 * N + (2 if N % 2 == 0 else 4)
        ok = ok and table[N][0] == expected == closed_form_dplus(model, N)
    elapsed = time.monotonic() - started
    ok = ok and elapsed <= 300
    print(f"\n  recorded N0 = {n0}, elapsed {elapsed:.1f}s")
    _report("criterion 1 (quadratic closed form, (-3,2,3,-3), N0..6)", ok)


def test_criterion_2_degree_closed_form_case2(exact_degrees):
    ok = True
    for tup in CASE2_TUPLES:
        started = time.monotonic()
        u = tup[3]
        table = exact_degrees[tup]
        for N in range(2, 7):
            ok = ok and table[N][0] == 2 * u * (N - 1)
        ok = ok and time.monotonic() - started <= 300
    _report("criterion 2 (linear closed form, both tuples, N = 2..6)", ok)


def test_criterion_3_triple_oracle_agreement():
    started = time.monotonic()
    ok = len(GRID) >= 16
    tags = {classify(KnotParams(*tup)).tag for tup in GRID}
    ok = ok and tags == {"1", "2.1", "2.2", "2.3", "2.4"}
    for tup in GRID:
        params = KnotParams(*tup)
        brute_by_n = {}
        for n in range(1, 9):
            brute = brute_max_objective(params, n)
            fast = fast_max_objective(params, n)
            ok = ok and brute == fast
            brute_by_n[n] = brute
        model = degree_model(params)
        n0 = stabilization_threshold(
            model.coeffs, [(n + 1, v) for n, v in brute_by_n.items()]
        )
        ok = ok and n0 is not None
        for n in range(n0 - 1 if n0 > 1 else 1, 9):
            ok = ok and brute_by_n[n] == closed_form_dplus(model, n + 1)
    elapsed = time.monotonic() - started
    ok = ok and elapsed <= 120
    print(f"\n  {len(GRID)} tuples, tags {sorted(tags)}, elapsed {elapsed:.1f}s")
    _report("criterion 3 (brute = fast = closed form above threshold, n <= 8)", ok)


def test_criterion_4_no_cancellation(exact_degrees):
    ok = True
    for tup, table in exact_degrees.items():
        params = KnotParams(*tup)
        for N, (degree, leading) in table.items():
            brute = brute_max_objective(params, N - 1)
            ok = ok and degree == brute
            ok = ok and isinstance(leading, int) and leading > 0
    _report("criterion 4 (state-sum degree = objective max; positive leading)", ok)


def test_criterion_5_building_block_degree_laws():
    started = time.monotonic()
    ok = True
    for a in range(21):
        for b in range(a, 21):
            for c in range(b, min(a + b, 20) + 1):
                if (a + b + c) % 2:
                    continue
                value = theta(a, b, c).max_deg
                for perm in permutations((a, b, c)):
                    ok = ok and theta(*perm).max_deg == dplus_theta(*perm) == value
    count = 0
    for n in range(13):
        top = min(2 * n, 12)
        for a in range(0, top + 1, 2):
            for b in range(0, top + 1, 2):
                for c in range(abs(a - b), min(a + b, top) + 1, 2):
                    value = delta6j(a, b, c, n, n, n)
                    if value.is_zero():
                        continue
                    ok = ok and value.max_deg == dplus_delta6j(a, b, c, n, n, n)
                    count += 1
        for b in range(0, top + 1, 2):
            for d in range(0, top + 1, 2):
                value = delta6j(b, n, n, d, n, n)
                if value.is_zero():
                    continue
                ok = ok and value.max_deg == dplus_delta6j(b, n, n, d, n, n)
                count += 1
    elapsed = time.monotonic() - started
    ok = ok and elapsed <= 60
    print(f"\n  {count} nonzero 6j tuples checked, elapsed {elapsed:.1f}s")
    _report("criterion 5 (theta <= 20 and 6j <= 12 degree laws)", ok)


def test_criterion_6_slope_identity():
    ok = True
    for tup in GRID:
        params = KnotParams(*tup)
        pred = predict(params)
        ok = ok and pred.slope_match
        r, s, t, u = tup
        if classify(params).quadratic:
            expected = Fraction(2 * (t - 1) ** 2, s + t - 1) - 2 * (r + t)
        else:
            expected = Fraction(0)
        ok = ok and pred.surface.slope == expected == pred.model.growth
    _report("criterion 6 (quadratic coefficient = boundary slope on the grid)", ok)


def test_criterion_7_euler_identity():
    ok = True
    for tup in GRID:
        params = KnotParams(*tup)
        pred = predict(params)
        ok = ok and pred.euler_match
        r, s, t, u = tup
        expected = r + u + 3 if classify(params).quadratic else u
        ok = ok and pred.surface.euler == expected == Fraction(pred.model.two_b, 2)
    _report("criterion 7 (half linear coefficient = Euler ratio on the grid)", ok)


def test_criterion_8_edgepath_consistency():
    ok = True
    for tup in GRID:
        params = KnotParams(*tup)
        if not classify(params).quadratic:
            continue
        r, s, t, u = tup
        system = gamma_system(params)
        flags = check_admissible(system)
        ok = ok and failed_conditions(flags) == [] and flags["lemma41"]
        endings = [p.points[-1] for p in system]
        ok = ok and sum(v for _, v in endings) == 0
        u0 = ending_u(params)
        ok = ok and all(pu == u0 for pu, _ in endings)
        ok = ok and twist(seifert_system(params)) == -2 * u
        ok = ok and twist(system) == Fraction(2 * (t - 1) ** 2, s + t - 1) - 2 * (
            u + r + t
        )
    _report("criterion 8 (edgepath admissibility, endings, twists)", ok)


def test_criterion_9_trivial_normalization():
    ok = all(colored_jones(KnotParams(*tup), 1) == ONE for tup in GRID)
    _report("criterion 9 (1-colored invariant is 1 on the grid)", ok)


def test_criterion_10_determinism(tmp_path, capsys):
    args = ["verify", "--grid", "r=-3;s=2;t=3;u=-3..-1", "--n-max", "4"]
    paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    rc1 = main(args + ["--out", str(paths[0]), "--csv", str(tmp_path / "a.csv")])
    rc2 = main(args + ["--out", str(paths[1])])
    rc3 = main(args + ["--out", str(paths[2]), "--jobs", "8"])
    capsys.readouterr()
    blobs = [p.read_bytes() for p in paths]
    ok = rc1 == rc2 == rc3 == 0
    ok = ok and blobs[0] == blobs[1] == blobs[2]
    _report("criterion 10 (byte-identical verify output, jobs 1 vs 8)", ok)
