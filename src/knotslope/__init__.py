"""Exact invariants and slope identities for the knots M(1/r, 1/(s-1/u), 1/t).

Colored Jones polynomials by an exact trivalent-graph state sum, their
maximal degrees by exhaustive, case-analysis and closed-form maximization
of the associated quadratic integer program, boundary slopes and Euler
ratios by Hatcher-Oertel edgepath systems, and machine verification that
the degree coefficients match the surface invariants on parameter grids.
"""

from .degopt import (
    BelowThreshold,
    Classification,
    NoQuadraticFit,
    QuasiPolynomial,
    ResidueData,
    brute_max_objective,
    classify,
    closed_form_dplus,
    degree_objective,
    fast_max_objective,
    fit_quasi,
)
from .edgepath import (
    boundary_slope,
    check_admissible,
    euler_ratio,
    gamma_system,
    seifert_system,
    twist,
)
from .jones import ColorTuple, KnotParams, colored_jones, domain_points, exact_dplus, summand
from .ktg import (
    FractionalExponent,
    InadmissibleColoring,
    NonRealPhase,
    SignedMonomial,
    circle,
    delta6j,
    dplus_delta6j,
    dplus_theta,
    framing_power,
    theta,
)
from .pipeline import Prediction, Report, grid_run, predict, run_verification
from .qlaurent import (
    LaurentPoly,
    NonExactDivision,
    ZeroPolynomial,
    exact_div,
    qbinom,
    qfact,
    qint,
    qmultinom,
)

__version__ = "0.1.0"
