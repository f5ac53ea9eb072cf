"""Exact invariants and slope identities for the knots M(1/r, 1/(s-1/u), 1/t).

Colored Jones polynomials by an exact trivalent-graph state sum, their
maximal degrees by exhaustive, case-analysis and closed-form maximization
of the associated quadratic integer program, boundary slopes and Euler
ratios by Hatcher-Oertel edgepath systems, and machine verification that
the degree coefficients match the surface invariants on parameter grids.
"""

__version__ = "0.1.0"
