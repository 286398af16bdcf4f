"""Numerical laboratory for the curvature/torsion map between the 1D
(stochastic) Landau-Lifshitz-Gilbert flow and a generalized nonlocal heat
equation, with executable checks of the equivalence structure."""

__version__ = "0.1.0"
