"""Desk-scale numerics for the near-critical Navier biharmonic problem.

Submodules:
  numerics     radial quadrature, discrete bilaplacian, slope fits
  bubble       the explicit concentrating profile and its calculus
  green_robin  Robin function of the Navier kernel on balls
  projection   boundary correction of a centered bubble, its expansion
  solver       radial Newton solves swept in the exponent offset
  reduction    reduced balance equations, coercivity, blow-up verdicts
  cli          command line entry points
"""

__version__ = "0.1.0"

__all__ = [
    "numerics",
    "bubble",
    "green_robin",
    "projection",
    "solver",
    "reduction",
    "cli",
]
