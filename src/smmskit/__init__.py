"""Numerical verification of weighted comparison geometry on rotationally
symmetric smooth metric measure spaces: curvature/measure quantities,
comparison inequality checkers, diameter bounds and Dirichlet eigenvalues.

Each public name is imported from the module whose ``__all__`` lists it,
e.g. ``from smmskit.comparison import check_mc_drift``; importing the
package itself loads no submodule.
"""

__version__ = "0.1.0"
