"""Trotter-Suzuki product formulas for disordered Heisenberg chains, with
CMA-ES optimization of the decomposition coefficients.

The root holds only ``__version__``: every name is imported from its own
module (``trotteropt.fitness``, ``trotteropt.cmaes``, ...), so importing
the package, or one of its modules such as ``trotteropt.cli``, loads no
numerics that it does not use.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
