"""Trotter-Suzuki product formulas for disordered Heisenberg chains, with
CMA-ES optimization of the decomposition coefficients.

The names below resolve on first access (PEP 562), so importing the package,
or one of its modules such as ``trotteropt.cli``, loads no numerics that it
does not use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Home module -> the public names it defines.
_NAMES = {
    "model": ("ChainInstance", "LocalTerm", "OrderingMode", "Pauli", "TermKind", "TermOrdering"),
    "trotter": ("DecompositionSpec", "suzuki_coefficient", "suzuki_seed"),
    "fitness": ("FitnessContext", "error_reduction_pct", "evaluate", "exact_propagator"),
    "cmaes": ("CmaRunResult", "cma_run"),
}
_HOMES = {name: home for home, names in _NAMES.items() for name in names}

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name: str):
    # Not cached in the package globals: each access reads the home module,
    # so the package never holds a binding that the home module has replaced.
    # An unknown name raises AttributeError, which lets
    # `from trotteropt import <submodule>` fall back to importing it.
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
