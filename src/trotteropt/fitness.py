"""The optimization objective: the spectral-norm distance between the
exact propagator exp(-i t H) and the product-formula circuit, both held as
sector stacks (``model._sector_index``). Both are unitary, so every fitness
value lies in [0, 2]. The exact propagator depends only on the instance and
is never computed inside an optimization loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import expm_scaled_hermitian, spectral_norm
from .model import ChainInstance, DecompositionSpec, _popcount, _sector_index, hamiltonian
from .trotter import S2Evaluator, build_approximation

__all__ = [
    "FitnessContext",
    "error_reduction_pct",
    "evaluate",
    "exact_propagator",
]


def exact_propagator(instance: ChainInstance) -> np.ndarray:
    """exp(-i t H) as its sector stack. XX + YY on a bond swaps its two
    spins and Z strings are diagonal, so H also conserves the popcount:
    each sector block splits into popcount blocks of at most C(n, n/2)
    rows, each exponentiated through its own eigendecomposition."""
    h = hamiltonian(instance)
    out = np.zeros(h.shape, dtype=complex)
    weight = _popcount(_sector_index(instance.n)[0], instance.n)
    for m in range(instance.n + 1):
        states = np.flatnonzero(weight[m % 2] == m)
        block = np.ix_(states, states)
        out[m % 2][block] = expm_scaled_hermitian(h[m % 2][block], -1j * instance.t)
    return out


@dataclass
class FitnessContext:
    """Everything reused across evaluations on one (instance, spec) pair:
    ``exact`` is the stack of ``exact_propagator``, and ``evaluator`` builds
    the S2 blocks. ``create`` builds whichever it is not given. Neither
    depends on r, so a caller that scores one instance at several r may
    pass them in; the evaluator must be made for ``spec.ordering``."""

    instance: ChainInstance
    spec: DecompositionSpec
    exact: np.ndarray
    evaluator: S2Evaluator = field(repr=False)

    @classmethod
    def create(
        cls,
        instance: ChainInstance,
        spec: DecompositionSpec,
        exact: np.ndarray | None = None,
        evaluator: S2Evaluator | None = None,
    ) -> "FitnessContext":
        if exact is None:
            exact = exact_propagator(instance)
        if evaluator is None:
            evaluator = S2Evaluator.for_instance(instance, spec.ordering)
        return cls(instance=instance, spec=spec, exact=exact, evaluator=evaluator)


def evaluate(ctx: FitnessContext, p, held: dict | None = None) -> float:
    """Spectral-norm error of the circuit built from coefficients ``p``,
    any sequence of floats: the same floats give the same bits, whatever
    holds them and whatever ``held`` holds (``build_approximation``, which
    also states what is refused)."""
    approx = build_approximation(ctx.evaluator, ctx.spec, p, held)
    return spectral_norm(ctx.exact - approx)


def error_reduction_pct(baseline: float, optimized: float) -> float:
    """Percentage improvement of ``optimized`` over ``baseline``."""
    if not baseline > 0:
        raise ValueError("baseline error must be positive")
    return 100.0 * (baseline - optimized) / baseline
