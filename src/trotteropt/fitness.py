"""The optimization objective: spectral-norm distance between the exact
propagator exp(-i t H) and the product-formula circuit.

Both operators are unitary, so every fitness value lies in [0, 2]. The exact
propagator is the single most expensive object per instance and is computed
once per context, never inside an optimization loop.

Every chain term commutes with the parity Z^n, so H, exp(-i t H), the
circuit and their difference are block-diagonal in the even- and
odd-popcount sectors. Both operators are held as ``(2, 2^(n-1), 2^(n-1))``
stacks of those blocks, and the spectral norm of the difference is the
larger of the two block norms: the same value as at full dimension, for a
quarter of the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import expm_scaled_hermitian, spectral_norm
from .model import ChainInstance, _sectors, hamiltonian
from .trotter import CoefficientVector, DecompositionSpec, S2Evaluator, build_approximation

__all__ = [
    "DecompositionSpec",
    "FitnessContext",
    "error_reduction_pct",
    "evaluate",
    "evaluate_components",
    "exact_propagator",
]


def exact_propagator(instance: ChainInstance) -> np.ndarray:
    """exp(-i t H) as its two sector blocks, through the eigendecomposition
    of each block of H."""
    states = _sectors(instance.n)
    blocks = hamiltonian(instance)[states[:, :, None], states[:, None, :]]
    return expm_scaled_hermitian(blocks, -1j * instance.t)


@dataclass
class FitnessContext:
    """Everything reused across evaluations on one (instance, spec) pair;
    ``exact`` is the sector stack of ``exact_propagator``."""

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
    ) -> "FitnessContext":
        if exact is None:
            exact = exact_propagator(instance)
        return cls(
            instance=instance,
            spec=spec,
            exact=exact,
            evaluator=S2Evaluator.for_instance(instance, spec.ordering),
        )


def evaluate(ctx: FitnessContext, p: CoefficientVector) -> float:
    """Spectral-norm error of the circuit built from ``p``.

    Deterministic: identical inputs give bit-identical values; no S2 block
    is cached, each is rebuilt from its phase in closed form. Non-finite
    components signal a diverged search and raise rather than scoring.
    """
    comps = np.asarray(p.components, dtype=float)
    if not np.all(np.isfinite(comps)):
        raise ValueError("coefficient vector has non-finite components")
    approx = build_approximation(ctx.instance, ctx.spec, p, ctx.evaluator)
    return spectral_norm(ctx.exact - approx)


def evaluate_components(ctx: FitnessContext, components) -> float:
    """`evaluate` for a bare component sequence (optimizer-facing)."""
    return evaluate(ctx, CoefficientVector(ctx.spec.k, tuple(float(x) for x in components)))


def error_reduction_pct(baseline: float, optimized: float) -> float:
    """Percentage improvement of ``optimized`` over ``baseline``."""
    if not baseline > 0:
        raise ValueError("baseline error must be positive")
    return 100.0 * (baseline - optimized) / baseline
