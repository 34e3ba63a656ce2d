"""The optimization objective: spectral-norm distance between the exact
propagator exp(-i t H) and the product-formula circuit.

Both operators are unitary, so every fitness value lies in [0, 2]. The exact
propagator depends only on the instance and is computed once per context,
or shared by the callers that score one instance many ways, never inside an
optimization loop. H also conserves the popcount, so it is diagonalized
in blocks of at most C(n, n/2) rows (70 at n=8).

A coefficient vector is any sequence of floats (an optimizer's array row,
the Suzuki seed's tuple, a record's list), and ``evaluate`` scores it as it is.

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
from .model import ChainInstance, _popcount, _sector_index, hamiltonian
from .trotter import DecompositionSpec, S2Evaluator, build_approximation

__all__ = [
    "FitnessContext",
    "error_reduction_pct",
    "evaluate",
    "exact_propagator",
]


def exact_propagator(instance: ChainInstance) -> np.ndarray:
    """exp(-i t H) as its two sector blocks.

    XX + YY on a bond swaps its two spins and Z strings are diagonal, so H
    also conserves the popcount: each sector block of H splits into the
    blocks of the popcounts of its parity, at most C(n, n/2) rows each (70
    at n=8). Each one is exponentiated through its own eigendecomposition.
    """
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
    ``exact`` is the sector stack of ``exact_propagator``, and ``evaluator``
    builds the S2 blocks. ``create`` builds whichever it is not given, and
    one context serves every score of a pair (a baseline, a CMA-ES run, its
    seed). Neither depends on r, so a caller that scores one instance at
    several r may build them once and pass them to ``create``; the
    evaluator must be built for ``spec.ordering``."""

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


def evaluate(ctx: FitnessContext, p) -> float:
    """Spectral-norm error of the circuit built from coefficients ``p``.

    Deterministic: the same floats give bit-identical values, whatever
    sequence holds them. No S2 block is kept from one evaluation to the
    next; within one, a block reused for a repeated phase is the block a
    rebuild would give. A vector of the wrong length, or one that a
    diverged search left non-finite or too large, raises ``ValueError``.
    """
    approx = build_approximation(ctx.evaluator, ctx.spec, p)
    return spectral_norm(ctx.exact - approx)


def error_reduction_pct(baseline: float, optimized: float) -> float:
    """Percentage improvement of ``optimized`` over ``baseline``."""
    if not baseline > 0:
        raise ValueError("baseline error must be positive")
    return 100.0 * (baseline - optimized) / baseline
