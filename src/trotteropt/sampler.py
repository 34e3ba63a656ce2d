"""Fitness-landscape sampling around two reference points.

Two schemes: draw coefficient vectors from an isotropic normal centred on
the uniform vector (every component 1/d, so the expected component sum is
one), or centred on the Suzuki seed. Each scale in the plan gets the same
number of i.i.d. samples, drawn as array rows that are scored as they are;
the summary rows report mean, min and max fitness per scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fitness import FitnessContext, evaluate
from .model import ChainInstance
from .trotter import DecompositionSpec, suzuki_seed

__all__ = [
    "DEFAULT_SCALES",
    "SamplingPlan",
    "SamplingScheme",
    "ScaleStats",
    "run_sampling",
]

# Powers of ten spanning "essentially at the centre" to "all structure lost".
DEFAULT_SCALES = tuple(10.0**e for e in range(-9, 1))


class SamplingScheme(str, Enum):
    AROUND_UNIFORM = "around-uniform"
    AROUND_SUZUKI = "around-suzuki"


@dataclass(frozen=True)
class SamplingPlan:
    scheme: SamplingScheme
    std_devs: tuple[float, ...]
    samples_per_scale: int
    spec: DecompositionSpec
    instance: ChainInstance

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", SamplingScheme(self.scheme))
        object.__setattr__(self, "std_devs", tuple(float(s) for s in self.std_devs))
        if self.samples_per_scale < 1:
            raise ValueError("need at least one sample per scale")
        if not self.std_devs or not all(0 < s < np.inf for s in self.std_devs):
            raise ValueError("standard deviations must be finite and positive")
        if self.spec.k < 2:
            raise ValueError("sampling requires k >= 2 (k = 1 has no coefficients)")


@dataclass(frozen=True)
class ScaleStats:
    scale: float
    mean_fitness: float
    min_fitness: float
    max_fitness: float


def run_sampling(plan: SamplingPlan, rng_seed) -> list[ScaleStats]:
    """Draw, evaluate and aggregate; deterministic given the seed.

    Samples for each scale are drawn in one fixed-order batch and aggregated
    in index order, so results do not depend on evaluation scheduling.
    """
    ctx = FitnessContext.create(plan.instance, plan.spec)
    d = 5 * (plan.spec.k - 1)
    if plan.scheme is SamplingScheme.AROUND_UNIFORM:
        center = np.full(d, 1.0 / d)
    else:
        center = np.array(suzuki_seed(plan.spec.k))
    rng = np.random.default_rng(rng_seed)
    rows: list[ScaleStats] = []
    for scale in plan.std_devs:
        draws = center + scale * rng.standard_normal((plan.samples_per_scale, d))
        fits = np.array([evaluate(ctx, row) for row in draws])
        rows.append(
            ScaleStats(
                scale=float(scale),
                mean_fitness=float(fits.mean()),
                min_fitness=float(fits.min()),
                max_fitness=float(fits.max()),
            )
        )
    return rows
