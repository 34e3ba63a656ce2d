"""The ``sample`` command: fitness-landscape sampling around two points.

Two schemes (``SCHEMES``): draw coefficient vectors from an isotropic
normal centred on the uniform vector (every component 1/d, so the expected
component sum is one), or centred on the Suzuki seed. Each standard
deviation gets the same number of i.i.d. samples, drawn as array rows that
are scored as they are; ``sampling_report`` returns the sample payload,
with one row per scale holding the mean, min and max fitness. Only the
``sample`` command loads this module.
"""

from __future__ import annotations

import numpy as np

from .fitness import FitnessContext, evaluate
from .model import ChainInstance, DecompositionSpec
from .records import PURPOSE_SAMPLING, derive_generator
from .trotter import suzuki_seed

__all__ = ["DEFAULT_SCALES", "SCHEMES", "sampling_report"]

# Powers of ten spanning "essentially at the centre" to "all structure lost".
DEFAULT_SCALES = tuple(10.0**e for e in range(-9, 1))

SCHEMES = ("around-uniform", "around-suzuki")


def sampling_report(
    instance: ChainInstance,
    spec: DecompositionSpec,
    scheme: str,
    std_devs,
    samples_per_scale: int,
    master_seed: int,
) -> dict:
    """Draw, evaluate and aggregate from the master seed's sampling stream;
    deterministic given the seed. Every argument is checked before any work;
    ``std_devs`` of ``None`` samples at ``DEFAULT_SCALES``.

    Samples for each scale are drawn in one fixed-order batch and aggregated
    in index order, so results do not depend on evaluation scheduling.
    """
    rng = derive_generator(master_seed, PURPOSE_SAMPLING)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown sampling scheme {scheme!r}")
    std_devs = [float(s) for s in (DEFAULT_SCALES if std_devs is None else std_devs)]
    if samples_per_scale < 1:
        raise ValueError("need at least one sample per scale")
    if not std_devs or not all(0 < s < np.inf for s in std_devs):
        raise ValueError("standard deviations must be finite and positive")
    if spec.k < 2:
        raise ValueError("sampling requires k >= 2 (k = 1 has no coefficients)")
    ctx = FitnessContext.create(instance, spec)
    d = 5 * (spec.k - 1)
    center = np.full(d, 1.0 / d) if scheme == "around-uniform" else np.array(suzuki_seed(spec.k))
    rows = []
    for scale in std_devs:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused when scored
            draws = center + scale * rng.standard_normal((samples_per_scale, d))
        fits = np.array([evaluate(ctx, row) for row in draws])
        rows.append({
            "scale": scale,
            "mean_fitness": float(fits.mean()),
            "min_fitness": float(fits.min()),
            "max_fitness": float(fits.max()),
        })
    return {
        "command": "sample",
        "instance": instance.to_dict(),
        "spec": spec.to_dict(),
        "scheme": scheme,
        "samples_per_scale": samples_per_scale,
        "seed": master_seed,
        "rows": rows,
    }
