"""The ``sample`` command: fitness-landscape sampling around two points.

Two schemes (``SCHEMES``): draw coefficient vectors from an isotropic
normal centred on the uniform vector (every component 1/d, so the expected
component sum is one), or centred on the Suzuki seed. Only the ``sample``
command loads this module.
"""

from __future__ import annotations

import numpy as np

from .fitness import FitnessContext, evaluate
from .model import ChainInstance, DecompositionSpec
from .records import PURPOSE_SAMPLING, derive_generator
from .trotter import suzuki_seed

__all__ = ["DEFAULT_SCALES", "SAMPLE_DRAW_BYTES_CAP", "SCHEMES", "sampling_report"]

# Powers of ten spanning "essentially at the centre" to "all structure lost".
DEFAULT_SCALES = tuple(10.0**e for e in range(-9, 1))

SCHEMES = ("around-uniform", "around-suzuki")

# The largest array of one scale's draws, samples x d float64 values.
SAMPLE_DRAW_BYTES_CAP = 64 << 20


def sampling_report(
    instance: ChainInstance,
    spec: DecompositionSpec,
    scheme: str,
    std_devs,
    samples_per_scale: int,
    master_seed: int,
) -> dict:
    """The sample payload: per scale, the mean, min and max fitness of
    ``samples_per_scale`` vectors drawn as one batch from the master seed's
    sampling stream and scored in row order, so it is fixed by the seed.
    ``std_devs`` of ``None`` samples at ``DEFAULT_SCALES``.

    Refuses, before any work, an unknown scheme, k < 2, a scale that is not
    finite and positive, and a sample count below 1 or whose draws pass
    ``SAMPLE_DRAW_BYTES_CAP``.
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
    d = 5 * (spec.k - 1)
    if samples_per_scale * d * 8 > SAMPLE_DRAW_BYTES_CAP:
        raise ValueError(f"samples per scale must be at most {SAMPLE_DRAW_BYTES_CAP // (8 * d):,} "
                         f"at k={spec.k} ({SAMPLE_DRAW_BYTES_CAP >> 20} MiB of draws), "
                         f"got {samples_per_scale:,}")
    ctx = FitnessContext.create(instance, spec)
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
