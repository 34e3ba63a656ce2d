"""A (mu/mu_w, lambda) covariance-matrix-adaptation evolution strategy.

Minimizes a black-box objective over R^d by sampling candidates from an
adapted multivariate Gaussian. Strategy constants follow Hansen's standard
defaults as functions of the dimension and the variance-effective selection
mass: rank-one plus rank-mu covariance updates and cumulative step-size
adaptation. The covariance eigendecomposition is refreshed every generation
(dimensions here are tiny), symmetrizing first and flooring eigenvalues at
1e-20; floor events are counted as repairs.

All sampling comes from a caller-supplied numpy Generator, so runs are
deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "CmaRunResult",
    "CmaState",
    "StepResult",
    "TrajectoryPoint",
    "cma_init",
    "cma_run",
    "cma_step",
]


@dataclass
class CmaState:
    """Full strategy state between generations."""

    dim: int
    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    p_sigma: np.ndarray
    p_cov: np.ndarray
    generation: int
    popsize: int
    mu: int
    weights: np.ndarray
    mueff: float
    c_sigma: float
    d_sigma: float
    c_cov: float
    c1: float
    cmu: float
    chi_n: float
    repair_count: int = 0


@dataclass
class StepResult:
    """Best candidate of one generation, plus how many candidates came back
    with a non-finite objective value (those are ranked worst)."""

    x: np.ndarray
    fitness: float
    nonfinite: int


@dataclass
class TrajectoryPoint:
    generation: int
    best_fitness: float
    centroid_fitness: float
    sigma: float
    nonfinite: int


@dataclass
class CmaRunResult:
    best_x: np.ndarray
    best_fitness: float
    trajectory: list[TrajectoryPoint]
    final_mean: np.ndarray
    evaluations: int
    repairs: int


def _check_step_size(sigma0: float, seed_vector) -> None:
    """An initial step size must be finite and positive (an infinite one sends
    every candidate to non-finite components) and at least the float spacing
    of the seed's largest component: below it every candidate rounds to the
    seed, and the update divides that roundoff by sigma."""
    if not (math.isfinite(sigma0) and sigma0 > 0):
        raise ValueError(f"initial step size must be finite and positive, got {sigma0}")
    floor = math.ulp(float(np.max(np.abs(seed_vector))))
    if sigma0 < floor:
        raise ValueError(f"initial step size must be at least {floor:.3g}, the float spacing "
                         f"of the seed's largest component, got {sigma0}")


def cma_init(seed_vector, sigma0: float, popsize: int | None = None) -> CmaState:
    """Fresh state centred on ``seed_vector`` with unit covariance.

    Population defaults to 4 + floor(3 ln d); mu = popsize // 2 parents
    recombine with log-rank weights.
    """
    mean = np.array(seed_vector, dtype=float).ravel()
    d = mean.size
    if d == 0:
        raise ValueError("cannot optimize a zero-dimensional vector")
    _check_step_size(sigma0, mean)
    lam = int(popsize) if popsize is not None else 4 + int(3 * math.log(d))
    if lam < 2:
        raise ValueError("population size must be at least 2")
    mu = lam // 2
    raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mueff = 1.0 / float((weights**2).sum())
    c_sigma = (mueff + 2.0) / (d + mueff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mueff - 1.0) / (d + 1.0)) - 1.0) + c_sigma
    c_cov = (4.0 + mueff / d) / (d + 4.0 + 2.0 * mueff / d)
    c1 = 2.0 / ((d + 1.3) ** 2 + mueff)
    cmu = min(1.0 - c1, 2.0 * (mueff - 2.0 + 1.0 / mueff) / ((d + 2.0) ** 2 + mueff))
    chi_n = math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))
    return CmaState(
        dim=d,
        mean=mean,
        sigma=float(sigma0),
        cov=np.eye(d),
        p_sigma=np.zeros(d),
        p_cov=np.zeros(d),
        generation=0,
        popsize=lam,
        mu=mu,
        weights=weights,
        mueff=mueff,
        c_sigma=c_sigma,
        d_sigma=d_sigma,
        c_cov=c_cov,
        c1=c1,
        cmu=cmu,
        chi_n=chi_n,
    )


def cma_step(state: CmaState, objective, rng: np.random.Generator) -> tuple[CmaState, StepResult]:
    """One generation: sample, rank, recombine, adapt paths, sigma and C.

    Deterministic given the rng state; candidates are drawn in a single
    fixed-order call, so evaluating them concurrently cannot change the
    stream.
    """
    d = state.dim
    cov = (state.cov + state.cov.T) / 2.0
    eigvals, basis = np.linalg.eigh(cov)
    repair_count = state.repair_count
    if float(eigvals[0]) < 1e-20:
        eigvals = np.maximum(eigvals, 1e-20)
        repair_count += 1
    scales = np.sqrt(eigvals)

    z = rng.standard_normal((state.popsize, d))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused when scored
        candidates = state.mean + state.sigma * ((z * scales) @ basis.T)
    fits = np.array([float(objective(x)) for x in candidates])
    nonfinite = int(np.count_nonzero(~np.isfinite(fits)))
    keys = np.where(np.isfinite(fits), fits, np.inf)
    order = np.argsort(keys, kind="stable")
    selected = candidates[order[: state.mu]]

    old_mean = state.mean
    mean = state.weights @ selected
    y_w = (mean - old_mean) / state.sigma

    inv_sqrt = (basis / scales) @ basis.T
    p_sigma = (1.0 - state.c_sigma) * state.p_sigma + math.sqrt(
        state.c_sigma * (2.0 - state.c_sigma) * state.mueff
    ) * (inv_sqrt @ y_w)
    ps_norm = float(np.linalg.norm(p_sigma))
    expected = math.sqrt(1.0 - (1.0 - state.c_sigma) ** (2 * (state.generation + 1)))
    h_sigma = 1.0 if ps_norm / expected < (1.4 + 2.0 / (d + 1.0)) * state.chi_n else 0.0
    p_cov = (1.0 - state.c_cov) * state.p_cov + h_sigma * math.sqrt(
        state.c_cov * (2.0 - state.c_cov) * state.mueff
    ) * y_w

    y_sel = (selected - old_mean) / state.sigma
    rank_mu = y_sel.T @ (state.weights[:, None] * y_sel)
    cov_new = (
        (1.0 - state.c1 - state.cmu) * cov
        + state.c1 * (np.outer(p_cov, p_cov) + (1.0 - h_sigma) * state.c_cov * (2.0 - state.c_cov) * cov)
        + state.cmu * rank_mu
    )
    sigma_new = state.sigma * math.exp(
        (state.c_sigma / state.d_sigma) * (ps_norm / state.chi_n - 1.0)
    )

    best_idx = int(order[0])
    new_state = replace(
        state,
        mean=mean,
        sigma=sigma_new,
        cov=cov_new,
        p_sigma=p_sigma,
        p_cov=p_cov,
        generation=state.generation + 1,
        repair_count=repair_count,
    )
    return new_state, StepResult(
        x=candidates[best_idx].copy(), fitness=float(fits[best_idx]), nonfinite=nonfinite
    )


def cma_run(
    seed_vector,
    objective,
    generations: int,
    sigma0: float,
    rng: np.random.Generator,
) -> CmaRunResult:
    """Run a fixed generation budget and keep the all-time best candidate.

    The seed vector itself is evaluated first, so the best is never worse
    than the starting point. After each generation the new centroid is also
    evaluated, for trajectory reporting only: it never becomes the returned
    best. Candidates are drawn from ``rng``, as in ``cma_step``.
    """
    if generations < 1:
        raise ValueError("need at least one generation")
    state = cma_init(seed_vector, sigma0)
    best_x = np.array(seed_vector, dtype=float).ravel()
    best_f = float(objective(best_x))
    evaluations = 1
    trajectory: list[TrajectoryPoint] = []
    for _ in range(generations):
        state, step = cma_step(state, objective, rng)
        evaluations += state.popsize
        if step.fitness < best_f:
            best_x = step.x.copy()
            best_f = step.fitness
        centroid_fitness = float(objective(state.mean))
        evaluations += 1
        trajectory.append(
            TrajectoryPoint(
                generation=state.generation,
                best_fitness=best_f,
                centroid_fitness=centroid_fitness,
                sigma=state.sigma,
                nonfinite=step.nonfinite,
            )
        )
    return CmaRunResult(
        best_x=best_x,
        best_fitness=best_f,
        trajectory=trajectory,
        final_mean=state.mean.copy(),
        evaluations=evaluations,
        repairs=state.repair_count,
    )
