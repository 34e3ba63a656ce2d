"""Experiment drivers behind the CLI: baseline reports, optimization runs,
r sweeps with threshold readouts, generalization studies, and the ordering
trade-off table.

Every driver checks its arguments before any work and returns a plain-dict
payload (FORMATS.md) fixed by its inputs and master seed: sweep cells that
fan out across processes are collected in cell order.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .cmaes import _check_step_size, cma_run
from .fitness import FitnessContext, error_reduction_pct, evaluate, exact_propagator
from .model import (
    CHAIN_N_CAP,
    ChainInstance,
    DecompositionSpec,
    OrderingMode,
    TermOrdering,
    _fields,
    _numbers,
    _seed,
    merged_gate_count,
    unmerged_gate_count,
)
from .records import (
    PURPOSE_APPEND,
    PURPOSE_CMA,
    PURPOSE_HOLDOUT,
    PURPOSE_PERMS,
    derive_generator,
)
from .trotter import S2Evaluator, _check_coefficients, _phases_per_stack, slice_phases, suzuki_seed

__all__ = [
    "baseline_report",
    "generalize",
    "optimize_instance",
    "perms_study",
    "pmap",
    "sweep_r",
]

# The default reach of generalize --axis n: each added site multiplies
# matmul work by ~8 and memory by ~4, so beyond n=8 it is opt-in (--n-cap,
# at most model.CHAIN_N_CAP).
GENERALIZE_N_CAP = 8


def pmap(fn, items, jobs: int = 1) -> list:
    """Map preserving item order; jobs > 1 fans out across processes, at
    most one per item (a fork pool starts all its workers up front). The
    pool is imported only when it fans out."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def _run_settings(k: int, generations: int | None, sigma0: float | None) -> tuple[int, float]:
    """An optimize run's generations and step size, ``None`` taking k's default:
    250 generations at k = 2 and 500 for the larger spaces of k >= 3, and a
    step size of 1e-7 / d for the d = 5(k - 1) coefficients. Checks that
    k >= 2, generations >= 1 and the step size is usable on the Suzuki seed."""
    if k < 2:
        raise ValueError(f"k = {k} has no coefficients to optimize")
    generations = (500 if k >= 3 else 250) if generations is None else generations
    sigma0 = 1e-7 / (5 * (k - 1)) if sigma0 is None else sigma0
    if generations < 1:
        raise ValueError("generations must be >= 1")
    _check_step_size(sigma0, suzuki_seed(k))
    return generations, sigma0


def _check_grid(grid: list, name: str, least: int | None = None) -> None:
    """A grid must be non-empty and strictly increasing, from ``least`` if given."""
    if not grid:
        raise ValueError(f"{name} grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} grid must be strictly increasing")
    if least is not None and grid[0] < least:
        raise ValueError(f"{name} grid values must be >= {least}, got {grid[0]}")


def _optimized_vector(run_payload: dict, k: int) -> np.ndarray:
    """An optimize record's ``p_final``, checked as a coefficient vector for k."""
    (p_final,) = _fields(run_payload, "optimize record", "p_final")
    return _check_coefficients(_numbers(p_final, "optimize record p_final"), k)


def baseline_report(instance: ChainInstance, spec: DecompositionSpec) -> dict:
    """Suzuki-seed error plus gate counts for one decomposition."""
    ctx = FitnessContext.create(instance, spec)
    error = evaluate(ctx, suzuki_seed(spec.k))
    return {
        "command": "baseline",
        "instance": instance.to_dict(),
        "spec": spec.to_dict(),
        "error": error,
        "unmerged_gates": unmerged_gate_count(instance, spec),
        "merged_gates": merged_gate_count(instance, spec),
    }


def optimize_instance(
    instance: ChainInstance,
    spec: DecompositionSpec,
    generations: int | None,
    sigma0: float | None,
    master_seed: int,
) -> dict:
    """One CMA-ES run from the Suzuki seed, its arguments checked before any
    work, drawing from the master seed's CMA stream; the run-record payload.
    ``None`` for generations or sigma0 takes k's default."""
    generations, sigma0 = _run_settings(spec.k, generations, sigma0)
    return _optimize(FitnessContext.create(instance, spec), generations, sigma0, master_seed, PURPOSE_CMA)


def _optimize(ctx: FitnessContext, generations: int, sigma0: float, master_seed: int, *key: int) -> dict:
    """The run-record payload of one CMA-ES run from the Suzuki seed, every
    score on ``ctx``, drawing from the master seed's stream ``key``."""
    seed_vec = suzuki_seed(ctx.spec.k)
    result = cma_run(
        seed_vec,
        partial(evaluate, ctx),
        generations=generations,
        sigma0=sigma0,
        rng=derive_generator(master_seed, *key),
    )
    error_initial = evaluate(ctx, seed_vec)
    return {
        "command": "optimize",
        "instance": ctx.instance.to_dict(),
        "spec": ctx.spec.to_dict(),
        "seed": master_seed,
        "sigma0": sigma0,
        "generations": generations,
        "p_initial": list(seed_vec),
        "p_final": [float(x) for x in result.best_x],
        "error_initial": error_initial,
        "error_final": result.best_fitness,
        "reduction_pct": error_reduction_pct(error_initial, result.best_fitness),
        "final_centroid": [float(x) for x in result.final_mean],
        "final_centroid_error": result.trajectory[-1].centroid_fitness,
        "evaluations": result.evaluations,
        "repairs": result.repairs,
        "trajectory": [
            [p.generation, p.best_fitness, p.centroid_fitness, p.sigma, p.nonfinite]
            for p in result.trajectory
        ],
    }


def _sweep_cell(instance, mode, p_fixed, generations, sigma0, master_seed, cell) -> dict:
    """One r of a sweep; ``cell`` is (index, spec). Frozen instances and
    specs pickle as they are, so pool workers get the same objects."""
    cell_index, spec = cell
    ctx = FitnessContext.create(instance, spec)
    baseline = evaluate(ctx, suzuki_seed(spec.k))
    row: dict = {"r": spec.r, "baseline_error": baseline}
    if mode == "optimize":
        run = _optimize(ctx, generations, sigma0, master_seed, PURPOSE_CMA, cell_index)
        row["optimized_error"] = run["error_final"]
        row["p_final"] = run["p_final"]
    elif mode == "evaluate":
        row["optimized_error"] = evaluate(ctx, p_fixed)
    if "optimized_error" in row:
        row["reduction_pct"] = error_reduction_pct(baseline, row["optimized_error"])
    return row


def sweep_r(
    instance: ChainInstance,
    k: int,
    r_grid: list[int],
    ordering: TermOrdering,
    mode: str = "baseline",
    run_payload: dict | None = None,
    generations: int | None = None,
    sigma0: float | None = None,
    master_seed: int = 0,
    threshold: float | None = None,
    jobs: int = 1,
) -> dict:
    """Baseline (and optional optimized) error per r on one instance.

    ``mode`` is one of baseline / optimize / evaluate; "evaluate" scores the
    optimized vector of ``run_payload``, an optimize record, at every r. A
    threshold adds the smallest grid r whose error beats it.
    """
    _check_grid(r_grid, "r", least=1)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if threshold is not None and not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    if mode not in ("baseline", "optimize", "evaluate"):
        raise ValueError(f"unknown sweep mode {mode!r}")
    # The specs first: a k that DecompositionSpec refuses is refused before
    # a Suzuki seed of that k is built.
    specs = [DecompositionSpec(k, r, ordering) for r in r_grid]
    p_fixed = None
    if mode == "evaluate":
        if run_payload is None:
            raise ValueError("evaluate mode needs an optimize record")
        p_fixed = _optimized_vector(run_payload, k)
    if mode == "optimize":
        # Only optimize mode has a budget, so the other modes take any k, 1 included.
        generations, sigma0 = _run_settings(k, generations, sigma0)
    cell = partial(_sweep_cell, instance, mode, p_fixed, generations, sigma0, master_seed)
    rows = pmap(cell, enumerate(specs), jobs)
    payload = {
        "command": "sweep-r",
        "instance": instance.to_dict(),
        "k": k,
        "ordering": ordering.to_dict(),
        "mode": mode,
        "seed": master_seed,
        "rows": rows,
    }
    if mode == "optimize":
        payload["generations"] = generations
        payload["sigma0"] = sigma0
    if threshold is not None:
        payload["threshold"] = threshold
        payload["baseline_r_at_threshold"] = next(
            (row["r"] for row in rows if row["baseline_error"] < threshold), None
        )
        if mode != "baseline":
            payload["optimized_r_at_threshold"] = next(
                (row["r"] for row in rows if row.get("optimized_error", np.inf) < threshold), None
            )
    return payload


def generalize(
    run_payload: dict,
    axis: str,
    grid: list,
    n_cap: int | None = None,
) -> dict:
    """Score a run's optimized vector and the Suzuki seed over a grid of one
    parameter (v / n / t / r), everything else frozen from the run; hold-out
    and appended disorder derive from the run's seed.

    The v grid is one hold-out count N (hold-outs 1..N); the n, t and r
    grids must be non-empty and strictly increasing, and only t's may hold
    non-integers. The n grid stops at ``n_cap`` (``GENERALIZE_N_CAP`` when
    ``None``), which stops at ``model.CHAIN_N_CAP``.
    """
    if n_cap is not None and n_cap > CHAIN_N_CAP:
        raise ValueError(f"--n-cap must be at most {CHAIN_N_CAP}, got {n_cap}")
    if axis in ("v", "n", "r"):
        for value in grid:
            if not float(value).is_integer():
                raise ValueError(f"axis={axis} grid values must be integers, got {value}")
    if axis == "v" and len(grid) != 1:
        raise ValueError(f"axis=v takes a single hold-out count, got {len(grid)} values")
    if axis in ("n", "t", "r"):
        _check_grid(grid, f"axis={axis}")
    instance_form, spec_form, _, seed = _fields(
        run_payload, "optimize record", "instance", "spec", "p_final", "seed")
    base_instance = ChainInstance.from_dict(instance_form)
    spec = DecompositionSpec.from_dict(spec_form)
    p_opt = _optimized_vector(run_payload, spec.k)
    p_seed = suzuki_seed(spec.k)
    record_seed = _seed(seed, "record seed")

    points: list[tuple[float, ChainInstance, DecompositionSpec]] = []
    if axis == "v":
        count = int(grid[0])
        if count < 1:
            raise ValueError("axis=v hold-out count must be >= 1")
        for i in range(1, count + 1):
            rng = derive_generator(record_seed, PURPOSE_HOLDOUT, i)
            inst = ChainInstance.random(base_instance.n, rng, t=base_instance.t)
            points.append((float(i), inst, spec))
    elif axis == "n":
        if spec.ordering.mode is OrderingMode.EXPLICIT:
            raise ValueError(
                "axis=n cannot extend an explicit term ordering to more sites: the record's "
                f"permutation orders the {4 * base_instance.n} terms of n={base_instance.n}"
            )
        n_cap = GENERALIZE_N_CAP if n_cap is None else n_cap
        for n_new in grid:
            n_new = int(n_new)
            if n_new <= base_instance.n:
                raise ValueError(f"axis=n grid values must exceed n={base_instance.n}")
            if n_new > n_cap:
                raise ValueError(f"axis=n capped at {n_cap} (override with --n-cap)")
            rng = derive_generator(record_seed, PURPOSE_APPEND, n_new)
            extra = tuple(float(x) for x in rng.uniform(-1.0, 1.0, size=n_new - base_instance.n))
            inst = ChainInstance(n_new, base_instance.v + extra, base_instance.t)
            points.append((float(n_new), inst, spec))
    elif axis == "t":
        for t_new in grid:
            inst = ChainInstance(base_instance.n, base_instance.v, float(t_new), seed=base_instance.seed)
            points.append((float(t_new), inst, spec))
    elif axis == "r":
        for r_new in grid:
            new_spec = DecompositionSpec(spec.k, int(r_new), spec.ordering)
            points.append((float(r_new), base_instance, new_spec))
    else:
        raise ValueError(f"unknown axis {axis!r}")

    # Every r point shares the source instance and ordering, and so its
    # propagator and evaluator.
    exact = exact_propagator(base_instance) if axis == "r" else None
    evaluator = S2Evaluator.for_instance(base_instance, spec.ordering) if axis == "r" else None
    rows = []
    for value, inst, point_spec in points:
        ctx = FitnessContext.create(inst, point_spec, exact=exact, evaluator=evaluator)
        baseline = evaluate(ctx, p_seed)
        optimized = evaluate(ctx, p_opt)
        rows.append(
            {
                "value": value,
                "baseline_error": baseline,
                "optimized_error": optimized,
                "reduction_pct": error_reduction_pct(baseline, optimized),
            }
        )
    return {
        "command": "generalize",
        "axis": axis,
        "source_instance": instance_form,
        "spec": spec_form,
        "seed": record_seed,
        "p_optimized": p_opt.tolist(),
        "rows": rows,
    }


def perms_study(
    instance: ChainInstance,
    k: int,
    r_grid: list[int],
    n_random: int = 20,
    master_seed: int = 0,
) -> dict:
    """Gate count vs Suzuki-seed error for grouped, canonical, and averaged
    random term orderings, per r, in rows r-major. Each ordering gets one
    evaluator, and each run of r whose distinct Suzuki phases fit one S2
    stack is scored from one stack (``build_approximation``'s ``held``)."""
    _check_grid(r_grid, "r", least=1)
    if n_random < 1:
        raise ValueError("n_random must be >= 1")
    rng = derive_generator(master_seed, PURPOSE_PERMS)
    orderings = [
        TermOrdering.grouped(),
        TermOrdering.canonical(),
        *(TermOrdering.explicit(rng.permutation(4 * instance.n)) for _ in range(n_random)),
    ]
    # Every spec first: a k that DecompositionSpec refuses is refused before
    # any propagator or evaluator is built.
    specs = {r: [DecompositionSpec(k, r, ordering) for ordering in orderings] for r in r_grid}
    seed_vec = suzuki_seed(k)
    exact = exact_propagator(instance)  # shared by every ordering and r
    runs: list[tuple[list, dict]] = []  # each run's r and its distinct phases, in order
    for r in r_grid:
        phases = dict.fromkeys((slice_phases(seed_vec) / r).tolist())
        if runs and len(runs[-1][1] | phases) <= _phases_per_stack(instance.n):
            runs[-1][0].append(r)
            runs[-1][1].update(phases)
        else:
            runs.append(([r], phases))

    def scores(j: int) -> list[tuple]:
        """(merged gates, error) of ordering j at each r; its evaluator and
        stacks go when it returns."""
        evaluator, out = S2Evaluator.for_instance(instance, orderings[j]), []
        for run, phases in runs:
            held = None  # the last run's stack goes before the next is built
            if len(run) > 1:
                held = dict(zip(phases, evaluator.s2_stack(list(phases))))
            for r in run:
                ctx = FitnessContext.create(instance, specs[r][j], exact=exact, evaluator=evaluator)
                out.append((merged_gate_count(instance, specs[r][j]), evaluate(ctx, seed_vec, held)))
        return out

    rows = []
    for r, scored in zip(r_grid, zip(*[scores(j) for j in range(len(orderings))])):
        # The count before merging is the same for every ordering; specs[r][0]
        # is the grouped one.
        unmerged = unmerged_gate_count(instance, specs[r][0])
        for name, (count, error) in zip(("grouped", "canonical"), scored):
            rows.append({"ordering": name, "r": r, "merged_gates": count,
                         "unmerged_gates": unmerged, "error": error})
        counts, errors = zip(*scored[2:])
        rows.append({"ordering": "random", "r": r, "merged_gates": float(np.mean(counts)),
                     "unmerged_gates": unmerged, "error": float(np.mean(errors))})
    return {
        "command": "perms",
        "instance": instance.to_dict(),
        "k": k,
        "n_random": n_random,
        "seed": master_seed,
        "rows": rows,
    }

