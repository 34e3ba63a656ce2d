"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. The optimization-heavy criteria (4, 5, 6, 9) share one session
fixture that fans the runs out across CPU cores and are marked ``slow``, so
``pytest -m "not slow"`` leaves them out.

Instance generator seeds and CMA seeds are frozen; every number asserted
here was derived by running this implementation and cross-checked against
the package's independent oracles (closed-form gate counts, full-dimension
exponentiation, power iteration, brute-force products).
"""

import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from trotteropt.cli import main as cli_main
from trotteropt.cmaes import cma_init, cma_step
from trotteropt.experiments import generalize, optimize_instance
from trotteropt.fitness import FitnessContext, evaluate, exact_propagator
from trotteropt.linalg import expm_scaled_hermitian, spectral_norm
from trotteropt.model import (
    ChainInstance,
    TermOrdering,
    merged_gate_count,
    term_matrix,
    unmerged_gate_count,
)
from trotteropt.records import read_record, write_record
from trotteropt.trotter import (
    DecompositionSpec,
    S2Evaluator,
    build_approximation,
    suzuki_seed,
)

from sectors import dense

GROUPED = TermOrdering.grouped()
JOBS = max(os.cpu_count() or 1, 1)

HEADLINE_INSTANCE_SEEDS = (101, 102, 103)
HEADLINE_CMA_SEEDS = (1, 2, 3, 4, 5)
ROBUSTNESS_INSTANCE = 102
GENERALIZE_SEED = 107
K3_INSTANCE_SEED = 201


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _instance(seed, n=5):
    return ChainInstance.random(n, np.random.Generator(np.random.PCG64(seed)), seed=seed)


def _heavy_cell(args):
    kind, inst_seed, n, k, r, generations, sigma0, master_seed = args
    inst = _instance(inst_seed, n)
    spec = DecompositionSpec(k, r, GROUPED)
    return kind, inst_seed, r, optimize_instance(inst, spec, generations, sigma0, master_seed)


@pytest.fixture(scope="session")
def heavy_runs():
    """All optimization runs for criteria 4, 5, 6 and 9, pooled."""
    cells = [
        ("headline", i, 5, 2, 125, 250, 2e-8, s)
        for i in HEADLINE_INSTANCE_SEEDS
        for s in HEADLINE_CMA_SEEDS
    ]
    cells.append(("generalize", GENERALIZE_SEED, 5, 2, 125, 250, 2e-8, GENERALIZE_SEED))
    cells += [("k3", K3_INSTANCE_SEED, 4, 3, r, 500, 1e-8, K3_INSTANCE_SEED) for r in (5, 10)]
    results = {"headline": {}, "k3": {}}
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        for kind, inst_seed, r, payload in pool.map(_heavy_cell, cells):
            if kind == "headline":
                results["headline"].setdefault(inst_seed, []).append(payload)
            elif kind == "k3":
                results["k3"][r] = payload
            else:
                results["generalize"] = payload
    return results


def test_criterion_1_order_scaling():
    inst = ChainInstance.random(3, np.random.Generator(np.random.PCG64(1)), t=1.0, seed=1)
    exact = exact_propagator(inst)
    rs = [1, 2, 4, 8, 16]
    slopes = {}
    for k in (1, 2):
        ev = S2Evaluator.for_instance(inst, GROUPED)
        errs = [
            spectral_norm(exact - build_approximation(ev, DecompositionSpec(k, r, GROUPED), suzuki_seed(k)))
            for r in rs
        ]
        slopes[k] = float(np.polyfit(np.log(rs), np.log(errs), 1)[0])
    ok = (-2.3 <= slopes[1] <= -1.7) and (-4.5 <= slopes[2] <= -3.5)
    _report(1, "order scaling", ok, f"slopes: plain S2 {slopes[1]:.3f} (want -2+-0.3), k=2 {slopes[2]:.3f} (want -4+-0.5)")


def test_criterion_2_fast_exponentiation():
    # The closed form exp(c H_term) is a one-term evaluator's S2 block, which
    # is exp(-i x H_term), at phase x = i c.
    worst = 0.0
    for n in (3, 4, 5):
        inst = _instance(n, n)
        for term in inst.terms():
            for c in (-0.3j, 1.7j):
                fast = dense(S2Evaluator((term,), n, 1.0).s2((1j * c).real))
                delta = spectral_norm(fast - expm_scaled_hermitian(term_matrix(term, n), c))
                worst = max(worst, delta)
    _report(2, "fast exponentiation", worst <= 1e-10, f"worst deviation {worst:.2e} over n in 3..5, all terms")


def test_criterion_3_gate_count_formulas():
    failures = []
    for n in (3, 4, 5, 6):
        inst = ChainInstance.random(n, np.random.Generator(np.random.PCG64(n)), seed=n)
        for k in (2, 3):
            for r in (1, 5, 25):
                m = r * 5 ** (k - 1)
                grouped = merged_gate_count(inst, GROUPED, k, r)
                unmerged = unmerged_gate_count(inst, k, r)
                if grouped != (5 * m + 1) * n or unmerged != 2 * 4 * n * m:
                    failures.append((n, k, r, grouped, unmerged))
    _report(3, "gate count formulas", not failures,
            f"grouped == (5M+1)n and unmerged == 2L*M on all 24 grid cells{failures or ''}")


@pytest.mark.slow
def test_criterion_4_error_reduction(heavy_runs):
    medians = {
        seed: float(np.median([p["reduction_pct"] for p in runs]))
        for seed, runs in heavy_runs["headline"].items()
    }
    ok = all(m >= 40.0 for m in medians.values()) and any(m >= 50.0 for m in medians.values())
    detail = ", ".join(f"instance {s}: median {m:.1f}%" for s, m in sorted(medians.items()))
    _report(4, "error reduction", ok, detail + " (want all >= 40%, one >= 50%)")


@pytest.mark.slow
def test_criterion_5_run_robustness(heavy_runs):
    reds = [p["reduction_pct"] for p in heavy_runs["headline"][ROBUSTNESS_INSTANCE]]
    spread = max(reds) - min(reds)
    _report(5, "run robustness", spread < 5.0,
            f"instance {ROBUSTNESS_INSTANCE}: spread {spread:.3f} pp over {len(reds)} seeds (want < 5)")


@pytest.mark.slow
def test_criterion_6_generalization(heavy_runs):
    record = heavy_runs["generalize"]
    over_v = generalize(record, "v", [10])["rows"]
    positive_v = sum(1 for row in over_v if row["reduction_pct"] > 0)
    over_n = generalize(record, "n", [6])["rows"][0]["reduction_pct"]
    over_t = {row["value"]: row["reduction_pct"] for row in generalize(record, "t", [15, 30, 60])["rows"]}
    over_r = {row["value"]: row["reduction_pct"] for row in generalize(record, "r", [100, 150])["rows"]}
    ok_a = positive_v >= 7
    ok_b = over_n > 0
    ok_c = min(over_t.values()) < 0
    ok_d = over_r[100.0] > 0 and over_r[150.0] < 0
    detail = (
        f"(a) v: {positive_v}/10 positive; (b) n=6: {over_n:+.1f}%; "
        f"(c) t=60: {over_t[60.0]:+.2f}%; (d) r=100: {over_r[100.0]:+.1f}%, r=150: {over_r[150.0]:+.1f}%"
    )
    _report(6, "generalization signatures", ok_a and ok_b and ok_c and ok_d, detail)


# Peak RSS of one `generalize --axis n --grid 9,10 --n-cap 10` process:
# 103 MB measured (x86-64, numpy 2.4, OpenBLAS, one BLAS thread).
REACH_N10_RSS_MB = 160


@pytest.mark.slow
def test_criterion_6_reaches_n10(heavy_runs, tmp_path):
    """The criterion-6 record generalizes past the default n cap, to n=10,
    in a process whose peak memory stays under REACH_N10_RSS_MB."""
    record, out = tmp_path / "run.json", tmp_path / "reach.json"
    write_record(record, heavy_runs["generalize"])
    argv = [sys.executable, "-m", "trotteropt.cli", "generalize", "--record", str(record),
            "--axis", "n", "--grid", "9,10", "--n-cap", "10", "--out", str(out)]
    # An intermediate process whose only child is the command, so that its
    # RUSAGE_CHILDREN peak is that command's alone.
    probe = ("import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True); "
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env, check=True,
                          capture_output=True, text=True)
    peak_mb = int(done.stdout.split()[-1]) / 1024
    rows = {row["value"]: row["reduction_pct"] for row in read_record(out)["rows"]}
    ok = sorted(rows) == [9.0, 10.0] and all(v > 0 for v in rows.values()) and peak_mb < REACH_N10_RSS_MB
    detail = ", ".join(f"n={int(n)}: {v:+.1f}%" for n, v in sorted(rows.items()))
    _report(6, "generalization to n=10", ok,
            f"{detail}; peak RSS {peak_mb:.0f} MB (want < {REACH_N10_RSS_MB})")


def test_criterion_7_fitness_bounds_and_determinism(tmp_path):
    inst = ChainInstance.random(3, np.random.Generator(np.random.PCG64(77)), seed=77)
    ctx = FitnessContext.create(inst, DecompositionSpec(2, 3, GROUPED))
    rng = np.random.Generator(np.random.PCG64(7))
    values = []
    for _ in range(1000):
        p = tuple(rng.normal(0.2, 1.0, 5))
        values.append(evaluate(ctx, p))
    in_range = all(0.0 <= v <= 2.0 + 1e-12 for v in values)

    paths = {}
    for tag in ("a", "b"):
        inst_path = tmp_path / f"inst_{tag}.json"
        run_path = tmp_path / f"run_{tag}.json"
        assert cli_main(["generate-instance", "--n", "3", "--seed", "5", "--out", str(inst_path)]) == 0
        assert cli_main([
            "optimize", "--instance", str(inst_path), "--k", "2", "--r", "2",
            "--generations", "2", "--seed", "5", "--out", str(run_path),
        ]) == 0
        paths[tag] = (inst_path, run_path)
    import json

    identical = (
        paths["a"][0].read_bytes() == paths["b"][0].read_bytes()
        and json.loads(paths["a"][1].read_text())["payload"]
        == json.loads(paths["b"][1].read_text())["payload"]
        and paths["a"][1].with_suffix(".csv").read_bytes()
        == paths["b"][1].with_suffix(".csv").read_bytes()
    )
    _report(7, "fitness bounds and determinism", in_range and identical,
            f"1000 fitness values in [0, 2] (max {max(values):.3f}); command re-runs byte-identical")


def test_criterion_8_cmaes_standalone():
    target = np.array([0.3, -0.2, 0.5, 0.1, -0.4])

    def sphere(x):
        return float(np.sum((x - target) ** 2))

    rng = np.random.Generator(np.random.PCG64(8))
    state = cma_init(np.zeros(5), 0.5, popsize=5)
    best = np.inf
    evals = 0
    hit = None
    best_trace = []
    pd_ok = True
    while evals < 600:
        state, step = cma_step(state, sphere, rng)
        evals += state.popsize
        best = min(best, step.fitness)
        best_trace.append(best)
        if np.linalg.eigvalsh((state.cov + state.cov.T) / 2)[0] <= 0:
            pd_ok = False
        if hit is None and best < 1e-10:
            hit = evals
    monotone = all(a >= b for a, b in zip(best_trace, best_trace[1:]))
    ok = hit is not None and monotone and pd_ok and state.repair_count == 0
    _report(8, "CMA-ES standalone", ok,
            f"sphere d=5 below 1e-10 at {hit} evaluations (budget 600); "
            f"best-so-far monotone: {monotone}; covariance PD with 0 repairs: {pd_ok}")


@pytest.mark.slow
def test_criterion_9_k3_path(heavy_runs):
    rows = {r: p["reduction_pct"] for r, p in sorted(heavy_runs["k3"].items())}
    ok = all(v > 0 for v in rows.values())
    detail = ", ".join(f"r={r}: {v:+.1f}%" for r, v in rows.items())
    _report(9, "k=3 path", ok, f"n=4, 500 generations: {detail} (want positive)")
