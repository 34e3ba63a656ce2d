import numpy as np
import numpy.testing as npt
import pytest

from trotteropt.fitness import (
    FitnessContext,
    error_reduction_pct,
    evaluate,
    evaluate_components,
    exact_propagator,
)
from trotteropt.linalg import expm_scaled_hermitian, spectral_norm
from trotteropt.model import ChainInstance, TermOrdering, hamiltonian, ordered_terms, term_matrix
from trotteropt.trotter import CoefficientVector, DecompositionSpec, slice_phases, suzuki_seed

from sectors import dense

GROUPED = TermOrdering.grouped()


def instance(seed=1, n=3, t=1.0):
    return ChainInstance.random(n, np.random.default_rng(seed), t=t, seed=seed)


class TestExactPropagator:
    def test_zero_time_limit(self):
        # t must stay positive; a tiny t gives the identity to first order.
        inst = ChainInstance(3, (0.1, 0.2, 0.3), 1e-12)
        npt.assert_allclose(dense(exact_propagator(inst)), np.eye(8), atol=1e-10)

    def test_eigenphases(self):
        inst = ChainInstance(3, (0.0, 0.0, 0.0), 0.83)
        h = hamiltonian(inst)
        w, vecs = np.linalg.eigh(h)
        expected = (vecs * np.exp(-1j * inst.t * w)) @ vecs.conj().T
        npt.assert_allclose(dense(exact_propagator(inst)), expected, atol=1e-12)

    def test_unitarity(self):
        inst = instance(seed=7, n=4, t=8.0)
        u = dense(exact_propagator(inst))
        assert np.max(np.abs(u @ u.conj().T - np.eye(16))) <= 1e-9


class TestEvaluate:
    def test_seed_error_small_and_decreasing_at_large_r(self):
        inst = instance(seed=2, n=3, t=6.0)
        errs = []
        for r in (64, 128):
            ctx = FitnessContext.create(inst, DecompositionSpec(2, r, GROUPED))
            errs.append(evaluate(ctx, suzuki_seed(2)))
        assert errs[0] < 1e-2
        assert errs[1] < errs[0]

    def test_zero_vector_error_near_two(self):
        inst = instance(seed=3, n=3, t=6.0)
        ctx = FitnessContext.create(inst, DecompositionSpec(2, 4, GROUPED))
        value = evaluate(ctx, CoefficientVector(2, (0.0,) * 5))
        assert value == pytest.approx(spectral_norm(dense(ctx.exact) - np.eye(8)), abs=1e-12)
        assert 1.0 < value <= 2.0

    def test_range_bound(self):
        inst = instance(seed=4)
        ctx = FitnessContext.create(inst, DecompositionSpec(2, 2, GROUPED))
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = CoefficientVector(2, tuple(rng.normal(0.2, 1.0, 5)))
            assert 0.0 <= evaluate(ctx, p) <= 2.0 + 1e-12

    def test_deterministic_and_cache_independent(self):
        inst = instance(seed=5)
        spec = DecompositionSpec(2, 3, GROUPED)
        cold = evaluate(FitnessContext.create(inst, spec), suzuki_seed(2))
        ctx = FitnessContext.create(inst, spec)
        warm_first = evaluate(ctx, suzuki_seed(2))
        warm_second = evaluate(ctx, suzuki_seed(2))
        assert cold == warm_first == warm_second

    def test_nonfinite_components_raise(self):
        inst = instance(seed=6)
        ctx = FitnessContext.create(inst, DecompositionSpec(2, 2, GROUPED))
        with pytest.raises(ValueError, match="finite"):
            evaluate(ctx, CoefficientVector(2, (0.1, np.nan, 0.1, 0.1, 0.1)))
        with pytest.raises(ValueError, match="finite"):
            evaluate(ctx, CoefficientVector(2, (np.inf, 0.1, 0.1, 0.1, 0.1)))

    def test_monotone_in_r_at_full_scale(self):
        inst = instance(seed=8, n=5, t=10.0)
        errs = []
        for r in (25, 50, 75, 100, 125):
            ctx = FitnessContext.create(inst, DecompositionSpec(2, r, GROUPED))
            errs.append(evaluate(ctx, suzuki_seed(2)))
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_ordering_sensitivity(self):
        inst = instance(seed=9)
        p = suzuki_seed(2)
        spec_g = DecompositionSpec(2, 2, GROUPED)
        spec_c = DecompositionSpec(2, 2, TermOrdering.canonical())
        val_g = evaluate(FitnessContext.create(inst, spec_g), p)
        val_c = evaluate(FitnessContext.create(inst, spec_c), p)
        assert val_g != val_c

    def test_continuity_under_tiny_rescale(self):
        inst = instance(seed=10)
        ctx = FitnessContext.create(inst, DecompositionSpec(2, 2, GROUPED))
        p = np.array(suzuki_seed(2).components)
        base = evaluate_components(ctx, p)
        bumped = evaluate_components(ctx, p * (1 + 1e-9))
        assert abs(bumped - base) < 1e-6


class TestFullDimensionOracle:
    def test_n8_grouped_evaluate(self):
        # Everything at 2^8 = 256 rows: term exponentials, the slice, numpy's
        # own matrix power and its SVD-based 2-norm.
        inst = instance(seed=12, n=8, t=16.0)
        spec = DecompositionSpec(2, 125, GROUPED)
        p = suzuki_seed(2)
        terms = ordered_terms(inst, GROUPED)
        mats = [term_matrix(term, inst.n) for term in terms]
        blocks = {}
        for x in set(slice_phases(p)):
            half = [expm_scaled_hermitian(m, -0.5j * inst.t * x / spec.r) for m in mats]
            block = np.eye(2**inst.n, dtype=complex)
            for e in half + half[::-1]:
                block = block @ e
            blocks[x] = block
        step = np.eye(2**inst.n, dtype=complex)
        for x in slice_phases(p):
            step = step @ blocks[x]
        exact = expm_scaled_hermitian(sum(mats), -1j * inst.t)
        expected = np.linalg.norm(exact - np.linalg.matrix_power(step, spec.r), 2)
        got = evaluate(FitnessContext.create(inst, spec), p)
        assert abs(got - expected) <= 1e-9 * expected


class TestConcurrentEvaluate:
    def test_threaded_population_matches_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        inst = instance(seed=11)
        ctx = FitnessContext.create(inst, DecompositionSpec(2, 3, GROUPED))
        rng = np.random.default_rng(1)
        population = [
            CoefficientVector(2, tuple(rng.normal(0.2, 0.3, 5))) for _ in range(16)
        ]
        serial = [evaluate(FitnessContext.create(inst, ctx.spec), p) for p in population]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda p: evaluate(ctx, p), population))
        assert threaded == serial


class TestErrorReduction:
    def test_basic(self):
        assert error_reduction_pct(1.0, 0.4) == pytest.approx(60.0, abs=0)

    def test_no_change(self):
        assert error_reduction_pct(0.123, 0.123) == 0.0

    def test_headline_scale(self):
        assert error_reduction_pct(1e-3, 4.62e-4) == pytest.approx(53.8, abs=1e-9)

    def test_rejects_nonpositive_baseline(self):
        with pytest.raises(ValueError):
            error_reduction_pct(0.0, 0.1)
        with pytest.raises(ValueError):
            error_reduction_pct(-1.0, 0.1)
