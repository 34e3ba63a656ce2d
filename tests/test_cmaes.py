import numpy as np
import pytest

from trotteropt.cmaes import cma_init, cma_run, cma_step
from trotteropt.fitness import FitnessContext, evaluate
from trotteropt.model import ChainInstance, DecompositionSpec, TermOrdering
from trotteropt.trotter import suzuki_seed

TARGET = np.array([0.3, -0.2, 0.5, 0.1, -0.4])


def sphere(x):
    return float(np.sum((x - TARGET) ** 2))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


class TestInit:
    def test_default_popsize_d5(self):
        assert cma_init(np.zeros(5), 0.5).popsize == 8

    def test_default_popsize_d10(self):
        assert cma_init(np.zeros(10), 0.5).popsize == 10

    def test_weights(self):
        state = cma_init(np.zeros(5), 0.5)
        assert state.mu == 4
        assert state.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(state.weights) < 0)
        assert np.all(state.weights > 0)

    def test_default_step_size_rule(self):
        # 1e-7 / d for the five-component vector.
        from trotteropt.experiments import default_sigma0

        assert default_sigma0(2) == pytest.approx(2e-8, abs=0)

    def test_initial_state(self):
        state = cma_init(np.full(5, 0.3), 0.25)
        np.testing.assert_array_equal(state.cov, np.eye(5))
        np.testing.assert_array_equal(state.mean, np.full(5, 0.3))
        assert state.sigma == 0.25
        assert state.generation == 0

    def test_rejects_empty_vector(self):
        with pytest.raises(ValueError):
            cma_init(np.zeros(0), 0.5)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            cma_init(np.zeros(3), 0.0)


class TestStep:
    def test_constant_objective_survives(self):
        rng = np.random.default_rng(5)
        state = cma_init(np.ones(4), 0.3)
        for _ in range(50):
            state, step = cma_step(state, lambda x: 1.0, rng)
            assert np.isfinite(state.sigma) and state.sigma > 0
            assert np.all(np.isfinite(state.cov))
        assert state.generation == 50

    def test_nonfinite_objective_ranked_worst(self):
        calls = []

        def objective(x):
            calls.append(x.copy())
            return np.nan if len(calls) == 1 else sphere(x)

        rng = np.random.default_rng(1)
        state = cma_init(np.zeros(5), 0.5)
        state, step = cma_step(state, objective, rng)
        assert step.nonfinite == 1
        assert np.isfinite(step.fitness)

    def test_covariance_stays_pd_on_sphere(self):
        rng = np.random.default_rng(2)
        state = cma_init(np.zeros(5), 0.5)
        for _ in range(120):
            state, _ = cma_step(state, sphere, rng)
            eigvals = np.linalg.eigvalsh((state.cov + state.cov.T) / 2)
            assert eigvals[0] > 0
        assert state.repair_count == 0

    def test_floored_eigenvalue_counted_and_constants_carried(self):
        state = cma_init(np.zeros(5), 0.5)
        state.cov = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])
        new, _ = cma_step(state, sphere, np.random.default_rng(3))
        assert new.repair_count == 1
        assert new.generation == 1
        for name in ("dim", "popsize", "mu", "mueff", "c_sigma", "d_sigma", "c_cov", "c1", "cmu", "chi_n"):
            assert getattr(new, name) == getattr(state, name)
        assert new.weights is state.weights


class TestRun:
    def test_sphere_convergence(self):
        res = cma_run(np.zeros(5), sphere, generations=110, sigma0=0.5,
                      rng=np.random.default_rng(8), popsize=5)
        assert res.best_fitness < 1e-10

    def test_rosenbrock_convergence(self):
        res = cma_run(np.zeros(5), rosenbrock, generations=660, sigma0=0.5, rng=np.random.default_rng(0))
        assert res.best_fitness < 1e-6
        assert res.evaluations <= 6000

    def test_trajectory_length_one(self):
        res = cma_run(np.zeros(3), sphere_3d, generations=1, sigma0=0.5, rng=np.random.default_rng(0))
        assert len(res.trajectory) == 1

    def test_best_monotone_nonincreasing(self):
        res = cma_run(np.zeros(5), sphere, generations=60, sigma0=0.5, rng=np.random.default_rng(3))
        best = [p.best_fitness for p in res.trajectory]
        assert all(a >= b for a, b in zip(best, best[1:]))

    def test_bit_identical_repeat(self):
        a = cma_run(np.zeros(5), sphere, generations=25, sigma0=0.5, rng=np.random.default_rng(99))
        b = cma_run(np.zeros(5), sphere, generations=25, sigma0=0.5, rng=np.random.default_rng(99))
        assert a.best_fitness == b.best_fitness
        np.testing.assert_array_equal(a.best_x, b.best_x)
        for pa, pb in zip(a.trajectory, b.trajectory):
            assert (pa.best_fitness, pa.centroid_fitness, pa.sigma) == (
                pb.best_fitness,
                pb.centroid_fitness,
                pb.sigma,
            )

    def test_degenerate_step_size_keeps_seed(self):
        # With sigma ~ 1e-300 every candidate rounds to the seed itself.
        seed = np.full(3, 0.5)
        res = cma_run(seed, lambda x: float(np.sum(x**2)), generations=3, sigma0=1e-300,
                      rng=np.random.default_rng(1))
        assert res.best_fitness == 0.75

    def test_best_never_worse_than_seed(self):
        res = cma_run(np.full(5, 0.2), sphere, generations=2, sigma0=1e-9, rng=np.random.default_rng(4))
        assert res.best_fitness <= sphere(np.full(5, 0.2))

    def test_rejects_zero_generations(self):
        with pytest.raises(ValueError):
            cma_run(np.zeros(3), sphere_3d, generations=0, sigma0=0.5, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("sigma0", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_step_size_that_is_not_finite_and_positive(self, sigma0):
        with pytest.raises(ValueError, match="initial step size must be finite and positive"):
            cma_init(np.zeros(3), sigma0)
        with pytest.raises(ValueError, match="initial step size must be finite and positive"):
            cma_run(np.zeros(3), sphere_3d, generations=1, sigma0=sigma0,
                    rng=np.random.default_rng(0))


def _n4_fitness():
    instance = ChainInstance.random(4, np.random.default_rng(101), seed=101)
    ctx = FitnessContext.create(instance, DecompositionSpec(2, 5, TermOrdering.grouped()))
    return lambda x: evaluate(ctx, x)


class TestScaleInvariance:
    """CMA-ES reads only the ranks of the fitnesses, and a power-of-two scale
    is exact in float64 and keeps every order and tie: the same seed must
    draw the same candidates, bit for bit."""

    @pytest.mark.parametrize("scale", [2.0, 0.25, 1024.0])
    @pytest.mark.parametrize("problem", ["rosenbrock", "n4_k2_fitness"])
    def test_power_of_two_scale_moves_nothing(self, problem, scale):
        if problem == "rosenbrock":
            objective, seed, sigma0, generations = rosenbrock, np.zeros(5), 0.5, 150
        else:
            objective, seed, sigma0, generations = _n4_fitness(), suzuki_seed(2), 1e-3, 40
        base = cma_run(seed, objective, generations, sigma0, np.random.default_rng(6))
        scaled = cma_run(seed, lambda x: scale * objective(x), generations, sigma0,
                         np.random.default_rng(6))
        np.testing.assert_array_equal(scaled.best_x, base.best_x)
        np.testing.assert_array_equal(scaled.final_mean, base.final_mean)
        assert scaled.best_fitness == scale * base.best_fitness
        assert len(scaled.trajectory) == len(base.trajectory) == generations
        for a, b in zip(scaled.trajectory, base.trajectory):
            assert a.sigma == b.sigma
            assert a.best_fitness == scale * b.best_fitness
            assert a.centroid_fitness == scale * b.centroid_fitness
        # The run moved: a frozen search would pass any of the above.
        assert base.best_fitness < objective(seed)


def sphere_3d(x):
    return float(np.sum(x**2))
