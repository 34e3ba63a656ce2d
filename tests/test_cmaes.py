import math

import numpy as np
import pytest

from trotteropt.cmaes import cma_init, cma_run, cma_step
from trotteropt.fitness import FitnessContext, evaluate
from trotteropt.model import ChainInstance, DecompositionSpec, TermOrdering
from trotteropt.trotter import suzuki_seed

from oracles import reference_cma_step

TARGET = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
# A fixed rotation and axis scales from 1 to 1e6.
ROTATION = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 5)))[0]
AXES = 10.0 ** (1.5 * np.arange(5))


def sphere(x):
    return float(np.sum((x - TARGET) ** 2))


def rotated_ellipsoid(x):
    return float(np.sum(AXES * (ROTATION @ (x - TARGET)) ** 2))


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
        from trotteropt.experiments import _run_settings

        assert _run_settings(2, 1, None)[1] == pytest.approx(2e-8, abs=0)

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

    def test_minus_infinity_ranked_worst(self):
        # numpy sorts nan last by itself; -inf is where ranking the raw
        # values instead of the keys would pick a diverged candidate.
        calls = []

        def objective(x):
            calls.append(x.copy())
            return -np.inf if len(calls) == 1 else sphere(x)

        state, step = cma_step(cma_init(np.zeros(5), 0.5), objective, np.random.default_rng(1))
        assert step.nonfinite == 1
        assert np.isfinite(step.fitness)
        assert not np.array_equal(step.x, calls[0])

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
                      rng=np.random.default_rng(8))
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

    def test_degenerate_step_size_refused(self):
        # Below the float spacing of the seed's largest component (1.11e-16
        # at 0.5) every candidate would round to the seed itself.
        seed = np.full(3, 0.5)
        message = ("^initial step size must be at least 1.11e-16, the float spacing of the "
                   "seed's largest component, got 1e-300$")
        with pytest.raises(ValueError, match=message):
            cma_run(seed, sphere_3d, generations=3, sigma0=1e-300, rng=np.random.default_rng(1))
        floor = np.spacing(0.5)
        with pytest.raises(ValueError, match="^initial step size must be at least"):
            cma_init(seed, floor / 2)
        assert cma_init(seed, floor).sigma == floor
        # A zero seed has no floor above the smallest positive float.
        assert cma_init(np.zeros(3), 5e-324).sigma == 5e-324

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


def _gap(a, b) -> float:
    """The largest entry of |a - b| relative to the largest entry of |b|."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


class TestTutorialReference:
    """50 generations of ``cma_step`` against ``oracles.reference_cma_step``,
    Hansen's tutorial written out on its own, both drawing the same z.

    One term differs by design: ``cma_step`` takes the weighted step as
    (new mean - old mean) / sigma, and the rank-mu update as (x - old
    mean) / sigma, from rounded candidates, where the tutorial sums the
    drawn steps. Rounding x = m + sigma y costs a few ulps of max|m|, so
    that term is about eps max|m| / sigma. On the sphere and the ellipsoid
    it stays near 1e-14 and every quantity is pinned at 1e-12. On the
    chain fitness, started at a small sigma, it sets the gap of the paths,
    of sigma (through ||p_sigma||) and of C (through the rank-mu steps), and
    through them, generations later, of the mean.
    """

    @staticmethod
    def worst_gaps(objective, seed, sigma0, generations=50):
        """The largest gap of each quantity over the generations, and the
        largest eps max|m| / sigma."""
        state = cma_init(seed, sigma0)
        m, sigma, C = np.array(seed, dtype=float), sigma0, np.eye(len(seed))
        p_sigma, p_c = np.zeros(len(seed)), np.zeros(len(seed))
        ours, theirs = np.random.default_rng(0), np.random.default_rng(0)
        gaps = dict.fromkeys(["mean", "sigma", "C", "p_sigma", "p_c"], 0.0)
        roundoff = 0.0
        for g in range(generations):
            state, _ = cma_step(state, objective, ours)
            m, sigma, C, p_sigma, p_c = reference_cma_step(m, sigma, C, p_sigma, p_c, g,
                                                           objective, theirs)
            pairs = {"mean": (state.mean, m), "sigma": (state.sigma, sigma),
                     "C": (state.cov, C), "p_sigma": (state.p_sigma, p_sigma),
                     "p_c": (state.p_cov, p_c)}
            for name, (a, b) in pairs.items():
                gaps[name] = max(gaps[name], _gap(a, b))
            roundoff = max(roundoff, np.finfo(float).eps * float(np.max(np.abs(m))) / sigma)
        # The run moved: a frozen search would pass any of the above.
        assert sigma != sigma0 and np.max(np.abs(m - np.array(seed, dtype=float))) > sigma0 / 100
        return gaps, roundoff

    @pytest.mark.parametrize("objective", [sphere, rotated_ellipsoid],
                             ids=["sphere", "rotated_ellipsoid"])
    def test_matches_the_tutorial(self, objective):
        # Worst gaps read 2.1e-13 (sphere) and 8.3e-14 (ellipsoid).
        gaps, roundoff = self.worst_gaps(objective, np.zeros(5), 0.5)
        assert roundoff < 1e-13
        assert max(gaps.values()) <= 1e-12, gaps

    @pytest.mark.parametrize("sigma0", [1e-3, 1e-5])
    def test_chain_fitness_gap_is_the_recombination_roundoff(self, sigma0):
        # At 1e-3, eps max|m| / sigma reads 1.6e-13, and the gaps of the
        # paths, C, sigma and the mean 1.3e-12, 8.8e-13, 3.1e-13 and 2.5e-14;
        # at 1e-5 the term is 100 times larger, the gaps 10 to 50. The paths add sqrt(c_sigma (2 -
        # c_sigma) mu_eff) = 1.2 of the term per generation and keep it for
        # about 1 / c_sigma = 2.7 generations: 3.4 times a few ulps of the
        # recombination. So 20 eps max|m| / sigma bounds every gap; the
        # worst ratio over 10 draws of the paths' gap to it read 7.8.
        instance = ChainInstance.random(4, np.random.default_rng(101), seed=101)
        ctx = FitnessContext.create(instance, DecompositionSpec(2, 5, TermOrdering.grouped()))
        gaps, roundoff = self.worst_gaps(lambda x: evaluate(ctx, x), suzuki_seed(2), sigma0)
        assert max(gaps.values()) <= max(1e-12, 20 * roundoff), (gaps, roundoff)


class TestMonotoneInvariance:
    """CMA-ES reads only the ranks of the fitnesses: a strictly increasing
    map of the objective that keeps the observed values distinct moves no
    candidate, mean or step size."""

    @pytest.mark.parametrize("increasing", [math.log, lambda f: f**3, math.atan],
                             ids=["log", "cube", "atan"])
    @pytest.mark.parametrize("problem", ["rosenbrock", "n4_k2_fitness"])
    def test_strictly_increasing_map_moves_nothing(self, problem, increasing):
        if problem == "rosenbrock":
            objective, seed, sigma0, generations = rosenbrock, np.zeros(5), 0.5, 150
        else:
            objective, seed, sigma0, generations = _n4_fitness(), suzuki_seed(2), 1e-3, 40
        seen = []

        def recorded(x):
            seen.append(objective(x))
            return seen[-1]

        base = cma_run(seed, recorded, generations, sigma0, np.random.default_rng(6))
        # Rounding may merge two values that the map keeps apart; none is merged here.
        assert len({increasing(f) for f in seen}) == len(set(seen))
        mapped = cma_run(seed, lambda x: increasing(objective(x)), generations, sigma0,
                         np.random.default_rng(6))
        np.testing.assert_array_equal(mapped.best_x, base.best_x)
        np.testing.assert_array_equal(mapped.final_mean, base.final_mean)
        assert [p.sigma for p in mapped.trajectory] == [p.sigma for p in base.trajectory]
        assert base.best_fitness < objective(seed)


class TestTranslationInvariance:
    """CMA-ES moves with the search space: from m0 + c on x -> f(x - c), with
    the same draws, the mean less c and the step size follow the run from m0
    on f. Not bit for bit: each candidate m + sigma y is rounded at the scale
    of |m|, so the gap grows as eps |c| / sigma. That is why the chain
    fitness starts from sigma0 = 1e-3 and not from the default 2e-8, at
    which a shift of 1 alone gives eps / 2e-8 ~ 1e-8, above the bound."""

    @pytest.mark.parametrize("shift", [0.25, 1.0, 3.0])
    @pytest.mark.parametrize("problem", ["sphere", "n4_k2_fitness"])
    def test_shifted_run_follows_the_base_run(self, problem, shift):
        if problem == "sphere":
            objective, seed, sigma0 = sphere, np.zeros(5), 0.5
        else:
            objective, seed, sigma0 = _n4_fitness(), np.array(suzuki_seed(2)), 1e-3
        base = cma_init(seed, sigma0)
        moved = cma_init(seed + shift, sigma0)
        base_rng, moved_rng = np.random.default_rng(12), np.random.default_rng(12)
        for _ in range(20):
            base, _ = cma_step(base, objective, base_rng)
            moved, _ = cma_step(moved, lambda x: objective(x - shift), moved_rng)
            assert _gap(moved.mean - shift, base.mean) <= 1e-9
            assert abs(moved.sigma - base.sigma) <= 1e-9 * base.sigma
        # The run moved: a frozen search would pass the above.
        assert objective(base.mean) < objective(seed)
