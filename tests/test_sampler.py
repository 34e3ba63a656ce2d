import numpy as np
import pytest

from trotteropt.fitness import FitnessContext, evaluate
from trotteropt.model import ChainInstance, DecompositionSpec, TermOrdering
from trotteropt.sampler import DEFAULT_SCALES, SAMPLE_DRAW_BYTES_CAP, sampling_report
from trotteropt.trotter import suzuki_seed

GROUPED = TermOrdering.grouped()


def sample(instance, scheme, scales, seed=0, samples=20, k=2, r=4):
    """The payload's rows."""
    spec = DecompositionSpec(k, r, GROUPED)
    return sampling_report(instance, spec, scheme, scales, samples, seed)["rows"]


@pytest.fixture(scope="module")
def small_instance():
    return ChainInstance.random(3, np.random.default_rng(11), seed=11)


@pytest.fixture()
def no_work(monkeypatch):
    """Fails the test if sampling starts scoring."""

    def started(*_args, **_kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(FitnessContext, "create", started)


class TestPlanValidation:
    def test_rejects_nonpositive_scale(self, small_instance, no_work):
        with pytest.raises(ValueError):
            sample(small_instance, "around-suzuki", [0.0])

    @pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan, -0.1])
    def test_rejects_non_finite_scale(self, small_instance, no_work, scale):
        with pytest.raises(ValueError, match="standard deviations must be finite and positive"):
            sample(small_instance, "around-suzuki", [0.1, scale])

    def test_rejects_zero_samples(self, small_instance, no_work):
        with pytest.raises(ValueError):
            sample(small_instance, "around-suzuki", [0.1], samples=0)

    def test_rejects_samples_whose_draws_pass_the_bound(self, small_instance, no_work):
        # At k=2 (d = 5) a scale's draws take 40 bytes per sample.
        most = SAMPLE_DRAW_BYTES_CAP // 40
        with pytest.raises(ValueError, match=f"^samples per scale must be at most {most:,} at k=2 "
                                             rf"\(64 MiB of draws\), got {most + 1:,}$"):
            sample(small_instance, "around-suzuki", [0.1], samples=most + 1)
        with pytest.raises(AssertionError, match="work started"):  # the bound itself passes
            sample(small_instance, "around-suzuki", [0.1], samples=most)

    def test_rejects_k1(self, small_instance, no_work):
        with pytest.raises(ValueError):
            sample(small_instance, "around-suzuki", [0.1], k=1)

    @pytest.mark.parametrize("scheme", ["around-centre", "AROUND_SUZUKI", "uniform"])
    def test_rejects_unknown_scheme(self, small_instance, no_work, scheme):
        with pytest.raises(ValueError, match=f"^unknown sampling scheme {scheme!r}$"):
            sample(small_instance, scheme, [0.1])

    def test_default_scales_span_decades(self):
        assert DEFAULT_SCALES[0] == 1e-9
        assert DEFAULT_SCALES[-1] == 1.0
        assert len(DEFAULT_SCALES) == 10


class TestRunSampling:
    def test_degenerate_scale_reproduces_center_fitness(self, small_instance):
        # At scale 1e-300 the draws round to the centre exactly.
        (row,) = sample(small_instance, "around-suzuki", [1e-300], samples=5)
        ctx = FitnessContext.create(small_instance, DecompositionSpec(2, 4, GROUPED))
        seed_fit = evaluate(ctx, suzuki_seed(2))
        assert row == {"scale": 1e-300, "mean_fitness": seed_fit,
                       "min_fitness": seed_fit, "max_fitness": seed_fit}

    def test_all_fitness_in_range(self, small_instance):
        for row in sample(small_instance, "around-uniform", [1e-4, 1e-2, 1.0], seed=1, samples=30):
            assert 0.0 <= row["min_fitness"] <= row["mean_fitness"] <= row["max_fitness"] <= 2.0 + 1e-12

    def test_deterministic(self, small_instance):
        a = sample(small_instance, "around-suzuki", [1e-6, 1e-3], seed=42, samples=10)
        b = sample(small_instance, "around-suzuki", [1e-6, 1e-3], seed=42, samples=10)
        assert a == b

    def test_suzuki_neighbourhood_degrades_with_scale(self, small_instance):
        rows = sample(small_instance, "around-suzuki", [1e-8, 1e-6, 1e-4, 1e-2], seed=7, samples=40)
        means = [row["mean_fitness"] for row in rows]
        # Non-decreasing on average: the seed sits in a locally good region.
        assert means[-1] > means[0]
        assert np.mean(np.diff(means) >= 0) >= 0.5

    def test_uniform_center_value(self, small_instance):
        # Centre of the around-uniform scheme is 1/d per component (0.2 at k=2);
        # at that exact point the decomposition equals plain second-order
        # slicing with 5r slices.
        spec = DecompositionSpec(2, 4, GROUPED)
        ctx = FitnessContext.create(small_instance, spec)
        center_fit = evaluate(ctx, (0.2,) * 5)
        plain_spec = DecompositionSpec(1, 20, GROUPED)
        plain_ctx = FitnessContext.create(small_instance, plain_spec)
        plain_fit = evaluate(plain_ctx, suzuki_seed(1))
        assert center_fit == pytest.approx(plain_fit, abs=1e-12)


@pytest.mark.slow
class TestFullScale:
    def test_large_scale_uniform_sampling_is_near_worst(self):
        inst = ChainInstance.random(5, np.random.default_rng(12), seed=12)
        (row,) = sample(inst, "around-uniform", [1.0], seed=3, samples=100, r=125)
        assert abs(row["mean_fitness"] - 2.0) <= 0.2
