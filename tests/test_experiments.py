import numpy as np
import pytest

from trotteropt import experiments, fitness
from trotteropt.experiments import (
    baseline_report,
    default_generations,
    default_sigma0,
    generalize,
    make_ordering,
    optimize_instance,
    perms_study,
    sweep_r,
)
from trotteropt.fitness import FitnessContext, evaluate, exact_propagator
from trotteropt.model import OrderingMode, TermOrdering
from trotteropt.records import generate_instance, payload_digest
from trotteropt.trotter import DecompositionSpec, S2Evaluator, suzuki_seed

GROUPED = TermOrdering.grouped()


@pytest.fixture(scope="module")
def tiny():
    # n=3 with small r keeps every driver subsecond.
    return generate_instance(3, None, master_seed=21)


class TestDefaults:
    def test_generations(self):
        assert default_generations(2) == 250
        assert default_generations(3) == 500

    def test_sigma0(self):
        assert default_sigma0(2) == 2e-8
        assert default_sigma0(3) == 1e-8
        with pytest.raises(ValueError):
            default_sigma0(1)


class TestGenerateInstance:
    def test_deterministic(self):
        a = generate_instance(5, None, 3)
        b = generate_instance(5, None, 3)
        assert a == b

    def test_defaults_and_bounds(self):
        inst = generate_instance(5, None, 1)
        assert inst.t == 10.0
        assert all(abs(x) <= 1 for x in inst.v)
        assert generate_instance(4, 3.5, 1).t == 3.5


class TestMakeOrdering:
    def test_named(self, tiny):
        assert make_ordering("canonical", tiny, 0).mode is OrderingMode.CANONICAL
        assert make_ordering("grouped", tiny, 0).mode is OrderingMode.GROUPED

    def test_random_is_seeded(self, tiny):
        a = make_ordering("random", tiny, 5)
        b = make_ordering("random", tiny, 5)
        c = make_ordering("random", tiny, 6)
        assert a == b
        assert a != c
        assert sorted(a.permutation) == list(range(12))

    def test_unknown_name(self, tiny):
        with pytest.raises(ValueError):
            make_ordering("sorted", tiny, 0)


class TestBaselineReport:
    def test_gate_columns(self, tiny):
        payload = baseline_report(tiny, DecompositionSpec(2, 5, GROUPED))
        assert payload["unmerged_gates"] == 2 * 12 * 5 * 5
        m = 5 * 5
        assert payload["merged_gates"] == (5 * m + 1) * 3
        assert 0 < payload["error"] < 2


class TestOptimize:
    def test_record_invariants(self, tiny):
        spec = DecompositionSpec(2, 2, GROUPED)
        payload = optimize_instance(tiny, spec, generations=4, sigma0=2e-8, master_seed=7)
        assert payload["error_final"] <= payload["error_initial"]
        expected_pct = 100 * (payload["error_initial"] - payload["error_final"]) / payload["error_initial"]
        assert payload["reduction_pct"] == pytest.approx(expected_pct, abs=1e-9)
        assert len(payload["trajectory"]) == 4
        best = [row[1] for row in payload["trajectory"]]
        assert all(a >= b for a, b in zip(best, best[1:]))
        # 1 seed eval + per generation popsize + centroid
        assert payload["evaluations"] == 1 + 4 * (8 + 1)

    def test_deterministic_payload(self, tiny):
        spec = DecompositionSpec(2, 2, GROUPED)
        a = optimize_instance(tiny, spec, 3, 2e-8, master_seed=9)
        b = optimize_instance(tiny, spec, 3, 2e-8, master_seed=9)
        assert payload_digest(a) == payload_digest(b)

    def test_rejects_zero_generations(self, tiny):
        with pytest.raises(ValueError):
            optimize_instance(tiny, DecompositionSpec(2, 2, GROUPED), 0, 2e-8, 0)


class TestSweepR:
    def test_baseline_monotone(self, tiny):
        payload = sweep_r(tiny, 2, [2, 4, 8, 16], GROUPED, mode="baseline")
        errs = [row["baseline_error"] for row in payload["rows"]]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_threshold_readout(self, tiny):
        payload = sweep_r(tiny, 2, [2, 4, 8, 16], GROUPED, mode="baseline", threshold=1e-2)
        rows = {row["r"]: row["baseline_error"] for row in payload["rows"]}
        expected = next((r for r in sorted(rows) if rows[r] < 1e-2), None)
        assert payload["baseline_r_at_threshold"] == expected

    def test_evaluate_mode(self, tiny):
        p = list(np.array([0.41, 0.41, -0.64, 0.41, 0.41]))
        payload = sweep_r(tiny, 2, [2, 4], GROUPED, mode="evaluate", p_fixed=p)
        for row in payload["rows"]:
            assert "optimized_error" in row and "reduction_pct" in row

    @pytest.mark.parametrize("mode,p_fixed", [("baseline", None), ("evaluate", [])])
    def test_k1_needs_no_optimizer_defaults(self, tiny, mode, p_fixed):
        # k = 1 has no coefficients to optimize, which only optimize mode needs.
        payload = sweep_r(tiny, 1, [2, 4], GROUPED, mode=mode, p_fixed=p_fixed)
        assert [row["r"] for row in payload["rows"]] == [2, 4]
        with pytest.raises(ValueError, match="k = 1 has no coefficients to optimize"):
            sweep_r(tiny, 1, [2, 4], GROUPED, mode="optimize")

    def test_optimize_mode_parallel_matches_serial(self, tiny):
        kwargs = dict(mode="optimize", generations=2, sigma0=2e-8, master_seed=5)
        serial = sweep_r(tiny, 2, [2, 3], GROUPED, jobs=1, **kwargs)
        parallel = sweep_r(tiny, 2, [2, 3], GROUPED, jobs=2, **kwargs)
        assert payload_digest(serial) == payload_digest(parallel)

    def test_optimize_cell_scores_on_one_context(self, tiny, monkeypatch):
        # A cell's baseline, its CMA-ES run and the run's seed score share one
        # context: one propagator and one evaluator per cell, and still
        # 3 + G(lambda + 1) evaluations (lambda = 8 at k=2).
        calls = dict.fromkeys(["create", "exact", "evaluator", "evaluate"], 0)

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(FitnessContext, "create",
                            classmethod(counting("create", FitnessContext.create.__func__)))
        monkeypatch.setattr(fitness, "exact_propagator", counting("exact", exact_propagator))
        monkeypatch.setattr(S2Evaluator, "__init__", counting("evaluator", S2Evaluator.__init__))
        monkeypatch.setattr(experiments, "evaluate", counting("evaluate", evaluate))
        generations, cells = 2, 2
        sweep_r(tiny, 2, [2, 3], GROUPED, mode="optimize", generations=generations, sigma0=2e-8,
                jobs=1)
        assert calls == {"create": cells, "exact": cells, "evaluator": cells,
                         "evaluate": cells * (3 + generations * (8 + 1))}

    def test_empty_grid_rejected(self, tiny):
        with pytest.raises(ValueError):
            sweep_r(tiny, 2, [], GROUPED)

    def test_non_increasing_grid_rejected(self, tiny):
        with pytest.raises(ValueError):
            sweep_r(tiny, 2, [4, 2], GROUPED)


class TestPmap:
    @pytest.fixture()
    def pools(self, monkeypatch):
        """Replaces the process pool with a serial one that records its
        worker count, so no process is started."""
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        return started

    @pytest.mark.parametrize("jobs,items,workers", [(64, 2, [2]), (2, 4, [2]), (3, 3, [3]), (8, 1, [])])
    def test_no_more_workers_than_items(self, pools, jobs, items, workers):
        assert experiments.pmap(str, range(items), jobs) == [str(i) for i in range(items)]
        assert pools == workers

    def test_oversubscribed_sweep_matches_serial(self, tiny, pools):
        serial = sweep_r(tiny, 2, [2, 3], GROUPED, mode="baseline")
        wide = sweep_r(tiny, 2, [2, 3], GROUPED, mode="baseline", jobs=64)
        assert pools == [2]
        assert payload_digest(wide) == payload_digest(serial)


@pytest.fixture(scope="module")
def tiny_run(tiny):
    return optimize_instance(tiny, DecompositionSpec(2, 2, GROUPED), 3, 2e-8, master_seed=13)


class TestGeneralize:
    def test_axis_v(self, tiny_run):
        payload = generalize(tiny_run, "v", [4])
        assert len(payload["rows"]) == 4
        for row in payload["rows"]:
            assert row["baseline_error"] > 0

    def test_axis_v_deterministic(self, tiny_run):
        assert payload_digest(generalize(tiny_run, "v", [3])) == payload_digest(
            generalize(tiny_run, "v", [3])
        )

    def test_axis_n_appends_disorder(self, tiny_run):
        payload = generalize(tiny_run, "n", [4, 5])
        assert [row["value"] for row in payload["rows"]] == [4.0, 5.0]

    def test_axis_n_rejects_explicit_ordering_before_any_work(self, tiny_run, monkeypatch):
        run = dict(tiny_run, spec=dict(tiny_run["spec"], ordering={
            "mode": "explicit", "permutation": list(range(12))[::-1]}))
        calls = []
        monkeypatch.setattr(experiments, "exact_propagator", calls.append)
        with pytest.raises(ValueError, match="explicit term ordering"):
            generalize(run, "n", [4, 5])
        assert calls == []

    @pytest.mark.parametrize("count", [0, -2])
    def test_axis_v_rejects_count_below_one(self, tiny_run, count):
        with pytest.raises(ValueError, match="count must be >= 1"):
            generalize(tiny_run, "v", [count])

    @pytest.mark.parametrize("grid", [[5, 7], [1, 2, 3], []])
    def test_axis_v_takes_one_count_before_any_work(self, tiny_run, monkeypatch, grid):
        calls = []
        monkeypatch.setattr(experiments, "exact_propagator", calls.append)
        monkeypatch.setattr(fitness, "exact_propagator", calls.append)
        with pytest.raises(ValueError, match=f"axis=v takes a single hold-out count, got {len(grid)} values"):
            generalize(tiny_run, "v", grid)
        assert calls == []

    def test_axis_n_cap(self, tiny_run):
        with pytest.raises(ValueError, match="cap"):
            generalize(tiny_run, "n", [9])
        with pytest.raises(ValueError, match="exceed"):
            generalize(tiny_run, "n", [3])

    def test_axis_t_and_r(self, tiny_run):
        t_rows = generalize(tiny_run, "t", [4.0, 8.0])["rows"]
        assert [row["value"] for row in t_rows] == [4.0, 8.0]
        r_rows = generalize(tiny_run, "r", [2, 4])["rows"]
        assert [row["value"] for row in r_rows] == [2.0, 4.0]
        # At the training r the optimized error matches the record.
        train = next(row for row in r_rows if row["value"] == 2.0)
        assert train["optimized_error"] == pytest.approx(tiny_run["error_final"], abs=1e-15)

    def test_axis_r_builds_one_propagator(self, tiny, tiny_run, monkeypatch):
        calls = []

        def counting(instance):
            calls.append(instance)
            return exact_propagator(instance)

        monkeypatch.setattr(experiments, "exact_propagator", counting)
        monkeypatch.setattr(fitness, "exact_propagator", counting)
        rows = generalize(tiny_run, "r", [1, 2, 3, 5])["rows"]
        assert calls == [tiny]
        # Same errors, bit for bit, as contexts that build their own propagator.
        monkeypatch.undo()
        p_opt = tiny_run["p_final"]
        for row in rows:
            ctx = FitnessContext.create(tiny, DecompositionSpec(2, int(row["value"]), GROUPED))
            assert row["baseline_error"] == evaluate(ctx, suzuki_seed(2))
            assert row["optimized_error"] == evaluate(ctx, p_opt)

    @pytest.mark.parametrize("axis,grid", [("v", [2.7]), ("n", [4, 4.5]), ("r", [5.5, 7.9]),
                                           ("r", [float("inf")]), ("n", [float("nan")])])
    def test_integer_axes_reject_fractions_before_any_work(self, tiny_run, monkeypatch, axis, grid):
        calls = []
        monkeypatch.setattr(experiments, "exact_propagator", calls.append)
        monkeypatch.setattr(fitness, "exact_propagator", calls.append)
        with pytest.raises(ValueError, match=f"axis={axis} grid values must be integers"):
            generalize(tiny_run, axis, grid)
        assert calls == []

    def test_integral_floats_accepted(self, tiny_run):
        assert payload_digest(generalize(tiny_run, "r", [2.0, 3.0])) == payload_digest(
            generalize(tiny_run, "r", [2, 3]))
        assert len(generalize(tiny_run, "t", [2.5])["rows"]) == 1

    def test_unknown_axis(self, tiny_run):
        with pytest.raises(ValueError):
            generalize(tiny_run, "q", [1])


class TestPerms:
    def test_table_shape_and_bounds(self, tiny):
        payload = perms_study(tiny, 2, [2, 4], n_random=5, master_seed=3)
        rows = payload["rows"]
        assert len(rows) == 6  # 3 orderings x 2 r values
        by_key = {(row["ordering"], row["r"]): row for row in rows}
        for r in (2, 4):
            grouped = by_key[("grouped", r)]
            canonical = by_key[("canonical", r)]
            rand = by_key[("random", r)]
            m = 5 * r
            assert grouped["merged_gates"] == (5 * m + 1) * 3
            assert canonical["merged_gates"] <= canonical["unmerged_gates"]
            assert grouped["merged_gates"] <= rand["merged_gates"] <= rand["unmerged_gates"]
            for row in (grouped, canonical, rand):
                assert 0 < row["error"] <= 2

    def test_deterministic(self, tiny):
        a = perms_study(tiny, 2, [2], n_random=3, master_seed=8)
        b = perms_study(tiny, 2, [2], n_random=3, master_seed=8)
        assert payload_digest(a) == payload_digest(b)

    def test_zero_random_rejected_before_any_work(self, tiny, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "exact_propagator", calls.append)
        with pytest.raises(ValueError, match="n_random must be >= 1"):
            perms_study(tiny, 2, [2], n_random=0, master_seed=8)
        assert calls == []

    @pytest.mark.parametrize("r_grid", [[2], [2, 3, 5, 8]])
    def test_one_evaluator_per_ordering(self, tiny, monkeypatch, r_grid):
        built = []
        init = S2Evaluator.__init__
        monkeypatch.setattr(S2Evaluator, "__init__",
                            lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
        payload = perms_study(tiny, 2, r_grid, n_random=4, master_seed=8)
        assert len(built) == 2 + 4
        monkeypatch.undo()
        # The shared evaluator scores each r bit for bit as a fresh context does.
        orderings = {"grouped": GROUPED, "canonical": TermOrdering.canonical()}
        for row in payload["rows"]:
            if row["ordering"] in orderings:
                ctx = FitnessContext.create(tiny, DecompositionSpec(2, row["r"], orderings[row["ordering"]]))
                assert row["error"] == evaluate(ctx, suzuki_seed(2))

    def test_exact_propagator_built_once(self, tiny, monkeypatch):
        calls = []

        def counting(instance):
            calls.append(instance)
            return exact_propagator(instance)

        monkeypatch.setattr(experiments, "exact_propagator", counting)
        monkeypatch.setattr(fitness, "exact_propagator", counting)
        payload = perms_study(tiny, 2, [2, 3], n_random=3, master_seed=8)
        assert calls == [tiny]
        # Same errors, bit for bit, as contexts that build their own propagator.
        monkeypatch.undo()
        for row in payload["rows"]:
            if row["ordering"] != "random":
                ordering = make_ordering(row["ordering"], tiny, 0)
                ctx = FitnessContext.create(tiny, DecompositionSpec(2, row["r"], ordering))
                assert row["error"] == evaluate(ctx, suzuki_seed(2))
