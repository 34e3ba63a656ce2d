"""Self-checks of the benchmark's tracer.

Span counts must equal the counts the command payloads imply, self times
must add up to the root span, and every module that looks up a wrapped
function must see the wrapper.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import tracing  # noqa: E402
from trotteropt import cli, experiments, fitness, sampler, trotter  # noqa: E402
from workloads import LAMBDA  # noqa: E402

# Names bound by `from .x import y`: each must be patched where it is looked up.
IMPORTED_BY_NAME = {
    "experiments": (experiments, "evaluate"),
    "sampler": (sampler, "evaluate"),
    "trotter": (trotter, "matrix_power"),
    "fitness": (fitness, "spectral_norm"),
}


def traced(argv):
    with tracing.Tracer() as tracer:
        assert cli.main(argv) == 0
        spans = tracer.take()
    return tracing.aggregate(spans), spans


def assert_self_times_add_up(stats, spans):
    root = sum(s[tracing.END] - s[tracing.START] for s in spans if s[tracing.PARENT] < 0)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(root, rel=1e-9)


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs") / "chain.json"
    assert cli.main(["generate-instance", "--n", "4", "--seed", "3", "--out", str(path)]) == 0
    return path


def test_every_lookup_sees_the_wrapper():
    originals = {name: getattr(module, attr) for name, (module, attr) in IMPORTED_BY_NAME.items()}
    with tracing.Tracer() as tracer:
        assert tracer.unpatched_lookups() == []
        for name, (module, attr) in IMPORTED_BY_NAME.items():
            assert getattr(module, attr) is not originals[name]
            assert getattr(module, attr).__wrapped__ is originals[name]
    for name, (module, attr) in IMPORTED_BY_NAME.items():
        assert getattr(module, attr) is originals[name]


def test_optimize_counts_match_payload(chain, tmp_path):
    generations = 3
    out = tmp_path / "run.json"
    stats, spans = traced(["optimize", "--instance", str(chain), "--k", "2", "--r", "4",
                           "--generations", str(generations), "--seed", "1", "--out", str(out)])
    payload = json.loads(out.read_text())["payload"]
    assert payload["evaluations"] == 1 + generations * (LAMBDA + 1)
    assert stats["fitness.evaluate"].calls == payload["evaluations"] + 1
    assert stats["cmaes.cma_step"].calls == generations
    assert stats["trotter.S2Evaluator.s2"].calls == 5 * stats["fitness.evaluate"].calls
    assert stats["cli.main"].calls == 1
    assert_self_times_add_up(stats, spans)


def test_perms_counts_match_payload(chain, tmp_path):
    out = tmp_path / "perms.json"
    r_grid, n_random = (2, 3), 20
    stats, spans = traced(["perms", "--instance", str(chain), "--k", "2",
                           "--r-grid", ",".join(map(str, r_grid)),
                           "--n-random", str(n_random), "--seed", "1", "--out", str(out)])
    contexts = (2 + n_random) * len(r_grid)
    assert stats["model.merged_gate_count"].calls == contexts
    assert stats["fitness.FitnessContext.create"].calls == contexts
    assert stats["fitness.evaluate"].calls == contexts
    # The Suzuki seed (p, p, 1-4p, p, p) has two distinct phases per evaluator.
    assert stats["trotter.S2Evaluator.s2"].distinct == 2 * contexts
    assert_self_times_add_up(stats, spans)


def test_worker_spans_come_back_to_the_parent(chain, tmp_path):
    out = tmp_path / "sweep.json"
    generations, r_grid = 2, (2, 3)
    stats, _ = traced(["sweep-r", "--instance", str(chain), "--k", "2",
                       "--r-grid", ",".join(map(str, r_grid)), "--mode", "optimize",
                       "--generations", str(generations), "--seed", "1", "--jobs", "2",
                       "--out", str(out)])
    per_cell = 3 + generations * (LAMBDA + 1)
    assert stats["fitness.evaluate"].calls == per_cell * len(r_grid)
    assert stats[tracing.TASK_SPAN].calls == len(r_grid)
    assert stats["experiments.pmap"].capacity_s == pytest.approx(
        2 * stats["experiments.pmap"].total_s)


def test_a_missed_binding_is_caught(chain, tmp_path):
    out = tmp_path / "run.json"
    with tracing.Tracer() as tracer:
        # Wrapped where it is defined, but looked up unwrapped by the caller.
        experiments.evaluate = fitness.evaluate.__wrapped__
        assert tracer.unpatched_lookups() == ["trotteropt.experiments.evaluate"]
        assert cli.main(["optimize", "--instance", str(chain), "--k", "2", "--r", "4",
                         "--generations", "1", "--seed", "1", "--out", str(out)]) == 0
        stats = tracing.aggregate(tracer.take())
    payload = json.loads(out.read_text())["payload"]
    assert stats["fitness.evaluate"].calls != payload["evaluations"] + 1
    assert experiments.evaluate is fitness.evaluate


def test_self_time_subtracts_the_union_of_parallel_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["child", 1.0, 4.0, 0, None],
        ["child", 2.0, 6.0, 0, None],  # overlaps the first, as pool workers do
        ["child", 8.0, 9.0, 0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 3.0, 4.0, 1.0])
