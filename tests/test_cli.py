import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trotteropt
from trotteropt.cli import build_parser, main
from trotteropt.records import read_record, write_record


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "inst.json"
    assert main(["generate-instance", "--n", "3", "--seed", "4", "--out", str(path)]) == 0
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestGenerateInstance:
    def test_writes_schema(self, instance_path):
        data = json.loads(instance_path.read_text())
        assert data["n"] == 3
        assert data["t"] == 6.0
        assert len(data["v"]) == 3

    def test_byte_identical_rerun(self, tmp_path, instance_path):
        other = tmp_path / "again.json"
        run(["generate-instance", "--n", "3", "--seed", "4", "--out", other])
        assert other.read_bytes() == instance_path.read_bytes()

    def test_rejects_bad_n(self, tmp_path, capsys):
        code = run(["generate-instance", "--n", "2", "--seed", "0", "--out", tmp_path / "x.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestBaseline:
    def test_prints_summary(self, instance_path, capsys):
        assert run(["baseline", "--instance", instance_path, "--k", "2", "--r", "4"]) == 0
        out = capsys.readouterr().out
        assert "baseline error" in out and "merged" in out

    def test_record_out(self, tmp_path, instance_path):
        out = tmp_path / "base.json"
        run(["baseline", "--instance", instance_path, "--k", "2", "--r", "4", "--out", out])
        payload = read_record(out)
        assert payload["command"] == "baseline"
        assert out.with_suffix(".csv").exists()


class TestOptimize:
    def test_run_and_artifacts(self, tmp_path, instance_path):
        out = tmp_path / "run.json"
        code = run([
            "optimize", "--instance", instance_path, "--k", "2", "--r", "2",
            "--generations", "3", "--seed", "5", "--out", out,
        ])
        assert code == 0
        payload = read_record(out)
        assert payload["error_final"] <= payload["error_initial"]
        csv_lines = out.with_suffix(".csv").read_text().splitlines()
        assert csv_lines[0] == "generation,best_fitness,centroid_fitness,sigma,nonfinite"
        assert len(csv_lines) == 4

    def test_payload_byte_identical_rerun(self, tmp_path, instance_path):
        args = ["optimize", "--instance", instance_path, "--k", "2", "--r", "2",
                "--generations", "2", "--seed", "5"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(args + ["--out", a])
        run(args + ["--out", b])
        pa, pb = json.loads(a.read_text()), json.loads(b.read_text())
        assert pa["payload"] == pb["payload"]
        assert pa["meta"]["payload_sha256"] == pb["meta"]["payload_sha256"]
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()

    @pytest.mark.parametrize("flag", ["--generations", "--sigma0"])
    def test_zero_is_rejected_not_defaulted(self, tmp_path, instance_path, capsys, flag):
        out = tmp_path / "run.json"
        code = run([
            "optimize", "--instance", instance_path, "--k", "2", "--r", "2",
            flag, "0", "--seed", "5", "--out", out,
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("sigma0", ["inf", "nan"])
    def test_bad_step_size_fails_before_any_work(self, tmp_path, instance_path, capsys,
                                                 no_work, sigma0):
        out = tmp_path / "run.json"
        code = run([
            "optimize", "--instance", instance_path, "--k", "2", "--r", "2",
            "--sigma0", sigma0, "--generations", "2", "--seed", "5", "--out", out,
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: initial step size must be finite and positive, got {float(sigma0)}\n")
        assert not out.exists()

    def test_k1_with_step_size_fails_before_any_work(self, tmp_path, instance_path, capsys,
                                                     no_work):
        out = tmp_path / "run.json"
        code = run([
            "optimize", "--instance", instance_path, "--k", "1", "--r", "2",
            "--sigma0", "1e-3", "--generations", "2", "--out", out,
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: k = 1 has no coefficients to optimize\n"
        assert not out.exists()


class TestWrongInstance:
    """An --instance file that holds no instance object is refused by name,
    before any work starts."""

    @pytest.mark.parametrize("content", ["optimize_record", "list"])
    def test_refused_before_any_work(self, tmp_path, capsys, no_work, content):
        path = tmp_path / "not_an_instance.json"
        if content == "list":
            path.write_text("[3, 4]\n")
        else:
            write_record(path, {"command": "optimize", "p_final": [0.1] * 5})
        code = run(["baseline", "--instance", path, "--k", "2", "--r", "2"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path} is not an instance file: it is not an object with n, v and t\n")

    @pytest.mark.parametrize("field,value,message", [
        ("n", 3.7, "instance n must be an integer, got 3.7"),
        ("v", None, "instance v must be a list of numbers, got None"),
        ("t", None, "instance t must be a number, got None"),
        ("v", [0.1, True, 0.3], "instance v must be a list of numbers, got [0.1, True, 0.3]"),
        ("seed", "x", "instance seed must be an integer, got 'x'"),
        ("seed", 2.5, "instance seed must be an integer, got 2.5"),
        ("seed", -1, "instance seed must be a non-negative integer, got -1"),
    ])
    def test_wrong_field_refused_by_name(self, tmp_path, capsys, no_work, field, value, message):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"n": 3, "v": [0.1, 0.2, 0.3], "t": 6.0, field: value}))
        assert run(["baseline", "--instance", path, "--k", "2", "--r", "2"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_record_instance_with_wrong_field(self, tmp_path, capsys, no_work):
        record = tmp_path / "run.json"
        write_record(record, {"command": "optimize", "seed": 0, "p_final": [0.1] * 5,
                              "spec": {"k": 2, "r": 2, "ordering": {"mode": "grouped"}},
                              "instance": {"n": 3, "v": None, "t": 6.0}})
        out = tmp_path / "out.json"
        assert run(["generalize", "--record", record, "--axis", "v", "--grid", "1",
                    "--out", out]) == 1
        assert capsys.readouterr().err == "error: instance v must be a list of numbers, got None\n"
        assert not out.exists()


@pytest.fixture()
def no_work(monkeypatch):
    """Fails the test if a command starts scoring, builds a propagator or
    fans out."""
    from trotteropt import experiments
    from trotteropt.fitness import FitnessContext

    def started(*_args, **_kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(FitnessContext, "create", started)
    monkeypatch.setattr(experiments, "exact_propagator", started)
    monkeypatch.setattr(experiments, "pmap", started)


class TestSample:
    def test_csv_columns(self, tmp_path, instance_path):
        out = tmp_path / "s.json"
        code = run([
            "sample", "--instance", instance_path, "--k", "2", "--r", "2",
            "--scheme", "around-suzuki", "--scales", "1e-8,1e-4",
            "--samples", "4", "--seed", "1", "--out", out,
        ])
        assert code == 0
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[0] == "scale,mean_fitness,min_fitness,max_fitness"
        assert len(lines) == 3

    @pytest.mark.parametrize("scales", ["1e-4,inf", "nan", "0", "--scales=-1e-3", ","])
    def test_bad_scales_fail_before_any_work(self, tmp_path, instance_path, capsys, no_work, scales):
        out = tmp_path / "s.json"
        scale_args = [scales] if scales.startswith("--") else ["--scales", scales]
        code = run([
            "sample", "--instance", instance_path, "--k", "2", "--r", "2",
            "--scheme", "around-suzuki", *scale_args, "--samples", "4", "--seed", "1", "--out", out,
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: standard deviations must be finite and positive\n"
        assert not out.exists()


class TestSweepR:
    def test_threshold_summary(self, tmp_path, instance_path, capsys):
        out = tmp_path / "sweep.json"
        code = run([
            "sweep-r", "--instance", instance_path, "--k", "2",
            "--r-grid", "2,4,8", "--threshold", "0.05", "--out", out,
        ])
        assert code == 0
        assert "threshold" in capsys.readouterr().out
        payload = read_record(out)
        assert [row["r"] for row in payload["rows"]] == [2, 4, 8]

    @pytest.mark.parametrize("argv,message", [
        (["--threshold", "nan"], "threshold must be finite, got nan"),
        (["--threshold", "inf"], "threshold must be finite, got inf"),
        (["--threshold=-inf"], "threshold must be finite, got -inf"),
        (["--jobs", "0"], "jobs must be >= 1, got 0"),
        (["--jobs", "-3"], "jobs must be >= 1, got -3"),
        (["--mode", "optimize", "--sigma0", "inf"],
         "initial step size must be finite and positive, got inf"),
        (["--mode", "optimize", "--sigma0", "0", "--jobs", "2"],
         "initial step size must be finite and positive, got 0.0"),
        (["--mode", "optimize", "--generations", "0", "--jobs", "2"], "generations must be >= 1"),
        (["--r-grid", "0"], "r grid values must be >= 1, got 0"),
        (["--r-grid", "4,4"], "r grid must be strictly increasing"),
        (["--r-grid", "4,2"], "r grid must be strictly increasing"),
        (["--mode", "optimize", "--k", "1", "--sigma0", "1e-3"],
         "k = 1 has no coefficients to optimize"),
    ])
    def test_bad_arguments_fail_before_any_work(self, tmp_path, instance_path, capsys,
                                                no_work, argv, message):
        out = tmp_path / "sweep.json"
        code = run(["sweep-r", "--instance", instance_path, "--k", "2", "--r-grid", "2,4",
                    "--generations", "2", *argv, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_evaluate_mode_checks_the_vector_before_any_work(self, tmp_path, instance_path,
                                                             capsys, no_work):
        record, out = tmp_path / "run.json", tmp_path / "sweep.json"
        write_record(record, {"command": "optimize", "p_final": [0.1, 0.2, 0.3, 0.2, 0.1]})
        code = run(["sweep-r", "--instance", instance_path, "--k", "3", "--r-grid", "2,4",
                    "--mode", "evaluate", "--record", record, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == "error: k=3 needs 10 components, got 5\n"
        assert not out.exists()

    def test_evaluate_mode_needs_record(self, tmp_path, instance_path):
        code = run([
            "sweep-r", "--instance", instance_path, "--k", "2",
            "--r-grid", "2", "--mode", "evaluate", "--out", tmp_path / "x.json",
        ])
        assert code == 1

    def test_k1_baseline_sweep_matches_baseline(self, tmp_path, instance_path):
        # k = 1 has nothing to optimize, but its baseline sweeps like any k.
        out, base = tmp_path / "sweep.json", tmp_path / "base.json"
        assert run(["sweep-r", "--instance", instance_path, "--k", "1", "--r-grid", "2,4",
                    "--out", out]) == 0
        assert run(["baseline", "--instance", instance_path, "--k", "1", "--r", "2",
                    "--out", base]) == 0
        rows = read_record(out)["rows"]
        assert [row["r"] for row in rows] == [2, 4]
        assert rows[0]["baseline_error"] == read_record(base)["error"]


MISSING = object()


class TestWrongRecord:
    """A --record that is not an optimize record, or that holds a malformed
    field, is refused by name, before any work starts."""

    @pytest.fixture()
    def perms_record(self, tmp_path):
        path = tmp_path / "perms.json"
        write_record(path, {"command": "perms", "rows": []})
        return path

    @pytest.fixture(params=["sweep-r", "generalize"])
    def argv(self, request, instance_path):
        if request.param == "sweep-r":
            return ["sweep-r", "--instance", instance_path, "--mode", "evaluate",
                    "--r-grid", "2,4"]
        return ["generalize", "--axis", "v", "--grid", "1"]

    def test_instance_file(self, tmp_path, instance_path, capsys, no_work, argv):
        out = tmp_path / "out.json"
        assert run([*argv, "--record", instance_path, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {instance_path} is not a record: it has no payload\n")
        assert not out.exists()

    def test_record_of_another_command(self, tmp_path, perms_record, capsys, no_work, argv):
        out = tmp_path / "out.json"
        assert run([*argv, "--record", perms_record, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: record {perms_record} comes from perms, not from optimize\n")
        assert not out.exists()

    @staticmethod
    def optimize_record(path, **fields):
        """A digest-valid optimize record of an n=3, k=2 run; a field given as
        ``MISSING`` is left out."""
        payload = {"command": "optimize", "seed": 0, "p_final": [0.1] * 5,
                   "spec": {"k": 2, "r": 2, "ordering": {"mode": "grouped"}},
                   "instance": {"n": 3, "v": [0.1, 0.2, 0.3], "t": 6.0}, **fields}
        write_record(path, {key: value for key, value in payload.items() if value is not MISSING})
        return path

    def test_record_without_p_final(self, tmp_path, capsys, no_work, argv):
        record = self.optimize_record(tmp_path / "run.json", p_final=MISSING)
        out = tmp_path / "out.json"
        assert run([*argv, "--record", record, "--out", out]) == 1
        assert capsys.readouterr().err == "error: optimize record has no p_final\n"
        assert not out.exists()

    @pytest.mark.parametrize("p_final", [
        {"a": 1}, "abc", ["a", 0.1, 0.1, 0.1, 0.1], None, [True] * 5,
    ], ids=["object", "string", "string_entry", "null", "booleans"])
    def test_p_final_that_is_not_a_list_of_numbers(self, tmp_path, capsys, no_work, argv,
                                                   p_final):
        record = self.optimize_record(tmp_path / "run.json", p_final=p_final)
        out = tmp_path / "out.json"
        assert run([*argv, "--record", record, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: optimize record p_final must be a list of numbers, got {p_final!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("fields,message", [
        ({"seed": None}, "record seed must be an integer, got None"),
        ({"seed": 3.7}, "record seed must be an integer, got 3.7"),
        ({"seed": -1}, "record seed must be a non-negative integer, got -1"),
        ({"spec": {"k": 2, "r": 2, "ordering": None}}, "ordering must be an object, got None"),
        ({"spec": {"k": 2, "r": 2, "ordering": {"mode": "explicit", "permutation": None}}},
         "ordering permutation must be a list of integers, got None"),
        ({"instance": [1, 2]}, "instance must be an object, got [1, 2]"),
        ({"spec": MISSING}, "optimize record has no spec"),
        ({"spec": {"k": 2, "r": 2, "ordering": {"mode": "zigzag"}}},
         "ordering mode must be one of canonical, grouped, explicit, got 'zigzag'"),
        ({"spec": {"k": 2, "r": 2, "ordering": {"mode": ["grouped"]}}},
         "ordering mode must be one of canonical, grouped, explicit, got ['grouped']"),
        ({"instance": {"n": 3, "v": [0.1, 0.2, 0.3], "t": 6.0, "seed": "x"}},
         "instance seed must be an integer, got 'x'"),
        ({"instance": {"n": 3, "v": [0.1, 0.2, 0.3], "t": 6.0, "seed": -4}},
         "instance seed must be a non-negative integer, got -4"),
    ], ids=["seed_null", "seed_fraction", "seed_negative", "ordering_null", "permutation_null",
            "instance_list", "spec_missing", "mode_unknown", "mode_list", "instance_seed_string",
            "instance_seed_negative"])
    def test_malformed_field_is_refused_by_name(self, tmp_path, capsys, no_work, fields, message):
        record = self.optimize_record(tmp_path / "run.json", **fields)
        out = tmp_path / "out.json"
        assert run(["generalize", "--record", record, "--axis", "v", "--grid", "1",
                    "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_integral_float_seed_reads_as_count(self, tmp_path):
        rows = []
        for seed in (3, 3.0):
            record = self.optimize_record(tmp_path / "run.json", seed=seed)
            out = tmp_path / "out.json"
            assert run(["generalize", "--record", record, "--axis", "v", "--grid", "1",
                        "--out", out]) == 0
            rows.append(read_record(out)["rows"])
        assert rows[0] == rows[1]


class TestGeneralizeAndPerms:
    def test_generalize_from_record(self, tmp_path, instance_path):
        record = tmp_path / "run.json"
        run(["optimize", "--instance", instance_path, "--k", "2", "--r", "2",
             "--generations", "2", "--seed", "3", "--out", record])
        out = tmp_path / "gen.json"
        code = run(["generalize", "--record", record, "--axis", "r", "--grid", "2,3", "--out", out])
        assert code == 0
        payload = read_record(out)
        assert [row["value"] for row in payload["rows"]] == [2.0, 3.0]

    def test_generalize_n_rejects_random_ordering_record(self, tmp_path, capsys):
        instance = tmp_path / "inst4.json"
        run(["generate-instance", "--n", "4", "--seed", "4", "--out", instance])
        record = tmp_path / "run.json"
        run(["optimize", "--instance", instance, "--k", "2", "--r", "2", "--ordering", "random",
             "--generations", "2", "--seed", "3", "--out", record])
        capsys.readouterr()
        out = tmp_path / "gen.json"
        code = run(["generalize", "--record", record, "--axis", "n", "--grid", "5,6", "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: axis=n cannot extend an explicit term ordering to more sites")
        assert "bijection" not in err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_generalize_v_rejects_count_below_one(self, tmp_path, instance_path, capsys, count):
        record = tmp_path / "run.json"
        run(["optimize", "--instance", instance_path, "--k", "2", "--r", "2",
             "--generations", "2", "--seed", "3", "--out", record])
        capsys.readouterr()
        out = tmp_path / "gen.json"
        code = run(["generalize", "--record", record, "--axis", "v", "--grid", count, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == "error: axis=v hold-out count must be >= 1\n"
        assert not out.exists()

    def test_generalize_v_rejects_several_counts(self, tmp_path, instance_path, capsys):
        record = tmp_path / "run.json"
        run(["optimize", "--instance", instance_path, "--k", "2", "--r", "2",
             "--generations", "2", "--seed", "3", "--out", record])
        capsys.readouterr()
        out = tmp_path / "gen.json"
        code = run(["generalize", "--record", record, "--axis", "v", "--grid", "5,7", "--out", out])
        assert code == 1
        assert capsys.readouterr().err == "error: axis=v takes a single hold-out count, got 2 values\n"
        assert not out.exists()

    @pytest.mark.parametrize("axis,grid", [("v", "2.7"), ("n", "4.5"), ("r", "5.5,7.9")])
    def test_generalize_rejects_fractional_grid_on_integer_axes(self, tmp_path, instance_path,
                                                               capsys, axis, grid):
        record = tmp_path / "run.json"
        run(["optimize", "--instance", instance_path, "--k", "2", "--r", "2",
             "--generations", "2", "--seed", "3", "--out", record])
        capsys.readouterr()
        out = tmp_path / "gen.json"
        code = run(["generalize", "--record", record, "--axis", axis, "--grid", grid, "--out", out])
        assert code == 1
        bad = grid.split(",")[0]
        assert capsys.readouterr().err == f"error: axis={axis} grid values must be integers, got {bad}\n"
        assert not out.exists()

    @pytest.mark.parametrize("axis,grid,message", [
        ("r", "3,3", "axis=r grid must be strictly increasing"),
        ("r", "5,3", "axis=r grid must be strictly increasing"),
        ("t", "2,2", "axis=t grid must be strictly increasing"),
        ("n", "5,4", "axis=n grid must be strictly increasing"),
        ("n", "4,4", "axis=n grid must be strictly increasing"),
        ("t", ",", "axis=t grid must be non-empty"),
    ])
    def test_generalize_checks_the_grid_before_any_work(self, tmp_path, instance_path, capsys,
                                                        request, axis, grid, message):
        record = tmp_path / "run.json"
        run(["optimize", "--instance", instance_path, "--k", "2", "--r", "2",
             "--generations", "2", "--seed", "3", "--out", record])
        capsys.readouterr()
        request.getfixturevalue("no_work")
        out = tmp_path / "gen.json"
        code = run(["generalize", "--record", record, "--axis", axis, "--grid", grid, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_perms_table(self, tmp_path, instance_path):
        out = tmp_path / "perms.json"
        code = run(["perms", "--instance", instance_path, "--k", "2",
                    "--r-grid", "2", "--n-random", "3", "--seed", "2", "--out", out])
        assert code == 0
        rows = read_record(out)["rows"]
        assert {row["ordering"] for row in rows} == {"grouped", "canonical", "random"}

    @pytest.mark.parametrize("grid,message", [
        ("0", "r grid values must be >= 1, got 0"),
        ("3,3", "r grid must be strictly increasing"),
        ("5,3", "r grid must be strictly increasing"),
    ])
    def test_perms_checks_the_r_grid_before_any_work(self, tmp_path, instance_path, capsys,
                                                     no_work, grid, message):
        out = tmp_path / "perms.json"
        code = run(["perms", "--instance", instance_path, "--k", "2",
                    "--r-grid", grid, "--n-random", "3", "--seed", "2", "--out", out])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_perms_rejects_zero_random(self, tmp_path, instance_path, capsys):
        out = tmp_path / "perms.json"
        code = run(["perms", "--instance", instance_path, "--k", "2",
                    "--r-grid", "2", "--n-random", "0", "--seed", "2", "--out", out])
        assert code == 1
        assert capsys.readouterr().err == "error: n_random must be >= 1\n"
        assert not out.exists()


class TestErrors:
    def test_missing_instance_file(self, tmp_path):
        assert run(["baseline", "--instance", tmp_path / "nope.json", "--k", "2", "--r", "2"]) == 1

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def fresh_cli(warnings: str, argv) -> subprocess.CompletedProcess:
    """One CLI command in a fresh interpreter under ``-W warnings``."""
    env = dict(os.environ, PYTHONPATH=str(Path(trotteropt.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-W", warnings, "-m", "trotteropt.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120)


def run_fresh(tmp_path, warnings: str, argv) -> subprocess.CompletedProcess:
    """One CLI command on an n=4 instance, in a fresh interpreter under
    ``-W warnings``, writing to ``tmp_path / "out.json"``."""
    instance = tmp_path / "n4.json"
    assert run(["generate-instance", "--n", "4", "--seed", "1", "--out", instance]) == 0
    return fresh_cli(warnings, [*argv, "--instance", instance, "--out", tmp_path / "out.json"])


class TestResourceBounds:
    """A size that the chain or the spec caps is refused by name, with one
    error line and no traceback, before anything of that size is built."""

    def test_chain_above_the_cap(self, tmp_path):
        out = tmp_path / "out.json"
        done = fresh_cli("error", ["generate-instance", "--n", "40", "--out", out])
        assert (done.returncode, done.stderr) == (1, "error: chain n must be at most 12, got 40\n")
        assert not out.exists()
        # An instance file above the cap, written by hand, is refused on loading.
        instance = tmp_path / "n40.json"
        instance.write_text(json.dumps({"n": 40, "v": [0.0] * 40, "t": 80.0, "seed": 1}))
        done = fresh_cli("error", ["baseline", "--instance", instance, "--r", "1", "--out", out])
        assert (done.returncode, done.stderr) == (1, "error: chain n must be at most 12, got 40\n")
        assert not out.exists()

    def test_k_above_the_phase_cap(self, tmp_path):
        done = run_fresh(tmp_path, "error", ["baseline", "--k", "12", "--r", "1"])
        assert (done.returncode, done.stderr) == (
            1, "error: k=12 needs 5^11 S2 phases per slice, more than 100,000\n")
        assert not (tmp_path / "out.json").exists()

    def test_n_cap_above_the_chain_cap(self, tmp_path, instance_path):
        record, out = tmp_path / "run.json", tmp_path / "out.json"
        assert run(["optimize", "--instance", instance_path, "--r", "2", "--generations", "1",
                    "--out", record]) == 0
        done = fresh_cli("error", ["generalize", "--record", record, "--axis", "n", "--grid", "13",
                                   "--n-cap", "13", "--out", out])
        assert (done.returncode, done.stderr) == (1, "error: --n-cap must be at most 12, got 13\n")
        assert not out.exists()


class TestOverflowingCoefficients:
    """Coefficients that overflow (a sampling scale or a step size far too
    large) end a command with one error line: no numpy warning, and no
    traceback when warnings are errors."""

    @pytest.mark.parametrize("warnings,argv", [
        ("default", ["sample", "--k", "3", "--r", "25", "--scheme", "around-suzuki",
                     "--scales", "1e200", "--samples", "2"]),
        ("error", ["sample", "--k", "3", "--r", "25", "--scheme", "around-suzuki",
                   "--scales", "1e200", "--samples", "2"]),
        ("error", ["optimize", "--r", "2", "--generations", "40", "--sigma0", "1e307"]),
    ])
    def test_refused_with_one_error_line(self, tmp_path, warnings, argv):
        # Finite coefficients whose S2 exponents overflow.
        done = run_fresh(tmp_path, warnings, argv)
        assert done.returncode == 1
        assert done.stderr == "error: coefficient vector overflows the S2 exponents\n"
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("warnings", ["default", "error"])
    @pytest.mark.parametrize("argv", [
        ["optimize", "--r", "2", "--generations", "40", "--sigma0", "1e308"],
        ["sample", "--k", "2", "--r", "2", "--scheme", "around-suzuki", "--scales", "1e308"],
    ], ids=["optimize", "sample"])
    def test_overflowing_draw_refused_with_one_error_line(self, tmp_path, warnings, argv):
        # The draw itself overflows to non-finite components.
        done = run_fresh(tmp_path, warnings, argv)
        assert done.returncode == 1
        assert done.stderr == "error: coefficient vector has non-finite components\n"
        assert not (tmp_path / "out.json").exists()


# Each command that takes --seed, with its other arguments; "{instance}" is
# an instance path. baseline runs both with and without a drawn ordering.
SEEDED = {
    "generate-instance": ["--n", "3"],
    "baseline": ["--instance", "{instance}", "--k", "2", "--r", "2"],
    "baseline-random": ["--instance", "{instance}", "--k", "2", "--r", "2", "--ordering", "random"],
    "optimize": ["--instance", "{instance}", "--k", "2", "--r", "2", "--generations", "2"],
    "sample": ["--instance", "{instance}", "--k", "2", "--r", "2", "--scheme", "around-suzuki",
               "--scales", "1e-3", "--samples", "2"],
    "sweep-r": ["--instance", "{instance}", "--k", "2", "--r-grid", "2", "--mode", "optimize",
                "--generations", "2"],
    "perms": ["--instance", "{instance}", "--k", "2", "--r-grid", "2", "--n-random", "2"],
}


class TestNegativeSeed:
    def test_every_seeded_command_is_covered(self):
        (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        seeded = {name for name, parser in commands.choices.items()
                  if any("--seed" in a.option_strings for a in parser._actions)}
        assert seeded == {name.removesuffix("-random") for name in SEEDED}

    @pytest.mark.parametrize("command", sorted(SEEDED))
    def test_refused_by_name_before_any_work(self, tmp_path, instance_path, capsys, no_work,
                                             monkeypatch, command):
        from trotteropt import cli

        def started(*_args, **_kwargs):
            raise AssertionError("work started before the seed was checked")

        monkeypatch.setattr(cli, "generate_instance", started)
        monkeypatch.setattr(cli, "load_instance", started)
        out = tmp_path / "out.json"
        args = [arg.format(instance=instance_path) for arg in SEEDED[command]]
        code = run([command.removesuffix("-random"), *args, "--seed", "-1", "--out", out])
        assert code == 1
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
        assert not out.exists()


def _option(command: str, flag: str) -> argparse.Action:
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return next(a for a in commands.choices[command]._actions if flag in a.option_strings)


class TestParser:
    def test_scheme_choices_are_the_sampling_schemes(self):
        from trotteropt.sampler import SCHEMES

        assert tuple(_option("sample", "--scheme").choices) == SCHEMES

    def test_omitted_defaults_resolve_behind_the_handlers(self, tmp_path, instance_path,
                                                          monkeypatch, capsys):
        # The parser leaves --scales and --n-cap unset, so that it needs no
        # numerics; the handlers pass None on to sampler and experiments.
        from trotteropt import experiments, sampler
        from trotteropt.sampler import DEFAULT_SCALES

        seen = {}

        def spy(module, name):
            real = getattr(module, name)

            def record_call(*args, **kwargs):
                seen.setdefault(name, []).append((args, kwargs))
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, record_call)

        spy(sampler, "sampling_report")
        spy(experiments, "generalize")
        sample = tmp_path / "s.json"
        assert run(["sample", "--instance", instance_path, "--k", "2", "--r", "2",
                    "--scheme", "around-suzuki", "--samples", "1", "--out", sample]) == 0
        assert seen["sampling_report"][0][0][3] is None
        assert tuple(row["scale"] for row in read_record(sample)["rows"]) == DEFAULT_SCALES

        record, out = tmp_path / "run.json", tmp_path / "g.json"
        assert run(["optimize", "--instance", instance_path, "--r", "2", "--generations", "1",
                    "--out", record]) == 0
        assert run(["generalize", "--record", record, "--axis", "n", "--grid", "8",
                    "--out", out]) == 0
        assert [row["value"] for row in read_record(out)["rows"]] == [8.0]
        capsys.readouterr()
        assert run(["generalize", "--record", record, "--axis", "n", "--grid", "9",
                    "--out", out]) == 1
        assert capsys.readouterr().err == "error: axis=n capped at 8 (override with --n-cap)\n"
        assert [kwargs["n_cap"] for _, kwargs in seen["generalize"]] == [None, None]

    def test_a_command_leaves_no_argparse_garbage(self, tmp_path):
        # Built per call, the parser would be cyclic garbage that only the
        # collector frees; built once per process, a command leaves none.
        assert build_parser() is build_parser()
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert run(["generate-instance", "--n", "3", "--out", tmp_path / "inst.json"]) == 0
            gc.collect()
            leaked = [type(obj).__name__ for obj in gc.garbage if type(obj).__module__ == "argparse"]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert leaked == []
