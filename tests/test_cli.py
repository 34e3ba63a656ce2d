import json

import pytest

from trotteropt.cli import main
from trotteropt.records import read_record


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

    def test_evaluate_mode_needs_record(self, tmp_path, instance_path):
        code = run([
            "sweep-r", "--instance", instance_path, "--k", "2",
            "--r-grid", "2", "--mode", "evaluate", "--out", tmp_path / "x.json",
        ])
        assert code == 1


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

    def test_perms_table(self, tmp_path, instance_path):
        out = tmp_path / "perms.json"
        code = run(["perms", "--instance", instance_path, "--k", "2",
                    "--r-grid", "2", "--n-random", "3", "--seed", "2", "--out", out])
        assert code == 0
        rows = read_record(out)["rows"]
        assert {row["ordering"] for row in rows} == {"grouped", "canonical", "random"}

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
