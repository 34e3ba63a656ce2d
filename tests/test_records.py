import json

import numpy as np
import pytest

from trotteropt.model import ChainInstance
from trotteropt.records import (
    canonical_json,
    derive_generator,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    payload_digest,
    read_record,
    save_instance,
    write_csv,
    write_record,
)


class TestSeeding:
    def test_streams_reproducible(self):
        a = derive_generator(7, 2, 1).standard_normal(4)
        b = derive_generator(7, 2, 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent_by_key(self):
        a = derive_generator(7, 2, 1).standard_normal(4)
        b = derive_generator(7, 2, 2).standard_normal(4)
        assert not np.array_equal(a, b)


class TestRecords:
    def test_roundtrip(self, tmp_path):
        payload = {"command": "baseline", "error": 0.123, "rows": [1, 2, 3]}
        path = tmp_path / "rec.json"
        write_record(path, payload)
        assert read_record(path) == payload

    def test_digest_detects_corruption(self, tmp_path):
        path = tmp_path / "rec.json"
        write_record(path, {"x": 1})
        record = json.loads(path.read_text())
        record["payload"]["x"] = 2
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="digest"):
            read_record(path)

    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert payload_digest({"b": 1, "a": 2}) == payload_digest({"a": 2, "b": 1})

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2.5], [3, "x"]])
        assert path.read_text() == "a,b\n1,2.5\n3,x\n"


class TestCrashSafeWrites:
    def test_nan_payload_keeps_old_record(self, tmp_path):
        path = tmp_path / "rec.json"
        write_record(path, {"error": 0.5})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_record(path, {"error": float("nan")})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rec.json"]

    def test_csv_failing_partway_keeps_old_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [[1], [2]])
        before = path.read_bytes()

        def rows():
            yield [3]
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            write_csv(path, ["a"], rows())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_new_file_in_new_directory(self, tmp_path):
        path = tmp_path / "sub" / "inst.json"
        save_instance(path, ChainInstance(3, (0.25, -0.5, 0.75), 6.0, seed=9))
        assert load_instance(path).seed == 9
        assert sorted(p.name for p in path.parent.iterdir()) == ["inst.json"]


class TestInstanceIO:
    def test_roundtrip_preserves_doubles(self, tmp_path):
        inst = ChainInstance.random(4, np.random.default_rng(5), seed=5)
        path = tmp_path / "inst.json"
        save_instance(path, inst)
        loaded = load_instance(path)
        assert loaded == inst  # exact float round-trip via repr

    def test_schema(self, tmp_path):
        inst = ChainInstance(3, (0.25, -0.5, 0.75), 6.0, seed=9)
        path = tmp_path / "inst.json"
        save_instance(path, inst)
        data = json.loads(path.read_text())
        assert set(data) == {"n", "v", "t", "seed"}
        assert data["n"] == 3 and data["t"] == 6.0 and data["seed"] == 9
        assert data["v"] == [0.25, -0.5, 0.75]

    def test_dict_roundtrip(self):
        inst = ChainInstance(3, (0.1, 0.2, 0.3), 2.0)
        assert instance_from_dict(instance_to_dict(inst)) == inst
