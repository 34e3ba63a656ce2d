import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import trotteropt

MODULES = sorted(info.name for info in pkgutil.iter_modules(trotteropt.__path__))


@pytest.mark.parametrize("name", ["", *MODULES])
def test_all_names_resolve(name):
    # A stale __all__ entry breaks `from trotteropt.<module> import *` and any
    # tool that walks the public names.
    module = importlib.import_module(f"trotteropt.{name}" if name else "trotteropt")
    assert len(module.__all__) == len(set(module.__all__))
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_root_holds_only_its_version():
    # Every name is imported from its own module; the root re-exports none.
    assert trotteropt.__all__ == ["__version__"]
    assert not hasattr(trotteropt, "__getattr__")
    assert not hasattr(trotteropt, "ChainInstance")


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        trotteropt.no_such_name
    from trotteropt import experiments

    assert experiments.__name__ == "trotteropt.experiments"


# Modules of the process pool, which only `sweep-r --jobs` above 1 needs.
POOL_MODULES = ("concurrent.futures.process", "multiprocessing")


def modules_after(argv) -> list[str]:
    """Names in sys.modules after one CLI command, run in a fresh interpreter."""
    script = (
        "import json, sys\n"
        "from trotteropt import cli\n"
        f"assert cli.main({[str(a) for a in argv]!r}) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(trotteropt.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def pool_modules(modules: list[str]) -> list[str]:
    return [m for m in modules if m in POOL_MODULES or m.startswith("multiprocessing.")]


def test_generate_instance_loads_no_numerics(tmp_path):
    modules = modules_after(["generate-instance", "--n", "3", "--out", tmp_path / "inst.json"])
    package = [m for m in modules if m.split(".")[0] == "trotteropt"]
    assert package == ["trotteropt", "trotteropt.cli", "trotteropt.model", "trotteropt.records"]
    assert pool_modules(modules) == []


def test_serial_optimize_loads_no_process_pool(tmp_path):
    from trotteropt.cli import main

    instance = tmp_path / "inst.json"
    assert main(["generate-instance", "--n", "3", "--seed", "2", "--out", str(instance)]) == 0
    modules = modules_after(["optimize", "--instance", instance, "--r", "2", "--generations", "1",
                             "--out", tmp_path / "run.json"])
    assert "trotteropt.experiments" in modules
    assert pool_modules(modules) == []


def test_only_sample_loads_the_sampler(tmp_path):
    from trotteropt.cli import main

    instance = tmp_path / "inst.json"
    assert main(["generate-instance", "--n", "3", "--seed", "2", "--out", str(instance)]) == 0
    common = ["--instance", instance, "--r", "2"]
    optimize = modules_after(["optimize", *common, "--generations", "1",
                              "--out", tmp_path / "run.json"])
    sample = modules_after(["sample", *common, "--scheme", "around-suzuki", "--scales", "1e-3",
                            "--samples", "1", "--out", tmp_path / "sample.json"])
    package = [m for m in optimize if m.split(".")[0] == "trotteropt"]
    assert package == ["trotteropt", *(f"trotteropt.{name}" for name in (
        "cli", "cmaes", "experiments", "fitness", "linalg", "model", "records", "trotter"))]
    # --ordering names resolve in cli, so sample loads no experiment driver.
    assert [m for m in sample if m.split(".")[0] == "trotteropt"] == ["trotteropt", *(
        f"trotteropt.{name}" for name in (
            "cli", "fitness", "linalg", "model", "records", "sampler", "trotter"))]
