import importlib
import pkgutil

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
