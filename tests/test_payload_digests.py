"""The payload digests of ``scripts/payload_digests.py`` against the golden
lines of ``tests/golden/``.

Last bits of a payload can differ on another numpy, BLAS build or CPU, so the
lines are compared only where the fingerprint kept beside them matches this
one; elsewhere the test skips and names the field that differs. A change
meant to move a payload rewrites both files with
``python3 scripts/payload_digests.py --update-golden``.
"""

import difflib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "payload_digests.py"


def load_script():
    spec = importlib.util.spec_from_file_location("payload_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_payload_digests_match_the_golden_lines():
    script = load_script()
    golden = json.loads(script.GOLDEN_FINGERPRINT.read_text(encoding="utf-8"))
    here = script.fingerprint()
    for field in sorted(golden.keys() | here.keys()):
        if golden.get(field) != here.get(field):
            pytest.skip(f"fingerprint differs in {field}: golden {golden.get(field)!r}, "
                        f"here {here.get(field)!r}")
    done = subprocess.run([sys.executable, "-W", "error", str(SCRIPT)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    expected = script.GOLDEN_LINES.read_text(encoding="utf-8").splitlines()
    got = done.stdout.splitlines()
    assert got == expected, "\n".join(
        difflib.unified_diff(expected, got, "golden", "this tree", lineterm=""))
