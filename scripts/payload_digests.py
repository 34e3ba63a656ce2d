#!/usr/bin/env python3
"""Payload digests of a fixed set of trotteropt commands.

    python3 scripts/payload_digests.py

Runs each command of ``COMMANDS`` in-process through ``trotteropt.cli.main``,
against the ``src/`` tree beside this script, with every file written to a
temporary directory that is removed afterwards. Prints one line per output
file, ``name sha256[:16]``: the stored payload digest of a record, or the
digest of the file's bytes for an instance. Then, so that those lines stay
comparable with older trees, one ``name.csv sha256[:16]`` line per CSV twin,
the digest of its bytes. ``LATER_COMMANDS``, ``DEFAULT_COMMANDS``,
``EXPLICIT_RECORD_COMMANDS`` and ``RUN_RULE_COMMANDS`` follow in the same
way, each after all of the lines before it. Two trees whose outputs agree
print the same lines, so a change meant to keep every output can be checked
with ``diff`` against the lines of its parent commit.

BLAS runs on one thread unless the environment already sets a count, so
``OPENBLAS_NUM_THREADS=2 python3 scripts/payload_digests.py`` checks that
the outputs do not depend on the thread count.

The lines of the current tree are kept in ``tests/golden/``, beside the
fingerprint of the numerics that printed them (``fingerprint``), and
``tests/test_payload_digests.py`` checks them. After a change meant to move
a payload,

    python3 scripts/payload_digests.py --update-golden

prints the lines and rewrites both files.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_LINES = ROOT / "tests" / "golden" / "payload_digests.txt"
GOLDEN_FINGERPRINT = ROOT / "tests" / "golden" / "payload_digests_fingerprint.json"

# (name, argv) in run order; "{dir}" is the temporary directory, and each
# command writes "{dir}/<name>.json". Later commands read earlier outputs.
COMMANDS = [
    ("instance_n4", ["generate-instance", "--n", "4", "--seed", "41"]),
    ("instance_n5", ["generate-instance", "--n", "5", "--seed", "51"]),
    ("instance_n8", ["generate-instance", "--n", "8", "--seed", "81"]),
    *[
        (f"baseline_n5_k2_{ordering}",
         ["baseline", "--instance", "{dir}/instance_n5.json", "--k", "2", "--r", "125",
          "--ordering", ordering])
        for ordering in ("grouped", "canonical", "random")
    ],
    ("baseline_n5_k3", ["baseline", "--instance", "{dir}/instance_n5.json", "--k", "3",
                        "--r", "7"]),
    ("baseline_n8", ["baseline", "--instance", "{dir}/instance_n8.json", "--r", "25"]),
    ("optimize_n5", ["optimize", "--instance", "{dir}/instance_n5.json", "--r", "125",
                     "--generations", "5"]),
    ("optimize_n4_random", ["optimize", "--instance", "{dir}/instance_n4.json", "--r", "25",
                            "--ordering", "random", "--generations", "5"]),
    ("perms_n5", ["perms", "--instance", "{dir}/instance_n5.json", "--r-grid", "25,125",
                  "--n-random", "3"]),
    ("perms_n4_k3", ["perms", "--instance", "{dir}/instance_n4.json", "--k", "3",
                     "--r-grid", "3,7", "--n-random", "3"]),
    ("generalize_v", ["generalize", "--record", "{dir}/optimize_n5.json", "--axis", "v",
                      "--grid", "2"]),
    ("generalize_n", ["generalize", "--record", "{dir}/optimize_n5.json", "--axis", "n",
                      "--grid", "6,7"]),
    ("sweep_r_jobs2", ["sweep-r", "--instance", "{dir}/instance_n5.json", "--r-grid", "25,50",
                       "--mode", "optimize", "--generations", "3", "--jobs", "2"]),
    ("sample_n5", ["sample", "--instance", "{dir}/instance_n5.json", "--r", "25",
                   "--scheme", "around-suzuki", "--scales", "1e-6,1e-3", "--samples", "4"]),
    # Serial paths that score a stored or drawn vector, after the first 16
    # so that those lines stay comparable with older trees.
    ("sweep_r_evaluate", ["sweep-r", "--instance", "{dir}/instance_n5.json", "--r-grid", "25,50",
                          "--mode", "evaluate", "--record", "{dir}/optimize_n5.json",
                          "--jobs", "1"]),
    ("generalize_r", ["generalize", "--record", "{dir}/optimize_n5.json", "--axis", "r",
                      "--grid", "25,50"]),
    ("generalize_t", ["generalize", "--record", "{dir}/optimize_n5.json", "--axis", "t",
                      "--grid", "5,15"]),
    ("sample_n5_uniform", ["sample", "--instance", "{dir}/instance_n5.json", "--r", "25",
                           "--scheme", "around-uniform", "--scales", "1e-6,1e-3",
                           "--samples", "4"]),
]

# Printed after every line of COMMANDS, so that those lines stay comparable
# with older trees: both sides of the S2 stack bound, an optimize at n=6
# (grouped, two phases per stack) and a canonical baseline at n=7 (one phase
# per stack), with their instances; then sweep_r_jobs2 run serially, whose
# record must have sweep_r_jobs2's digest.
LATER_COMMANDS = [
    ("instance_n6", ["generate-instance", "--n", "6", "--seed", "61"]),
    ("instance_n7", ["generate-instance", "--n", "7", "--seed", "71"]),
    ("optimize_n6", ["optimize", "--instance", "{dir}/instance_n6.json", "--r", "25",
                     "--generations", "5"]),
    ("baseline_n7_canonical", ["baseline", "--instance", "{dir}/instance_n7.json", "--r", "25",
                               "--ordering", "canonical"]),
    ("sweep_r_jobs1", ["sweep-r", "--instance", "{dir}/instance_n5.json", "--r-grid", "25,50",
                       "--mode", "optimize", "--generations", "3", "--jobs", "1"]),
]

# Printed last, after the 45 lines above: a command that leaves out an option
# whose default the command's module fills (``sample`` without --scales). The
# other commands already leave out --sigma0 and --n-cap.
DEFAULT_COMMANDS = [
    ("sample_n4_default_scales", ["sample", "--instance", "{dir}/instance_n4.json", "--r", "2",
                                  "--scheme", "around-suzuki", "--samples", "2"]),
]

# Printed after the 47 lines above: a record with an explicit permutation
# (random ordering), read back through ``DecompositionSpec.from_dict`` and
# scored by ``generalize``.
EXPLICIT_RECORD_COMMANDS = [
    ("generalize_r_random", ["generalize", "--record", "{dir}/optimize_n4_random.json",
                             "--axis", "r", "--grid", "25,50"]),
]

# Printed after the 49 lines above: an optimize at k = 3, which takes k = 3's
# default step size (1e-8), and a sample with a drawn --ordering, which cli
# resolves without loading the experiment drivers.
RUN_RULE_COMMANDS = [
    ("optimize_n4_k3", ["optimize", "--instance", "{dir}/instance_n4.json", "--k", "3",
                        "--r", "5", "--generations", "3"]),
    ("sample_n4_random", ["sample", "--instance", "{dir}/instance_n4.json", "--r", "2",
                          "--ordering", "random", "--scheme", "around-suzuki",
                          "--scales", "1e-3", "--samples", "2"]),
]


def fingerprint() -> dict:
    """What the last bits of the payloads depend on besides the tree: the
    numpy version, numpy's BLAS build (its build-time directories left
    out), the machine type and the CPU model."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    return {
        "numpy": np.__version__,
        "blas": {key: value for key, value in blas.items() if not key.endswith("directory")},
        "machine": platform.machine(),
        "cpu": cpu,
    }


def file_digest(path: Path) -> str:
    record = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(record, dict) and "payload" in record:
        return record["meta"]["payload_sha256"]
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(commands, tmp: str, lines: list) -> bool:
    """Runs the commands in order and prints their lines, then their CSV
    lines, adding each to ``lines``; False after the first command that
    fails."""
    from trotteropt import cli

    def emit(line: str) -> None:
        print(line, flush=True)
        lines.append(line)

    for name, argv in commands:
        argv = [arg.format(dir=tmp) for arg in argv] + ["--out", f"{tmp}/{name}.json"]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            print(f"{name} failed with exit status {status}", file=sys.stderr)
            return False
        emit(f"{name} {file_digest(Path(tmp) / f'{name}.json')[:16]}")
    for name, _ in commands:
        csv = Path(tmp) / f"{name}.csv"
        if csv.exists():
            emit(f"{name}.csv {hashlib.sha256(csv.read_bytes()).hexdigest()[:16]}")
    return True


def main(argv: list) -> int:
    if argv not in ([], ["--update-golden"]):
        print("usage: payload_digests.py [--update-golden]", file=sys.stderr)
        return 2
    # One BLAS thread by default, as in the benchmark, set before numpy is
    # first imported; an inherited count is kept.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    lines: list = []
    with tempfile.TemporaryDirectory(prefix="payload_digests_") as tmp:
        groups = (COMMANDS, LATER_COMMANDS, DEFAULT_COMMANDS, EXPLICIT_RECORD_COMMANDS,
                  RUN_RULE_COMMANDS)
        ok = all(run(group, tmp, lines) for group in groups)
    if ok and argv:
        GOLDEN_LINES.parent.mkdir(exist_ok=True)
        GOLDEN_LINES.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        GOLDEN_FINGERPRINT.write_text(json.dumps(fingerprint(), indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
