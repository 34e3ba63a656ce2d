"""Write one workload's inputs into a directory.

    python3 perfbench/setup_inputs.py WORKLOAD SEED DIRECTORY

run.py starts this in a fresh process for every set-up sample, so the time
it measures covers interpreter start, the import of trotteropt and the
writing of the inputs through the real CLI.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from trotteropt import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    directory.mkdir(parents=True, exist_ok=True)
    WORKLOADS[name].setup(cli, seed, directory)
