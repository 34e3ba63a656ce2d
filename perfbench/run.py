#!/usr/bin/env python3
"""Benchmark of trotteropt's command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives ``trotteropt.cli.main`` in-process as a closed loop with one client:
each command starts when the previous one has returned. Inputs are made from
``--seed`` in fresh set-up processes, and the program sees only those files.
With ``--trace 0`` the loop runs untraced and the last line of stdout carries
the end-to-end metrics; with ``--trace 1`` every other command is traced and
the last line carries the per-layer metrics. Outputs are checked after the loop, outside the timed calls. See
README.md in this directory for the workloads and metrics.
"""

import os

# Pin BLAS to one thread per process before numpy is first imported here, in
# the set-up processes or in pool workers, which all inherit the environment.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120


@dataclass
class Command:
    input_index: int
    traced: bool
    wall_s: float
    problems: list = field(default_factory=list)
    digest: str | None = None
    evaluations: int = 0
    reduction: float | None = None
    bytes_written: int = 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else float("nan")


def digest(payload) -> str:
    """SHA-256 of the canonical payload encoding (FORMATS.md), computed here."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- set-up ------------------------------------------------------------------


def set_up(workload: str, seed: int, workdir: Path) -> tuple[list[float], Path]:
    """Make the inputs SETUP_SAMPLES times, each in a fresh process; returns
    the wall time of each and the directory of the first."""
    samples = []
    for i in range(SETUP_SAMPLES):
        directory = workdir / f"setup_{i}"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"), workload, str(seed), str(directory)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S,
        )
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return samples, workdir / "setup_0"


# -- the closed loop -----------------------------------------------------------


def run_command(cli, workload, inputs, seed, index, out_dir, tracer):
    i = index % workload.inputs
    out = out_dir / f"out_{i}.json"
    for stale in (out, out.with_suffix(".csv")):
        stale.unlink(missing_ok=True)
    argv = workload.argv(inputs[i], i, seed, out)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            status = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    spans = tracer.take() if tracer else None
    command = Command(i, tracer is not None, wall)
    if status != 0:
        command.problems.append(f"exit status {status}")
        return command, None, spans
    try:
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
        payload = record["payload"]
        command.digest = digest(payload)
        if record["meta"]["payload_sha256"] != command.digest:
            command.problems.append("stored payload_sha256 does not match the payload")
        command.problems += workload.check(payload)
        command.evaluations = workload.evaluations(payload)
        command.reduction = workload.reduction(payload)
        command.bytes_written = out.stat().st_size + out.with_suffix(".csv").stat().st_size
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        command.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return command, None, spans
    return command, payload, spans


def closed_loop(cli, workload, inputs, seed, seconds, trace, out_dir):
    """Run commands until time is up; returns (commands, the first command
    with an output and its payload, layer stats of the traced commands,
    problems of the run)."""
    commands, first, stats, problems = [], None, None, []
    tracer = tracing.Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    # Every input runs at least once and one input twice, so that
    # reduction_pct covers every input and digests can be compared.
    while time.perf_counter() < deadline or len(commands) <= workload.inputs:
        index = len(commands)
        # With tracing, every other command is traced, so traced and untraced
        # commands see the same machine conditions; the pattern shifts by one
        # each cycle, so every input also runs both ways.
        traced = trace and (index + index // workload.inputs) % 2 == 1
        if traced:
            tracer.install()
            problems += [f"not traced: {name}" for name in tracer.unpatched_lookups()]
        try:
            command, payload, spans = run_command(
                cli, workload, inputs, seed, index, out_dir, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        commands.append(command)
        if first is None and payload is not None:
            first = command, payload
        if spans is not None:
            stats = tracing.aggregate(spans, stats)
    return commands, first, stats or {}, sorted(set(problems))


def check_run(cli, workload, inputs, seed, out_dir, commands, first) -> list[str]:
    """Checks over the whole run; marks the commands they fail on."""
    import oracle

    by_input: dict[int, set] = {}
    for c in commands:
        if c.digest is not None:
            by_input.setdefault(c.input_index, set()).add(c.digest)
    for c in commands:
        if len(by_input.get(c.input_index, ())) > 1:
            c.problems.append("payload differs between runs of the same input")
    if first is None:
        return ["no command produced an output"]
    command, payload = first
    reported, value = workload.rescore(payload)
    if not oracle.agrees(reported, value):
        command.problems.append(f"oracle: reported {reported!r}, full-dimension {value!r}")
    out = out_dir / "serial.json"
    serial = workload.serial_argv(inputs[0], 0, seed, out)
    if serial is not None:
        serial_digest = None
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(serial)
        if status == 0:
            with open(out, encoding="utf-8") as fh:
                serial_digest = digest(json.load(fh)["payload"])
        parallel = next(c for c in commands if c.input_index == 0)
        if serial_digest != parallel.digest:
            parallel.problems.append("payload differs from the serial --jobs 1 run")
    return []


# -- metrics -------------------------------------------------------------------


def end_to_end(workload, commands, setup_samples) -> dict:
    untraced = [c for c in commands if not c.traced]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.jobs > 1:
        peak_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    per_input = {}
    for c in commands:
        if c.reduction is not None:
            per_input.setdefault(c.input_index, c.reduction)
    return {
        "wall_s": (median([c.wall_s for c in untraced]), "s"),
        "evals_per_s": (median([c.evaluations / c.wall_s for c in untraced]), "1/s"),
        "setup_s": (median(setup_samples), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        # One value per distinct input, so the figure does not depend on how
        # many times each input happened to run.
        "reduction_pct": (median(list(per_input.values())), "%"),
    }


def per_layer(commands, stats) -> dict:
    traced = [c for c in commands if c.traced]
    n = max(1, len(traced))
    root = stats["cli.main"].total_s if "cli.main" in stats else float("nan")

    def get(name):
        return stats.get(name) or tracing.LayerStat()

    def calls(name):
        return (get(name).calls / n, "count")

    def seconds(name, kind="total_s"):
        return (getattr(get(name), kind) / n, "s")

    def share(name, kind="total_s"):
        return (100.0 * getattr(get(name), kind) / root, "%")

    s2 = get("trotter.S2Evaluator.s2")
    evaluate = get("fitness.evaluate")
    pmap = get("experiments.pmap")
    task = get("experiments.pmap.task")
    untraced = median([c.wall_s for c in commands if not c.traced])
    metrics = {
        "trotter.S2Evaluator.s2.calls": calls("trotter.S2Evaluator.s2"),
        "trotter.S2Evaluator.s2.total_s": seconds("trotter.S2Evaluator.s2"),
        "trotter.S2Evaluator.s2.distinct_ratio": (s2.distinct / s2.calls if s2.calls else 0.0, "ratio"),
        "trotter.S2Evaluator.init.total_s": seconds("trotter.S2Evaluator.init"),
        "trotter.build_approximation.self_s": seconds("trotter.build_approximation", "self_s"),
        "linalg.kron.calls": calls("linalg.kron"),
        "linalg.kron.total_s": seconds("linalg.kron"),
        "fitness.evaluate.calls": calls("fitness.evaluate"),
        "fitness.evaluate.self_s": seconds("fitness.evaluate", "self_s"),
        "fitness.evaluate.p50_ms": (1e3 * percentile(evaluate.durations, 0.50), "ms"),
        "fitness.evaluate.p99_ms": (1e3 * percentile(evaluate.durations, 0.99), "ms"),
        "fitness.FitnessContext.create.calls": calls("fitness.FitnessContext.create"),
        "fitness.FitnessContext.create.self_s": seconds("fitness.FitnessContext.create", "self_s"),
        "fitness.exact_propagator.calls": calls("fitness.exact_propagator"),
        "fitness.exact_propagator.total_s": seconds("fitness.exact_propagator"),
        "model.hamiltonian.calls": calls("model.hamiltonian"),
        "model.hamiltonian.total_s": seconds("model.hamiltonian"),
        "model.merged_gate_count.calls": calls("model.merged_gate_count"),
        "model.merged_gate_count.total_pct": share("model.merged_gate_count"),
        "linalg.matrix_power.calls": calls("linalg.matrix_power"),
        "linalg.matrix_power.total_s": seconds("linalg.matrix_power"),
        "linalg.spectral_norm.calls": calls("linalg.spectral_norm"),
        "linalg.spectral_norm.total_s": seconds("linalg.spectral_norm"),
        "linalg.expm_scaled_hermitian.calls": calls("linalg.expm_scaled_hermitian"),
        "linalg.expm_scaled_hermitian.total_s": seconds("linalg.expm_scaled_hermitian"),
        "cmaes.cma_step.calls": calls("cmaes.cma_step"),
        "cmaes.cma_step.self_pct": share("cmaes.cma_step", "self_s"),
        "experiments.pmap.calls": calls("experiments.pmap"),
        "experiments.pmap.total_pct": share("experiments.pmap"),
        # Serial cell time over jobs x pmap wall time; 0 where pmap never ran.
        "experiments.pmap.efficiency": (
            task.total_s / pmap.capacity_s if pmap.capacity_s else 0.0, "ratio"),
        "records.write_record.total_s": seconds("records.write_record"),
        "records.write_csv.total_s": seconds("records.write_csv"),
        "records.bytes_written": (sum(c.bytes_written for c in traced) / n, "bytes"),
        "cli.main.total_s": seconds("cli.main"),
        "trace_overhead_pct": (
            100.0 * (median([c.wall_s for c in traced]) / untraced - 1.0), "%"),
    }
    return metrics


# -- report ------------------------------------------------------------------


def environment() -> dict:
    """Machine and software the figures were measured on."""
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(Exception):  # the layout of show_config varies by numpy version
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the repository this file is in, read from ``.git`` without
    running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_table(stats: dict, n: int) -> list[str]:
    root = stats["cli.main"].total_s if "cli.main" in stats else 0.0
    lines = [f"{'layer span':44} {'calls/cmd':>10} {'total_s/cmd':>12} {'self_s/cmd':>11} {'self%':>6}"]
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        share = 100.0 * st.self_s / root if root else 0.0
        lines.append(f"{name:44} {st.calls / n:10.1f} {st.total_s / n:12.4f} "
                     f"{st.self_s / n:11.4f} {share:6.2f}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trotteropt" / "__init__.py").is_file():
        print(f"error: trotteropt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from trotteropt import cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        setup_samples, input_dir = set_up(workload.name, args.seed, workdir)
        inputs = sorted(input_dir.glob("input_*.json"), key=lambda p: int(p.stem.split("_")[1]))
        inputs = [p for p in inputs if p.stem.endswith("_record")] or inputs
        out_dir = workdir / "out"
        out_dir.mkdir()
        commands, first, stats, problems = closed_loop(
            cli, workload, inputs, args.seed, args.seconds, args.trace, out_dir)
        # Peak memory is read before the checks, which allocate on their own.
        e2e = None if args.trace else end_to_end(workload, commands, setup_samples)
        problems += check_run(cli, workload, inputs, args.seed, out_dir, commands, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    failed = [c for c in commands if c.problems]
    untraced = [c for c in commands if not c.traced]
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(commands)} commands ({len(untraced)} untraced), {len(failed)} failed")
    for c in failed:
        print(f"failed command on input {c.input_index}: {'; '.join(c.problems)}")
    for p in problems:
        print(f"failed check: {p}")
    if args.trace:
        n = len(commands) - len(untraced)
        print("\n".join(layer_table(stats, max(1, n))))
        metrics = per_layer(commands, stats)
    else:
        metrics = e2e
        print(f"wall_s median of {len(untraced)} commands: "
              + " ".join(f"{c.wall_s:.3f}" for c in untraced))
        print(f"setup_s median of {len(setup_samples)} set-ups: "
              + " ".join(f"{s:.3f}" for s in setup_samples))
    for name, (value, unit) in metrics.items():
        print(f"{name:44} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(commands),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
