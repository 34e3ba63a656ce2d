"""Command-line entry point.

Subcommands: generate-instance, baseline, optimize, sample, sweep-r,
generalize, perms. Every command is deterministic given --seed; results go
to --out as a JSON record plus a flat CSV twin next to it (see FORMATS.md).

Each command loads only the modules it runs. The parser needs no numerics,
so an option whose default needs them parses to ``None`` and the driver
(``experiments`` or ``sampler``) fills it in; ``--ordering`` names resolve
here, so ``sample`` loads neither ``experiments`` nor ``cmaes``; and only
``sweep-r --jobs`` above 1 loads the process pool.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .model import DecompositionSpec, TermOrdering
from .records import (
    PURPOSE_ORDERING,
    derive_generator,
    generate_instance,
    load_instance,
    read_record,
    save_instance,
    write_csv,
    write_record,
)

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    if "instance" in names:
        parser.add_argument("--instance", required=True, help="instance JSON path")
    if "k" in names:
        parser.add_argument("--k", type=int, default=2, help="formula order parameter (default 2)")
    if "r" in names:
        parser.add_argument("--r", type=int, required=True, help="time-slice count")
    if "ordering" in names:
        parser.add_argument(
            "--ordering",
            choices=["canonical", "grouped", "random"],
            default="grouped",
            help="term ordering (default grouped)",
        )
    if "seed" in names:
        parser.add_argument("--seed", type=int, default=0, help="master RNG seed (default 0)")
    if "out" in names:
        parser.add_argument("--out", required=True, help="output JSON path")
    if "jobs" in names:
        parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def _emit(args, payload: dict, csv_header: list[str], csv_rows=None) -> None:
    """Write the record and its CSV twin. Without ``csv_rows``, each of the
    payload's rows gives its values under the header names ("" if absent)."""
    if csv_rows is None:
        csv_rows = [[row.get(col, "") for col in csv_header] for row in payload["rows"]]
    out = Path(args.out)
    write_record(out, payload)
    write_csv(out.with_suffix(".csv"), csv_header, csv_rows)


def _ordering(name: str, n: int, master_seed: int) -> TermOrdering:
    """The term ordering of an --ordering name: "random" draws a permutation
    of the 4n terms from the master seed's ordering stream."""
    if name == "random":
        rng = derive_generator(master_seed, PURPOSE_ORDERING)
        return TermOrdering.explicit(rng.permutation(4 * n))
    return TermOrdering.grouped() if name == "grouped" else TermOrdering.canonical()


def _instance_and_spec(args):
    """The instance and decomposition named by --instance, --k, --r, --ordering and --seed."""
    instance = load_instance(args.instance)
    ordering = _ordering(args.ordering, instance.n, args.seed)
    return instance, DecompositionSpec(args.k, args.r, ordering)


def _cmd_generate_instance(args) -> str:
    instance = generate_instance(args.n, args.t, args.seed)
    save_instance(args.out, instance)
    return f"wrote instance n={instance.n} t={instance.t} to {args.out}"


def _cmd_baseline(args) -> str:
    from . import experiments

    payload = experiments.baseline_report(*_instance_and_spec(args))
    if args.out:
        _emit(
            args,
            payload,
            ["k", "r", "ordering", "error", "unmerged_gates", "merged_gates"],
            [[args.k, args.r, args.ordering, payload["error"],
              payload["unmerged_gates"], payload["merged_gates"]]],
        )
    return (
        f"baseline error {payload['error']:.6e} "
        f"gates {payload['unmerged_gates']} unmerged / {payload['merged_gates']} merged"
    )


def _cmd_optimize(args) -> str:
    from . import experiments

    instance, spec = _instance_and_spec(args)
    payload = experiments.optimize_instance(instance, spec, args.generations, args.sigma0, args.seed)
    _emit(
        args,
        payload,
        ["generation", "best_fitness", "centroid_fitness", "sigma", "nonfinite"],
        payload["trajectory"],
    )
    return (
        f"optimized {payload['error_initial']:.6e} -> {payload['error_final']:.6e} "
        f"({payload['reduction_pct']:.1f}% reduction) in {payload['generations']} generations"
    )


def _cmd_sample(args) -> str:
    from . import sampler

    instance, spec = _instance_and_spec(args)
    payload = sampler.sampling_report(instance, spec, args.scheme, args.scales, args.samples,
                                      args.seed)
    _emit(args, payload, ["scale", "mean_fitness", "min_fitness", "max_fitness"])
    return f"sampled {args.samples} vectors at {len(payload['rows'])} scales ({args.scheme})"


def _cmd_sweep_r(args) -> str:
    from . import experiments

    instance = load_instance(args.instance)
    run_payload = None
    if args.mode == "evaluate":
        if not args.record:
            raise ValueError("--mode evaluate needs --record with an optimize run")
        run_payload = read_record(args.record, "optimize")
    payload = experiments.sweep_r(
        instance, args.k, args.r_grid, _ordering(args.ordering, instance.n, args.seed),
        mode=args.mode, run_payload=run_payload,
        generations=args.generations, sigma0=args.sigma0, master_seed=args.seed,
        threshold=args.threshold, jobs=args.jobs,
    )
    _emit(args, payload, ["r", "baseline_error", "optimized_error", "reduction_pct"])
    line = f"swept r over {args.r_grid} ({args.mode})"
    if args.threshold is not None:
        line += (
            f"; threshold {args.threshold:g}: baseline r={payload['baseline_r_at_threshold']}"
        )
        if "optimized_r_at_threshold" in payload:
            line += f", optimized r={payload['optimized_r_at_threshold']}"
    return line


def _cmd_generalize(args) -> str:
    from . import experiments

    run_payload = read_record(args.record, command="optimize")
    payload = experiments.generalize(run_payload, args.axis, _float_list(args.grid),
                                     n_cap=args.n_cap)
    _emit(args, payload, ["value", "baseline_error", "optimized_error", "reduction_pct"])
    positive = sum(1 for row in payload["rows"] if row["reduction_pct"] > 0)
    return f"generalized over {args.axis}: {positive}/{len(payload['rows'])} points improved"


def _cmd_perms(args) -> str:
    from . import experiments

    instance = load_instance(args.instance)
    payload = experiments.perms_study(instance, args.k, args.r_grid, args.n_random, args.seed)
    _emit(args, payload, ["ordering", "r", "merged_gates", "unmerged_gates", "error"])
    return f"ordering study over r={args.r_grid} with {args.n_random} random permutations"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: a parser per call would be cyclic garbage."""
    parser = argparse.ArgumentParser(
        prog="trotteropt",
        description="Product-formula decompositions of Heisenberg-chain evolution, "
        "and CMA-ES optimization of their coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-instance", help="draw a disordered chain instance")
    p.add_argument("--n", type=int, required=True, help="qubit count (>= 3)")
    p.add_argument("--t", type=float, default=None, help="simulation time (default 2n)")
    _add_common(p, "seed", "out")
    p.set_defaults(func=_cmd_generate_instance)

    p = sub.add_parser("baseline", help="Suzuki-seed error and gate counts")
    _add_common(p, "instance", "k", "r", "ordering", "seed")
    p.add_argument("--out", default=None, help="optional output JSON path")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("optimize", help="CMA-ES run from the Suzuki seed")
    _add_common(p, "instance", "k", "r", "ordering", "seed", "out")
    p.add_argument("--generations", type=int, default=None, help="default 250 (500 for k >= 3)")
    p.add_argument("--sigma0", type=float, default=None,
                   help="default 1e-7 / d; at least 1.11e-16, the Suzuki seed's float spacing")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sample", help="fitness landscape sampling")
    _add_common(p, "instance", "k", "r", "ordering", "seed", "out")
    # sampler.SCHEMES, spelled out so that parsing loads no numerics (a
    # test keeps the two equal).
    p.add_argument("--scheme", choices=("around-uniform", "around-suzuki"), required=True)
    p.add_argument("--scales", type=_float_list, default=None,
                   help="comma-separated std devs (default 1e-9..1)")
    p.add_argument("--samples", type=int, default=100, help="samples per scale (default 100)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("sweep-r", help="baseline/optimized error across r values")
    _add_common(p, "instance", "k", "ordering", "seed", "out", "jobs")
    p.add_argument("--r-grid", type=_int_list, required=True, help="comma-separated r values")
    p.add_argument("--mode", choices=["baseline", "optimize", "evaluate"], default="baseline")
    p.add_argument("--record", default=None, help="optimize record for --mode evaluate")
    p.add_argument("--generations", type=int, default=None)
    p.add_argument("--sigma0", type=float, default=None, help="as for optimize")
    p.add_argument("--threshold", type=float, default=None,
                   help="report smallest r with error below this")
    p.set_defaults(func=_cmd_sweep_r)

    p = sub.add_parser("generalize", help="evaluate an optimized vector off its training point")
    p.add_argument("--record", required=True, help="optimize record JSON")
    p.add_argument("--axis", choices=["v", "n", "t", "r"], required=True)
    p.add_argument("--grid", required=True,
                   help="comma-separated grid (axis=v: a single hold-out count)")
    p.add_argument("--n-cap", type=int, default=None)
    _add_common(p, "out")
    p.set_defaults(func=_cmd_generalize)

    p = sub.add_parser("perms", help="gate count vs error for term orderings")
    _add_common(p, "instance", "k", "seed", "out")
    p.add_argument("--r-grid", type=_int_list, required=True)
    p.add_argument("--n-random", type=int, default=20, help="random permutations to average")
    p.set_defaults(func=_cmd_perms)

    return parser


# mallopt's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, and the values that
# ``_keep_blocks_on_heap`` gives them.
_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES = -3, 1 << 20
_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES = -1, 8 << 20


@functools.cache
def _keep_blocks_on_heap() -> None:
    """Under glibc only, once per process: raise malloc's mmap threshold to
    1 MiB and its trim threshold to 8 MiB. Sector stacks pass the default
    128 KiB mmap threshold from n=7 on (512 KiB at n=8), and each would be
    mapped and page-faulted afresh; with both thresholds raised (either
    alone is not enough) freed n=7 and n=8 blocks are reused from the heap,
    and blocks from n=9 on (2 MiB and up) stay mapped. Only ``main`` calls
    it, so a library caller keeps glibc's defaults and relies on
    ``trotter._STACK_BYTES`` instead. Measurements: README."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _keep_blocks_on_heap()
    args = build_parser().parse_args(argv)
    try:
        # Every seed roots a SeedSequence, which takes no negative value.
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        print(args.func(args))
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
