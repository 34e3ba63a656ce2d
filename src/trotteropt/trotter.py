"""Suzuki product formulas, from a coefficient vector to the approximate
propagator (the types live in ``model``).

A coefficient vector is a plain sequence of 5(k-1) floats, one block per
recursion level 2..k, Suzuki's values being (p, p, 1-4p, p, p); it carries
no k of its own and is checked against the k of the spec it is scored
under (k = 1: an empty vector, plain S2 slicing). ``slice_phases`` expands
it into the S2 phases of one time slice, ``S2Evaluator`` builds S2 blocks
in closed form, and ``build_approximation``, the one path from coefficients
to an approximation, multiplies them and raises the slice to the r-th
power. Phases are real fractions of t; -i t is applied by the evaluator.
Every operator is the ``(2, M, M)`` stack of its parity-sector blocks,
M = 2^(n-1) (``model._sector_index``).
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import groupby, islice

import numpy as np

from .linalg import matrix_power
from .model import (
    ChainInstance,
    DecompositionSpec,
    TermOrdering,
    _generators,
    _popcount,
    _sector_index,
    _strings,
)

__all__ = [
    "S2Evaluator",
    "build_approximation",
    "slice_phases",
    "suzuki_seed",
]


def suzuki_seed(k: int) -> tuple[float, ...]:
    """The Suzuki vector: blocks (p, p, 1-4p, p, p) concatenated for levels
    2..k, with Suzuki's recursion coefficient p = 1 / (4 - 4^(1/(2l-1))) at
    level l. Empty for k = 1 (plain second-order slicing)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    comps: list[float] = []
    for level in range(2, k + 1):
        p = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * level - 1)))
        comps.extend([p, p, 1.0 - 4.0 * p, p, p])
    return tuple(comps)


def _check_coefficients(p, k: int) -> np.ndarray:
    """A coefficient vector for order parameter k as a float array: it must
    have 5(k-1) components, all finite (a non-finite one signals a diverged
    search)."""
    p = np.asarray(p, dtype=float)
    if p.shape != (5 * (k - 1),):
        got = p.size if p.ndim == 1 else f"shape {p.shape}"
        raise ValueError(f"k={k} needs {5 * (k - 1)} components, got {got}")
    if not np.isfinite(p).all():
        raise ValueError("coefficient vector has non-finite components")
    return p


def slice_phases(p) -> np.ndarray:
    """The 5^(k-1) S2 phases of one time slice: each level's block scales
    the expansion of the level below (one outer product per level), from a
    single unit phase."""
    phases = np.array([1.0])
    for block in np.asarray(p, dtype=float).reshape(-1, 5):
        phases = np.multiply.outer(block, phases).ravel()
    return phases


@lru_cache(maxsize=None)
def _identity_stack(n: int) -> np.ndarray:
    """The identities of both sectors laid one above the other, (2M, M),
    built once per n and read-only: the Pauli kernel's starting point."""
    eye = np.tile(np.eye(2 ** (n - 1), dtype=complex), (2, 1))
    eye.flags.writeable = False
    return eye


# Bytes of the S2 blocks that one s2_stack call of build_approximation
# builds: 8 phases at n=5, 2 at n=6 and 1 from n=7 on. A stack and its
# temporaries then stay under glibc's default 128 KiB mmap threshold, above
# which numpy maps, and page-faults, each temporary afresh on every call.
# ``cli._keep_blocks_on_heap`` raises that threshold for a CLI process
# only, so a library caller keeps the default and needs this bound.
_STACK_BYTES = 64 * 1024


# Rows of the S2 blocks up to which S2 = F F^T runs as gemm, not syrk
# (n <= 5; see ``S2Evaluator``).
_GEMM_ROWS = 16


def _phases_per_stack(n: int) -> int:
    """Phases per stack at n: as many (2, 2^(n-1), 2^(n-1)) complex blocks
    as fit in ``_STACK_BYTES``, and at least one."""
    return max(1, _STACK_BYTES // (2 * 16 * 4 ** (n - 1)))


class S2Evaluator:
    """Builds the symmetric second-order blocks S2 of one term sequence at
    time t: the generator-table rows ``rows`` of n sites, in product order
    (``model._generators``), ``coefficients[g]`` being row g's coefficient.

    Invariant: every term is a real symmetric Pauli string that flips an
    even number of spins (``model._generators`` checks it). So each term
    exponential is symmetric and block-diagonal in the parity sectors, the
    reversed half-product is the transpose of the forward one F, and
    S2 = F F^T block by block. Two kernels compute F:

    - Grouped, when the kinds come as XX, then YY, then ZZ and Z in any mix:
      each group commutes and is diagonal in a fixed basis, so
      F = H^n D_xx H^n . V D_yy V^dag . D_zz+z with V = (SH)^n and the
      diagonals built from spin signs. H^n D H^n has entry g[a ^ b], g
      being the Walsh transform of D's diagonal, and within a sector
      a ^ b has even popcount. Equal XX and YY diagonals (every chain:
      couplings 1) share one Walsh product.
    - Pauli rotation, for any other sequence: the product of
      cosh(ca) I + sinh(ca) P on both blocks laid as (2M, M) rows. Each XX
      or YY term is one signed row permutation, and each maximal run of Z
      and ZZ terms one row scaling exp(c sum_j a_j sign_j).

    ``s2_stack`` builds K phases at once, the phase the leading axis. Every
    step is elementwise along that axis, a gather along the next, or one
    BLAS call per phase and block, so each block has the bits of a build of
    its phase alone. F F^T runs as gemm up to ``_GEMM_ROWS`` rows and as
    syrk above; the two give the same bits (timings: README).

    The tables are built once, when the evaluator is made, and nothing is
    written to it afterwards; it holds no block. So threads may share one.
    """

    def __init__(self, rows, coefficients, n: int, t: float):
        self.n = n
        self.t = float(t)
        self._states, flat = _sector_index(n)
        table = _generators(n)
        rows = np.asarray(rows)
        a = np.asarray(coefficients, dtype=float)[rows]
        # Per unit |phase|: a bound on |c| = 0.5 t |phase| and on c times any sum of a_j.
        self._exponent_scale = 0.5 * self.t * max(1.0, float(np.abs(a).sum()))
        x, z = table.x[rows], table.z[rows]
        # The grouped ordering's groups, read from the letters of each string:
        # X strings (XX), Y strings (YY), then Z strings (ZZ and Z).
        groups = np.where(z == 0, 0, np.where(x == 0, 2, 1)).tolist()
        self._grouped = groups == sorted(groups)
        if self._grouped:
            # In its group's basis each term is the Z string on its own qubits.
            weighted = a[:, None] * _strings(0, x | z, n)[1]
            diagonals = np.zeros((3, 2**n))
            for group, row in zip(groups, weighted):
                diagonals[group] += row
            # The Walsh diagonals, then the Z-basis one: XX and YY share one
            # where they are equal.
            self._diagonals = diagonals[1:] if np.array_equal(*diagonals[:2]) else diagonals
            # Within a sector a ^ b is an even state, stored at row flat[a ^ b] < M.
            self._xor = flat[self._states[:, :, None] ^ self._states[:, None, :]]
            # (self._walsh @ d)[self._xor] is H^n diag(d) H^n, block by block:
            # the Walsh matrix (-1)^popcount(a & b) / 2^n, on its even rows a.
            basis = np.arange(2**n)
            parity = _popcount(basis, n) & 1
            self._walsh = np.where(parity[self._states[0][:, None] & basis], -0.5**n, 0.5**n)
            s = reduce(np.kron, [np.array([1, 1j])] * n)[self._states]  # diagonal of S^n
            self._s_rows, self._s_conj = s[:, :, None], s.conj()
            return
        # Pauli kernel, in term order: (None, run) scales the rows by a run's
        # exponents, (perm, flip) rotates by a flip's signed permutation.
        perms, signs = table.perms[rows], table.signs[rows]
        diagonal = x == 0
        steps, runs, flips = [], [], []
        for is_run, group in groupby(range(len(a)), key=diagonal.__getitem__):
            group = list(group)
            if is_run:
                steps.append((None, len(runs)))
                runs.append(a[group] @ signs[group])
            else:
                steps.extend((perms[j], len(flips) + i) for i, j in enumerate(group))
                flips += group
        self._run_exponents = np.array(runs).reshape(len(runs), perms.shape[1])
        self._flip_coefficients = a[flips]
        self._flip_signs = signs[flips]
        self._steps = tuple(steps)

    @classmethod
    def for_instance(cls, instance: ChainInstance, ordering: TermOrdering) -> "S2Evaluator":
        return cls(ordering.rows(instance.n), instance.coefficients(), instance.n, instance.t)

    def _forwards(self, c: np.ndarray) -> np.ndarray:
        return self._grouped_forwards(c) if self._grouped else self._pauli_forwards(c)

    def _grouped_forwards(self, c: np.ndarray) -> np.ndarray:
        # The Walsh products take each phase's diagonal as a column: one gemv
        # per phase and diagonal, as for a single vector, where a gemm over
        # all of them could round differently.
        d = np.exp(c[:, None, None] * self._diagonals)
        walshed = np.take(np.matmul(self._walsh, d[:, :-1, :, None])[..., 0], self._xor, axis=2)
        yy = walshed[:, -1] * self._s_rows
        yy *= (self._s_conj * np.take(d[:, -1], self._states, axis=1))[:, :, None, :]
        return walshed[:, 0] @ yy

    def _pauli_forwards(self, c: np.ndarray) -> np.ndarray:
        # Builds each F^T = E_L ... E_1 on the two blocks stacked as (2M, M)
        # rows, since numpy gathers rows faster than columns.
        ca = c[:, None] * self._flip_coefficients
        cosh = np.cosh(ca)[:, :, None, None]
        sinh = (np.sinh(ca)[:, :, None] * self._flip_signs)[:, :, :, None]
        scales = np.exp(c[:, None, None] * self._run_exponents)[:, :, :, None]
        eye = _identity_stack(self.n)
        acc = np.broadcast_to(eye, (len(c), *eye.shape)).copy()
        rotated = np.empty_like(acc)
        for perm, i in self._steps:
            if perm is None:
                acc *= scales[:, i]
            else:
                acc.take(perm, axis=1, out=rotated)
                rotated *= sinh[:, i]
                acc *= cosh[:, i]
                acc += rotated
        half = acc.shape[-1]
        return acc.reshape(len(c), 2, half, half).swapaxes(-1, -2)

    def s2_stack(self, phases) -> np.ndarray:
        """S2 at each of the phases, as one read-only ``(K, 2, M, M)``
        stack, each block bit-identical to a build of its phase alone."""
        forward = self._forwards(np.array([-0.5j * self.t * float(x) for x in phases]))
        transposed = forward.swapaxes(-1, -2)
        # numpy takes syrk when both operands share memory, whatever their
        # layout (the Pauli kernel's F is itself a transposed view), and
        # gemm when F^T is a copy.
        if forward.shape[-1] <= _GEMM_ROWS:
            transposed = transposed.copy()
        stack = forward @ transposed
        stack.flags.writeable = False
        return stack

    def s2(self, phase: float, held: dict | None = None) -> np.ndarray:
        """S2 at one phase: the caller's block ``held[phase]`` where it is
        there and not None, else a new 1-phase ``s2_stack``."""
        phase = float(phase)
        block = held.get(phase) if held else None
        if block is None:
            block = self.s2_stack((phase,))[0]
        return block


def build_approximation(
    evaluator: S2Evaluator, spec: DecompositionSpec, p, held: dict | None = None
) -> np.ndarray:
    """The product-formula approximation to exp(-i t H) as a sector stack:
    the product of S2 blocks of ``evaluator`` (made for ``spec.ordering``)
    at the slice phases of ``p`` divided by r, raised to the r-th power.
    For the Suzuki seed this is the order-2k formula with r slices.

    A vector of the wrong length, non-finite, or large enough to overflow
    an S2 exponent raises ``ValueError`` before any kernel runs.

    Block reuse is this call's alone. When a phase that it does not hold
    comes up, it builds the next ``_phases_per_stack(n)`` distinct phases
    that it lacks, in order of first use, as one ``s2_stack``, and drops
    each block at its phase's last use: each distinct phase is built once
    and no block that the call builds outlives it. ``held`` maps phases to
    blocks of this evaluator that the caller already holds; those phases
    are not built, and the dict is only read. A block is bit-identical to
    any other build of its phase, so the result does not depend on
    ``held`` or on how the phases are stacked.
    """
    p = _check_coefficients(p, spec.k)
    # max |phase|, bit for bit: rounding is monotone and sign-symmetric, and
    # the block maxima multiply in slice_phases' order; a Python float
    # overflows to inf without a warning.
    largest = math.prod(max(map(abs, block)) for block in p.reshape(-1, 5).tolist()) / spec.r
    if not math.isfinite(largest * evaluator._exponent_scale):
        raise ValueError("coefficient vector overflows the S2 exponents")
    phases = (slice_phases(p) / spec.r).tolist()
    last = {x: i for i, x in enumerate(phases)}  # last use of each phase
    held = dict(held) if held else {}
    unbuilt = iter([x for x in last if x not in held])  # in order of first use
    per_stack = _phases_per_stack(evaluator.n)
    acc: np.ndarray | None = None
    for i, x in enumerate(phases):
        if x not in held:
            batch = list(islice(unbuilt, per_stack))
            held.update(zip(batch, evaluator.s2_stack(batch)))
        block = evaluator.s2(x, held)
        if last[x] == i:
            del held[x]
        acc = block if acc is None else acc @ block
    assert acc is not None
    return matrix_power(acc, spec.r)
