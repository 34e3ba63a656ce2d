"""Suzuki product formulas, from coefficient vectors to operators (the
``DecompositionSpec`` and every other type live in ``model``).

The order-2k formula is built recursively from the symmetric second-order
block S2. A coefficient vector is a plain sequence of 5(k-1) floats (a
tuple, a list or an array row), one 5-entry block per recursion level
(levels 2..k), the Suzuki values being (p, p, 1-4p, p, p); it carries no k
of its own and is checked against the k of the spec it is scored under.
Expanding the levels turns a coefficient vector into per-slice S2 phases
(``slice_phases``); ``build_approximation`` divides them by r, multiplies
the S2 blocks that the ``S2Evaluator`` it is given builds, and raises the
product to the r-th power. It builds each distinct phase of a slice once,
several at a time: when a phase that it does not hold comes up, it builds
that phase and the next distinct ones, in order of first use, as one stack
(``S2Evaluator.s2_stack``) of at most ``_STACK_BYTES`` of blocks. It holds
each block until its phase's last use and passes what it holds to
``S2Evaluator.s2``, which returns a held block rather than build it again.
The evaluator holds no block. That is the only path from coefficients to
an approximation. The order parameter k = 1 is admitted as the degenerate
case with an empty coefficient vector, meaning plain S2 slicing.

The evolution parameter is factored as -i * t: phases are stored as real
fractions and the -i * t is applied at exponentiation time.

Every chain term is a Pauli string, so S2 comes from closed forms, not from
numerical exponentials: a grouped-basis kernel when the term kinds come as
XX, YY, then ZZ and Z, and a Pauli-rotation product otherwise, in which each
run of diagonal (Z, ZZ) terms is one row scaling and each XX or YY term one
signed row permutation. Every chain coupling has coefficient 1, so the XX and
the YY group have one and the same diagonal, and the grouped kernel takes
one Walsh product for both. Both kernels end in S2 = F F^T, which runs as
gemm on blocks of up to 16 rows (n <= 5), where it is faster than syrk,
and as syrk above; the two give the same bits.

Every term also flips an even number of spins, so it commutes with the
parity Z^n, and so do S2, the slice and its r-th power. They are exactly
block-diagonal in the even- and odd-popcount sectors, and are built and
carried as ``(2, 2^(n-1), 2^(n-1))`` stacks of those two blocks, never at
the full dimension 2^n. The sector layout and the Pauli strings restricted
to it come from ``model``'s per-n tables, in which a term is a row: an
evaluator takes the rows of its term sequence and the rows' coefficients,
and builds its kernel tables once, when it is made. The Pauli kernel's
identity stack depends only on n and is built once per n.
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
    "suzuki_coefficient",
    "suzuki_seed",
]


def suzuki_coefficient(k: int) -> float:
    """Suzuki's recursion coefficient 1 / (4 - 4^(1/(2k-1))) for level k >= 2."""
    if k < 2:
        raise ValueError("recursion coefficients exist for k >= 2 only")
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))


def suzuki_seed(k: int) -> tuple[float, ...]:
    """The Suzuki vector: blocks (p, p, 1-4p, p, p) concatenated for levels
    2..k. Empty for k = 1 (plain second-order slicing)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    comps: list[float] = []
    for level in range(2, k + 1):
        p = suzuki_coefficient(level)
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
    """Multiply the recursion out for a single time slice: 5^(k-1) S2 phases.

    Each level's block entries scale the expansion of the level below (one
    outer product per level, block entry by block entry); the base case is
    a single unit S2 phase.
    """
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
# builds. Kept under glibc's default 128 KiB mmap threshold: numpy
# temporaries above it are mapped afresh and page-faulted on every call: a
# 5-phase stack at n=8 took 1,226 minor faults per build (grouped kernel)
# against 22 for five single builds, and 86 against 2 at n=6. 64 KiB holds
# 8 phases at n=5 (8 KiB blocks), 2 at n=6 and 1 from n=7 on, where every
# build stays single.
_STACK_BYTES = 64 * 1024


# Rows of the S2 blocks up to which S2 = F F^T runs as gemm, not syrk
# (n <= 5); the timings are in ``S2Evaluator``'s docstring.
_GEMM_ROWS = 16


def _phases_per_stack(n: int) -> int:
    """Phases per stack at n: as many (2, 2^(n-1), 2^(n-1)) complex blocks
    as fit in ``_STACK_BYTES``, and at least one."""
    return max(1, _STACK_BYTES // (2 * 16 * 4 ** (n - 1)))


class S2Evaluator:
    """Builds symmetric second-order blocks for a fixed term sequence: the
    generator-table rows ``rows`` of n sites (``model._generators``), with
    ``coefficients[g]`` the coefficient of row g, for time t.

    Every term flips an even number of spins, so it commutes with the
    parity Z^n, and so does every product of term exponentials: S2 is
    exactly block-diagonal in the even- and odd-popcount sectors
    (``model._sector_index``). The evaluator builds and returns only those two
    blocks, as a ``(2, 2^(n-1), 2^(n-1))`` stack, which halves every
    dimension and quarters every matmul.

    Every term is a real symmetric Pauli string (``model._generators``
    checks this once per n), so each term exponential is symmetric, the
    reversed half-product is the transpose of the forward half-product F,
    and S2 = F @ F^T block by block. Which kernel computes F depends on the
    term sequence:

    - Grouped: kinds come as XX, then YY, then ZZ and Z in any mix (the
      grouped ordering). Each group commutes and is diagonal in a fixed
      basis, so F = H^n D_xx H^n . V D_yy V^dag . D_zz+z with V = (SH)^n
      and the diagonals built from spin signs. H^n D H^n has entry
      g[a ^ b], g being the Walsh-Hadamard transform of D's diagonal;
      within a sector a ^ b has even popcount, so only g's even-popcount
      entries are needed. S^n is diagonal, so F costs one batched matmul.
      An XX and a YY term on one bond have the same qubits and, in a
      chain, the same coefficient 1, so D_xx = D_yy bit for bit: the
      evaluator keeps only the distinct Walsh diagonals (one for a chain,
      two for other coefficients) and the Z-basis one, and computes the
      exponential, the Walsh product and the gather of each once.
    - Any other sequence (canonical, explicit): the Pauli-rotation product
      of the term exponentials cosh(ca) I + sinh(ca) P on the two blocks
      laid one above the other. For an XX or YY term the product with P is
      a signed permutation of the rows. A Z or ZZ term is diagonal, its
      exponential the row scaling exp(c a sign), so a maximal run of them
      is one row scaling by exp(c sum_j a_j sign_j); each run's summed
      exponents are a table of the evaluator. An XX term's signs are all
      +1, so its product is scaled by the scalar sinh(ca); only a YY term
      needs a signed row. The cosh, sinh and scaling rows of a block each
      come from one vector call.

    Both kernels build K phases at once, as a ``(K, 2, M, M)`` stack with
    the phase as the leading axis (``s2_stack``): each numpy call of a
    build covers all K, so at n=5 five phases cost about the numpy calls
    of one. Every step is elementwise along that axis, a gather along the
    next, or one BLAS call per phase and block (the Walsh products are one
    gemv per phase, not a gemm over all of them), so each block is
    bit-identical to a build of its phase alone.

    numpy computes S2 = F @ F^T as syrk when F^T is a transposed view of F,
    and as gemm when it is a copy; both give the same bits. syrk is the
    slower on small blocks and the faster on large ones, so ``s2_stack``
    takes gemm up to ``_GEMM_ROWS`` = 16 rows (n <= 5) and syrk above.
    For 5 phases, gemm with its copy of F^T (2-core x86-64 VM, one
    OpenBLAS thread, min of 7 repeats, three runs):

    ====  ===============  ===============
    rows  syrk             gemm
    ====  ===============  ===============
    16    22.1-22.5 us     17.9-18.2 us
    32    79.5-80.8 us     74.0-77.4 us
    64    389-399 us       479-484 us
    128   2.40-2.44 ms     3.32-3.33 ms
    ====  ===============  ===============

    The cut sits at the n=5 blocks, where gemm gains the most; at 32 rows
    (n=6) the two are within 10% and no perfbench workload runs there.
    numpy tells the two apart by the operands' memory, not their
    layout: the Pauli kernel's F is a transposed view of a contiguous
    array, which is itself F^T, so gemm there too takes a copy of F^T.

    An evaluator builds the tables of its own kernel alone, when it is
    made, and nothing is written to it afterwards: every block is built
    from them alone, and block reuse is the caller's
    (``build_approximation``). So threads may share an evaluator.
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
            # where they are equal, as for every chain (couplings 1).
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
        # Pauli kernel: a Z/ZZ string has the identity permutation, so a
        # maximal run of them scales row i by exp(c sum_j a_j sign_j[i]).
        perms, signs = table.perms[rows], table.signs[rows]
        diagonal = x == 0
        unsigned = (z == 0).tolist()  # an X string's flip scales by sinh alone
        # Steps in term order: (None, run, False) or (perm, flip, unsigned).
        steps, runs, flips = [], [], []
        for is_run, group in groupby(range(len(a)), key=diagonal.__getitem__):
            group = list(group)
            if is_run:
                steps.append((None, len(runs), False))
                runs.append(a[group] @ signs[group])
            else:
                steps.extend((perms[j], len(flips) + i, unsigned[j]) for i, j in enumerate(group))
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
        sinh = np.sinh(ca)
        signed_sinh = (sinh[:, :, None] * self._flip_signs)[:, :, :, None]
        sinh = sinh[:, :, None, None]
        scales = np.exp(c[:, None, None] * self._run_exponents)[:, :, :, None]
        eye = _identity_stack(self.n)
        acc = np.broadcast_to(eye, (len(c), *eye.shape)).copy()
        rotated = np.empty_like(acc)
        for perm, i, unsigned in self._steps:
            if perm is None:
                acc *= scales[:, i]
            else:
                acc.take(perm, axis=1, out=rotated)
                rotated *= sinh[:, i] if unsigned else signed_sinh[:, i]
                acc *= cosh[:, i]
                acc += rotated
        half = acc.shape[-1]
        return acc.reshape(len(c), 2, half, half).swapaxes(-1, -2)

    def s2_stack(self, phases) -> np.ndarray:
        """S2 at each of the phases, as one read-only ``(K, 2, M, M)``
        stack with the phase as the leading axis: one pass of numpy calls
        builds all K blocks, each bit-identical to a build of its phase
        alone."""
        forward = self._forwards(np.array([-0.5j * self.t * float(x) for x in phases]))
        transposed = forward.swapaxes(-1, -2)
        if forward.shape[-1] <= _GEMM_ROWS:
            transposed = transposed.copy()
        stack = forward @ transposed
        stack.flags.writeable = False
        return stack

    def s2(self, phase: float, held: dict | None = None) -> np.ndarray:
        """S2 at the given fraction of the evolution parameter, as its two
        sector blocks: forward half-phase product times the reversed
        half-phase product.

        ``held`` maps phases to blocks that the caller still holds: the
        block of a held phase is returned as it is, and any other phase
        (or one mapped to None) is built anew, as a 1-phase ``s2_stack``.
        A built block is read-only and bit-identical to any other build of
        the same phase, so a caller may hold it and hand it back for as
        long as it likes.
        """
        phase = float(phase)
        block = held.get(phase) if held else None
        if block is None:
            block = self.s2_stack((phase,))[0]
        return block


def build_approximation(evaluator: S2Evaluator, spec: DecompositionSpec, p) -> np.ndarray:
    """The full product-formula approximation to exp(-i t H), as the stack
    of its two parity-sector blocks (see ``S2Evaluator``), from the blocks
    of ``evaluator``, which must be made for ``spec.ordering``.

    One time slice is the product of S2 blocks at the expanded phases
    divided by r; the slice is then raised to the r-th power. For the Suzuki
    seed this is exactly the order-2k formula with r slices.

    A vector of the wrong length, non-finite, or large enough to overflow
    an S2 exponent raises ``ValueError`` before any kernel runs.

    This call owns block reuse. When a phase that it does not hold comes
    up, it builds the next ``_phases_per_stack(n)`` distinct phases, in
    order of first use, with one ``S2Evaluator.s2_stack`` call. It keeps a
    ``held`` dict, per call, of each block from its build to its phase's
    last use, passes it to every ``S2Evaluator.s2`` call and drops a block
    on its phase's last use. So each distinct phase is built once (2
    builds for the k=2 Suzuki slice, 4 for k=3), blocks are streamed a
    stack at a time, and no block outlives the call. The evaluator is only
    read.
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
    unbuilt = iter(last)  # distinct phases in order of first use
    per_stack = _phases_per_stack(evaluator.n)
    held = {}  # the block of each phase from its build to its last use
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
