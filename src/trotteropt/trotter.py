"""Suzuki product formulas: coefficient vectors, phase expansion, and
second-order block evaluation.

The order-2k formula is built recursively from the symmetric second-order
block S2; a coefficient vector holds one 5-entry block per recursion level
(levels 2..k), the Suzuki values being (p, p, 1-4p, p, p). Expanding the
levels turns a coefficient vector into per-slice S2 phases
(``slice_phases``); ``build_approximation`` divides them by r, multiplies
the slice's S2 blocks and raises the product to the r-th power. That is
the only path from coefficients to an approximation. The order parameter
k = 1 is admitted as the degenerate case with an empty coefficient vector,
meaning plain S2 slicing.

The evolution parameter is factored as -i * t: phases are stored as real
fractions and the -i * t is applied at exponentiation time.

Every chain term is a Pauli string, so S2 comes from closed forms, not from
numerical exponentials: a grouped-basis kernel when the term kinds come as
XX, YY, then ZZ and Z, and a Pauli-rotation product otherwise.

Every term also flips an even number of spins, so it commutes with the
parity Z^n, and so do S2, the slice and its r-th power. They are exactly
block-diagonal in the even- and odd-popcount sectors, and are built and
carried as ``(2, 2^(n-1), 2^(n-1))`` stacks of those two blocks, never at
the full dimension 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import matrix_power
from .model import (
    ChainInstance,
    LocalTerm,
    TermKind,
    TermOrdering,
    _parity,
    _pauli_string,
    _sectors,
    _z_string,
    ordered_terms,
)

__all__ = [
    "CoefficientVector",
    "DecompositionSpec",
    "S2Evaluator",
    "build_approximation",
    "fast_local_expm",
    "slice_phases",
    "suzuki_coefficient",
    "suzuki_seed",
]


@dataclass(frozen=True)
class CoefficientVector:
    """The recursion coefficients under optimization: 5(k-1) reals, laid out
    as concatenated 5-blocks for levels 2..k.

    Suzuki's own blocks each sum to 1; optimized vectors may not (the search
    runs unconstrained).
    """

    k: int
    components: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("order parameter k must be an integer >= 1")
        object.__setattr__(
            self, "components", tuple(float(x) for x in self.components)
        )
        if len(self.components) != 5 * (self.k - 1):
            raise ValueError(
                f"k={self.k} needs {5 * (self.k - 1)} components, got {len(self.components)}"
            )

    def block(self, level: int) -> tuple[float, ...]:
        """The 5-entry block for one recursion level (2 <= level <= k)."""
        if not 2 <= level <= self.k:
            raise ValueError(f"level {level} out of range 2..{self.k}")
        return self.components[5 * (level - 2) : 5 * (level - 1)]


@dataclass(frozen=True)
class DecompositionSpec:
    """Order parameter k, slice count r, and term ordering: together these
    fix the circuit shape and gate count."""

    k: int
    r: int
    ordering: TermOrdering

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("k must be an integer >= 1")
        if not isinstance(self.r, int) or self.r < 1:
            raise ValueError("r must be an integer >= 1")


def suzuki_coefficient(k: int) -> float:
    """Suzuki's recursion coefficient 1 / (4 - 4^(1/(2k-1))) for level k >= 2."""
    if k < 2:
        raise ValueError("recursion coefficients exist for k >= 2 only")
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))


def suzuki_seed(k: int) -> CoefficientVector:
    """The Suzuki vector: blocks (p, p, 1-4p, p, p) concatenated for levels
    2..k. Empty for k = 1 (plain second-order slicing)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    comps: list[float] = []
    for level in range(2, k + 1):
        p = suzuki_coefficient(level)
        comps.extend([p, p, 1.0 - 4.0 * p, p, p])
    return CoefficientVector(k, tuple(comps))


def slice_phases(p: CoefficientVector) -> np.ndarray:
    """Multiply the recursion out for a single time slice: 5^(k-1) S2 phases.

    Each level's block entries scale the expansion of the level below; the
    base case is a single unit S2 phase.
    """
    phases = np.array([1.0])
    for level in range(2, p.k + 1):
        block = p.block(level)
        phases = np.concatenate([coeff * phases for coeff in block])
    return phases


def fast_local_expm(term: LocalTerm, n: int, c: complex) -> np.ndarray:
    """exp(c * H_term) in closed form.

    H_term is its coefficient a times a Pauli string P with P^2 = I, so
    exp(c * a * P) = cosh(c * a) * I + sinh(c * a) * P. Wrap-around
    couplings (site n with site 1) need no special case.
    """
    perm, sign = _pauli_string(term, n)
    ca = c * term.coefficient
    out = np.cosh(ca) * np.eye(2**n, dtype=complex)
    out[perm, np.arange(2**n)] += np.sinh(ca) * sign
    return out


# Group of each kind in the grouped ordering: ZZ and Z are both diagonal.
_GROUP = {TermKind.XX: 0, TermKind.YY: 1, TermKind.ZZ: 2, TermKind.Z: 2}


class S2Evaluator:
    """Builds symmetric second-order blocks for a fixed term sequence.

    Every term flips an even number of spins, so it commutes with the
    parity Z^n, and so does every product of term exponentials: S2 is
    exactly block-diagonal in the even- and odd-popcount sectors
    (``model._sectors``). The evaluator builds and returns only those two
    blocks, as a ``(2, 2^(n-1), 2^(n-1))`` stack, which halves every
    dimension and quarters every matmul.

    Every term is a real symmetric Pauli string, so each term exponential
    is symmetric, the reversed half-product is the transpose of the forward
    half-product F, and S2 = F @ F^T block by block. Which kernel computes
    F depends on the term sequence:

    - Grouped: kinds come as XX, then YY, then ZZ and Z in any mix (the
      grouped ordering). Each group commutes and is diagonal in a fixed
      basis, so F = H^n D_xx H^n . V D_yy V^dag . D_zz+z with V = (SH)^n
      and the diagonals built from spin signs. H^n D H^n has entry
      g[a ^ b], g being the Walsh-Hadamard transform of D's diagonal;
      within a sector a ^ b has even popcount, so only g's even-popcount
      entries are needed. S^n is diagonal, so F costs one batched matmul.
    - Any other sequence (canonical, explicit): the Pauli-rotation product,
      one term exponential cosh(ca) I + sinh(ca) P at a time, where the
      product with P is a signed permutation of the rows of the two blocks
      laid one above the other.
    """

    def __init__(self, terms, n: int, t: float):
        self.terms = tuple(terms)
        self.n = n
        self.t = float(t)
        self._states = _sectors(n)
        states = self._states.reshape(-1)
        flat = np.empty_like(states)
        flat[states] = np.arange(states.size)  # row of each state in the (2M, M) stack
        strings = [_pauli_string(term, n) for term in self.terms]
        # P restricted to the sectors: P|states[i]> = signs[i] |states[perms[i]]>.
        self._perms = flat[np.array([perm for perm, _ in strings])[:, states]]
        self._signs = np.array([sign for _, sign in strings])[:, states]
        self._coefficients = tuple(term.coefficient for term in self.terms)
        assert np.array_equal(np.take_along_axis(self._signs, self._perms, axis=1), self._signs), (
            "F^T is the reversed half-product only for symmetric generators")
        groups = [_GROUP[term.kind] for term in self.terms]
        self._grouped = groups == sorted(groups)
        if not self._grouped:
            return
        self._diagonals = np.zeros((3, 2**n))
        for term, group in zip(self.terms, groups):
            self._diagonals[group] += term.coefficient * _z_string(term, n)[1]
        # Within a sector a ^ b is an even state, stored at row flat[a ^ b] < M.
        self._xor = flat[self._states[:, :, None] ^ self._states[:, None, :]]
        # (self._walsh @ d)[self._xor] is H^n diag(d) H^n, block by block:
        # the Walsh matrix (-1)^popcount(a & b) / 2^n, on its even rows a.
        basis = np.arange(2**n)
        parity = _parity(basis, n)
        self._walsh = np.where(parity[self._states[0][:, None] & basis], -0.5**n, 0.5**n)
        self._s = reduce(np.kron, [np.array([1, 1j])] * n)[self._states]  # diagonal of S^n

    @classmethod
    def for_instance(cls, instance: ChainInstance, ordering: TermOrdering) -> "S2Evaluator":
        return cls(ordered_terms(instance, ordering), instance.n, instance.t)

    def _forward(self, c: complex) -> np.ndarray:
        return self._grouped_forward(c) if self._grouped else self._pauli_forward(c)

    def _grouped_forward(self, c: complex) -> np.ndarray:
        dxx, dyy, dzz = np.exp(c * self._diagonals)
        yy = (self._walsh @ dyy)[self._xor]
        yy *= self._s[:, :, None]
        yy *= (self._s.conj() * dzz[self._states])[:, None, :]
        return (self._walsh @ dxx)[self._xor] @ yy

    def _pauli_forward(self, c: complex) -> np.ndarray:
        # Builds F^T = E_L ... E_1 on the two blocks stacked as (2M, M) rows,
        # since numpy gathers rows faster than columns.
        half = self._states.shape[1]
        acc = np.tile(np.eye(half, dtype=complex), (2, 1))
        rotated = np.empty_like(acc)
        for perm, sign, a in zip(self._perms, self._signs, self._coefficients):
            np.take(acc, perm, axis=0, out=rotated)
            rotated *= (np.sinh(c * a) * sign)[:, None]
            acc *= np.cosh(c * a)
            acc += rotated
        return acc.reshape(2, half, half).swapaxes(-1, -2)

    def s2(self, phase: float) -> np.ndarray:
        """S2 at the given fraction of the evolution parameter, as its two
        sector blocks: forward half-phase product times the reversed
        half-phase product."""
        forward = self._forward(-0.5j * self.t * float(phase))
        return forward @ forward.swapaxes(-1, -2)


def build_approximation(
    instance: ChainInstance,
    spec: DecompositionSpec,
    p: CoefficientVector,
    evaluator: S2Evaluator | None = None,
) -> np.ndarray:
    """The full product-formula approximation to exp(-i t H), as the stack
    of its two parity-sector blocks (see ``S2Evaluator``).

    One time slice is the product of S2 blocks at the expanded phases
    divided by r; the slice is then raised to the r-th power. For the Suzuki
    seed this is exactly the order-2k formula with r slices.
    """
    if p.k != spec.k:
        raise ValueError(f"coefficient vector k={p.k} does not match spec k={spec.k}")
    ev = evaluator if evaluator is not None else S2Evaluator.for_instance(instance, spec.ordering)
    acc: np.ndarray | None = None
    for x in slice_phases(p):
        block = ev.s2(x / spec.r)
        acc = block if acc is None else acc @ block
    assert acc is not None
    return matrix_power(acc, spec.r)
