"""Disordered Heisenberg chain on a ring of n qubits.

The Hamiltonian is the sum of 4n local terms: XX, YY and ZZ couplings on each
bond (j, j+1) — indices wrap, so qubit n couples back to qubit 1 — plus a Z
field of strength v_j on each site. Sites are 1-based throughout.

Every term is a Pauli string. ``hamiltonian`` adds the terms as signed
permutations; ``term_matrix`` builds one term as a Kronecker chain, an
independent form kept as a check on the first. Both are dense; the fitness
path restricts operators to the two parity sectors of ``_sectors``, since
every term flips an even number of spins.

Besides building operators, this module owns term orderings (the order of
exponential gates in a product formula is a free choice) and the gate count
after merging exponentials of identical generators that can be brought next
to each other by commutation. ``merge_gates`` walks an explicit gate stream
and is the brute-force check on ``merged_gate_count``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce

import numpy as np

__all__ = [
    "ChainInstance",
    "LocalTerm",
    "OrderingMode",
    "Pauli",
    "TermKind",
    "TermOrdering",
    "hamiltonian",
    "merge_gates",
    "merged_gate_count",
    "ordered_terms",
    "term_matrix",
    "terms_commute",
    "unmerged_gate_count",
]


class Pauli(str, Enum):
    X = "x"
    Y = "y"
    Z = "z"


_PAULI_MATS = {
    Pauli.X: np.array([[0, 1], [1, 0]], dtype=complex),
    Pauli.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Pauli.Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


class TermKind(str, Enum):
    """Kinds of local Hamiltonian terms; Z is the single-site field term."""

    XX = "xx"
    YY = "yy"
    ZZ = "zz"
    Z = "z"


@dataclass(frozen=True)
class LocalTerm:
    """One summand of the chain Hamiltonian.

    Couplings act on the bond (site, site % n + 1) with coefficient 1; the
    field term acts on ``site`` alone with coefficient v_site.
    """

    kind: TermKind
    site: int
    coefficient: float = 1.0


@dataclass(frozen=True)
class ChainInstance:
    """A concrete problem: qubit count n, disorder vector v, simulation time t.

    n >= 3 is required: on a 2-site ring the periodic couplings would be
    double-counted.
    """

    n: int
    v: tuple[float, ...]
    t: float
    seed: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 3:
            raise ValueError("chain needs an integer n >= 3")
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        if len(self.v) != self.n:
            raise ValueError(f"disorder vector must have length n={self.n}")
        if not all(np.isfinite(x) and abs(x) <= 1.0 for x in self.v):
            raise ValueError("disorder strengths must be finite and in [-1, 1]")
        object.__setattr__(self, "t", float(self.t))
        if not (np.isfinite(self.t) and self.t > 0):
            raise ValueError("simulation time must be positive and finite")

    @classmethod
    def random(
        cls,
        n: int,
        rng: np.random.Generator,
        t: float | None = None,
        seed: int | None = None,
    ) -> "ChainInstance":
        """Draw v_j i.i.d. uniform in [-1, 1]; t defaults to 2n."""
        v = tuple(float(x) for x in rng.uniform(-1.0, 1.0, size=n))
        return cls(n=n, v=v, t=float(2 * n) if t is None else float(t), seed=seed)

    def terms(self) -> tuple[LocalTerm, ...]:
        """All 4n local terms, in per-site reading order (XX, YY, ZZ, Z)."""
        out: list[LocalTerm] = []
        for j in range(1, self.n + 1):
            out.append(LocalTerm(TermKind.XX, j))
            out.append(LocalTerm(TermKind.YY, j))
            out.append(LocalTerm(TermKind.ZZ, j))
            out.append(LocalTerm(TermKind.Z, j, self.v[j - 1]))
        return tuple(out)


class OrderingMode(str, Enum):
    CANONICAL = "canonical"
    GROUPED = "grouped"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class TermOrdering:
    """How the 4n terms are ordered inside a product-formula pass."""

    mode: OrderingMode
    permutation: tuple[int, ...] | None = None

    @classmethod
    def canonical(cls) -> "TermOrdering":
        return cls(OrderingMode.CANONICAL)

    @classmethod
    def grouped(cls) -> "TermOrdering":
        return cls(OrderingMode.GROUPED)

    @classmethod
    def explicit(cls, permutation) -> "TermOrdering":
        return cls(OrderingMode.EXPLICIT, tuple(int(i) for i in permutation))

    def to_dict(self) -> dict:
        d: dict = {"mode": self.mode.value}
        if self.permutation is not None:
            d["permutation"] = list(self.permutation)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TermOrdering":
        mode = OrderingMode(d["mode"])
        if mode is OrderingMode.EXPLICIT:
            return cls.explicit(d["permutation"])
        return cls(mode)


def ordered_terms(instance: ChainInstance, ordering: TermOrdering) -> tuple[LocalTerm, ...]:
    """The instance's terms in the order requested.

    Canonical is the per-site reading order; grouped lists all XX couplings,
    then all YY, all ZZ, and all field terms; explicit applies a stored
    permutation (0-based indices into the canonical list).
    """
    base = instance.terms()
    if ordering.mode is OrderingMode.CANONICAL:
        return base
    if ordering.mode is OrderingMode.GROUPED:
        by_kind = {kind: [] for kind in (TermKind.XX, TermKind.YY, TermKind.ZZ, TermKind.Z)}
        for term in base:
            by_kind[term.kind].append(term)
        return tuple(t for kind in by_kind for t in by_kind[kind])
    perm = ordering.permutation
    if perm is None or sorted(perm) != list(range(len(base))):
        raise ValueError(f"permutation must be a bijection on 0..{len(base) - 1}")
    return tuple(base[i] for i in perm)


def term_matrix(term: LocalTerm, n: int) -> np.ndarray:
    """The 2^n-dimensional Hermitian matrix for one local term, as a
    Kronecker chain of 2x2 factors with qubit 1 leftmost.

    Wrap-around couplings (site = n) put operators at tensor positions n
    and 1 of the chain. This is independent of the signed-permutation form
    that ``hamiltonian`` and the S2 kernels use, so tests check one
    against the other.
    """
    factors = [np.eye(2, dtype=complex)] * n
    for site, letter in _pauli_sites(term, n).items():
        factors[site - 1] = _PAULI_MATS[Pauli(letter)]
    return term.coefficient * reduce(np.kron, factors)


def _z_string(term: LocalTerm, n: int) -> tuple[int, np.ndarray]:
    """Bit mask of a term's qubits (qubit 1 is the most significant bit, as
    in the kron order of ``term_matrix``) and the diagonal of its Z string."""
    sites = [term.site] if term.kind is TermKind.Z else [term.site, term.site % n + 1]
    basis = np.arange(2**n)
    parity = np.zeros_like(basis)
    for site in sites:
        parity ^= basis >> (n - site)
    return sum(1 << (n - site) for site in sites), 1.0 - 2.0 * (parity & 1)


def _pauli_string(term: LocalTerm, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The term's Pauli string P, coefficient left out, as a signed
    permutation: P|b> = sign[b] |perm[b]>. X flips a bit, Z contributes
    (-1)^bit and Y = iXZ does both, so YY picks up i * i = -1: the signs
    of every chain term are real."""
    mask, z_signs = _z_string(term, n)
    basis = np.arange(2**n)
    if term.kind is TermKind.XX:
        return basis ^ mask, np.ones(2**n)
    if term.kind is TermKind.YY:
        return basis ^ mask, -z_signs
    return basis, z_signs


def _sectors(n: int) -> np.ndarray:
    """The basis states split by parity, shape (2, 2^(n-1)): the states of
    even popcount, then those of odd popcount, each ascending.

    Every chain term flips an even number of bits (XX and YY two, ZZ and Z
    none), so it commutes with the parity Z^n and never maps a state of
    one sector into the other. Every operator built from the terms is
    block-diagonal in these two sectors.
    """
    return np.argsort(_parity(np.arange(2**n), n), kind="stable").reshape(2, -1)


def _parity(values: np.ndarray, n: int) -> np.ndarray:
    """Popcount parity of each entry of an integer array below 2^n."""
    parity = np.zeros_like(values)
    for bit in range(n):
        parity ^= values >> bit
    return parity & 1


def hamiltonian(instance: ChainInstance) -> np.ndarray:
    """Sum of all 4n term matrices (a fixed summation order keeps this
    independent of any TermOrdering).

    Each term adds its coefficient times the signed permutation of its
    Pauli string, one nonzero entry per column, with no Kronecker chain.
    The entries left out are zeros of ``term_matrix``. Partial sums start
    at +0 and never hold -0, and adding a signed zero leaves them as they
    are, so the result is bit-identical to summing ``term_matrix``.
    """
    dim = 2**instance.n
    total = np.zeros((dim, dim), dtype=complex)
    columns = np.arange(dim)
    for term in instance.terms():
        perm, sign = _pauli_string(term, instance.n)
        total[perm, columns] += term.coefficient * sign
    return total


def _pauli_sites(term: LocalTerm, n: int) -> dict[int, str]:
    if term.kind is TermKind.Z:
        return {term.site: "z"}
    letter = term.kind.value[0]
    return {term.site: letter, term.site % n + 1: letter}


def terms_commute(a: LocalTerm, b: LocalTerm, n: int) -> bool:
    """Pauli-string commutation: strings commute iff they anticommute on an
    even number of shared sites."""
    sa = _pauli_sites(a, n)
    sb = _pauli_sites(b, n)
    clashes = sum(1 for site, letter in sa.items() if site in sb and sb[site] != letter)
    return clashes % 2 == 0


def merge_gates(
    gates: list[tuple[int, float]], commute: np.ndarray
) -> list[tuple[int, float]]:
    """Collapse exponentials of identical generators, allowing a gate to slide
    left past gates that commute with it; phases of merged gates add.

    ``gates`` are (generator id, phase) pairs; ``commute[i, j]`` says whether
    generators i and j commute. Distinct generators never fuse, even when
    they commute.
    """
    out: list[tuple[int, float]] = []
    for gid, phase in gates:
        target = -1
        i = len(out) - 1
        while i >= 0:
            hid = out[i][0]
            if hid == gid:
                target = i
                break
            if not commute[hid, gid]:
                break
            i -= 1
        if target >= 0:
            out[target] = (gid, out[target][1] + phase)
        else:
            out.append((gid, phase))
    return out


def commutation_table(terms: tuple[LocalTerm, ...], n: int) -> np.ndarray:
    """``table[i, j]`` says whether terms i and j commute (``merge_gates``'
    input)."""
    table = np.zeros((len(terms), len(terms)), dtype=bool)
    for i, a in enumerate(terms):
        for j, b in enumerate(terms):
            table[i, j] = terms_commute(a, b, n)
    return table


def unmerged_gate_count(instance: ChainInstance, k: int, r: int) -> int:
    """Exponential-gate count of the order-2k formula with r time slices,
    before any merging: 2L gates per symmetric block, r * 5^(k-1) blocks."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    return 2 * 4 * instance.n * r * 5 ** (k - 1)


def _anticommutation_masks(terms: tuple[LocalTerm, ...], n: int) -> list[int]:
    """Bit h of entry g is set when terms g and h anticommute.

    As in ``terms_commute``, two Pauli strings anticommute iff they carry
    different letters on an odd number of shared sites, so toggling bit h
    of g once per such site leaves exactly that parity. Only terms on a
    common site are paired, which keeps this linear in the chain length.
    """
    on_site: dict[int, list[tuple[int, str]]] = {}
    for g, term in enumerate(terms):
        for site, letter in _pauli_sites(term, n).items():
            on_site.setdefault(site, []).append((g, letter))
    anti = [0] * len(terms)
    for acting in on_site.values():
        for g, a in acting:
            for h, b in acting:
                if a != b:
                    anti[g] ^= 1 << h
    return anti


def merged_gate_count(instance: ChainInstance, ordering: TermOrdering, k: int, r: int) -> int:
    """Gate count of the order-2k, r-slice product formula after merging
    same-generator exponentials across commuting neighbours; the same
    integer as ``merge_gates`` gives on the full gate stream.

    The formula is r * 5^(k-1) symmetric blocks, each the L terms forward
    then reversed. Merging never moves or removes a gate, it only adds
    phases, so an incoming gate g merges exactly when, reading the output
    from the right, a copy of g comes before any gate that anticommutes
    with g. One "open" bit per generator tracks that: a gate whose bit is
    set merges; otherwise it is appended, which clears the bits of every
    generator it anticommutes with and sets its own.

    The open generators always commute pairwise, so when g is open the
    append rule O -> (O - A(g)) | {g} (A(g): the generators anticommuting
    with g) leaves the open set O as it is, like the merge. Every gate thus
    applies that map, and a block composes them into O -> (O & K) | C, K
    being the generators that commute with every term and C the set one
    block leaves from empty. That map is idempotent, so every block after
    the first starts and ends at C and appends the same number of gates:
    two blocks give the count for any r and k.
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    terms = ordered_terms(instance, ordering)
    anti = _anticommutation_masks(terms, instance.n)
    block = [*range(len(terms)), *reversed(range(len(terms)))]
    state = 0
    appended = []  # gates appended by the first block and by each later one
    for _ in range(2):
        added = 0
        for g in block:
            if not (state >> g) & 1:
                added += 1
                state = (state & ~anti[g]) | (1 << g)
        appended.append(added)
    first, later = appended
    return first + (r * 5 ** (k - 1) - 1) * later
