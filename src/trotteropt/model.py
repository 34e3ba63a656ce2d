"""Disordered Heisenberg chain on a ring of n qubits.

The Hamiltonian is the sum of 4n local terms: XX, YY and ZZ couplings on each
bond (j, j+1) — indices wrap, so qubit n couples back to qubit 1 — plus a Z
field of strength v_j on each site. Sites are 1-based throughout.

Every term is a Pauli string. The generator table (``_generators``,
built once per n) holds each of the 4n generators as the (x, z) bit masks
of its string, and ``_strings`` turns masks into signed permutations;
``term_matrix`` builds one term as a dense Kronecker chain, an independent
form kept as a check on the first. Every term flips an even number of
spins, so the fitness path restricts operators to the two parity sectors
of ``_sectors``. This module owns that sector layout (``_sector_index``,
built once per n) and the table, whose rows also hold each string
restricted to the sectors and the generators it anticommutes with.
``_rows`` picks the table's rows in the order of a term sequence; from
them ``hamiltonian`` builds H as its two real sector blocks, never at the
full dimension, and the S2 kernels of ``trotter`` build every circuit
operator.

Besides building operators, this module owns term orderings (the order of
exponential gates in a product formula is a free choice) and the gate count
after merging exponentials of identical generators that can be brought next
to each other by commutation, which reads the same table's anticommutation
rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, reduce
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

__all__ = [
    "ChainInstance",
    "LocalTerm",
    "OrderingMode",
    "TermKind",
    "TermOrdering",
    "hamiltonian",
    "merged_gate_count",
    "ordered_terms",
    "term_matrix",
    "unmerged_gate_count",
]


# The 2x2 Pauli matrices by letter, for ``term_matrix``.
_PAULI_MATS = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class TermKind(str, Enum):
    """Kinds of local Hamiltonian terms; Z is the single-site field term."""

    XX = "xx"
    YY = "yy"
    ZZ = "zz"
    Z = "z"


# The per-site reading order of the terms.
_KINDS = (TermKind.XX, TermKind.YY, TermKind.ZZ, TermKind.Z)


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
    double-counted. The terms are built once, with the instance; they take
    no part in equality or hashing, being fixed by n and v.
    """

    n: int
    v: tuple[float, ...]
    t: float
    seed: int | None = None
    _terms: tuple["LocalTerm", ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_terms", tuple(
            LocalTerm(kind, j, self.v[j - 1] if kind is TermKind.Z else 1.0)
            for j in range(1, self.n + 1) for kind in _KINDS
        ))

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
        return self._terms


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
        by_kind = {kind: [] for kind in _KINDS}
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
        factors[site - 1] = _PAULI_MATS[letter]
    return term.coefficient * reduce(np.kron, factors)


def _sectors(n: int) -> np.ndarray:
    """The basis states split by parity, shape (2, 2^(n-1)): the states of
    even popcount, then those of odd popcount, each ascending.

    Every chain term flips an even number of bits (XX and YY two, ZZ and Z
    none), so it commutes with the parity Z^n and never maps a state of
    one sector into the other. Every operator built from the terms is
    block-diagonal in these two sectors.
    """
    return np.argsort(_popcount(np.arange(2**n), n) & 1, kind="stable").reshape(2, -1)


@lru_cache(maxsize=None)
def _sector_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_sectors(n)`` and the row of each basis state in the (2M, M) stack
    of the two sectors (``_sectors(n)`` flattened, inverted), built once per
    n and read-only."""
    states = _sectors(n)
    rows = np.empty(2**n, dtype=np.int64)
    rows[states.reshape(-1)] = np.arange(2**n)
    for array in (states, rows):
        array.flags.writeable = False
    return states, rows


class _GeneratorTable(NamedTuple):
    """The 4n generators of an n-site chain, one row each in per-site
    reading order (``ChainInstance.terms``); see ``_generators``.

    ``perms`` and ``signs`` hold each string restricted to the two parity
    sectors laid one above the other: with ``states`` the flattened
    ``_sectors(n)``, P|states[i]> = sign[i] |states[perm[i]]>, and each row
    of ``perms`` maps a sector into itself.
    """

    rows: MappingProxyType  # (kind, site) -> row
    x: np.ndarray  # (4n,) X bit mask of each row's string
    z: np.ndarray  # (4n,) Z bit mask of each row's string
    perms: np.ndarray  # (4n, 2M)
    signs: np.ndarray  # (4n, 2M)
    anti: tuple[int, ...]  # bit h of entry g: rows g and h anticommute


@lru_cache(maxsize=None)
def _generators(n: int) -> _GeneratorTable:
    """The generator table of n sites, built once per n and read-only. It
    depends on kinds and sites only, never on coefficients or orderings.

    Each generator is held as the (x, z) bit masks of its Pauli string:
    X sets its qubit's bit in x, Z in z, and Y = iXZ in both, qubit 1 being
    the most significant bit as in ``term_matrix``. The sector strings come
    from the masks through ``_strings``. Two strings anticommute iff they
    carry different non-identity letters on an odd number of qubits, that
    is iff popcount((x_g & z_h) ^ (z_g & x_h)) is odd. Each sector string is
    checked to be symmetric, as the S2 kernels of ``trotter`` need.
    """
    rows, x, z = {}, [], []
    for site in range(1, n + 1):
        one = 1 << (n - site)
        bond = one | (1 << (n - site % n - 1))  # with qubit site % n + 1
        for kind, (xg, zg) in zip(_KINDS, [(bond, 0), (bond, bond), (0, bond), (0, one)]):
            rows[kind, site] = len(x)
            x.append(xg)
            z.append(zg)
    x, z = np.array(x), np.array(z)
    states, positions = _sector_index(n)
    states = states.reshape(-1)
    perms, signs = _strings(x, z, n)
    perms, signs = positions[perms[:, states]], signs[:, states]
    assert np.array_equal(np.take_along_axis(signs, perms, axis=1), signs), (
        "F^T is the reversed half-product only for symmetric generators")
    odd = (_popcount((x[:, None] & z) ^ (z[:, None] & x), n) & 1).tolist()
    for array in (x, z, perms, signs):
        array.flags.writeable = False
    return _GeneratorTable(
        MappingProxyType(rows),
        x,
        z,
        perms,
        signs,
        # Python ints, not an int64 sum: 4n bits pass 63 at n = 16.
        tuple(sum(1 << h for h, bit in enumerate(row) if bit) for row in odd),
    )


def _strings(x, z, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The Pauli strings of bit masks x and z at full dimension,
    coefficients left out, as rows of signed permutations:
    P|b> = sign[b] |perm[b]>, with perm[b] = b ^ x. X flips a bit, Z
    contributes (-1)^bit and Y = iXZ does both, so each pair of Y letters
    adds i * i = -1: the signs of every chain term are real. Masks of shape
    (L,) give rows of shape (L, 2^n); scalar masks give one row."""
    basis = np.arange(2**n)
    x, z = np.asarray(x)[..., None], np.asarray(z)[..., None]
    return basis ^ x, 1.0 - 2.0 * ((_popcount(basis & z, n) + _popcount(x & z, n) // 2) & 1)


def _rows(terms, table: _GeneratorTable) -> list[int]:
    """The table row of each term, in sequence order."""
    return [table.rows[term.kind, term.site] for term in terms]


def _popcount(values: np.ndarray, n: int) -> np.ndarray:
    """Popcount of each entry of an integer array below 2^n."""
    return sum((values >> bit) & 1 for bit in range(n))


def hamiltonian(instance: ChainInstance) -> np.ndarray:
    """H as the real ``(2, 2^(n-1), 2^(n-1))`` stack of its two
    parity-sector blocks (``_sectors``).

    Each term adds its coefficient times the signed permutation of its
    Pauli string (``_GeneratorTable``), one entry per column, with no
    Kronecker chain. The entries are summed in term order from +0, so each
    block is bit-identical to the real part of the summed ``term_matrix``
    on its sector, whose imaginary part is zero.
    """
    n = instance.n
    terms = instance.terms()
    table = _generators(n)
    rows = _rows(terms, table)
    perms, signs = table.perms[rows], table.signs[rows]
    half = 2 ** (n - 1)
    positions = perms * half + np.arange(2 * half) % half  # of each entry in the flat stack
    weights = np.array([term.coefficient for term in terms])[:, None] * signs
    flat = np.bincount(positions.reshape(-1), weights.reshape(-1), minlength=2 * half * half)
    return flat.reshape(2, half, half)


def _pauli_sites(term: LocalTerm, n: int) -> dict[int, str]:
    if term.kind is TermKind.Z:
        return {term.site: "z"}
    letter = term.kind.value[0]
    return {term.site: letter, term.site % n + 1: letter}


def unmerged_gate_count(instance: ChainInstance, k: int, r: int) -> int:
    """Exponential-gate count of the order-2k formula with r time slices,
    before any merging: 2L gates per symmetric block, r * 5^(k-1) blocks."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    return 2 * 4 * instance.n * r * 5 ** (k - 1)


def merged_gate_count(instance: ChainInstance, ordering: TermOrdering, k: int, r: int) -> int:
    """Gate count of the order-2k, r-slice product formula after merging
    same-generator exponentials across commuting neighbours; the same
    integer as a gate-by-gate merge of the full gate stream gives.

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

    The bits are the rows of the generator table (``_generators``), whose
    anticommutation masks do not depend on the ordering: the ordering only
    fixes the order in which a block visits the rows.
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    table = _generators(instance.n)
    rows = _rows(ordered_terms(instance, ordering), table)
    anti = table.anti
    block = [*rows, *reversed(rows)]
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
