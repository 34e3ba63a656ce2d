"""Disordered Heisenberg chain on a ring of n qubits.

The Hamiltonian is the sum of 4n local terms: XX, YY and ZZ couplings on each
bond (j, j+1) — indices wrap, so qubit n couples back to qubit 1 — plus a Z
field of strength v_j on each site. Sites are 1-based throughout.

Every term is a Pauli string, and a term is its row of the generator
table (``_generators``, built once per n), which holds each string as (x, z)
bit masks; ``_strings`` turns masks into signed permutations. The rows are
in per-site reading order (XX, YY, ZZ, Z on site 1, then site 2, ...),
``ChainInstance.coefficients`` gives each row's coefficient, and an
ordering is a permutation of the rows (``TermOrdering.rows``). Every term
flips an even number of spins, so the fitness path restricts operators to
the two parity sectors. This module owns that sector layout
(``_sector_index``, built once per n) and the table, whose rows also hold
each string restricted to the sectors and the generators it anticommutes
with. From the table ``hamiltonian`` builds H as its two real sector
blocks, never at the full dimension, and the S2 kernels of ``trotter``
build every circuit operator. ``LocalTerm`` and ``term_matrix`` are a
second, dense form of a term, kept for the oracles that check the first.

This module also owns the problem's types and their record forms
(``to_dict``; ``from_dict`` refuses a missing or mistyped field by name):
instances, term orderings (the order of exponential gates in a product
formula is a free choice) and the ``DecompositionSpec`` (k, r, an ordering)
that fixes a circuit's shape and its gate counts, before and after merging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

__all__ = [
    "ChainInstance",
    "DecompositionSpec",
    "LocalTerm",
    "OrderingMode",
    "TermKind",
    "TermOrdering",
    "hamiltonian",
    "merged_gate_count",
    "term_matrix",
    "unmerged_gate_count",
]


# The largest chain: one (2, 2^(n-1), 2^(n-1)) complex sector stack takes
# 2^(2n+3) bytes, 128 MiB at n=12, and a scoring run holds several; at
# n=40 the 2^n-entry sector index alone asks for 8 TiB.
# ``experiments.GENERALIZE_N_CAP`` is the default reach of generalize
# --axis n below it.
CHAIN_N_CAP = 12

# The most S2 phases per time slice, 5^(k-1), that a spec may ask for:
# k = 8 has 78,125 (1.9 M gates at n=3, r=1); k = 12 would have 48.8 M,
# and its phase array and list alone would take gigabytes.
SLICE_PHASES_CAP = 100_000

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


def _count(value, name: str) -> int:
    """A count read from JSON, where 5.0 reads as 5; other values are refused by name."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _seed(value, name: str) -> int:
    """A seed read from JSON: a ``_count`` that is not negative."""
    seed = _count(value, name)
    if seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed}")
    return seed


def _numbers(value, name: str) -> list:
    """A list of numbers read from JSON (a boolean is not one); other values
    are refused by name."""
    if not (type(value) is list and all(type(x) in (int, float) for x in value)):
        raise ValueError(f"{name} must be a list of numbers, got {value!r}")
    return value


def _fields(d, name: str, *keys: str) -> list:
    """The values of ``keys`` in the JSON object ``d`` of a record form; a ``d``
    that is not an object, or lacks a key, is refused by ``name``."""
    if type(d) is not dict:
        raise ValueError(f"{name} must be an object, got {d!r}")
    for key in keys:
        if key not in d:
            raise ValueError(f"{name} has no {key}")
    return [d[key] for key in keys]


@dataclass(frozen=True)
class LocalTerm:
    """One summand of the chain Hamiltonian, in the dense form that
    ``term_matrix`` reads (the scoring path uses generator-table rows).

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
    double-counted. n above ``CHAIN_N_CAP`` is refused before anything is
    built.
    """

    n: int
    v: tuple[float, ...]
    t: float
    seed: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 3:
            raise ValueError("chain needs an integer n >= 3")
        if self.n > CHAIN_N_CAP:
            raise ValueError(f"chain n must be at most {CHAIN_N_CAP}, got {self.n}")
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

    def coefficients(self) -> np.ndarray:
        """The 4n term coefficients in generator-table row order: 1 for each
        coupling and v_j for the field on site j."""
        a = np.ones((self.n, 4))
        a[:, 3] = self.v
        return a.reshape(-1)

    def to_dict(self) -> dict:
        return {"n": self.n, "v": list(self.v), "t": self.t, "seed": self.seed}

    @classmethod
    def from_dict(cls, d) -> "ChainInstance":
        n, v, t = _fields(d, "instance", "n", "v", "t")
        v = _numbers(v, "instance v")
        if type(t) not in (int, float):
            raise ValueError(f"instance t must be a number, got {t!r}")
        seed = d.get("seed")
        if seed is not None:  # an instance of generalize --axis n has none
            seed = _seed(seed, "instance seed")
        return cls(_count(n, "instance n"), tuple(v), float(t), seed=seed)


class OrderingMode(str, Enum):
    CANONICAL = "canonical"
    GROUPED = "grouped"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class TermOrdering:
    """How the 4n terms are ordered inside a product-formula pass (``rows``)."""

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

    def rows(self, n: int) -> np.ndarray:
        """The generator-table rows of an n-site chain in this order.

        Canonical is the table's own, per-site reading order; grouped lists
        every XX coupling, then every YY, ZZ and field term (kind-major);
        explicit is the stored permutation (0-based indices into the
        canonical list), which must be a bijection on the 4n rows.
        """
        if self.mode is OrderingMode.CANONICAL:
            return np.arange(4 * n)
        if self.mode is OrderingMode.GROUPED:
            return np.arange(4 * n).reshape(n, 4).T.reshape(-1)
        perm = self.permutation
        if perm is None or sorted(perm) != list(range(4 * n)):
            raise ValueError(f"permutation must be a bijection on 0..{4 * n - 1}")
        return np.array(perm)

    def to_dict(self) -> dict:
        d: dict = {"mode": self.mode.value}
        if self.permutation is not None:
            d["permutation"] = list(self.permutation)
        return d

    @classmethod
    def from_dict(cls, d) -> "TermOrdering":
        (mode,) = _fields(d, "ordering", "mode")
        modes = [m.value for m in OrderingMode]
        if mode not in modes:
            raise ValueError(f"ordering mode must be one of {', '.join(modes)}, got {mode!r}")
        mode = OrderingMode(mode)
        if mode is not OrderingMode.EXPLICIT:
            return cls(mode)
        (perm,) = _fields(d, "ordering", "permutation")
        if type(perm) is not list:
            raise ValueError(f"ordering permutation must be a list of integers, got {perm!r}")
        return cls.explicit(_count(i, "ordering permutation entry") for i in perm)


@dataclass(frozen=True)
class DecompositionSpec:
    """Order parameter k, slice count r, and term ordering: together these
    fix the circuit shape and gate count. A k whose 5^(k-1) S2 phases per
    slice pass ``SLICE_PHASES_CAP`` is refused."""

    k: int
    r: int
    ordering: TermOrdering

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("k must be an integer >= 1")
        # 5^(k-1) > cap, without raising 5 to a huge k; the cap is no power of 5.
        if self.k - 1 > math.log(SLICE_PHASES_CAP, 5):
            raise ValueError(
                f"k={self.k} needs 5^{self.k - 1} S2 phases per slice, more than {SLICE_PHASES_CAP:,}")
        if not isinstance(self.r, int) or self.r < 1:
            raise ValueError("r must be an integer >= 1")

    def to_dict(self) -> dict:
        return {"k": self.k, "r": self.r, "ordering": self.ordering.to_dict()}

    @classmethod
    def from_dict(cls, d) -> "DecompositionSpec":
        k, r, ordering = _fields(d, "spec", "k", "r", "ordering")
        return cls(_count(k, "spec k"), _count(r, "spec r"), TermOrdering.from_dict(ordering))


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


@lru_cache(maxsize=None)
def _sector_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis states split by parity, shape (2, 2^(n-1)): the states of
    even popcount, then those of odd popcount, each ascending; and the row
    of each basis state in the (2M, M) stack of the two sectors (the states
    flattened, inverted). Built once per n and read-only.

    Every chain term flips an even number of bits (XX and YY two, ZZ and Z
    none), so it commutes with the parity Z^n and never maps a state of one
    sector into the other: every operator built from the terms is
    block-diagonal in these two sectors.
    """
    states = np.argsort(_popcount(np.arange(2**n), n) & 1, kind="stable").reshape(2, -1)
    rows = np.empty(2**n, dtype=np.int64)
    rows[states.reshape(-1)] = np.arange(2**n)
    for array in (states, rows):
        array.flags.writeable = False
    return states, rows


class _GeneratorTable(NamedTuple):
    """The 4n generators of an n-site chain, one row each in per-site
    reading order: row 4(j-1) + i is kind i of site j, the kinds in order
    XX, YY, ZZ, Z (``TermKind``); see ``_generators``.

    ``perms`` and ``signs`` hold each string restricted to the two parity
    sectors laid one above the other: with ``states`` the flattened sector
    states of ``_sector_index(n)``, P|states[i]> = sign[i] |states[perm[i]]>,
    and each row of ``perms`` maps a sector into itself.
    """

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
    x, z = [], []
    for site in range(1, n + 1):
        one = 1 << (n - site)
        bond = one | (1 << (n - site % n - 1))  # with qubit site % n + 1
        for xg, zg in [(bond, 0), (bond, bond), (0, bond), (0, one)]:  # XX, YY, ZZ, Z
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


def _popcount(values: np.ndarray, n: int) -> np.ndarray:
    """Popcount of each entry of an integer array below 2^n."""
    return sum((values >> bit) & 1 for bit in range(n))


def hamiltonian(instance: ChainInstance) -> np.ndarray:
    """H as the real ``(2, 2^(n-1), 2^(n-1))`` stack of its two
    parity-sector blocks (``_sector_index``).

    Each table row adds its coefficient times the signed permutation of
    its Pauli string (``_GeneratorTable``), one entry per column, with no
    Kronecker chain. The entries are summed in row order from +0, so each
    block is bit-identical to the real part of the summed ``term_matrix``
    on its sector, whose imaginary part is zero.
    """
    n = instance.n
    table = _generators(n)
    half = 2 ** (n - 1)
    positions = table.perms * half + np.arange(2 * half) % half  # of each entry in the flat stack
    weights = instance.coefficients()[:, None] * table.signs
    flat = np.bincount(positions.reshape(-1), weights.reshape(-1), minlength=2 * half * half)
    return flat.reshape(2, half, half)


def _pauli_sites(term: LocalTerm, n: int) -> dict[int, str]:
    if term.kind is TermKind.Z:
        return {term.site: "z"}
    letter = term.kind.value[0]
    return {term.site: letter, term.site % n + 1: letter}


def unmerged_gate_count(instance: ChainInstance, spec: DecompositionSpec) -> int:
    """Exponential-gate count of the order-2k formula with r time slices,
    before any merging: 2L gates per symmetric block, r * 5^(k-1) blocks."""
    return 2 * 4 * instance.n * spec.r * 5 ** (spec.k - 1)


def merged_gate_count(instance: ChainInstance, spec: DecompositionSpec) -> int:
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
    rows = spec.ordering.rows(instance.n).tolist()
    anti = _generators(instance.n).anti
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
    return first + (spec.r * 5 ** (spec.k - 1) - 1) * later
