"""The disordered Heisenberg ring and the problem's types.

H is the sum of 4n local terms on a ring of n qubits, sites 1-based and
site n coupling back to site 1: XX, YY and ZZ on each bond (j, j+1) with
coefficient 1, and Z on each site j with coefficient v_j. Every term is a
Pauli string, held as its row of the generator table (``_generators``,
built once per n): rows in per-site reading order (XX, YY, ZZ, Z of site 1,
then of site 2, ...), ``ChainInstance.coefficients`` in that order, and an
ordering is a permutation of the rows (``TermOrdering.rows``). Operators
are held in the parity-sector layout that this module owns
(``_sector_index``). ``LocalTerm`` and ``term_matrix`` are a second, dense
form of a term, kept for the oracles that check the first.

``ChainInstance`` and ``DecompositionSpec`` (k, r and an ordering: a
circuit's shape and gate counts) refuse a bad value when made, and every
``from_dict`` a missing or mistyped record field, by name.
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


# The largest chain: one complex sector stack takes 2^(2n+3) bytes, 128 MiB
# at n=12, and a scoring run holds several.
CHAIN_N_CAP = 12

# The most S2 phases per time slice, 5^(k-1), that a spec may ask for
# (k <= 8); at k = 12 the phase array and list alone would take gigabytes.
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
    """One summand of H in the dense form that ``term_matrix`` reads: a
    coupling acts on the bond (site, site % n + 1), a field on ``site``."""

    kind: TermKind
    site: int
    coefficient: float = 1.0


@dataclass(frozen=True)
class ChainInstance:
    """A concrete problem: qubit count n, disorder vector v, simulation time t.

    Refuses an n below 3 (a 2-site ring would count its couplings twice) or
    above ``CHAIN_N_CAP``, a v of another length or outside [-1, 1], and a
    t that is not positive or whose 4n t (a bound on ||H|| t) overflows.
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
        if not np.isfinite(self.t * 4 * self.n):  # ||H|| t <= 4n t must not overflow
            raise ValueError(f"simulation time t={self.t} is too large: 4n t overflows at n={self.n}")

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
        """The generator-table rows of an n-site chain in this order:
        canonical is the table's own order, grouped lists every XX, then
        every YY, ZZ and Z term, and explicit is the stored permutation,
        which must be a bijection on the 4n rows."""
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
    fix the circuit shape and gate count. Refuses a k below 1 or one whose
    5^(k-1) S2 phases per slice pass ``SLICE_PHASES_CAP``, and an r below 1
    or beyond the float range, which the phases divide by."""

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
        try:
            float(self.r)
        except OverflowError:
            raise ValueError(f"r is too large: an integer of {self.r.bit_length()} bits, "
                             "beyond the float range (1.8e308)") from None

    def to_dict(self) -> dict:
        return {"k": self.k, "r": self.r, "ordering": self.ordering.to_dict()}

    @classmethod
    def from_dict(cls, d) -> "DecompositionSpec":
        k, r, ordering = _fields(d, "spec", "k", "r", "ordering")
        return cls(_count(k, "spec k"), _count(r, "spec r"), TermOrdering.from_dict(ordering))


def term_matrix(term: LocalTerm, n: int) -> np.ndarray:
    """The 2^n-dimensional Hermitian matrix of one local term, as a
    Kronecker chain of 2x2 factors with qubit 1 leftmost: independent of
    the generator table, so tests check one against the other."""
    factors = [np.eye(2, dtype=complex)] * n
    for site, letter in _pauli_sites(term, n).items():
        factors[site - 1] = _PAULI_MATS[letter]
    return term.coefficient * reduce(np.kron, factors)


@lru_cache(maxsize=None)
def _sector_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The parity-sector layout of n sites, built once per n and read-only.

    Every chain term flips an even number of spins (XX and YY two, ZZ and Z
    none), so it commutes with the parity Z^n and never maps a state of one
    sector into the other. So H, every S2 block, a slice, its r-th power
    and exp(-i t H) are exactly block-diagonal in the even- and odd-popcount
    states, and each is held as the ``(2, M, M)`` stack of its two blocks,
    M = 2^(n-1): a quarter of the matmul and eigensolver work, and the same
    spectral norm, the larger of the two block norms.

    Returns the states, shape (2, M), even then odd, each ascending; and
    the row of each basis state in the (2M, M) stack of both sectors.
    """
    states = np.argsort(_popcount(np.arange(2**n), n) & 1, kind="stable").reshape(2, -1)
    rows = np.empty(2**n, dtype=np.int64)
    rows[states.reshape(-1)] = np.arange(2**n)
    for array in (states, rows):
        array.flags.writeable = False
    return states, rows


class _GeneratorTable(NamedTuple):
    """The 4n generators of an n-site chain: row 4(j-1) + i is kind i of
    site j, the kinds in order XX, YY, ZZ, Z (``TermKind``). ``perms`` and
    ``signs`` hold each string on the two sectors laid one above the other:
    with ``states`` the flattened states of ``_sector_index(n)``,
    P|states[i]> = sign[i] |states[perm[i]]>, each sector mapped into itself.
    """

    x: np.ndarray  # (4n,) X bit mask of each row's string
    z: np.ndarray  # (4n,) Z bit mask of each row's string
    perms: np.ndarray  # (4n, 2M)
    signs: np.ndarray  # (4n, 2M)
    anti: tuple[int, ...]  # bit h of entry g: rows g and h anticommute


@lru_cache(maxsize=None)
def _generators(n: int) -> _GeneratorTable:
    """The generator table of n sites, built once per n and read-only; it
    depends on kinds and sites only, never on coefficients or orderings.

    Each generator is the (x, z) bit masks of its Pauli string: X sets its
    qubit's bit in x, Z in z, and Y = iXZ both, qubit 1 being the most
    significant bit. Two strings anticommute iff
    popcount((x_g & z_h) ^ (z_g & x_h)) is odd. Each sector string is
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
    """H as the real stack of its two sector blocks: each table row adds
    its coefficient times its signed permutation, one entry per column,
    summed in row order from +0. So each block is bit-identical to the
    real part of the summed ``term_matrix`` on its sector."""
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
    two blocks give the count for any r and k. The bits are the rows of the
    generator table; the ordering only fixes the order a block visits them.
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
