"""Independent oracles for the generator table and the scoring path.

``chain_terms`` lists an instance's terms as ``LocalTerm``s, the dense form
``term_matrix`` reads, and ``ordered_chain_terms`` orders them by each
ordering's definition, not through ``TermOrdering.rows``. ``term_row`` is
the table row a term should have, from the table's stated layout.

``merge_gates`` walks an explicit gate stream gate by gate, and
``terms_commute`` decides commutation from the Pauli letters each term puts
on each site (``model._pauli_sites``), not from the generator table's bit
masks, so they check the table's anticommutation rows and the open-bit
counter that reads them.

``reference_error`` scores a coefficient vector at full dimension in
extended precision, as a check on the float64 fitness.

``grouped_s2_reference`` is the grouped S2 kernel in the form it had before
the XX and YY groups shared a Walsh product: two Walsh products, and S2 as
``F @ F.swapaxes(-1, -2)`` at every block size.
"""

from functools import reduce

import numpy as np

from trotteropt.model import LocalTerm, OrderingMode, TermKind, _pauli_sites, term_matrix


def chain_terms(instance) -> list[LocalTerm]:
    """The instance's 4n terms in per-site reading order: XX, YY, ZZ and the
    field on site 1, then on site 2, and so on."""
    return [LocalTerm(kind, site, instance.v[site - 1] if kind is TermKind.Z else 1.0)
            for site in range(1, instance.n + 1) for kind in TermKind]


def term_row(term: LocalTerm) -> int:
    """The generator-table row of a term: kind i of site j is row 4(j-1) + i."""
    return 4 * (term.site - 1) + list(TermKind).index(term.kind)


def ordered_chain_terms(instance, ordering) -> list[LocalTerm]:
    """``chain_terms`` in the order an ordering defines: grouped takes every
    XX coupling, then every YY, ZZ and field term; explicit applies its
    permutation to the canonical list."""
    terms = chain_terms(instance)
    if ordering.mode is OrderingMode.CANONICAL:
        return terms
    if ordering.mode is OrderingMode.GROUPED:
        return [term for kind in TermKind for term in terms if term.kind is kind]
    assert sorted(ordering.permutation) == list(range(len(terms)))
    return [terms[i] for i in ordering.permutation]


def terms_commute(a: LocalTerm, b: LocalTerm, n: int) -> bool:
    """Pauli-string commutation: strings commute iff they anticommute on an
    even number of shared sites."""
    sa = _pauli_sites(a, n)
    sb = _pauli_sites(b, n)
    clashes = sum(1 for site, letter in sa.items() if site in sb and sb[site] != letter)
    return clashes % 2 == 0


def commutation_table(terms, n: int) -> np.ndarray:
    """``table[i, j]`` says whether terms i and j commute (``merge_gates``'
    input)."""
    table = np.zeros((len(terms), len(terms)), dtype=bool)
    for i, a in enumerate(terms):
        for j, b in enumerate(terms):
            table[i, j] = terms_commute(a, b, n)
    return table


def merge_gates(gates: list[tuple[int, float]], commute: np.ndarray) -> list[tuple[int, float]]:
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


def reference_error(instance, k: int, r: int, ordering, p) -> float:
    """||exp(-itH) - (prod_x S2(x/r))^r||_2, built at full dimension in
    ``np.clongdouble`` from the terms of ``ordered_chain_terms``.

    Each gate exp(-i t x a P / 2r) of a term a P is the closed form
    cosh(c a) I + sinh(c a) P at c = -i t x / 2r, that is
    cos(t x a / 2r) I - i sin(t x a / 2r) P; exp(-itH) is a Taylor series
    with scaling and squaring. Only the difference is rounded to complex128,
    for numpy's SVD-based 2-norm.
    """
    n, t = instance.n, np.longdouble(instance.t)
    terms = ordered_chain_terms(instance, ordering)
    paulis = [term_matrix(LocalTerm(term.kind, term.site), n).astype(np.clongdouble)
              for term in terms]
    a = [np.longdouble(term.coefficient) for term in terms]
    eye = np.eye(2**n, dtype=np.clongdouble)
    phases = [np.longdouble(1)]
    for level in range(k - 1):
        block = [np.longdouble(x) for x in p[5 * level: 5 * level + 5]]
        phases = [c * x for c in block for x in phases]
    step = eye
    for x in phases:
        theta = t * x / (2 * r)
        half = [np.cos(theta * aj) * eye - 1j * np.sin(theta * aj) * pj for aj, pj in zip(a, paulis)]
        for gate in half + half[::-1]:
            step = step @ gate
    exact = _expm(-1j * t * sum(aj * pj for aj, pj in zip(a, paulis)))
    return float(np.linalg.norm((exact - _power(step, r)).astype(complex), 2))


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling m to a 1-norm of at most 1/2, a Taylor series until
    its terms drop below 1e-24, and squaring back, in m's precision."""
    squarings = max(0, int(np.ceil(np.log2(float(np.abs(m).sum(axis=0).max()))) + 1))
    m = m / 2**squarings
    term = total = np.eye(len(m), dtype=m.dtype)
    order = 0
    while np.abs(term).max() > 1e-24:
        order += 1
        term = term @ m / order
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def _power(m: np.ndarray, r: int) -> np.ndarray:
    """m^r by binary powering, in m's precision."""
    out = np.eye(len(m), dtype=m.dtype)
    while r:
        if r & 1:
            out = out @ m
        m = m @ m
        r >>= 1
    return out


def grouped_s2_reference(evaluator, phases) -> np.ndarray:
    """S2 at each phase from a grouped evaluator's tables, as a
    ``(K, 2, M, M)`` stack: F = W[d_xx] (S W[d_yy] S^dag) D_z, with W[d]
    the Walsh product of a diagonal gathered by a ^ b, one Walsh product
    for each coupling group even when their diagonals are equal, and
    S2 = F F^T through a transposed view of F.

    The diagonals come from the evaluator: its first Walsh row is XX's, its
    last YY's (the same row when the two are shared), then the Z basis.
    """
    walsh, xor, states = evaluator._walsh, evaluator._xor, evaluator._states
    d_xx, d_yy, d_z = evaluator._diagonals[[0, -2, -1]]
    s = reduce(np.kron, [np.array([1, 1j])] * evaluator.n)[states]  # diagonal of S^n
    c = np.array([-0.5j * evaluator.t * float(x) for x in phases])
    d = np.exp(c[:, None, None] * np.stack([d_xx, d_yy, d_z]))
    yy = np.take(np.matmul(walsh, d[:, 1, :, None])[:, :, 0], xor, axis=1)
    yy *= s[:, :, None]
    yy *= (s.conj() * np.take(d[:, 2], states, axis=1))[:, :, None, :]
    forward = np.take(np.matmul(walsh, d[:, 0, :, None])[:, :, 0], xor, axis=1) @ yy
    return forward @ forward.swapaxes(-1, -2)
