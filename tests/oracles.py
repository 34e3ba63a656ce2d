"""Brute-force oracles for the gate merging of ``model.merged_gate_count``.

``merge_gates`` walks an explicit gate stream gate by gate, and
``terms_commute`` decides commutation from the Pauli letters each term puts
on each site (``model._pauli_sites``, the form ``term_matrix`` reads), not
from the generator table's bit masks, so they check the table's
anticommutation rows and the open-bit counter that reads them.
"""

import numpy as np

from trotteropt.model import LocalTerm, _pauli_sites


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
