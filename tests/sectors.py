"""Dense oracles for the parity-sector stacks of the fitness path.

The fitness path carries every operator as a ``(2, M, M)`` stack of its
even- and odd-popcount blocks. ``dense`` scatters such a stack back into the
2M x 2M matrix it stands for, so tests compare it with full-dimension
oracles at the tolerances those oracles always had. ``dense_hamiltonian``
is the full-dimension H of such oracles.
"""

import numpy as np

from trotteropt.model import _sector_index, term_matrix

from oracles import chain_terms


def dense_hamiltonian(instance) -> np.ndarray:
    """H at full dimension: the sum of the Kronecker-chain term matrices."""
    return sum(term_matrix(term, instance.n) for term in chain_terms(instance))


def dense(stack) -> np.ndarray:
    """The block-diagonal 2^n matrix of a sector stack, in the standard basis."""
    stack = np.asarray(stack)
    half = stack.shape[-1]
    assert stack.shape == (2, half, half), stack.shape
    out = np.zeros((2 * half, 2 * half), dtype=stack.dtype)
    for block, states in zip(stack, _sector_index(half.bit_length())[0]):
        out[np.ix_(states, states)] = block
    return out
