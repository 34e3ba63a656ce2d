"""Independent full-dimension re-scoring of reported fitness values.

The oracle rebuilds the product formula from first principles: every gate
is ``expm_scaled_hermitian(term_matrix(term), phase)`` at full dimension, the
term order is rebuilt from its definition, the slice is raised to the r-th
power with numpy's own ``matrix_power`` and the error is numpy's 2-norm (an
SVD). It shares with the program only the term matrices and the Hermitian
exponential, which are its definitions. Hold-out disorder vectors are drawn
from the RNG policy in FORMATS.md, not through ``trotteropt.records``.
"""

from __future__ import annotations

import numpy as np

from trotteropt.linalg import expm_scaled_hermitian
from trotteropt.model import LocalTerm, TermKind, term_matrix

# Fixed before any measurement: loose enough for the ~1e-10 relative roundoff
# changes that restructured S2 kernels are expected to make, tight enough that
# a wrong gate, phase or ordering (a change of 1e-4 or more) fails.
RTOL = 1e-6

PURPOSE_HOLDOUT = 6
_KINDS = (TermKind.XX, TermKind.YY, TermKind.ZZ)


def _terms(n: int, v) -> list[LocalTerm]:
    out = []
    for site in range(1, n + 1):
        out += [LocalTerm(kind, site) for kind in _KINDS]
        out.append(LocalTerm(TermKind.Z, site, float(v[site - 1])))
    return out


def _ordered(terms: list[LocalTerm], ordering: dict) -> list[LocalTerm]:
    mode = ordering["mode"]
    if mode == "canonical":
        return terms
    if mode == "grouped":
        return [t for kind in (*_KINDS, TermKind.Z) for t in terms if t.kind is kind]
    return [terms[i] for i in ordering["permutation"]]


def _slice_phases(k: int, components) -> list[float]:
    phases = [1.0]
    for level in range(k - 1):
        block = components[5 * level: 5 * level + 5]
        phases = [c * x for c in block for x in phases]
    return phases


def formula_error(instance: dict, k: int, r: int, ordering: dict, components) -> float:
    """||exp(-itH) - (prod_x S2(x/r))^r||_2 built at full dimension."""
    n, t = int(instance["n"]), float(instance["t"])
    terms = _terms(n, instance["v"])
    mats = [term_matrix(term, n) for term in terms]
    exact = expm_scaled_hermitian(sum(mats), -1j * t)
    gates = [term_matrix(term, n) for term in _ordered(terms, ordering)]
    cache: dict[float, list[np.ndarray]] = {}

    def half(phase: float) -> list[np.ndarray]:
        if phase not in cache:
            cache[phase] = [expm_scaled_hermitian(g, -0.5j * t * phase) for g in gates]
        return cache[phase]

    step = np.eye(2 ** n, dtype=complex)
    for x in _slice_phases(k, components):
        exps = half(x / r)
        for e in exps + exps[::-1]:
            step = step @ e
    approx = np.linalg.matrix_power(step, r)
    return float(np.linalg.norm(exact - approx, 2))


def holdout_instance(source: dict, record_seed: int, index: int) -> dict:
    """Hold-out instance ``index`` of ``generalize --axis v`` (FORMATS.md)."""
    seq = np.random.SeedSequence(int(record_seed), spawn_key=(PURPOSE_HOLDOUT, int(index)))
    v = np.random.Generator(np.random.PCG64(seq)).uniform(-1.0, 1.0, size=int(source["n"]))
    return {"n": int(source["n"]), "v": [float(x) for x in v], "t": float(source["t"])}


def agrees(reported: float, oracle: float) -> bool:
    return abs(reported - oracle) <= RTOL * abs(oracle)
