"""Metamorphic checks: symmetries of the ring leave every error and gate count
unchanged.

Each relation maps an instance and a term ordering to an image instance and
ordering whose Hamiltonian, exact propagator and circuit are the first ones
conjugated by one unitary, so the spectral-norm error is the same up to
roundoff:

- a global spin flip X^n maps each field v_j to -v_j and every coupling to
  itself;
- a ring rotation moves the terms of site j to site j + 1 (indices wrap);
- the reflection j -> n + 1 - j moves a field from site j to n + 1 - j and
  the bond (j, j + 1) to the bond (n - j, n + 1 - j).

An explicit ordering is relabelled to the moved sites, the canonical one
given as the explicit identity. The grouped ordering maps to itself: the
relabelling only reorders terms within a group, and those terms commute.
"""

import numpy as np
import pytest

from trotteropt.cli import main
from trotteropt.fitness import FitnessContext, evaluate, exact_propagator
from trotteropt.model import ChainInstance, DecompositionSpec, TermOrdering, merged_gate_count
from trotteropt.records import read_record, save_instance
from trotteropt.trotter import suzuki_seed

# Relative bound on the difference of two errors. A short time keeps the
# errors of a few slices well below their maximum of 2.
BOUND = 1e-10
T = 2.0


def flip(v):
    """The image disorder and the relabelling of canonical term indices."""
    return tuple(-x for x in v), lambda i: i


def rotation(v):
    n = len(v)
    return v[-1:] + v[:-1], lambda i: (i + 4) % (4 * n)


def reflection(v):
    n = len(v)

    def relabel(i):
        site, kind = divmod(i, 4)  # 0-based site; kinds XX, YY, ZZ, Z
        # A field stays on its mirrored site; the bond (site, site + 1)
        # becomes the bond that starts at the mirror of site + 1.
        return 4 * ((n - 1 - site) if kind == 3 else (n - 2 - site) % n) + kind

    return v[::-1], relabel


RELATIONS = {"flip": flip, "rotation": rotation, "reflection": reflection}


@pytest.mark.parametrize("relation", sorted(RELATIONS))
@pytest.mark.parametrize("n", range(3, 9))
def test_error_and_gate_counts_are_invariant(n, relation):
    rng = np.random.default_rng(500 + n)
    inst = ChainInstance.random(n, rng, t=T)
    v, relabel = RELATIONS[relation](inst.v)
    image = ChainInstance(n, v, T)
    perm = rng.permutation(4 * n).tolist()
    pairs = [
        (TermOrdering.grouped(), TermOrdering.grouped()),
        (TermOrdering.canonical(), TermOrdering.explicit([relabel(i) for i in range(4 * n)])),
        (TermOrdering.explicit(perm), TermOrdering.explicit([relabel(i) for i in perm])),
    ]
    r = 2 if n == 8 else 4
    exact, image_exact = exact_propagator(inst), exact_propagator(image)
    for k in (1, 2, 3):
        p = np.add(suzuki_seed(k), 1e-3 * rng.standard_normal(5 * (k - 1)))
        for ordering, image_ordering in pairs:
            spec = DecompositionSpec(k, r, ordering)
            image_spec = DecompositionSpec(k, r, image_ordering)
            error = evaluate(FitnessContext.create(inst, spec, exact=exact), p)
            image_error = evaluate(FitnessContext.create(image, image_spec, exact=image_exact), p)
            assert image_error == pytest.approx(error, rel=BOUND, abs=0), (k, ordering)
            assert merged_gate_count(image, image_spec) == merged_gate_count(inst, spec)


def test_baseline_of_a_flipped_instance(tmp_path):
    inst = ChainInstance.random(5, np.random.default_rng(7), t=T)
    payloads = []
    for name, instance in [("inst", inst), ("flipped", ChainInstance(5, flip(inst.v)[0], T))]:
        save_instance(tmp_path / f"{name}.json", instance)
        out = tmp_path / f"{name}_baseline.json"
        assert main(["baseline", "--instance", str(tmp_path / f"{name}.json"), "--k", "2",
                     "--r", "4", "--out", str(out)]) == 0
        payloads.append(read_record(out))
    a, b = payloads
    assert b["error"] == pytest.approx(a["error"], rel=BOUND, abs=0)
    assert (b["unmerged_gates"], b["merged_gates"]) == (a["unmerged_gates"], a["merged_gates"])
