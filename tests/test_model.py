import numpy as np
import numpy.testing as npt
import pytest

from trotteropt.linalg import spectral_norm
from trotteropt.model import (
    ChainInstance,
    LocalTerm,
    Pauli,
    TermKind,
    TermOrdering,
    _PAULI_MATS,
    _anticommutation_masks,
    _pauli_string,
    _sectors,
    _z_string,
    commutation_table,
    hamiltonian,
    merge_gates,
    merged_gate_count,
    ordered_terms,
    term_matrix,
    terms_commute,
    unmerged_gate_count,
)
from trotteropt.trotter import slice_phases, suzuki_seed


class TestPauli:
    def test_x(self):
        npt.assert_array_equal(_PAULI_MATS[Pauli.X], [[0, 1], [1, 0]])

    def test_y(self):
        npt.assert_array_equal(_PAULI_MATS[Pauli.Y], [[0, -1j], [1j, 0]])

    def test_z(self):
        npt.assert_array_equal(_PAULI_MATS[Pauli.Z], [[1, 0], [0, -1]])


class TestTermMatrix:
    def test_zero_field_is_zero(self):
        npt.assert_array_equal(term_matrix(LocalTerm(TermKind.Z, 1, 0.0), 3), np.zeros((8, 8)))

    def test_interior_coupling(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        expected = np.kron(np.kron(x, x), np.eye(2))
        npt.assert_array_equal(term_matrix(LocalTerm(TermKind.XX, 1), 3), expected)

    def test_wraparound_coupling(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        expected = np.kron(np.kron(x, np.eye(2)), x)
        npt.assert_array_equal(term_matrix(LocalTerm(TermKind.XX, 3), 3), expected)

    def test_field_coefficient(self):
        m = term_matrix(LocalTerm(TermKind.Z, 2, -0.375), 3)
        z = np.diag([1.0, -1.0])
        npt.assert_array_equal(m, -0.375 * np.kron(np.kron(np.eye(2), z), np.eye(2)))


class TestChainInstance:
    def test_rejects_small_chains(self):
        with pytest.raises(ValueError):
            ChainInstance(2, (0.0, 0.0), 1.0)

    def test_rejects_out_of_range_disorder(self):
        with pytest.raises(ValueError):
            ChainInstance(3, (0.0, 1.5, 0.0), 1.0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ChainInstance(3, (0.0, 0.0), 1.0)

    def test_default_time_is_2n(self):
        rng = np.random.default_rng(0)
        inst = ChainInstance.random(5, rng)
        assert inst.t == 10.0
        assert all(abs(x) <= 1 for x in inst.v)

    def test_term_census(self):
        inst = ChainInstance.random(4, np.random.default_rng(1))
        terms = inst.terms()
        assert len(terms) == 4 * inst.n
        for kind in TermKind:
            assert sum(1 for t in terms if t.kind == kind) == inst.n
        for t in terms:
            if t.kind is TermKind.Z:
                assert t.coefficient == inst.v[t.site - 1]
            else:
                assert t.coefficient == 1.0


class TestHamiltonian:
    def test_traceless_at_zero_disorder(self):
        h = hamiltonian(ChainInstance(3, (0.0, 0.0, 0.0), 1.0))
        assert abs(np.trace(h)) == 0.0

    def test_hermitian(self):
        inst = ChainInstance.random(3, np.random.default_rng(2))
        h = hamiltonian(inst)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_all_up_diagonal_entry(self):
        # On |000> every ZZ bond contributes +1 and every field v_j; with
        # v = (1,1,1) that is 3 + 3 = 6.
        h = hamiltonian(ChainInstance(3, (1.0, 1.0, 1.0), 1.0))
        assert h[0, 0] == pytest.approx(6.0, abs=0)

    @pytest.mark.parametrize(
        "inst",
        [
            pytest.param(ChainInstance.random(n, np.random.default_rng(20 + n)), id=f"n{n}")
            for n in range(3, 9)
        ]
        + [pytest.param(ChainInstance(4, (0.0, -0.0, 0.5, -1.0), 1.0), id="signed_zero_fields")],
    )
    def test_bit_identical_to_term_matrix_sum(self, inst):
        reference = sum(term_matrix(term, inst.n) for term in inst.terms())
        assert hamiltonian(inst).tobytes() == reference.tobytes()

    def test_ordering_independent(self):
        # Dyadic disorder makes every partial sum exact, so the permuted sum
        # reproduces the canonical one bit for bit.
        inst = ChainInstance(4, (0.5, -0.25, 0.125, -0.5), 1.0)
        h = hamiltonian(inst)
        rng = np.random.default_rng(3)
        for _ in range(5):
            perm = rng.permutation(16)
            total = np.zeros_like(h)
            for term in ordered_terms(inst, TermOrdering.explicit(perm)):
                total += term_matrix(term, inst.n)
            npt.assert_array_equal(total, h)

    def test_ordering_independent_generic_disorder(self):
        inst = ChainInstance.random(4, np.random.default_rng(4))
        h = hamiltonian(inst)
        total = np.zeros_like(h)
        for term in ordered_terms(inst, TermOrdering.grouped()):
            total += term_matrix(term, inst.n)
        assert spectral_norm(total - h) <= 1e-13 * spectral_norm(h)


def popcount_parity(states):
    return np.array([bin(int(b)).count("1") % 2 for b in np.ravel(states)]).reshape(np.shape(states))


class TestParitySectors:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_sector_index(self, n):
        states = _sectors(n)
        assert states.shape == (2, 2 ** (n - 1))
        npt.assert_array_equal(np.sort(states.ravel()), np.arange(2**n))
        npt.assert_array_equal(popcount_parity(states), [[0] * 2 ** (n - 1), [1] * 2 ** (n - 1)])
        assert all(np.all(np.diff(row) > 0) for row in states)

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("kind", list(TermKind))
    def test_pauli_strings_keep_parity(self, n, kind):
        # Every site, so the wrap-around bond (n, 1) is included.
        basis = np.arange(2**n)
        for site in range(1, n + 1):
            perm, sign = _pauli_string(LocalTerm(kind, site, 0.7), n)
            npt.assert_array_equal(np.sort(perm), basis)
            npt.assert_array_equal(popcount_parity(perm), popcount_parity(basis))
            assert set(np.abs(sign)) == {1.0}

    @pytest.mark.parametrize("n", range(3, 9))
    def test_z_string_signs(self, n):
        basis = np.arange(2**n)
        for site in range(1, n + 1):
            for kind in (TermKind.ZZ, TermKind.Z):
                mask, signs = _z_string(LocalTerm(kind, site), n)
                npt.assert_array_equal(signs, 1.0 - 2.0 * popcount_parity(basis & mask))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_hamiltonian_has_no_cross_sector_entries(self, n):
        h = hamiltonian(ChainInstance.random(n, np.random.default_rng(40 + n)))
        even, odd = _sectors(n)
        assert not np.any(h[np.ix_(even, odd)])
        assert not np.any(h[np.ix_(odd, even)])


class TestOrderedTerms:
    def test_canonical_reading_order(self):
        inst = ChainInstance(3, (0.1, 0.2, 0.3), 1.0)
        kinds = [t.kind for t in ordered_terms(inst, TermOrdering.canonical())]
        assert kinds == [TermKind.XX, TermKind.YY, TermKind.ZZ, TermKind.Z] * 3
        sites = [t.site for t in ordered_terms(inst, TermOrdering.canonical())]
        assert sites == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]

    def test_grouped_order(self):
        inst = ChainInstance(3, (0.1, 0.2, 0.3), 1.0)
        terms = ordered_terms(inst, TermOrdering.grouped())
        kinds = [t.kind for t in terms]
        assert kinds == [TermKind.XX] * 3 + [TermKind.YY] * 3 + [TermKind.ZZ] * 3 + [TermKind.Z] * 3
        assert [t.site for t in terms] == [1, 2, 3] * 4

    def test_identity_permutation_is_canonical(self):
        inst = ChainInstance(3, (0.1, 0.2, 0.3), 1.0)
        assert ordered_terms(inst, TermOrdering.explicit(range(12))) == ordered_terms(
            inst, TermOrdering.canonical()
        )

    def test_malformed_permutation(self):
        inst = ChainInstance(3, (0.1, 0.2, 0.3), 1.0)
        with pytest.raises(ValueError):
            ordered_terms(inst, TermOrdering.explicit([0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]))
        with pytest.raises(ValueError):
            ordered_terms(inst, TermOrdering.explicit(range(11)))


class TestTermsCommute:
    def test_disjoint_terms_commute(self):
        assert terms_commute(LocalTerm(TermKind.XX, 1), LocalTerm(TermKind.Z, 3), 4)

    def test_same_bond_different_kind_commute(self):
        # X1X2 vs Y1Y2 anticommute on both shared sites: even, so commute.
        assert terms_commute(LocalTerm(TermKind.XX, 1), LocalTerm(TermKind.YY, 1), 4)

    def test_single_overlap_anticommutes(self):
        assert not terms_commute(LocalTerm(TermKind.XX, 1), LocalTerm(TermKind.YY, 2), 4)
        assert not terms_commute(LocalTerm(TermKind.XX, 1), LocalTerm(TermKind.Z, 1), 4)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_matrix_commutator(self, seed):
        rng = np.random.default_rng(seed)
        inst = ChainInstance.random(3, rng)
        terms = inst.terms()
        idx = rng.integers(0, len(terms), size=(12, 2))
        for i, j in idx:
            a = term_matrix(terms[i], 3)
            b = term_matrix(terms[j], 3)
            norm = spectral_norm(a @ b - b @ a)
            if terms_commute(terms[i], terms[j], 3):
                assert norm <= 1e-12
            else:
                # Zero-coefficient fields commute with everything numerically.
                scale = spectral_norm(a) * spectral_norm(b)
                assert norm > 0.5 * scale or scale == 0


class TestGateCounts:
    def test_unmerged_formula(self):
        inst = ChainInstance(5, (0.0,) * 5, 1.0)
        assert unmerged_gate_count(inst, 2, 125) == 25000
        assert unmerged_gate_count(inst, 1, 1) == 40

    def test_grouped_matches_closed_form(self):
        inst = ChainInstance(5, (0.1, 0.2, 0.3, 0.4, 0.5), 1.0)
        m = 125 * 5  # r * 5^(k-1)
        assert merged_gate_count(inst, TermOrdering.grouped(), 2, 125) == (5 * m + 1) * 5

    def test_single_block_grouped_is_6n(self):
        inst = ChainInstance(3, (0.1, 0.2, 0.3), 1.0)
        assert merged_gate_count(inst, TermOrdering.grouped(), 1, 1) == 6 * 3

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("k,r", [(1, 4), (2, 2), (2, 5)])
    def test_ordering_hierarchy(self, n, k, r):
        inst = ChainInstance.random(n, np.random.default_rng(n))
        grouped = merged_gate_count(inst, TermOrdering.grouped(), k, r)
        canonical = merged_gate_count(inst, TermOrdering.canonical(), k, r)
        assert grouped <= canonical <= unmerged_gate_count(inst, k, r)

    def test_random_permutation_between_bounds(self):
        inst = ChainInstance.random(4, np.random.default_rng(9))
        rng = np.random.default_rng(10)
        grouped = merged_gate_count(inst, TermOrdering.grouped(), 2, 3)
        for _ in range(5):
            ordering = TermOrdering.explicit(rng.permutation(16))
            count = merged_gate_count(inst, ordering, 2, 3)
            assert grouped <= count <= unmerged_gate_count(inst, 2, 3)


def _oracle_orderings(n: int) -> list[TermOrdering]:
    rng = np.random.default_rng(100 + n)
    return [TermOrdering.grouped(), TermOrdering.canonical()] + [
        TermOrdering.explicit(rng.permutation(4 * n)) for _ in range(10)
    ]


def _phase_per_generator(gates, count: int) -> np.ndarray:
    ids, phases = zip(*gates)
    return np.bincount(ids, weights=phases, minlength=count)


class TestMergedGateCountOracle:
    """The open-bit counter against the brute-force merge of the full stream."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_merge_walk(self, n):
        inst = ChainInstance.random(n, np.random.default_rng(n))
        for ordering in _oracle_orderings(n):
            terms = ordered_terms(inst, ordering)
            table = commutation_table(terms, n)
            block = [*range(len(terms)), *reversed(range(len(terms)))]
            for k in (1, 2, 3):
                for r in (1, 2, 3, 7):
                    # The Suzuki gate stream: every S2 phase of the r slices,
                    # halved over the forward and the reversed pass.
                    phases = np.tile(slice_phases(suzuki_seed(k)) / r, r)
                    stream = [(g, x / 2) for x in phases for g in block]
                    assert len(stream) == unmerged_gate_count(inst, k, r)
                    merged = merge_gates(stream, table)
                    assert merged_gate_count(inst, ordering, k, r) == len(merged), (ordering, k, r)
                    # Merging only moves phase weight between gates of one generator.
                    npt.assert_allclose(
                        _phase_per_generator(merged, len(terms)),
                        _phase_per_generator(stream, len(terms)),
                        rtol=0,
                        atol=1e-12,
                    )

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_masks_match_commutation_table(self, n):
        inst = ChainInstance.random(n, np.random.default_rng(n))
        for ordering in _oracle_orderings(n):
            terms = ordered_terms(inst, ordering)
            anti = _anticommutation_masks(terms, n)
            commute = [[not (mask >> h) & 1 for h in range(len(terms))] for mask in anti]
            npt.assert_array_equal(np.array(commute), commutation_table(terms, n))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_large_r_is_linear_and_grouped_closed_form(self, k):
        # Only a counter whose cost does not grow with r finishes at R = 10**6.
        big = 10**6
        inst = ChainInstance.random(5, np.random.default_rng(11))
        for ordering in _oracle_orderings(5):
            c1, c2, c3 = (merged_gate_count(inst, ordering, k, m * big) for m in (1, 2, 3))
            assert c2 - c1 == c3 - c2
        m = big * 5 ** (k - 1)
        assert merged_gate_count(inst, TermOrdering.grouped(), k, big) == (5 * m + 1) * 5
