import re

import numpy as np
import numpy.testing as npt
import pytest

from trotteropt.linalg import spectral_norm
from trotteropt.model import (
    ChainInstance,
    DecompositionSpec,
    LocalTerm,
    OrderingMode,
    TermKind,
    TermOrdering,
    _PAULI_MATS,
    _generators,
    _pauli_sites,
    _popcount,
    _sector_index,
    _strings,
    hamiltonian,
    merged_gate_count,
    term_matrix,
    unmerged_gate_count,
)
from trotteropt.trotter import slice_phases, suzuki_seed

from oracles import (
    chain_terms,
    commutation_table,
    merge_gates,
    ordered_chain_terms,
    term_row,
    terms_commute,
)
from sectors import dense, dense_hamiltonian

GROUPED = TermOrdering.grouped()


class TestPauli:
    def test_x(self):
        npt.assert_array_equal(_PAULI_MATS["x"], [[0, 1], [1, 0]])

    def test_y(self):
        npt.assert_array_equal(_PAULI_MATS["y"], [[0, -1j], [1j, 0]])

    def test_z(self):
        npt.assert_array_equal(_PAULI_MATS["z"], [[1, 0], [0, -1]])


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
        # One coefficient per table row: 1 for each coupling, v_j for the
        # field on site j, the same as each term of the dense form carries.
        inst = ChainInstance.random(4, np.random.default_rng(1))
        a = inst.coefficients()
        assert a.shape == (4 * inst.n,)
        npt.assert_array_equal(a.reshape(inst.n, 4), np.c_[np.ones((inst.n, 3)), inst.v])
        terms = chain_terms(inst)
        for kind in TermKind:
            assert sum(1 for t in terms if t.kind == kind) == inst.n
        assert [term_row(t) for t in terms] == list(range(4 * inst.n))
        assert [t.coefficient for t in terms] == a.tolist()

    def test_equality_hash_and_record_form(self):
        inst = ChainInstance(4, (0.5, -0.25, 0.0, 1.0), 2.0, seed=3)
        twin = ChainInstance(4, [0.5, -0.25, 0, 1], 2, seed=3)
        assert twin == inst and hash(twin) == hash(inst)
        assert hash(inst) == hash((4, (0.5, -0.25, 0.0, 1.0), 2.0, 3))
        assert ChainInstance(4, inst.v, 2.0, seed=4) != inst
        assert repr(inst) == "ChainInstance(n=4, v=(0.5, -0.25, 0.0, 1.0), t=2.0, seed=3)"
        assert inst.to_dict() == {"n": 4, "v": [0.5, -0.25, 0.0, 1.0], "t": 2.0, "seed": 3}
        assert ChainInstance.from_dict(inst.to_dict()) == inst
        # An instance of generalize --axis n carries no seed; an integral float reads as a count.
        assert ChainInstance.from_dict({**inst.to_dict(), "seed": None}).seed is None
        assert ChainInstance.from_dict({**inst.to_dict(), "seed": 3.0}) == inst


class TestRecordForms:
    """Each reader refuses, by name, a value that is not an object, a missing
    field and a permutation that is not a list of integers (the CLI cases of
    a malformed optimize record are in test_cli)."""

    SPEC = {"k": 2, "r": 3, "ordering": {"mode": "explicit", "permutation": [2, 1, 0, 3]}}

    def test_integral_floats_read_as_counts(self):
        spec = DecompositionSpec.from_dict(
            {**self.SPEC, "ordering": {"mode": "explicit", "permutation": [2.0, 1, 0.0, 3]}})
        assert spec == DecompositionSpec.from_dict(self.SPEC)
        assert spec.ordering.permutation == (2, 1, 0, 3)

    @pytest.mark.parametrize("reader,d,message", [
        (DecompositionSpec, [2, 3], "spec must be an object, got [2, 3]"),
        (DecompositionSpec, {"k": 2, "ordering": {"mode": "grouped"}}, "spec has no r"),
        (DecompositionSpec, {**SPEC, "ordering": {}}, "ordering has no mode"),
        (DecompositionSpec, {**SPEC, "ordering": {"mode": "explicit"}}, "ordering has no permutation"),
        (DecompositionSpec, {**SPEC, "ordering": {"mode": "explicit", "permutation": 4}},
         "ordering permutation must be a list of integers, got 4"),
        (DecompositionSpec, {**SPEC, "ordering": {"mode": "explicit", "permutation": [0, 1.5]}},
         "ordering permutation entry must be an integer, got 1.5"),
        (DecompositionSpec, {**SPEC, "ordering": {"mode": "zigzag"}},
         "ordering mode must be one of canonical, grouped, explicit, got 'zigzag'"),
        (DecompositionSpec, {**SPEC, "ordering": {"mode": 1}},
         "ordering mode must be one of canonical, grouped, explicit, got 1"),
        (ChainInstance, {"n": 3, "v": [0.1, 0.2, 0.3]}, "instance has no t"),
        (ChainInstance, {"n": 3, "v": [0.1, 0.2, 0.3], "t": 1.0, "seed": "x"},
         "instance seed must be an integer, got 'x'"),
        (ChainInstance, {"n": 3, "v": [0.1, 0.2, 0.3], "t": 1.0, "seed": -2},
         "instance seed must be a non-negative integer, got -2"),
        (ChainInstance, {"n": 3, "v": [0.1, True, 0.3], "t": 1.0},
         "instance v must be a list of numbers, got [0.1, True, 0.3]"),
    ], ids=["spec_list", "spec_no_r", "ordering_no_mode", "ordering_no_permutation",
            "permutation_int", "permutation_fraction", "mode_unknown", "mode_not_a_string",
            "instance_no_t", "seed_string", "seed_negative", "v_boolean"])
    def test_malformed_value_refused_by_name(self, reader, d, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reader.from_dict(d)


class TestHamiltonian:
    def test_traceless_at_zero_disorder(self):
        h = dense_hamiltonian(ChainInstance(3, (0.0, 0.0, 0.0), 1.0))
        assert abs(np.trace(h)) == 0.0

    def test_hermitian(self):
        inst = ChainInstance.random(3, np.random.default_rng(2))
        h = dense_hamiltonian(inst)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_all_up_diagonal_entry(self):
        # On |000> every ZZ bond contributes +1 and every field v_j; with
        # v = (1,1,1) that is 3 + 3 = 6.
        h = dense_hamiltonian(ChainInstance(3, (1.0, 1.0, 1.0), 1.0))
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
        # Each sector block against the same block of the summed Kronecker
        # chains, which are real.
        reference = sum(term_matrix(term, inst.n) for term in chain_terms(inst))
        assert not np.any(reference.imag)
        h = hamiltonian(inst)
        assert h.dtype == np.float64 and h.shape == (2, 2 ** (inst.n - 1), 2 ** (inst.n - 1))
        for states, block in zip(_sector_index(inst.n)[0], h):
            assert block.tobytes() == np.ascontiguousarray(reference.real[np.ix_(states, states)]).tobytes()

    def test_ordering_independent(self):
        # Dyadic disorder makes every partial sum exact, so the permuted sum
        # reproduces the canonical one bit for bit.
        inst = ChainInstance(4, (0.5, -0.25, 0.125, -0.5), 1.0)
        h = dense_hamiltonian(inst)
        rng = np.random.default_rng(3)
        for _ in range(5):
            perm = rng.permutation(16)
            total = np.zeros_like(h)
            for term in ordered_chain_terms(inst, TermOrdering.explicit(perm)):
                total += term_matrix(term, inst.n)
            npt.assert_array_equal(total, h)

    def test_ordering_independent_generic_disorder(self):
        inst = ChainInstance.random(4, np.random.default_rng(4))
        h = dense_hamiltonian(inst)
        total = np.zeros_like(h)
        for term in ordered_chain_terms(inst, TermOrdering.grouped()):
            total += term_matrix(term, inst.n)
        assert spectral_norm(total - h) <= 1e-13 * spectral_norm(h)


def popcount(states):
    return np.array([bin(int(b)).count("1") for b in np.ravel(states)]).reshape(np.shape(states))


def popcount_parity(states):
    return popcount(states) % 2


class TestParitySectors:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_sector_index(self, n):
        states = _sector_index(n)[0]
        assert states.shape == (2, 2 ** (n - 1))
        npt.assert_array_equal(np.sort(states.ravel()), np.arange(2**n))
        npt.assert_array_equal(popcount_parity(states), [[0] * 2 ** (n - 1), [1] * 2 ** (n - 1)])
        assert all(np.all(np.diff(row) > 0) for row in states)

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("kind", list(TermKind))
    def test_pauli_strings_keep_parity(self, n, kind):
        # Every site, so the wrap-around bond (n, 1) is included.
        basis = np.arange(2**n)
        terms = [LocalTerm(kind, site, 0.7) for site in range(1, n + 1)]
        table = _generators(n)
        rows = [term_row(term) for term in terms]
        perms, signs = _strings(table.x[rows], table.z[rows], n)
        assert perms.shape == signs.shape == (n, 2**n)
        for term, perm, sign in zip(terms, perms, signs):
            npt.assert_array_equal(np.sort(perm), basis)
            npt.assert_array_equal(popcount_parity(perm), popcount_parity(basis))
            assert set(np.abs(sign)) == {1.0}
            # The same operator as the Kronecker chain: P|b> = sign[b] |perm[b]>.
            expected = np.zeros((2**n, 2**n), dtype=complex)
            expected[perm, basis] = sign
            npt.assert_array_equal(term_matrix(LocalTerm(kind, term.site), n), expected)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_sector_strings_match_term_matrix(self, n):
        # Column i of the (2M, M) stack holds sign[i] in row perm[i]; scattered
        # back, that is each term's Kronecker chain, which has no cross-sector entry.
        terms = [LocalTerm(kind, site) for site in range(1, n + 1) for kind in TermKind]
        table = _generators(n)
        perms, signs = table.perms, table.signs
        half = 2 ** (n - 1)
        assert perms.shape == signs.shape == (len(terms), 2 * half)
        columns = np.arange(2 * half)
        for term, perm, sign in zip(terms, perms, signs):
            npt.assert_array_equal(perm // half, columns // half)
            stack = np.zeros((2, half, half))
            stack[columns // half, perm % half, columns % half] = sign
            npt.assert_array_equal(dense(stack), term_matrix(term, n))

    @pytest.mark.parametrize("n", range(3, 7))
    def test_generator_table_rows_follow_the_term_sequence(self, n):
        # The table is in per-site reading order (the order checked against
        # term_matrix above), and an explicit ordering picks the rows of its
        # permutation, which indexes the same list.
        table = _generators(n)
        assert table is _generators(n)
        assert len(table.x) == len(table.anti) == 4 * n
        terms = chain_terms(ChainInstance(n, (0.5,) * n, 1.0))
        order = np.random.default_rng(n).permutation(len(terms))
        rows = TermOrdering.explicit(order).rows(n)
        assert [term_row(terms[g]) for g in order] == rows.tolist() == order.tolist()
        for array in (table.x, table.z, table.perms, table.signs):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_masks_match_pauli_letters(self, n):
        # Every kind and site, the wrap-around bond included: X sets x, Z
        # sets z and Y both, qubit 1 being the most significant bit.
        table = _generators(n)
        assert len(table.x) == len(table.z) == 4 * n
        for site in range(1, n + 1):
            for kind in TermKind:
                g = term_row(LocalTerm(kind, site))
                x = z = 0
                for qubit, letter in _pauli_sites(LocalTerm(kind, site), n).items():
                    bit = 1 << (n - qubit)
                    x |= bit if letter in "xy" else 0
                    z |= bit if letter in "yz" else 0
                assert (table.x[g], table.z[g]) == (x, z), (kind, site)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_z_string_signs(self, n):
        # The grouped kernel's diagonals: each term as the Z string on its
        # own qubits, x = 0 and z = x | z.
        basis = np.arange(2**n)
        terms = [LocalTerm(kind, site) for site in range(1, n + 1) for kind in TermKind]
        table = _generators(n)
        masks = table.x | table.z
        signs = _strings(0, masks, n)[1]
        assert signs.shape == (len(terms), 2**n)
        for term, mask, row in zip(terms, masks, signs):
            sites = [term.site] if term.kind is TermKind.Z else [term.site, term.site % n + 1]
            assert mask == sum(1 << (n - site) for site in sites)
            npt.assert_array_equal(row, 1.0 - 2.0 * popcount_parity(basis & mask))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_popcount(self, n):
        basis = np.arange(2**n)
        npt.assert_array_equal(_popcount(basis, n), popcount(basis))
        parity = _popcount(_sector_index(n)[0], n) % 2
        npt.assert_array_equal(parity, [[0], [1]] * np.ones((1, 2 ** (n - 1))))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_hamiltonian_has_no_cross_sector_entries(self, n):
        # Zero between popcount blocks, so also between the parity sectors.
        h = dense_hamiltonian(ChainInstance.random(n, np.random.default_rng(40 + n)))
        weight = popcount(np.arange(2**n))
        assert not np.any(h[weight[:, None] != weight[None, :]])
        even, odd = _sector_index(n)[0]
        assert not np.any(h[np.ix_(even, odd)])
        assert np.any(h[np.ix_(even, even)]) and np.any(h[np.ix_(odd, odd)])


class TestOrderedTerms:
    """``TermOrdering.rows``: the table rows of the 4n terms, in order."""

    @staticmethod
    def terms(ordering):
        terms = chain_terms(ChainInstance(3, (0.1, 0.2, 0.3), 1.0))
        return [terms[g] for g in ordering.rows(3)]

    def test_canonical_reading_order(self):
        npt.assert_array_equal(TermOrdering.canonical().rows(3), np.arange(12))
        terms = self.terms(TermOrdering.canonical())
        assert [t.kind for t in terms] == [TermKind.XX, TermKind.YY, TermKind.ZZ, TermKind.Z] * 3
        assert [t.site for t in terms] == [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]

    def test_grouped_order(self):
        terms = self.terms(TermOrdering.grouped())
        kinds = [t.kind for t in terms]
        assert kinds == [TermKind.XX] * 3 + [TermKind.YY] * 3 + [TermKind.ZZ] * 3 + [TermKind.Z] * 3
        assert [t.site for t in terms] == [1, 2, 3] * 4

    def test_identity_permutation_is_canonical(self):
        npt.assert_array_equal(TermOrdering.explicit(range(12)).rows(3),
                               TermOrdering.canonical().rows(3))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rows_match_the_oracle_order(self, n):
        inst = ChainInstance.random(n, np.random.default_rng(n))
        for ordering in _oracle_orderings(n):
            terms = chain_terms(inst)
            assert [terms[g] for g in ordering.rows(n)] == ordered_chain_terms(inst, ordering)

    def test_malformed_permutation(self):
        message = "^permutation must be a bijection on 0..11$"
        for perm in ([0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10], range(11), range(1, 13)):
            with pytest.raises(ValueError, match=message):
                TermOrdering.explicit(perm).rows(3)
        with pytest.raises(ValueError, match=message):
            TermOrdering(OrderingMode.EXPLICIT).rows(3)


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
        terms = chain_terms(inst)
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
        assert unmerged_gate_count(inst, DecompositionSpec(2, 125, GROUPED)) == 25000
        assert unmerged_gate_count(inst, DecompositionSpec(1, 1, GROUPED)) == 40

    def test_grouped_matches_closed_form(self):
        inst = ChainInstance(5, (0.1, 0.2, 0.3, 0.4, 0.5), 1.0)
        m = 125 * 5  # r * 5^(k-1)
        assert merged_gate_count(inst, DecompositionSpec(2, 125, GROUPED)) == (5 * m + 1) * 5

    def test_single_block_grouped_is_6n(self):
        inst = ChainInstance(3, (0.1, 0.2, 0.3), 1.0)
        assert merged_gate_count(inst, DecompositionSpec(1, 1, GROUPED)) == 6 * 3

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("k,r", [(1, 4), (2, 2), (2, 5)])
    def test_ordering_hierarchy(self, n, k, r):
        inst = ChainInstance.random(n, np.random.default_rng(n))
        grouped = merged_gate_count(inst, DecompositionSpec(k, r, GROUPED))
        canonical = merged_gate_count(inst, DecompositionSpec(k, r, TermOrdering.canonical()))
        assert grouped <= canonical <= unmerged_gate_count(inst, DecompositionSpec(k, r, GROUPED))

    def test_random_permutation_between_bounds(self):
        inst = ChainInstance.random(4, np.random.default_rng(9))
        rng = np.random.default_rng(10)
        grouped = merged_gate_count(inst, DecompositionSpec(2, 3, GROUPED))
        for _ in range(5):
            spec = DecompositionSpec(2, 3, TermOrdering.explicit(rng.permutation(16)))
            count = merged_gate_count(inst, spec)
            assert grouped <= count <= unmerged_gate_count(inst, spec)


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
            terms = ordered_chain_terms(inst, ordering)
            table = commutation_table(terms, n)
            block = [*range(len(terms)), *reversed(range(len(terms)))]
            for k in (1, 2, 3):
                for r in (1, 2, 3, 7):
                    spec = DecompositionSpec(k, r, ordering)
                    # The Suzuki gate stream: every S2 phase of the r slices,
                    # halved over the forward and the reversed pass.
                    phases = np.tile(slice_phases(suzuki_seed(k)) / r, r)
                    stream = [(g, x / 2) for x in phases for g in block]
                    assert len(stream) == unmerged_gate_count(inst, spec)
                    merged = merge_gates(stream, table)
                    assert merged_gate_count(inst, spec) == len(merged), spec
                    # Merging only moves phase weight between gates of one generator.
                    npt.assert_allclose(
                        _phase_per_generator(merged, len(terms)),
                        _phase_per_generator(stream, len(terms)),
                        rtol=0,
                        atol=1e-12,
                    )

    @pytest.mark.parametrize("n", range(3, 9))
    def test_masks_match_commutation_table(self, n):
        # merged_gate_count reads the generator table's anticommutation
        # rows, indexed by row; read in an ordering's row order they are the
        # letter-based oracle's table of that ordering.
        table = _generators(n)
        assert all(isinstance(mask, int) for mask in table.anti)
        inst = ChainInstance.random(n, np.random.default_rng(n))
        for ordering in _oracle_orderings(n):
            terms = ordered_chain_terms(inst, ordering)
            rows = ordering.rows(n).tolist()
            commute = [[not (table.anti[g] >> h) & 1 for h in rows] for g in rows]
            npt.assert_array_equal(np.array(commute), commutation_table(terms, n))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_large_r_is_linear_and_grouped_closed_form(self, k):
        # Only a counter whose cost does not grow with r finishes at R = 10**6.
        big = 10**6
        inst = ChainInstance.random(5, np.random.default_rng(11))
        for ordering in _oracle_orderings(5):
            c1, c2, c3 = (merged_gate_count(inst, DecompositionSpec(k, m * big, ordering))
                          for m in (1, 2, 3))
            assert c2 - c1 == c3 - c2
        m = big * 5 ** (k - 1)
        assert merged_gate_count(inst, DecompositionSpec(k, big, GROUPED)) == (5 * m + 1) * 5
