import numpy as np
import numpy.testing as npt
import pytest

from trotteropt.linalg import expm_scaled_hermitian, matrix_power, spectral_norm
from trotteropt.model import (
    ChainInstance,
    LocalTerm,
    TermKind,
    TermOrdering,
    commutation_table,
    hamiltonian,
    merge_gates,
    merged_gate_count,
    ordered_terms,
    term_matrix,
    unmerged_gate_count,
)
from trotteropt.trotter import (
    CoefficientVector,
    DecompositionSpec,
    S2Evaluator,
    build_approximation,
    fast_local_expm,
    slice_phases,
    suzuki_coefficient,
    suzuki_seed,
)

from sectors import dense

GROUPED = TermOrdering.grouped()

# Closed form evaluated at 40-digit precision with mpmath.
P2 = 0.4144907717943757371423540628607614957118
P3 = 0.3730658277332728247758630410734168185043


def small_instance(seed=1, n=3, t=1.0):
    rng = np.random.default_rng(seed)
    return ChainInstance.random(n, rng, t=t, seed=seed)


class TestSuzukiCoefficient:
    def test_level_2(self):
        assert suzuki_coefficient(2) == pytest.approx(P2, abs=1e-15)

    def test_level_3(self):
        assert suzuki_coefficient(3) == pytest.approx(P3, abs=1e-15)

    def test_middle_entry(self):
        assert 1 - 4 * suzuki_coefficient(2) == pytest.approx(-0.6579630871775028, abs=1e-15)

    def test_rejects_level_below_2(self):
        with pytest.raises(ValueError):
            suzuki_coefficient(1)


class TestSuzukiSeed:
    def test_k2_block(self):
        p = suzuki_coefficient(2)
        assert suzuki_seed(2).components == (p, p, 1 - 4 * p, p, p)

    def test_k3_concatenation(self):
        seed = suzuki_seed(3)
        assert len(seed.components) == 10
        assert seed.block(2) == suzuki_seed(2).components
        p = suzuki_coefficient(3)
        assert seed.block(3) == (p, p, 1 - 4 * p, p, p)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_blocks_sum_to_one(self, k):
        seed = suzuki_seed(k)
        for level in range(2, k + 1):
            assert sum(seed.block(level)) == pytest.approx(1.0, abs=1e-15)

    def test_k1_is_empty(self):
        assert suzuki_seed(1).components == ()

    def test_length_validation(self):
        with pytest.raises(ValueError):
            CoefficientVector(2, (0.1, 0.2))


class TestPhaseExpansion:
    def test_k2_r3_pattern(self):
        # Five entries divided by 3, repeated three times.
        inst = small_instance()
        ev = S2Evaluator.for_instance(inst, GROUPED)
        p = suzuki_coefficient(2)
        expected = np.eye(8, dtype=complex)
        for x in np.tile(np.array([p, p, 1 - 4 * p, p, p]) / 3, 3):
            expected = expected @ dense(ev.s2(x))
        got = build_approximation(inst, DecompositionSpec(2, 3, GROUPED), suzuki_seed(2), ev)
        assert spectral_norm(dense(got) - expected) <= 1e-12

    def test_k2_r1_unchanged(self):
        npt.assert_array_equal(slice_phases(suzuki_seed(2)), suzuki_seed(2).components)

    def test_k3_outer_product(self):
        phases = slice_phases(suzuki_seed(3))
        assert phases.shape == (25,)
        b2 = np.array(suzuki_seed(3).block(2))
        b3 = np.array(suzuki_seed(3).block(3))
        npt.assert_allclose(phases, np.concatenate([c * b2 for c in b3]), atol=0)
        assert phases.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    def test_sum_is_one_across_r(self, k):
        # r slices at the phases divided by r cover the whole evolution.
        phases = slice_phases(suzuki_seed(k))
        for r in list(range(1, 21)) + [50, 125, 200]:
            assert float(np.tile(phases / r, r).sum()) == pytest.approx(1.0, abs=1e-12)

    def test_k1_plain_slicing(self):
        npt.assert_array_equal(slice_phases(suzuki_seed(1)), [1.0])
        inst = small_instance()
        ev = S2Evaluator.for_instance(inst, GROUPED)
        got = build_approximation(inst, DecompositionSpec(1, 4, GROUPED), suzuki_seed(1), ev)
        npt.assert_array_equal(got, matrix_power(ev.s2(0.25), 4))


class TestFastLocalExpm:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("c", [-0.3j, 1.7j, 1j])
    def test_matches_full_dimension(self, n, c):
        inst = small_instance(seed=n, n=n)
        for term in inst.terms():
            fast = fast_local_expm(term, n, c)
            full = expm_scaled_hermitian(term_matrix(term, n), c)
            assert spectral_norm(fast - full) <= 1e-10

    def test_zero_scale_is_identity(self):
        npt.assert_allclose(fast_local_expm(LocalTerm(TermKind.XX, 1), 3, 0.0), np.eye(8), atol=1e-15)

    def test_field_diagonal_pattern(self):
        theta = 0.81
        got = fast_local_expm(LocalTerm(TermKind.Z, 1, 1.0), 3, 1j * theta)
        expected = np.kron(np.diag([np.exp(1j * theta), np.exp(-1j * theta)]), np.eye(4))
        npt.assert_allclose(got, expected, atol=1e-15)


def commuting_toy_terms(n=3):
    # ZZ couplings and Z fields only: all diagonal, hence mutually commuting.
    terms = [LocalTerm(TermKind.ZZ, j) for j in range(1, n + 1)]
    terms += [LocalTerm(TermKind.Z, j, 0.3 * j) for j in range(1, n + 1)]
    return tuple(terms)


class TestS2:
    def test_zero_phase_is_identity(self):
        inst = small_instance()
        npt.assert_allclose(dense(S2Evaluator.for_instance(inst, GROUPED).s2(0.0)), np.eye(8), atol=1e-14)

    def test_single_term_is_exact_exponential(self):
        term = LocalTerm(TermKind.XX, 1)
        ev = S2Evaluator((term,), n=3, t=1.3)
        expected = expm_scaled_hermitian(term_matrix(term, 3), -1.3j * 0.7)
        assert spectral_norm(dense(ev.s2(0.7)) - expected) <= 1e-12

    def test_commuting_terms_factor_exactly(self):
        terms = commuting_toy_terms()
        ev = S2Evaluator(terms, n=3, t=2.1)
        total = sum(term_matrix(term, 3) for term in terms)
        expected = expm_scaled_hermitian(total, -2.1j * 0.4)
        assert spectral_norm(dense(ev.s2(0.4)) - expected) <= 1e-9

    @pytest.mark.parametrize("phase", [0.2, -0.41449, 3.7])
    def test_unitary_at_any_phase(self, phase):
        inst = small_instance()
        s2 = dense(S2Evaluator.for_instance(inst, GROUPED).s2(phase))
        assert np.max(np.abs(s2 @ s2.conj().T - np.eye(8))) <= 1e-9


def oracle_product(terms, n, c, symmetric):
    """Forward (and, for S2, reversed) product of full-dimension term
    exponentials exp(c * H_term)."""
    mats = [expm_scaled_hermitian(term_matrix(term, n), c) for term in terms]
    if symmetric:
        mats += mats[::-1]
    acc = np.eye(2**n, dtype=complex)
    for m in mats:
        acc = acc @ m
    return acc


ORDERINGS = {
    "grouped": lambda n: GROUPED,
    "canonical": lambda n: TermOrdering.canonical(),
    "explicit": lambda n: TermOrdering.explicit(np.random.default_rng(10 + n).permutation(4 * n)),
}


class TestKernels:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_s2_and_s1_match_oracle(self, n, ordering):
        inst = small_instance(seed=n, n=n, t=2.0 * n)
        terms = ordered_terms(inst, ORDERINGS[ordering](n))
        ev = S2Evaluator(terms, n, inst.t)
        for phase in (-0.41449, 0.3, 1.7):
            expected = oracle_product(terms, n, -0.5j * inst.t * phase, symmetric=True)
            assert spectral_norm(dense(ev.s2(phase)) - expected) <= 1e-12
            # The forward half-product F that S2 = F F^T is built from is,
            # at the full phase, the first-order product S1.
            expected = oracle_product(terms, n, -1j * inst.t * phase, symmetric=False)
            assert spectral_norm(dense(ev._forward(-1j * inst.t * phase)) - expected) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_kernels_agree_on_grouped_sequence(self, n):
        inst = small_instance(seed=n, n=n, t=2.0 * n)
        ev = S2Evaluator.for_instance(inst, GROUPED)
        for c in (-0.5j * inst.t * -0.41449, -0.5j * inst.t * 1.7, 0.3 - 0.2j):
            assert spectral_norm(ev._grouped_forward(c) - ev._pauli_forward(c)) <= 1e-12

    def test_kernel_follows_term_sequence(self):
        def grouped(terms, n=3):
            return S2Evaluator(terms, n, 1.0)._grouped

        inst = small_instance()
        assert grouped(ordered_terms(inst, GROUPED))
        assert not grouped(ordered_terms(inst, TermOrdering.canonical()))
        assert not grouped(ordered_terms(inst, ORDERINGS["explicit"](3)))
        # ZZ and Z may interleave; YY ahead of XX leaves the grouped form.
        assert grouped(commuting_toy_terms()[::-1])
        assert not grouped((LocalTerm(TermKind.YY, 1), LocalTerm(TermKind.XX, 2)))


class TestBuildApproximation:
    def test_commuting_toy_is_exact(self):
        terms = commuting_toy_terms()
        ev = S2Evaluator(terms, n=3, t=1.7)
        total = sum(term_matrix(term, 3) for term in terms)
        # k=2 seed at r=1; with commuting terms every S2 factorizes exactly.
        acc = None
        for x in slice_phases(suzuki_seed(2)):
            block = ev.s2(x)
            acc = block if acc is None else acc @ block
        assert spectral_norm(dense(acc) - expm_scaled_hermitian(total, -1.7j)) <= 1e-9

    def test_zero_vector_gives_identity(self):
        inst = small_instance()
        spec = DecompositionSpec(2, 3, GROUPED)
        approx = build_approximation(inst, spec, CoefficientVector(2, (0.0,) * 5))
        npt.assert_allclose(dense(approx), np.eye(8), atol=1e-12)

    def test_error_decreases_with_r(self):
        inst = small_instance()
        exact = expm_scaled_hermitian(hamiltonian(inst), -1j * inst.t)
        errs = [
            spectral_norm(exact - dense(build_approximation(inst, DecompositionSpec(2, r, GROUPED), suzuki_seed(2))))
            for r in (2, 4, 8)
        ]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("k,lo,hi", [(1, -2.3, -1.7), (2, -4.5, -3.5)])
    def test_order_scaling_slopes(self, k, lo, hi):
        # log-log fit of seed error against r; second-order slicing decays
        # like r^-2 and the k=2 formula like r^-4.
        inst = small_instance(seed=1, n=3, t=1.0)
        exact = expm_scaled_hermitian(hamiltonian(inst), -1j * inst.t)
        rs = [1, 2, 4, 8, 16]
        errs = [
            spectral_norm(exact - dense(build_approximation(inst, DecompositionSpec(k, r, GROUPED), suzuki_seed(k))))
            for r in rs
        ]
        slope = np.polyfit(np.log(rs), np.log(errs), 1)[0]
        assert lo <= slope <= hi

    def test_matches_explicit_full_path(self):
        # Same operator whether exponentials come from the fast local path
        # or from full-dimension exponentiation of each term.
        inst = small_instance(seed=5)
        spec = DecompositionSpec(2, 2, GROUPED)
        fast = dense(build_approximation(inst, spec, suzuki_seed(2)))

        from trotteropt.model import ordered_terms

        terms = ordered_terms(inst, GROUPED)
        slow = None
        for x in slice_phases(suzuki_seed(2)):
            c = -1j * inst.t * (x / spec.r) / 2
            mats = [expm_scaled_hermitian(term_matrix(tm, inst.n), c) for tm in terms]
            block = mats[0]
            for m in mats[1:]:
                block = block @ m
            for m in reversed(mats):
                block = block @ m
            slow = block if slow is None else slow @ block
        slow = slow @ slow  # r = 2
        assert spectral_norm(fast - slow) <= 1e-12

    def test_k_mismatch_rejected(self):
        inst = small_instance()
        with pytest.raises(ValueError):
            build_approximation(inst, DecompositionSpec(3, 1, GROUPED), suzuki_seed(2))


def gate_stream(inst, spec, coeffs):
    """The (generator id, phase) gates of the product formula in time order:
    each S2 phase of the r slices, halved over a forward and a reversed pass
    of the ordered terms."""
    count = len(ordered_terms(inst, spec.ordering))
    block = [*range(count), *reversed(range(count))]
    phases = np.tile(slice_phases(coeffs) / spec.r, spec.r)
    return [(g, x / 2) for x in phases for g in block]


def merged_stream(inst, spec, coeffs):
    table = commutation_table(ordered_terms(inst, spec.ordering), inst.n)
    return merge_gates(gate_stream(inst, spec, coeffs), table)


class TestCircuit:
    def test_unmerged_gate_count(self):
        inst = small_instance()
        spec = DecompositionSpec(2, 2, GROUPED)
        assert len(gate_stream(inst, spec, suzuki_seed(2))) == unmerged_gate_count(inst, 2, 2)

    def test_merged_gate_count_matches(self):
        inst = small_instance()
        for ordering in (GROUPED, TermOrdering.canonical()):
            spec = DecompositionSpec(2, 2, ordering)
            merged = merged_stream(inst, spec, suzuki_seed(2))
            assert len(merged) == merged_gate_count(inst, ordering, 2, 2)

    def test_merged_phases_conserved(self):
        # Merging only moves phase weight between gates of one generator.
        inst = small_instance()
        spec = DecompositionSpec(2, 3, GROUPED)
        plain = gate_stream(inst, spec, suzuki_seed(2))
        merged = merged_stream(inst, spec, suzuki_seed(2))

        def weight(gates):
            acc = {}
            for gid, phase in gates:
                acc[gid] = acc.get(gid, 0.0) + phase
            return acc

        w_plain, w_merged = weight(plain), weight(merged)
        assert set(w_plain) == set(w_merged)
        for gid in w_plain:
            assert w_plain[gid] == pytest.approx(w_merged[gid], abs=1e-12)
