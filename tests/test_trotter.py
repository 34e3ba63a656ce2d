import json
import re
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from trotteropt.linalg import expm_scaled_hermitian, matrix_power, spectral_norm
from trotteropt.model import (
    SLICE_PHASES_CAP,
    ChainInstance,
    DecompositionSpec,
    LocalTerm,
    TermKind,
    TermOrdering,
    _popcount,
    _sector_index,
    term_matrix,
)
from trotteropt.trotter import (
    _STACK_BYTES,
    S2Evaluator,
    _check_coefficients,
    _identity_stack,
    _phases_per_stack,
    build_approximation,
    slice_phases,
    suzuki_seed,
)

from oracles import chain_terms, grouped_s2_reference, ordered_chain_terms, term_row
from sectors import dense, dense_hamiltonian

GROUPED = TermOrdering.grouped()

# Closed form evaluated at 40-digit precision with mpmath.
P2 = 0.4144907717943757371423540628607614957118
P3 = 0.3730658277332728247758630410734168185043


def small_instance(seed=1, n=3, t=1.0):
    rng = np.random.default_rng(seed)
    return ChainInstance.random(n, rng, t=t, seed=seed)


def forward(ev, c):
    """The evaluator's forward half-product at the exponent scale c: the
    one block of a 1-phase stack."""
    return ev._forwards(np.array([c]))[0]


def term_evaluator(terms, n, t):
    """An evaluator of a sequence of ``LocalTerm``s: their table rows, each
    row's coefficient that of its term."""
    rows = [term_row(term) for term in terms]
    coefficients = np.zeros(4 * n)
    coefficients[rows] = [term.coefficient for term in terms]
    return S2Evaluator(rows, coefficients, n, t)


def approximation(inst, spec, p):
    """``build_approximation`` on an evaluator of its own."""
    return build_approximation(S2Evaluator.for_instance(inst, spec.ordering), spec, p)


class TestSuzukiCoefficient:
    """Suzuki's recursion coefficient of level l is the first entry of the
    seed's block for l."""

    def test_level_2(self):
        assert suzuki_seed(2)[0] == pytest.approx(P2, abs=1e-15)

    def test_level_3(self):
        assert suzuki_seed(3)[5] == pytest.approx(P3, abs=1e-15)

    def test_middle_entry(self):
        assert suzuki_seed(2)[2] == pytest.approx(-0.6579630871775028, abs=1e-15)

    def test_rejects_level_below_2(self):
        # k = 1 has no level of its own, and k = 0 is no order.
        assert suzuki_seed(1) == ()
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            suzuki_seed(0)


class TestSuzukiSeed:
    def test_k2_block(self):
        p = suzuki_seed(2)[0]
        assert suzuki_seed(2) == (p, p, 1 - 4 * p, p, p)
        assert p == 1.0 / (4.0 - 4.0 ** (1.0 / 3))

    def test_k3_concatenation(self):
        seed = suzuki_seed(3)
        assert len(seed) == 10
        assert seed[:5] == suzuki_seed(2)
        p = seed[5]
        assert seed[5:] == (p, p, 1 - 4 * p, p, p)
        assert p == 1.0 / (4.0 - 4.0 ** (1.0 / 5))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_blocks_sum_to_one(self, k):
        seed = suzuki_seed(k)
        for level in range(2, k + 1):
            assert sum(seed[5 * (level - 2) : 5 * (level - 1)]) == pytest.approx(1.0, abs=1e-15)

    def test_k1_is_empty(self):
        assert suzuki_seed(1) == ()


class TestCheckCoefficients:
    def test_returns_a_float_array(self):
        got = _check_coefficients([1, 2, 3, 4, 5], 2)
        assert got.dtype == np.float64
        npt.assert_array_equal(got, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert _check_coefficients((), 1).shape == (0,)

    @pytest.mark.parametrize("p,k,got", [
        ((0.1, 0.2), 2, 2),
        (suzuki_seed(2), 3, 5),
        (suzuki_seed(3), 2, 10),
        ((0.5,), 1, 1),
        (np.zeros((2, 5)), 3, "shape (2, 5)"),
        (0.5, 2, "shape ()"),
        ((np.nan, 0.1), 2, 2),  # the length is checked first
    ])
    def test_wrong_length_rejected(self, p, k, got):
        message = f"k={k} needs {5 * (k - 1)} components, got {got}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _check_coefficients(p, k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        for i in (0, 4):
            p = [0.1] * 5
            p[i] = bad
            with pytest.raises(ValueError, match="^coefficient vector has non-finite components$"):
                _check_coefficients(p, 2)


class TestPhaseExpansion:
    def test_k2_r3_pattern(self):
        # Five entries divided by 3, repeated three times.
        inst = small_instance()
        ev = S2Evaluator.for_instance(inst, GROUPED)
        p = suzuki_seed(2)[0]
        expected = np.eye(8, dtype=complex)
        for x in np.tile(np.array([p, p, 1 - 4 * p, p, p]) / 3, 3):
            expected = expected @ dense(ev.s2(x))
        got = build_approximation(ev, DecompositionSpec(2, 3, GROUPED), suzuki_seed(2))
        assert spectral_norm(dense(got) - expected) <= 1e-12

    def test_k2_r1_unchanged(self):
        npt.assert_array_equal(slice_phases(suzuki_seed(2)), suzuki_seed(2))

    def test_k3_outer_product(self):
        phases = slice_phases(suzuki_seed(3))
        assert phases.shape == (25,)
        b2 = np.array(suzuki_seed(3)[:5])
        b3 = np.array(suzuki_seed(3)[5:])
        npt.assert_allclose(phases, np.concatenate([c * b2 for c in b3]), atol=0)
        assert phases.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    def test_sum_is_one_across_r(self, k):
        # r slices at the phases divided by r cover the whole evolution.
        phases = slice_phases(suzuki_seed(k))
        for r in list(range(1, 21)) + [50, 125, 200]:
            assert float(np.tile(phases / r, r).sum()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_vectors_match_nested_expansion(self, k):
        # Level by level, each block entry scales the whole expansion below.
        rng = np.random.default_rng(k)
        for _ in range(3):
            p = rng.normal(0.2, 1.0, 5 * (k - 1))
            expected = [1.0]
            for level in range(k - 1):
                block = p[5 * level : 5 * level + 5]
                expected = [c * x for c in block for x in expected]
            npt.assert_allclose(slice_phases(p), expected, rtol=0, atol=0)
            npt.assert_allclose(slice_phases(tuple(p.tolist())), expected, rtol=0, atol=0)

    def test_k1_plain_slicing(self):
        npt.assert_array_equal(slice_phases(suzuki_seed(1)), [1.0])
        inst = small_instance()
        ev = S2Evaluator.for_instance(inst, GROUPED)
        got = build_approximation(ev, DecompositionSpec(1, 4, GROUPED), suzuki_seed(1))
        npt.assert_array_equal(got, matrix_power(ev.s2(0.25), 4))


class TestFastLocalExpm:
    """The closed-form term exponential exp(c H_term) that the kernels use:
    a one-term evaluator's S2 block at phase x is exp(-i x H_term), so
    x = i c gives exp(c H_term)."""

    @staticmethod
    def term_exponential(term, n, c):
        return dense(term_evaluator((term,), n, 1.0).s2((1j * c).real))

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("c", [-0.3j, 1.7j, 1j])
    def test_matches_full_dimension(self, n, c):
        inst = small_instance(seed=n, n=n)
        for term in chain_terms(inst):
            fast = self.term_exponential(term, n, c)
            full = expm_scaled_hermitian(term_matrix(term, n), c)
            assert spectral_norm(fast - full) <= 1e-10

    def test_field_diagonal_pattern(self):
        theta = 0.81
        got = self.term_exponential(LocalTerm(TermKind.Z, 1, 1.0), 3, 1j * theta)
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
        ev = term_evaluator((term,), n=3, t=1.3)
        expected = expm_scaled_hermitian(term_matrix(term, 3), -1.3j * 0.7)
        assert spectral_norm(dense(ev.s2(0.7)) - expected) <= 1e-12

    def test_commuting_terms_factor_exactly(self):
        terms = commuting_toy_terms()
        ev = term_evaluator(terms, n=3, t=2.1)
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


def kind_terms(kind, n):
    """One term of the kind per site, with coefficients in [-1, 1) that
    differ from term to term, so that a run's summed exponents are tested."""
    coefficients = np.random.default_rng([n, list(TermKind).index(kind)]).uniform(-1.0, 1.0, n)
    return [LocalTerm(kind, j, float(a)) for j, a in zip(range(1, n + 1), coefficients)]


def edge_sequence(name, n):
    """A term sequence on one edge of the Pauli kernel, and its number of
    maximal runs of consecutive Z and ZZ terms."""
    xx, yy, zz, z = (kind_terms(kind, n) for kind in (TermKind.XX, TermKind.YY, TermKind.ZZ, TermKind.Z))
    flips = [term for pair in zip(xx, yy) for term in pair]
    diagonal = [term for pair in zip(zz, z) for term in pair]
    if name == "no_diagonal":
        return tuple(flips), 0
    if name == "only_diagonal":
        return tuple(diagonal), 1
    if name == "runs_at_both_ends":
        return tuple(diagonal[:3] + flips + diagonal[3:]), 2
    # n runs of ZZ and Z between single flips, then a run of three at the end.
    assert name == "interleaved_runs"
    terms = [term for j in range(n) for term in (xx[j], zz[j], z[j], yy[j])] + [zz[0], z[-1], zz[-1]]
    return tuple(terms), n + 1


EDGE_SEQUENCES = ("interleaved_runs", "no_diagonal", "only_diagonal", "runs_at_both_ends")


class TestDecompositionSpec:
    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_record_form_round_trips(self, ordering):
        spec = DecompositionSpec(3, 7, ORDERINGS[ordering](4))
        d = spec.to_dict()
        assert d == {"k": 3, "r": 7, "ordering": spec.ordering.to_dict()}
        assert DecompositionSpec.from_dict(json.loads(json.dumps(d))) == spec
        # Counts read back as floats become the integers a spec needs.
        assert DecompositionSpec.from_dict({**d, "k": 3.0, "r": 7.0}) == spec
        # Other values are refused by name, not truncated.
        for field, value in [("k", 3.7), ("r", None), ("r", "7")]:
            with pytest.raises(ValueError, match=f"^spec {field} must be an integer, got "):
                DecompositionSpec.from_dict({**d, field: value})

    def test_k_up_to_the_phase_cap(self):
        # k = 8 has 5^7 = 78,125 phases per slice; k = 9 has 390,625.
        assert DecompositionSpec(8, 1, GROUPED).k == 8
        for k in (9, 12, 10**12):
            message = f"k={k} needs 5^{k - 1} S2 phases per slice, more than {SLICE_PHASES_CAP:,}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                DecompositionSpec(k, 1, GROUPED)

    def test_r_within_the_float_range(self):
        # The phases are divided by r as a float, so r must convert to one:
        # the largest float's integer does, and from 2^1024 none does.
        largest = int(np.finfo(float).max)
        assert DecompositionSpec(2, largest, GROUPED).r == largest
        for r in (2**1024, 10**400, 10**5000):
            message = (f"r is too large: an integer of {r.bit_length()} bits, "
                       "beyond the float range (1.8e308)")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                DecompositionSpec(2, r, GROUPED)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                DecompositionSpec.from_dict({"k": 2, "r": r, "ordering": {"mode": "grouped"}})


class TestKernels:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_s2_and_s1_match_oracle(self, n, ordering):
        inst = small_instance(seed=n, n=n, t=2.0 * n)
        terms = ordered_chain_terms(inst, ORDERINGS[ordering](n))
        ev = S2Evaluator.for_instance(inst, ORDERINGS[ordering](n))
        for phase in (-0.41449, 0.3, 1.7):
            expected = oracle_product(terms, n, -0.5j * inst.t * phase, symmetric=True)
            assert spectral_norm(dense(ev.s2(phase)) - expected) <= 1e-12
            # The forward half-product F that S2 = F F^T is built from is,
            # at the full phase, the first-order product S1.
            expected = oracle_product(terms, n, -1j * inst.t * phase, symmetric=False)
            assert spectral_norm(dense(forward(ev, -1j * inst.t * phase)) - expected) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_kernels_agree_on_grouped_sequence(self, n):
        # The grouped kernel against the full-dimension product, off the
        # imaginary axis too; a grouped evaluator builds no Pauli-rotation plan.
        inst = small_instance(seed=n, n=n, t=2.0 * n)
        terms = ordered_chain_terms(inst, GROUPED)
        ev = S2Evaluator.for_instance(inst, GROUPED)
        assert ev._grouped and not hasattr(ev, "_steps")
        for c in (-0.5j * inst.t * -0.41449, -0.5j * inst.t * 1.7, 0.3 - 0.2j):
            expected = oracle_product(terms, n, c, symmetric=False)
            assert spectral_norm(dense(forward(ev, c)) - expected) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("sequence", EDGE_SEQUENCES)
    def test_pauli_kernel_on_edge_sequences(self, n, sequence):
        terms, runs = edge_sequence(sequence, n)
        ev = term_evaluator(terms, n, 2.0 * n)
        # ZZ and Z alone are a grouped sequence, which the grouped kernel runs.
        assert ev._grouped == (sequence == "only_diagonal")
        # At a c off the imaginary axis the products are not unitary (norm up
        # to ~10 here), so the bound is relative to the oracle's norm.
        for c in (-0.5j * ev.t * -0.41449, -0.5j * ev.t * 1.7, 0.3 - 0.2j):
            half = forward(ev, c)
            for got, symmetric in ((half, False), (half @ half.swapaxes(-1, -2), True)):
                expected = oracle_product(terms, n, c, symmetric=symmetric)
                assert spectral_norm(dense(got) - expected) <= 1e-12 * max(1.0, spectral_norm(expected))
        for phase in (-0.41449, 1.7):
            expected = oracle_product(terms, n, -0.5j * ev.t * phase, symmetric=True)
            assert spectral_norm(dense(ev.s2(phase)) - expected) <= 1e-12
            expected = oracle_product(terms, n, -1j * ev.t * phase, symmetric=False)
            assert spectral_norm(dense(forward(ev, -1j * ev.t * phase)) - expected) <= 1e-12
        if not ev._grouped:
            # One row scaling per maximal Z/ZZ run, one signed permutation per flip.
            assert len(ev._run_exponents) == runs
            assert sum(perm is None for perm, *_ in ev._steps) == runs
            assert len(ev._steps) - runs == len(ev._flip_coefficients) == sum(
                term.kind in (TermKind.XX, TermKind.YY) for term in terms)

    def test_cached_tables_are_read_only(self):
        ev = S2Evaluator.for_instance(small_instance(), GROUPED)
        # Evaluators of one n share the sector index and the identity stack.
        other = S2Evaluator.for_instance(small_instance(seed=9), TermOrdering.canonical())
        assert ev._states is other._states
        for array in (*_sector_index(3), _identity_stack(3)):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0

    def test_kernel_follows_term_sequence(self):
        def grouped(terms, n=3):
            return term_evaluator(terms, n, 1.0)._grouped

        inst = small_instance()
        assert S2Evaluator.for_instance(inst, GROUPED)._grouped
        assert not S2Evaluator.for_instance(inst, TermOrdering.canonical())._grouped
        assert not S2Evaluator.for_instance(inst, ORDERINGS["explicit"](3))._grouped
        # ZZ and Z may interleave; YY ahead of XX leaves the grouped form.
        assert grouped(commuting_toy_terms()[::-1])
        assert not grouped((LocalTerm(TermKind.YY, 1), LocalTerm(TermKind.XX, 2)))


class TestGroupedKernel:
    """The grouped kernel against its two-Walsh-product form (the reference
    keeps S2 = F F^T as syrk, where the kernel takes gemm up to 16 rows)."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("count", [1, 2, 5, 8])
    def test_stack_is_the_reference_bit_for_bit(self, n, count):
        ev = S2Evaluator.for_instance(small_instance(seed=n, n=n, t=2.0 * n), GROUPED)
        # Every chain coupling is 1, so XX and YY share one Walsh row.
        assert ev._diagonals.shape == (2, 2**n)
        phases = np.random.default_rng([n, count]).normal(0.0, 0.5, count).tolist()
        assert ev.s2_stack(phases).tobytes() == grouped_s2_reference(ev, phases).tobytes()

    @staticmethod
    def unequal_evaluators(n):
        """Grouped evaluators whose XX and YY diagonals differ, with their
        term sequences: one XX term alone, and a chain whose YY
        coefficients are scaled by 1.5."""
        inst = small_instance(seed=n, n=n, t=2.0 * n)
        xx = (LocalTerm(TermKind.XX, 1),)
        chain = tuple(LocalTerm(term.kind, term.site, 1.5 * term.coefficient)
                      if term.kind is TermKind.YY else term
                      for term in ordered_chain_terms(inst, GROUPED))
        return [(term_evaluator(terms, n, inst.t), terms) for terms in (xx, chain)]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_unequal_diagonals_keep_two_walsh_rows(self, n):
        phases = [-0.41449, 0.3, 1.7]
        for ev, terms in self.unequal_evaluators(n):
            assert ev._grouped and ev._diagonals.shape == (3, 2**n)
            stack = ev.s2_stack(phases)
            assert stack.tobytes() == grouped_s2_reference(ev, phases).tobytes()
            for phase, block in zip(phases, stack):
                expected = oracle_product(terms, n, -0.5j * ev.t * phase, symmetric=True)
                assert spectral_norm(dense(block) - expected) <= 1e-10


class TestBuildApproximation:
    def test_commuting_toy_is_exact(self):
        terms = commuting_toy_terms()
        ev = term_evaluator(terms, n=3, t=1.7)
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
        approx = approximation(inst, spec, (0.0,) * 5)
        npt.assert_allclose(dense(approx), np.eye(8), atol=1e-12)

    def test_error_decreases_with_r(self):
        inst = small_instance()
        exact = expm_scaled_hermitian(dense_hamiltonian(inst), -1j * inst.t)
        errs = [
            spectral_norm(exact - dense(approximation(inst, DecompositionSpec(2, r, GROUPED), suzuki_seed(2))))
            for r in (2, 4, 8)
        ]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("k,lo,hi", [(1, -2.3, -1.7), (2, -4.5, -3.5)])
    def test_order_scaling_slopes(self, k, lo, hi):
        # log-log fit of seed error against r; second-order slicing decays
        # like r^-2 and the k=2 formula like r^-4.
        inst = small_instance(seed=1, n=3, t=1.0)
        exact = expm_scaled_hermitian(dense_hamiltonian(inst), -1j * inst.t)
        rs = [1, 2, 4, 8, 16]
        errs = [
            spectral_norm(exact - dense(approximation(inst, DecompositionSpec(k, r, GROUPED), suzuki_seed(k))))
            for r in rs
        ]
        slope = np.polyfit(np.log(rs), np.log(errs), 1)[0]
        assert lo <= slope <= hi

    def test_matches_explicit_full_path(self):
        # Same operator whether exponentials come from the fast local path
        # or from full-dimension exponentiation of each term.
        inst = small_instance(seed=5)
        spec = DecompositionSpec(2, 2, GROUPED)
        fast = dense(approximation(inst, spec, suzuki_seed(2)))
        terms = ordered_chain_terms(inst, GROUPED)
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

    @staticmethod
    def fresh_product(inst, spec, p):
        # Every block from an evaluator of its own, so nothing is shared.
        acc = None
        for x in slice_phases(p):
            block = S2Evaluator.for_instance(inst, spec.ordering).s2(x / spec.r)
            acc = block if acc is None else acc @ block
        return matrix_power(acc, spec.r)

    @staticmethod
    def count_builds(monkeypatch, stacks=None):
        """Records every phase that ``s2_stack`` builds, in build order, and
        in ``stacks`` a weak reference to each stack it returns."""
        built = []
        s2_stack = S2Evaluator.s2_stack

        def recording_s2_stack(self, phases):
            stack = s2_stack(self, phases)
            built.extend(phases)
            if stacks is not None:
                stacks.append(weakref.ref(stack))
            return stack

        monkeypatch.setattr(S2Evaluator, "s2_stack", recording_s2_stack)
        return built

    @pytest.mark.parametrize("ordering", ["grouped", "explicit"])
    def test_repeated_phase_reuses_the_held_block(self, ordering, monkeypatch):
        # The Suzuki slice (p, p, 1-4p, p, p): five s2 calls, two builds,
        # and bit for bit the product of five fresh blocks.
        inst = small_instance(seed=4, n=4, t=8.0)
        spec = DecompositionSpec(2, 7, ORDERINGS[ordering](4))
        built = self.count_builds(monkeypatch)
        got = approximation(inst, spec, suzuki_seed(2))
        assert len(built) == 2
        expected = self.fresh_product(inst, spec, suzuki_seed(2))
        assert len(built) == 2 + 5
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("ordering", ["grouped", "explicit"])
    @pytest.mark.parametrize("vector,builds", [
        ("suzuki_k3", 4),  # 25 phases, the products of {p2, 1-4p2} and {p3, 1-4p3}
        ("distinct_k2", 5),  # a CMA candidate: every phase new
    ])
    def test_each_distinct_phase_is_built_once(self, ordering, vector, builds, monkeypatch):
        self.check_built_once(4, ordering, vector, builds, monkeypatch)

    @pytest.mark.parametrize("ordering", ["grouped", "explicit"])
    @pytest.mark.parametrize("vector,builds", [("suzuki_k3", 4), ("distinct_k2", 5)])
    def test_each_distinct_phase_is_built_once_in_single_stacks(self, ordering, vector, builds,
                                                                monkeypatch):
        # From n=7 on a stack holds one phase, and builds are single.
        self.check_built_once(7, ordering, vector, builds, monkeypatch)

    def check_built_once(self, n, ordering, vector, builds, monkeypatch):
        inst = small_instance(seed=4, n=n, t=2.0 * n)
        k, p = (3, suzuki_seed(3)) if vector == "suzuki_k3" else (2, (0.41, 0.42, -0.66, 0.43, 0.4))
        spec = DecompositionSpec(k, 3, ORDERINGS[ordering](n))
        refs, live, stacks, live_stacks = [], [], [], []
        s2 = S2Evaluator.s2

        def counting_s2(self, phase, held=None):
            block = s2(self, phase, held)
            if all(ref() is not block for ref in refs):
                refs.append(weakref.ref(block))
            live.append(sum(1 for ref in refs if ref() is not None))
            live_stacks.append(sum(1 for ref in stacks if ref() is not None))
            return block

        built = self.count_builds(monkeypatch, stacks)
        monkeypatch.setattr(S2Evaluator, "s2", counting_s2)
        got = approximation(inst, spec, p)
        assert len(built) == len(set(built)) == builds == len(refs)
        assert len(live) == len(slice_phases(p))
        if vector == "distinct_k2":
            if _phases_per_stack(n) == 1:
                # Nothing kept for later: at most the block just built and
                # the slice's first factor, which is the running product
                # until the second block arrives.
                assert max(live) <= 2
            else:
                # All five phases come from one stack, the first factor
                # among them, and every later running product is a new array.
                assert len(stacks) == 1 and max(live_stacks) == 1
        assert got.tobytes() == self.fresh_product(inst, spec, p).tobytes()

    @staticmethod
    def distinct_k3():
        """A k=3 vector whose 25 slice phases are all distinct."""
        p = np.array(suzuki_seed(3)) + 1e-3 * np.arange(1, 11)
        assert len(set(slice_phases(p).tolist())) == 25
        return tuple(p)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_stacks_match_single_builds(self, n, ordering, monkeypatch):
        # 25 distinct phases in stacks of _phases_per_stack(n): one stack at
        # n = 3 and 4, 8 + 8 + 8 + 1 at n=5, twelve of 2 and one at n=6, and
        # one phase per stack from n=7 on. Each stack stays within the bound.
        inst = small_instance(seed=n, n=n, t=2.0 * n)
        spec = DecompositionSpec(3, 5, ORDERINGS[ordering](n))
        p = self.distinct_k3()
        sizes = []
        s2_stack = S2Evaluator.s2_stack

        def sizing_s2_stack(self, phases):
            stack = s2_stack(self, phases)
            assert stack.shape == (len(phases), 2, 2 ** (n - 1), 2 ** (n - 1))
            assert len(phases) == 1 or stack.nbytes <= _STACK_BYTES
            sizes.append(len(phases))
            return stack

        monkeypatch.setattr(S2Evaluator, "s2_stack", sizing_s2_stack)
        got = approximation(inst, spec, p)
        assert _phases_per_stack(n) == {3: 128, 4: 32, 5: 8, 6: 2, 7: 1, 8: 1}[n]
        per_stack = min(_phases_per_stack(n), 25)
        assert sizes == [per_stack] * (25 // per_stack) + [25 % per_stack] * (25 % per_stack > 0)
        assert got.tobytes() == self.fresh_product(inst, spec, p).tobytes()

    @pytest.mark.parametrize("n", [3, 5, 6, 8])
    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_stack_blocks_are_single_builds(self, n, ordering):
        # Phase by phase, byte for byte, whatever the stack's size, and
        # read-only like a block of s2.
        inst = small_instance(seed=n, n=n, t=2.0 * n)
        ev = S2Evaluator.for_instance(inst, ORDERINGS[ordering](n))
        phases = [0.0, -0.41449, 0.3, 1.7, 0.3 + 1e-9]
        stack = ev.s2_stack(phases)
        assert not stack.flags.writeable
        for phase, block in zip(phases, stack):
            assert block.tobytes() == ev.s2(phase).tobytes()
        assert ev.s2_stack(phases[1:3]).tobytes() == stack[1:3].tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_no_block_outlives_the_call(self, k, monkeypatch):
        inst = small_instance(seed=4, n=4, t=8.0)
        ev = S2Evaluator.for_instance(inst, ORDERINGS["explicit"](4))
        refs = []
        s2 = S2Evaluator.s2

        def recording_s2(self, phase, held=None):
            block = s2(self, phase, held)
            refs.append(weakref.ref(block))
            return block

        monkeypatch.setattr(S2Evaluator, "s2", recording_s2)
        for r in (1, 3):
            approx = build_approximation(ev, DecompositionSpec(k, r, ORDERINGS["explicit"](4)), suzuki_seed(k))
            assert len(refs) == 5 ** (k - 1)
            assert [ref() for ref in refs] == [None] * len(refs)
            assert approx.flags.writeable
            refs.clear()

    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("ordering", ["grouped", "explicit"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_held_blocks_give_the_same_product(self, n, ordering, k, monkeypatch):
        # The caller holds every other distinct phase of the slice, and one
        # phase outside it: only the phases it lacks are built, its dict is
        # left as it was, and the product is the plain call's, byte for byte.
        # At k = 3 the 25 phases are all distinct.
        inst = small_instance(seed=n, n=n, t=2.0 * n)
        spec = DecompositionSpec(k, 3, ORDERINGS[ordering](n))
        p = self.distinct_k3() if k == 3 else suzuki_seed(k)
        ev = S2Evaluator.for_instance(inst, spec.ordering)
        plain = build_approximation(ev, spec, p)
        distinct = list(dict.fromkeys((slice_phases(p) / spec.r).tolist()))
        kept = [*distinct[::2], 0.123]
        held = dict(zip(kept, ev.s2_stack(kept)))
        before = dict(held)
        built = self.count_builds(monkeypatch)
        got = build_approximation(ev, spec, p, held)
        assert sorted(built) == sorted(distinct[1::2])
        assert held.keys() == before.keys()
        assert all(held[x] is before[x] for x in held)
        assert got.tobytes() == plain.tobytes()

    def test_s2_block_is_read_only_and_held_only_by_the_caller(self):
        ev = S2Evaluator.for_instance(small_instance(), GROUPED)
        block = ev.s2(0.25)
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0, 0] = 0
        assert ev.s2(0.25, {0.25: block}) is block
        assert ev.s2(0.25, {0.5: block}) is not block
        # Nothing held: a fresh build, bit for bit the one before.
        fresh = ev.s2(0.25)
        assert fresh is not block and fresh.tobytes() == block.tobytes()
        released = weakref.ref(block)
        del block
        assert released() is None
        assert fresh.tobytes() == S2Evaluator.for_instance(small_instance(), GROUPED).s2(0.25).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_evaluator_is_not_written_by_a_call(self, k):
        inst = small_instance(seed=4, n=4, t=8.0)
        for ordering in ("grouped", "explicit"):
            spec = DecompositionSpec(k, 3, ORDERINGS[ordering](4))
            ev = S2Evaluator.for_instance(inst, spec.ordering)
            before = dict(vars(ev))
            contents = {name: value.tobytes() for name, value in before.items() if isinstance(value, np.ndarray)}
            build_approximation(ev, spec, suzuki_seed(k))
            assert vars(ev).keys() == before.keys()
            assert all(vars(ev)[name] is value for name, value in before.items())
            assert contents == {name: vars(ev)[name].tobytes() for name in contents}

    @pytest.mark.parametrize("ordering", ["grouped", "explicit"])
    def test_threads_sharing_an_evaluator_match_serial(self, ordering):
        # Threads scoring different vectors on one evaluator, many of them
        # sharing phases: every product must still be the serial one bit
        # for bit.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        inst = small_instance(seed=6, n=4, t=8.0)
        spec = DecompositionSpec(2, 5, ORDERINGS[ordering](4))
        rng = np.random.default_rng(3)
        seed = np.array(suzuki_seed(2))
        # A quarter of the vectors are the Suzuki seed; the rest share some of its entries.
        population = [tuple(seed) for _ in range(8)] + [
            tuple(np.where(rng.random(5) < 0.5, seed, rng.normal(0.3, 0.2, 5))) for _ in range(24)
        ]
        serial = [approximation(inst, spec, p).tobytes() for p in population]
        ev = S2Evaluator.for_instance(inst, spec.ordering)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(
                    lambda p: build_approximation(ev, spec, p).tobytes(), population, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ordering", ["grouped", "explicit"])
    @pytest.mark.parametrize("k,scale", [(2, 1e307), (3, 1e200), (4, 1e160)])
    def test_overflowing_vector_refused_before_any_kernel(self, ordering, k, scale, monkeypatch):
        # Finite components whose phases, or t times a phase, overflow: at
        # k=4 an infinite phase also meets a zero component.
        inst = small_instance(seed=4, n=4, t=8.0)
        p = np.full(5 * (k - 1), scale)
        p[-1] = 0.0
        built = self.count_builds(monkeypatch)
        with pytest.raises(ValueError, match="^coefficient vector overflows the S2 exponents$"):
            approximation(inst, DecompositionSpec(k, 3, ORDERINGS[ordering](4)), p)
        assert built == []

    def test_k_mismatch_rejected(self):
        inst = small_instance()
        with pytest.raises(ValueError, match="k=3 needs 10 components, got 5"):
            approximation(inst, DecompositionSpec(3, 1, GROUPED), suzuki_seed(2))


class TestMagnetization:
    """H conserves the popcount. A product formula conserves it when each
    bond's XX and YY terms sit side by side, as in the canonical ordering:
    they commute, and their exponential acts within the bond's (01, 10)
    pair. The grouped ordering splits them."""

    @staticmethod
    def largest_between_popcount_blocks(approx, n):
        """The largest |entry| of a sector stack between states of unequal popcount."""
        popcounts = _popcount(_sector_index(n)[0], n)
        return float(np.abs(approx)[popcounts[:, :, None] != popcounts[:, None, :]].max())

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_canonical_keeps_the_popcount_and_grouped_does_not(self, n):
        inst = small_instance(seed=n, n=n, t=2.0 * n)
        p = np.array(suzuki_seed(2)) + 1e-3 * np.arange(1, 6)
        leaks = {
            name: self.largest_between_popcount_blocks(
                approximation(inst, DecompositionSpec(2, 5, ORDERINGS[name](n)), p), n)
            for name in ("canonical", "grouped")
        }
        assert leaks["canonical"] <= 1e-14
        assert leaks["grouped"] > 0.1
