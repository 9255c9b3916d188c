import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronfft import (
    DenseLimitError,
    KronTerm,
    Permutation,
    StructuredOperator,
    adjoint,
    apply_structured,
    basis_projector,
    bipartition_rank,
    compose,
    cp_basis_state,
    cp_to_dense,
    dft_matrix,
    diagonal_target,
    digit_reversal,
    direct_sum,
    embed_term,
    expand,
    fft_apply,
    fft_plan,
    identity,
    kron,
    kron_all,
    omega,
    omega_diag,
    permute_tensor_factors,
    plan_product,
    qft_rank_experiment,
    r_gate,
    random_rank_one,
    single_site_operator,
    unitarity_residual,
    unitarity_residual_dense,
    verify_plan,
)
from kronfft import tensor


def kron_blockwise(a, b):
    """Independent oracle: build the block matrix (i,j) -> a[i,j]*b directly."""
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    n, m = a.shape
    p, q = b.shape
    out = np.zeros((n * p, m * q), dtype=complex)
    for i in range(n):
        for j in range(m):
            out[i * p : (i + 1) * p, j * q : (j + 1) * q] = a[i, j] * b
    return out


def random_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


complex_entries = st.complex_numbers(
    min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False
)


class TestKron:
    def test_identity_case(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_phases_merge(self):
        # diag(1, w4) (x) diag(1, w8) = diag(w8^0, w8^1, w8^2, w8^3)
        got = kron(np.diag([1, omega(4)]), np.diag([1, omega(8)]))
        want = np.diag([omega(8, k) for k in range(4)])
        np.testing.assert_allclose(got, want, atol=1e-15)

    @pytest.mark.parametrize("shapes", [(2, 2), (3, 2), (2, 4)])
    def test_matches_blockwise_definition(self, shapes):
        rng = np.random.default_rng(sum(shapes))
        a, b = random_matrix(rng, *shapes), random_matrix(rng, shapes[1], shapes[0])
        np.testing.assert_allclose(kron(a, b), kron_blockwise(a, b), atol=1e-14)

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b, c, d = (random_matrix(rng, 2) for _ in range(4))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    @settings(max_examples=40, deadline=None)
    @given(gamma=complex_entries, seed=st.integers(0, 2**31))
    def test_bilinearity(self, gamma, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_matrix(rng, 2) for _ in range(3))
        np.testing.assert_allclose(kron(gamma * a, b), gamma * kron(a, b), atol=1e-9)
        np.testing.assert_allclose(kron(a, gamma * b), gamma * kron(a, b), atol=1e-9)
        np.testing.assert_allclose(kron(a, b + c), kron(a, b) + kron(a, c), atol=1e-12)
        np.testing.assert_allclose(kron(b + c, a), kron(b, a) + kron(c, a), atol=1e-12)

    def test_kron_all_associates(self):
        rng = np.random.default_rng(5)
        mats = [random_matrix(rng, 2) for _ in range(3)]
        np.testing.assert_allclose(
            kron_all(mats), kron(mats[0], kron(mats[1], mats[2])), atol=1e-14
        )


class TestDirectSum:
    def test_scalars_give_identity(self):
        np.testing.assert_array_equal(direct_sum([[1]], [[1]]), np.eye(2))

    def test_identity_with_omega_block(self):
        # I2 (+) diag(1, w4) = diag(1, 1, 1, -1j)
        got = direct_sum(np.eye(2), np.diag([1, omega(4)]))
        np.testing.assert_allclose(got, np.diag([1, 1, 1, -1j]), atol=1e-15)

    def test_equals_projector_expansion(self):
        rng = np.random.default_rng(1)
        a, b = random_matrix(rng, 2), random_matrix(rng, 2)
        split = kron(basis_projector(0, 2), a) + kron(basis_projector(1, 2), b)
        np.testing.assert_allclose(direct_sum(a, b), split, atol=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            direct_sum(np.ones((2, 3)), np.eye(2))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_projector_family(d):
    total = sum(basis_projector(i, d) for i in range(d))
    np.testing.assert_array_equal(total, np.eye(d))
    for i in range(d):
        for j in range(d):
            prod = basis_projector(i, d) @ basis_projector(j, d)
            expected = basis_projector(i, d) if i == j else np.zeros((d, d))
            np.testing.assert_array_equal(prod, expected)


@pytest.mark.parametrize("index", [-1, 2])
def test_projector_index_out_of_range(index):
    with pytest.raises(ValueError, match="out of range for dimension 2"):
        basis_projector(index, 2)


class TestStructuredOperator:
    def test_expand_identity_term(self):
        op = StructuredOperator(2, 2, (embed_term(2, 2, {}),))
        np.testing.assert_array_equal(expand(op), np.eye(4))

    def test_expand_projector_phase_sum(self):
        terms = (
            embed_term(2, 2, {0: basis_projector(0, 2)}),
            embed_term(2, 2, {0: basis_projector(1, 2), 1: r_gate(2)}),
        )
        got = expand(StructuredOperator(2, 2, terms))
        np.testing.assert_allclose(got, np.diag([1, 1, 1, -1j]), atol=1e-15)

    def test_orthogonal_projector_product_vanishes(self):
        rng = np.random.default_rng(2)
        a = StructuredOperator(
            2, 2, (embed_term(2, 2, {0: basis_projector(0, 2), 1: random_matrix(rng, 2)}),)
        )
        b = StructuredOperator(
            2, 2, (embed_term(2, 2, {0: basis_projector(1, 2), 1: random_matrix(rng, 2)}),)
        )
        np.testing.assert_allclose(expand(compose(a, b)), np.zeros((4, 4)), atol=1e-14)

    def test_expand_respects_dense_limit(self):
        op = StructuredOperator(4, 2, (embed_term(4, 2, {}),))
        with pytest.raises(DenseLimitError):
            expand(op, dense_limit=8)

    def test_term_shape_validation(self):
        with pytest.raises(ValueError):
            StructuredOperator(2, 2, (embed_term(3, 2, {}),))
        with pytest.raises(ValueError):
            StructuredOperator(1, 3, (KronTerm(1.0, (np.eye(2),)),))

    def test_needs_a_site(self):
        with pytest.raises(ValueError, match="at least one site"):
            StructuredOperator(0, 2, ())

    def test_needs_a_positive_local_dimension(self):
        with pytest.raises(ValueError, match="local dimension must be positive"):
            StructuredOperator(2, 0, ())

    def test_factors_are_read_only(self):
        term = embed_term(2, 2, {0: np.array([[0, 1], [1, 0]])})
        with pytest.raises(ValueError):
            term.factors[0][0, 0] = 5.0

    def test_embed_term_fills_identity_and_ignores_outside_sites(self):
        x = np.array([[0, 1], [1, 0]])
        term = embed_term(3, 2, {1: x, 3: x, -1: x})
        assert term.factors[0] is identity(2) and term.factors[2] is identity(2)
        np.testing.assert_array_equal(term.factors[1], x)

    def test_repeated_factor_is_frozen_once(self):
        x = np.array([[0, 1], [1, 0]])
        term = KronTerm(1.0, (x, identity(2), x))
        assert term.factors[0] is term.factors[2] and term.factors[0] is not x
        assert not term.factors[0].flags.writeable
        with pytest.raises(ValueError):
            KronTerm(1.0, (identity(2), np.ones(2)))
        with pytest.raises(ValueError):
            StructuredOperator(2, 3, (KronTerm(1.0, (identity(3), identity(2))),))


class TestSparseTerms:
    def test_only_non_identity_sites_are_stored(self):
        x = np.array([[0, 1], [1, 0]])
        term = KronTerm(1, (np.eye(2), x))
        assert [site for site, _ in term.site_matrices] == [1]
        assert term.factors[0] is identity(2)
        np.testing.assert_array_equal(term.factors[1], x)
        assert (term.n_sites, term.local_dim, term.dim) == (2, 2, 4)

    def test_all_identity_term_keeps_its_structure(self):
        term = embed_term(3, 2, {1: np.eye(2)})
        assert term.site_matrices == ()
        assert term.factors == (identity(2),) * 3
        assert (term.n_sites, term.local_dim) == (3, 2)

    def test_compose_drops_identity_products(self):
        x = np.array([[0, 1], [1, 0]])
        op = single_site_operator(3, 2, 1, x)
        square = compose(op, op)
        assert [t.site_matrices for t in square.terms] == [()]
        gram = compose(op, adjoint(op))
        np.testing.assert_array_equal(expand(gram), np.eye(8))


class TestApplyStructured:
    def test_identity_operator(self):
        rng = np.random.default_rng(3)
        op = StructuredOperator(3, 2, (embed_term(3, 2, {}),))
        x = random_matrix(rng, 8, 1)[:, 0]
        np.testing.assert_array_equal(apply_structured(op, x), x)

    def test_matches_dense_expansion(self):
        rng = np.random.default_rng(4)
        terms = []
        for _ in range(3):
            coeff = complex(rng.standard_normal(), rng.standard_normal())
            terms.append(KronTerm(coeff, tuple(random_matrix(rng, 2) for _ in range(3))))
        op = StructuredOperator(3, 2, tuple(terms))
        x = random_matrix(rng, 8, 1)[:, 0]
        got = apply_structured(op, x)
        want = expand(op) @ x
        assert np.max(np.abs(got - want)) < 1e-12

    def test_single_site_gate_acts_locally(self):
        rng = np.random.default_rng(6)
        h = dft_matrix(2)
        xs = [random_matrix(rng, 2, 1)[:, 0] for _ in range(3)]
        op = single_site_operator(3, 2, 0, h)
        got = apply_structured(op, kron_all(xs))
        want = kron_all([h @ xs[0], xs[1], xs[2]])
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_column_batch_equals_expansion(self):
        rng = np.random.default_rng(7)
        op = StructuredOperator(
            2, 3, (KronTerm(1.5 - 0.5j, (random_matrix(rng, 3), random_matrix(rng, 3))),)
        )
        np.testing.assert_allclose(
            apply_structured(op, np.eye(9, dtype=complex)), expand(op), atol=1e-13
        )

    def test_dimension_mismatch(self):
        op = StructuredOperator(2, 2, (embed_term(2, 2, {}),))
        with pytest.raises(ValueError):
            apply_structured(op, np.zeros(5))

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 5)])
    def test_random_instances_match_dense(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        terms = tuple(
            KronTerm(
                complex(rng.standard_normal(), rng.standard_normal()),
                tuple(random_matrix(rng, d) for _ in range(n)),
            )
            for _ in range(2)
        )
        op = StructuredOperator(n, d, terms)
        x = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        assert np.max(np.abs(apply_structured(op, x) - expand(op) @ x)) < 1e-12


class TestComposeAdjoint:
    def test_compose_matches_dense_product(self):
        rng = np.random.default_rng(8)
        ops = []
        for _ in range(2):
            terms = tuple(
                KronTerm(1.0, tuple(random_matrix(rng, 2) for _ in range(2)))
                for _ in range(2)
            )
            ops.append(StructuredOperator(2, 2, terms))
        np.testing.assert_allclose(
            expand(compose(ops[0], ops[1])), expand(ops[0]) @ expand(ops[1]), atol=1e-13
        )

    def test_adjoint_matches_dense(self):
        rng = np.random.default_rng(9)
        op = StructuredOperator(
            2, 2, (KronTerm(2j, (random_matrix(rng, 2), random_matrix(rng, 2))),)
        )
        np.testing.assert_allclose(expand(adjoint(op)), expand(op).conj().T, atol=1e-14)

    def test_incompatible_structures(self):
        a = StructuredOperator(2, 2, (embed_term(2, 2, {}),))
        b = StructuredOperator(3, 2, (embed_term(3, 2, {}),))
        with pytest.raises(ValueError):
            compose(a, b)


class TestUnitarityResidual:
    def test_fast_path_matches_dense_on_plan_factors(self):
        from kronfft import fft_plan, qft_plan

        for plan in (fft_plan(4, 2), qft_plan(3, 2), fft_plan(3, 3)):
            for f in plan.factors:
                fast = unitarity_residual(f)
                dense = unitarity_residual_dense(expand(f))
                assert abs(fast - dense) < 1e-13, f.label

    def test_dense_fallback_for_generic_operator(self):
        rng = np.random.default_rng(10)
        q1, _ = np.linalg.qr(random_matrix(rng, 2))
        q2, _ = np.linalg.qr(random_matrix(rng, 2))
        op = StructuredOperator(2, 2, (KronTerm(1.0, (q1, q2)),))
        assert unitarity_residual(op) < 1e-13

    def test_detects_non_unitary(self):
        op = StructuredOperator(2, 2, (KronTerm(2.0, (np.eye(2), np.eye(2))),))
        assert unitarity_residual(op) > 1.0

    def test_past_the_dense_limit(self):
        # Four dense Gram sites need 2**8 entries, past max(8**2, 64), so the
        # dimension 16 is past the limit 8; one dense site needs only 2**2.
        rng = np.random.default_rng(11)
        dense = StructuredOperator(4, 2, (KronTerm(1.0, [random_matrix(rng, 2)] * 4),))
        with pytest.raises(DenseLimitError, match="^dimension 16 exceeds the dense limit 8$"):
            unitarity_residual(dense, dense_limit=8)
        q, _ = np.linalg.qr(random_matrix(rng, 2))
        assert unitarity_residual(single_site_operator(4, 2, 1, q), dense_limit=8) < 1e-13


class TestDenseGuard:
    """One guard, ``_check_dense_sites``, reports every oversize dense request
    as ``DenseLimitError``, even where the dimension has too many digits to print."""

    N = 20000  # 2**N has more than 4300 decimal digits

    @pytest.mark.parametrize(
        "call,dim",
        [
            (lambda n: expand(single_site_operator(n, 2, 3, np.diag([1, -1]))), "2**20000"),
            (lambda n: cp_to_dense(cp_basis_state([0] * n)), "2**20000"),
            (lambda n: bipartition_rank(cp_basis_state([0] * n), n // 2), "2**20000"),
            (lambda n: qft_rank_experiment(n, 2, cp_basis_state([1] * n)), "2**20000"),
            (lambda n: omega_diag(n, 2), "2**20000"),
            (lambda n: diagonal_target(n - 1, 2), "2**20000"),
            # A one-site size with too many digits is named by its bit length.
            (lambda n: dft_matrix(10**5000), "of about 16610 bits"),
        ],
        ids=["expand", "cp_to_dense", "bipartition_rank", "qft_rank_experiment", "omega_diag",
             "diagonal_target", "dft_matrix"],
    )
    def test_past_printable_dimensions(self, call, dim):
        with pytest.raises(DenseLimitError) as raised:
            call(self.N)
        assert str(raised.value) == f"dimension {dim} exceeds the dense limit 4096"

    @pytest.mark.parametrize("size", [8.0, np.int64(8)])
    def test_dft_sizes_that_are_not_ints(self, size):
        assert dft_matrix(size).tobytes() == dft_matrix(8).tobytes()

    @pytest.mark.parametrize(
        "size,name", [(4096.5, "4096.5"), (float("inf"), "inf"), (np.int64(8192), "8192")]
    )
    def test_sizes_that_are_not_ints_past_the_limit(self, size, name):
        # A float size is compared as it is, not truncated to an int below the limit.
        with pytest.raises(DenseLimitError, match=rf"^dimension {name} exceeds the dense limit 4096$"):
            dft_matrix(size)

    def test_small_work_is_not_guarded(self):
        # The Gram work of a one-site operator is d**2 entries at any n.
        q, _ = np.linalg.qr(random_matrix(np.random.default_rng(12), 2))
        assert unitarity_residual(single_site_operator(self.N, 2, 7, q)) < 1e-13


class TestDigitReversal:
    def test_three_bit_row_order(self):
        assert digit_reversal(3, 2).image == (0, 4, 2, 6, 1, 5, 3, 7)

    def test_single_index_reversal(self):
        # j=3 is 011 in binary; reversed digits 110 give 6
        assert digit_reversal(3, 2).image[3] == 6

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_involution_and_bijection(self, n, d):
        image = digit_reversal(n, d).image
        assert sorted(image) == list(range(d**n))
        for j in range(d**n):
            assert image[image[j]] == j

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            digit_reversal(0, 2)
        with pytest.raises(ValueError):
            digit_reversal(2, 1)

    def test_equals_only_permutations_and_repr(self):
        p = digit_reversal(2, 2)
        assert (p == (0, 2, 1, 3)) is False
        assert (p != (0, 2, 1, 3)) is True
        assert repr(p) == "Permutation(image=(0, 2, 1, 3))"

    def test_reversals_equal_by_sites_exactly_when_images_do(self):
        # Every (n, d) with d**n <= 4096, grouped by size: only equal sizes can match.
        by_size = {}
        for d in range(2, 4097):
            n = 1
            while d**n <= 4096:
                by_size.setdefault(d**n, []).append(digit_reversal(n, d))
                n += 1
        for group in by_size.values():
            for p in group:
                assert all((p == q) == (p.image == q.image) for q in group)
                plain = Permutation(p.image)
                assert p == plain and plain == p and hash(p) == hash(plain)
        assert len(by_size[16]) == 3 and len(by_size[4096]) == 6
        assert digit_reversal(1, 4) != digit_reversal(1, 8)

    @pytest.mark.parametrize(
        "n,d,message",
        [
            (True, 2, "digit reversal n must be an integer, got True"),
            (2.0, 2, "digit reversal n must be an integer, got 2.0"),
            (2, 2.0, "digit reversal d must be an integer, got 2.0"),
            (2, True, "digit reversal d must be an integer, got True"),
            (0, 2, "digit reversal needs n >= 1 sites of dimension d >= 2"),
            (2, 1, "digit reversal needs n >= 1 sites of dimension d >= 2"),
        ],
    )
    def test_sizes_follow_the_integer_rule(self, n, d, message):
        with pytest.raises(ValueError) as raised:
            digit_reversal(n, d)
        assert str(raised.value) == message

    def test_numpy_integer_sizes_convert(self):
        p = digit_reversal(np.int64(3), np.int32(2))
        assert p == digit_reversal(3, 2) and p.image == (0, 4, 2, 6, 1, 5, 3, 7)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_apply_is_a_new_array_with_the_gather_bytes(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        p = digit_reversal(n, d)
        index = np.asarray(p.image)
        wide = rng.standard_normal((d**n, 6)) + 1j * rng.standard_normal((d**n, 6))
        inputs = [wide[:, 0], wide[:, :3], wide[:, ::2], np.arange(d**n), np.broadcast_to(1j, (d**n,))]
        for x in inputs:
            y = p.apply(x)
            want = x[index]
            assert y.shape == want.shape and y.dtype == want.dtype
            assert y.tobytes() == want.tobytes()
            assert not np.shares_memory(y, x)

    def test_sixty_four_sites_build_no_table(self):
        p = digit_reversal(64, 2)
        s = random_rank_one(64, 2, seed=1)
        out, want = permute_tensor_factors(p, s), s.reverse_sites()
        assert out.vectors.tobytes() == want.vectors.tobytes()
        assert out.weights.tobytes() == want.weights.tobytes()
        assert p.size == 2**64
        assert p == digit_reversal(64, 2) and p != digit_reversal(32, 4)
        assert p != Permutation((1, 0)) and Permutation((1, 0)) != p
        assert "_index" not in vars(p)

    @pytest.mark.parametrize("n", [25, 64])
    @pytest.mark.parametrize("ask", [hash, lambda p: p.image, lambda p: p.to_matrix()])
    def test_tables_past_the_limit_raise(self, n, ask):
        with pytest.raises(DenseLimitError):
            ask(digit_reversal(n, 2))

    def test_library_paths_build_no_table(self, monkeypatch):
        def refuse(p):
            raise AssertionError("built a digit-reversal table")

        monkeypatch.setattr(tensor._DigitReversal, "_index", property(refuse))
        plan = fft_plan(5, 3)
        x = np.arange(plan.dim, dtype=complex)
        assert fft_apply(plan, x).shape == x.shape
        assert verify_plan(plan).residual < 1e-12
        plan_product(plan)
        permute_tensor_factors(plan.reversal, random_rank_one(5, 3, seed=2))
        assert plan.reversal == digit_reversal(5, 3)
        with pytest.raises(AssertionError, match="built a digit-reversal table"):
            hash(plan.reversal)


class TestPermutation:
    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(11)
        p = digit_reversal(2, 3)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        np.testing.assert_allclose(p.apply(x), p.to_matrix() @ x, atol=1e-15)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    @pytest.mark.parametrize("image", [(0, 2), (-1, 0), ((0, 1), (1, 0))])
    def test_rejects_out_of_range_and_nested(self, image):
        with pytest.raises(ValueError):
            Permutation(image)

    def test_value_semantics(self):
        p = Permutation(np.array([1, 2, 0]))
        assert p.image == (1, 2, 0) and isinstance(p.image[0], int)
        assert p == Permutation((1, 2, 0)) and p != Permutation((0, 1, 2))
        assert hash(p) == hash(Permutation([1, 2, 0]))
        with pytest.raises(AttributeError):
            p.image = (0, 1, 2)

    def test_to_matrix_is_dense_limited(self):
        with pytest.raises(DenseLimitError, match="^dimension 4097 exceeds the dense limit 4096$"):
            Permutation(range(4097)).to_matrix()

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            digit_reversal(2, 2).apply(np.zeros(5))


class TestPermuteTensorFactors:
    def test_single_site_unchanged(self):
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(
            permute_tensor_factors(digit_reversal(1, 2), x), x
        )

    def test_rank_one_reversal_matches_dense(self):
        rng = np.random.default_rng(12)
        vs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        p = digit_reversal(3, 2)
        dense = permute_tensor_factors(p, kron_all(vs))
        np.testing.assert_allclose(dense, kron_all(vs[::-1]), atol=1e-14)

    def test_dense_entry_movement(self):
        p = digit_reversal(2, 3)
        x = np.arange(9, dtype=complex)
        y = permute_tensor_factors(p, x)
        for j in range(9):
            assert y[p.image[j]] == x[j]

    def test_cp_state_path(self):
        s = random_rank_one(3, 2, seed=13)
        p = digit_reversal(3, 2)
        np.testing.assert_allclose(
            cp_to_dense(permute_tensor_factors(p, s)),
            permute_tensor_factors(p, cp_to_dense(s)),
            atol=1e-14,
        )

    def test_cp_state_rejects_wrong_permutation(self):
        s = random_rank_one(2, 2, seed=14)
        with pytest.raises(ValueError):
            permute_tensor_factors(Permutation((1, 0, 2, 3)), s)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            permute_tensor_factors(digit_reversal(1, 2), "not a state")


def test_identity_matrix_is_shared_and_frozen():
    assert identity(2) is identity(2)
    with pytest.raises(ValueError):
        identity(2)[0, 0] = 3.0
