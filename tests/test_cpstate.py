import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronfft import cpstate
from kronfft import (
    CONTROL_FIRST,
    TARGET_FIRST,
    CPState,
    DEFAULT_DENSE_LIMIT,
    DenseLimitError,
    KronTerm,
    RankOneTerm,
    StructuredOperator,
    apply_op_cp,
    basis_projector,
    bipartition_rank,
    compress,
    cp_basis_state,
    cp_to_dense,
    dft_matrix,
    diagonal_cascade_cp,
    diagonal_decomposition,
    embed_term,
    expand,
    identity,
    kron_all,
    qft_plan,
    qft_rank_experiment,
    r_gate,
    random_rank_one,
)


def dense_by_digit_indexing(state):
    """Independent oracle: evaluate sum_i w_i * prod_k v_k(j_k) entry by entry."""
    out = np.zeros(state.dim, dtype=complex)
    for j in range(state.dim):
        digits = []
        rem = j
        for _ in range(state.n):
            rem, dig = divmod(rem, state.d)
            digits.append(dig)
        digits.reverse()
        for term in state.terms:
            value = term.weight
            for vec, dig in zip(term.site_vectors, digits):
                value *= vec[dig]
            out[j] += value
    return out


def random_state(rng, n, d, terms):
    built = []
    for _ in range(terms):
        vs = tuple(
            rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(n)
        )
        built.append(RankOneTerm(complex(rng.standard_normal(), rng.standard_normal()), vs))
    return CPState(n, d, tuple(built))


def random_operator(rng, n, d, terms):
    built = []
    for _ in range(terms):
        fs = []
        for _ in range(n):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            fs.append(m / np.linalg.norm(m, 2))
        built.append(
            KronTerm(complex(rng.standard_normal(), rng.standard_normal()), tuple(fs))
        )
    return StructuredOperator(n, d, tuple(built))


class TestBasisState:
    def test_all_zero_digits(self):
        s = cp_basis_state([0, 0, 0], 2)
        dense = cp_to_dense(s)
        want = np.zeros(8)
        want[0] = 1.0
        np.testing.assert_array_equal(dense, want)

    def test_base_three_index(self):
        s = cp_basis_state([1, 0], 3)
        dense = cp_to_dense(s)
        want = np.zeros(9)
        want[3] = 1.0  # big-endian: 1*3 + 0
        np.testing.assert_array_equal(dense, want)

    @pytest.mark.parametrize("digits,d", [([0], 2), ([1, 1], 2), ([2, 0, 1], 3)])
    def test_single_term(self, digits, d):
        assert cp_basis_state(digits, d).term_count == 1

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError):
            cp_basis_state([0, 2], 2)
        with pytest.raises(ValueError):
            cp_basis_state([], 2)


class TestConstructor:
    @pytest.mark.parametrize(
        "n,d,terms,message",
        [
            (0, 2, (RankOneTerm(1.0, ()),), "n >= 1 sites"),
            (1, 1, (RankOneTerm(1.0, (np.ones(1),)),), "n >= 1 sites"),
            (2, 2, (), "at least one term"),
            (2, 2, (RankOneTerm(1.0, (np.ones(2),)),), "term has 1 sites, expected 2"),
            (1, 2, (RankOneTerm(1.0, (np.ones(3),)),), "site vector length 3 != 2"),
        ],
    )
    def test_invalid_states_rejected(self, n, d, terms, message):
        with pytest.raises(ValueError, match=message):
            CPState(n, d, terms)

    @pytest.mark.parametrize(
        "n,d,message",
        [
            (2.0, 2, "state n must be an integer, got 2.0"),
            (2, True, "state d must be an integer, got True"),
            ("2", 2, "state n must be an integer, got '2'"),
        ],
    )
    def test_sizes_must_be_integers(self, n, d, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CPState(n, d, (RankOneTerm(1.0, (np.ones(2), np.ones(2))),))

    def test_numpy_sizes_become_ints(self):
        s = CPState(np.int64(2), np.int64(2), (RankOneTerm(1.0, (np.ones(2), np.ones(2))),))
        assert type(s.n) is int and type(s.d) is int
        assert repr(s) == "CPState(n=2, d=2, term_count=1)"


class TestCpToDense:
    def test_single_term_matches_kron(self):
        rng = np.random.default_rng(0)
        vs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)]
        s = CPState(2, 2, (RankOneTerm(1.0, tuple(vs)),))
        np.testing.assert_allclose(cp_to_dense(s), kron_all(vs), atol=1e-14)

    @pytest.mark.parametrize("n,d,terms", [(2, 2, 2), (3, 2, 3), (2, 3, 2)])
    def test_matches_digit_indexing_oracle(self, n, d, terms):
        s = random_state(np.random.default_rng(n + d + terms), n, d, terms)
        assert np.max(np.abs(cp_to_dense(s) - dense_by_digit_indexing(s))) < 1e-13

    def test_zero_weight_terms_contribute_nothing(self):
        rng = np.random.default_rng(1)
        base = random_state(rng, 2, 2, 1)
        padded = CPState(
            2, 2, base.terms + (RankOneTerm(0.0, base.terms[0].site_vectors),)
        )
        np.testing.assert_array_equal(cp_to_dense(padded), cp_to_dense(base))


class TestNormalization:
    def test_weights_absorb_magnitudes(self):
        term = RankOneTerm(2.0, (np.array([3.0, 4.0]), np.array([0.0, 2.0])))
        for v in term.site_vectors:
            assert abs(np.linalg.norm(v) - 1.0) < 1e-14
        assert abs(term.weight - 2.0 * 5.0 * 2.0) < 1e-12

    def test_zero_site_vector_zeroes_the_term(self):
        term = RankOneTerm(1.0, (np.zeros(2), np.array([1.0, 0.0])))
        assert term.weight == 0
        assert abs(np.linalg.norm(term.site_vectors[0]) - 1.0) < 1e-14


class TestApplyOpCp:
    def test_projector_branch_vanishes_on_basis_control(self):
        # control site already in the low basis state: the shifted branch dies
        factor = diagonal_decomposition(2, 2, CONTROL_FIRST).factors[0]
        s = cp_basis_state([0, 1, 1], 2)
        out = apply_op_cp(factor, s)
        assert out.term_count == 1

    def test_generic_input_doubles(self):
        factor = diagonal_decomposition(2, 2, CONTROL_FIRST).factors[0]
        s = random_rank_one(3, 2, seed=2)
        assert apply_op_cp(factor, s).term_count == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_commutes_with_dense_application(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 4)), int(rng.choice([2, 3]))
        op = random_operator(rng, n, d, int(rng.integers(1, 4)))
        s = random_state(rng, n, d, int(rng.integers(1, 4)))
        lhs = cp_to_dense(apply_op_cp(op, s, prune=0.0))
        rhs = expand(op) @ cp_to_dense(s)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_candidate_count_bound(self):
        rng = np.random.default_rng(3)
        op = random_operator(rng, 2, 2, 3)
        s = random_state(rng, 2, 2, 2)
        assert apply_op_cp(op, s, prune=0.0).term_count == 6

    def test_unitary_preserves_norm(self):
        plan_factor = diagonal_decomposition(3, 2).factors[1]
        s = random_rank_one(4, 2, seed=4)
        out = apply_op_cp(plan_factor, s)
        assert abs(np.linalg.norm(cp_to_dense(out)) - 1.0) < 1e-12

    def test_structure_mismatch(self):
        op = StructuredOperator(2, 2, (embed_term(2, 2, {}),))
        with pytest.raises(ValueError):
            apply_op_cp(op, cp_basis_state([0, 0, 0], 2))

    def test_operator_without_terms(self):
        with pytest.raises(ValueError, match="operator has no terms"):
            apply_op_cp(StructuredOperator(2, 2, ()), cp_basis_state([0, 0], 2))


class TestDiagonalCascade:
    def test_generic_input_stays_at_two_terms(self):
        s = random_rank_one(4, 2, seed=5)
        out, trajectory = diagonal_cascade_cp(3, 2, s)
        assert trajectory == [2, 2, 2]
        x = s.terms[0].site_vectors
        low = kron_all([basis_projector(0, 2) @ x[0]] + list(x[1:]))
        high = kron_all(
            [basis_projector(1, 2) @ x[0]]
            + [r_gate(i + 2, 2) @ v for i, v in enumerate(x[1:])]
        )
        assert np.max(np.abs(cp_to_dense(out) - (low + high))) < 1e-12
        # term-by-term: the two stored terms are exactly the two branches
        got0 = out.terms[0].weight * kron_all(out.terms[0].site_vectors)
        got1 = out.terms[1].weight * kron_all(out.terms[1].site_vectors)
        assert np.max(np.abs(got0 - low)) < 1e-12
        assert np.max(np.abs(got1 - high)) < 1e-12

    def test_basis_control_keeps_one_term(self):
        s = cp_basis_state([0, 1, 0, 1], 2)
        out, trajectory = diagonal_cascade_cp(3, 2, s)
        assert trajectory == [1, 1, 1]
        np.testing.assert_allclose(
            cp_to_dense(out), cp_to_dense(s), atol=1e-14
        )

    def test_unpruned_candidates_double_per_step(self):
        s = random_rank_one(4, 2, seed=6)
        out, trajectory = diagonal_cascade_cp(3, 2, s, prune=0.0)
        assert trajectory == [2, 4, 8]
        zero_weights = sum(1 for t in out.terms if t.weight == 0)
        assert zero_weights == 6  # all but the two real branches cancel exactly

    def test_matches_dense_target(self):
        from kronfft import diagonal_target

        s = random_rank_one(4, 2, seed=7)
        out, _ = diagonal_cascade_cp(3, 2, s)
        want = diagonal_target(3, 2) @ cp_to_dense(s)
        assert np.max(np.abs(cp_to_dense(out) - want)) < 1e-12

    def test_wrong_site_count(self):
        with pytest.raises(ValueError):
            diagonal_cascade_cp(3, 2, cp_basis_state([0, 0], 2))


class TestBipartitionRank:
    def test_rank_one_everywhere(self):
        s = random_rank_one(4, 2, seed=8)
        for cut in range(1, 4):
            assert bipartition_rank(s, cut) == 1

    def test_cascade_output_has_rank_two_across_control(self):
        s = random_rank_one(4, 2, seed=9)
        out, _ = diagonal_cascade_cp(3, 2, s)
        assert bipartition_rank(out, 1) == 2

    def test_basis_state_rank_one(self):
        s = cp_basis_state([1, 0, 1], 2)
        for cut in (1, 2):
            assert bipartition_rank(s, cut) == 1

    def test_zero_state_has_rank_zero(self):
        s = CPState(2, 2, (RankOneTerm(0.0, (np.ones(2), np.ones(2))),))
        assert bipartition_rank(s, 1) == 0

    def test_cut_bounds(self):
        s = cp_basis_state([0, 0], 2)
        with pytest.raises(ValueError):
            bipartition_rank(s, 0)
        with pytest.raises(ValueError):
            bipartition_rank(s, 2)


class TestCompress:
    def test_proportional_terms_merge(self):
        rng = np.random.default_rng(10)
        vs = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3))
        phase = np.exp(0.3j)
        doubled = CPState(
            3,
            2,
            (
                RankOneTerm(1.0, vs),
                RankOneTerm(0.5, tuple(phase * v for v in vs)),
            ),
        )
        out = compress(doubled)
        assert out.term_count == 1
        assert np.max(np.abs(cp_to_dense(out) - cp_to_dense(doubled))) < 1e-12

    def test_zero_two_site_state_keeps_one_zero_term(self):
        zero = RankOneTerm(0.0, (np.ones(2), np.ones(2)))
        s = CPState(2, 2, (zero, zero))
        out = compress(s)
        assert out.term_count == 1
        assert out.weights.tolist() == [0j]
        np.testing.assert_array_equal(cp_to_dense(out), np.zeros(4))

    def test_redundant_two_site_state_compresses_via_svd(self):
        rng = np.random.default_rng(11)
        base = random_state(rng, 2, 2, 2)  # generic rank-2 two-site state
        # redundant 4-term representation of the same state
        split = []
        for t in base.terms:
            v0, v1 = t.site_vectors
            e0 = np.array([1.0, 0.0])
            e1 = np.array([0.0, 1.0])
            split.append(RankOneTerm(t.weight * v0[0], (e0, v1)))
            split.append(RankOneTerm(t.weight * v0[1], (e1, v1)))
        redundant = CPState(2, 2, tuple(split))
        assert redundant.term_count == 4
        out = compress(redundant)
        assert out.term_count == 2
        assert np.max(np.abs(cp_to_dense(out) - cp_to_dense(base))) < 1e-12

    def test_never_increases_terms_and_preserves_dense(self):
        rng = np.random.default_rng(12)
        for n, d, terms in [(2, 2, 3), (3, 2, 4), (2, 3, 2)]:
            s = random_state(rng, n, d, terms)
            out = compress(s)
            assert out.term_count <= s.term_count
            assert np.max(np.abs(cp_to_dense(out) - cp_to_dense(s))) < 1e-12

    def test_parallel_merge_without_svd(self):
        rng = np.random.default_rng(13)
        vs = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3))
        s = CPState(3, 2, (RankOneTerm(1.0, vs), RankOneTerm(-1.0, vs)))
        out = compress(s, svd=False)
        assert out.term_count == 1
        assert np.max(np.abs(cp_to_dense(out))) < 1e-12


class TestQftRankExperiment:
    def test_numpy_sizes_are_recorded_as_ints(self):
        state = random_rank_one(3, 2, seed=4)
        report = qft_rank_experiment(np.int64(3), np.int64(2), state)
        assert type(report.n) is int and type(report.d) is int
        want = qft_rank_experiment(3, 2, state)
        assert report.to_json(timing=False) == want.to_json(timing=False)

    def test_single_site_trajectory(self):
        report = qft_rank_experiment(1, 2, cp_basis_state([0], 2))
        assert [s.term_count for s in report.steps] == [1, 1]  # fourier, reversal
        assert report.residual < 1e-14

    def test_basis_state_stays_rank_one_target_first(self):
        report = qft_rank_experiment(3, 2, cp_basis_state([1, 0, 1], 2))
        assert all(s.term_count == 1 for s in report.steps)
        assert report.residual < 1e-12

    def test_basis_state_grows_per_block_control_first(self):
        report = qft_rank_experiment(
            3, 2, cp_basis_state([1, 0, 1], 2), orientation=CONTROL_FIRST
        )
        assert [s.term_count for s in report.steps] == [1, 2, 2, 2, 4, 4, 4]
        assert report.residual < 1e-12

    def test_generic_two_site_input(self):
        report = qft_rank_experiment(2, 2, random_rank_one(2, 2, seed=7))
        assert report.max_term_count <= 4
        assert report.residual < 1e-10

    def test_unpruned_counts_double_at_controlled_steps(self):
        report = qft_rank_experiment(3, 2, random_rank_one(3, 2, seed=4), prune=0.0)
        assert [s.term_count for s in report.steps] == [1, 2, 4, 4, 8, 8, 8]

    def test_csv_and_json_exports(self):
        report = qft_rank_experiment(2, 2, cp_basis_state([0, 0], 2))
        csv = report.to_csv(timing=False)
        lines = csv.splitlines()
        assert lines[0] == "step,factor_label,term_count,elapsed_ms"
        assert all(line.endswith("0.000") for line in lines[1:])
        doc = json.loads(report.to_json(timing=False))
        assert doc["n"] == 2 and doc["residual"] < 1e-12
        assert [s["term_count"] for s in doc["steps"]] == [
            s.term_count for s in report.steps
        ]

    def test_state_mismatch(self):
        with pytest.raises(ValueError):
            qft_rank_experiment(3, 2, cp_basis_state([0, 0], 2))

    def test_raised_dense_limit(self):
        # 3^8 = 6561 is past DEFAULT_DENSE_LIMIT, within the caller's limit.
        assert 3**8 > DEFAULT_DENSE_LIMIT
        report = qft_rank_experiment(8, 3, random_rank_one(8, 3, seed=2), dense_limit=3**8)
        assert report.residual < 1e-10
        with pytest.raises(DenseLimitError):
            qft_rank_experiment(8, 3, random_rank_one(8, 3, seed=2), dense_limit=3**8 - 1)

    def test_factors_build_no_dense_kernel(self, monkeypatch):
        # The CP engine reads the plan's step records: no factor operator,
        # and so no dense kernel, is built.
        plans = []

        def build(*args):
            plans.append(real(*args))
            return plans[-1]

        real = cpstate.qft_plan
        monkeypatch.setattr(cpstate, "qft_plan", build)
        qft_rank_experiment(4, 3, random_rank_one(4, 3, seed=2))
        (plan,) = plans
        assert "factors" not in plan.__dict__


class TestGenericInputs:
    def test_seeded_and_reproducible(self):
        a = random_rank_one(3, 2, seed=42)
        b = random_rank_one(3, 2, seed=42)
        np.testing.assert_array_equal(cp_to_dense(a), cp_to_dense(b))

    def test_all_components_bounded_away_from_zero(self):
        for seed in range(20):
            s = random_rank_one(2, 5, seed=seed)
            for v in s.terms[0].site_vectors:
                assert np.min(np.abs(v)) > 1e-6

    def test_unit_norm(self):
        s = random_rank_one(4, 3, seed=3)
        assert abs(np.linalg.norm(cp_to_dense(s)) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_min_component_at_or_past_the_bound_raises(self, d):
        # A vector's smallest component is at most 1/sqrt(d) of its norm, so
        # resampling could never end; the check runs before any draw.
        for bad in (d**-0.5, 0.71, 1.0, -1e-9, float("nan")):
            with pytest.raises(ValueError, match="min_component"):
                random_rank_one(2, d, min_component=bad)

    @pytest.mark.parametrize("d,bad,good", [(2, 0.7071, 0.707), (3, 0.575, 0.5), (5, 0.43, 0.4)])
    def test_min_component_with_rare_passes_raises_at_once(self, d, bad, good):
        # One draw passes with probability (1 - d m^2)^(d-1): 1.9e-5, 6.6e-5
        # and 3.2e-5 for the bad values, 3.0e-4, 0.0625 and 1.6e-3 for the good.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="min_component"):
            random_rank_one(3, d, seed=1, min_component=bad)
        assert time.perf_counter() - start < 0.1
        assert random_rank_one(1, d, seed=1, min_component=good).term_count == 1

    @pytest.mark.parametrize("n,d,seed", [(3, 2, 42), (4, 3, 3), (8, 3, 2), (12, 2, 3), (4, 3, 2)])
    def test_default_min_component_keeps_the_seeded_state(self, n, d, seed):
        # The documented resampling loop, drawn by hand, at the default 1e-6.
        rng = np.random.default_rng(seed)
        vectors = []
        for _ in range(n):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            while np.min(np.abs(v)) <= 1e-6 * np.linalg.norm(v):
                v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vectors.append(v / np.linalg.norm(v))
        want = CPState(n, d, (RankOneTerm(1.0, tuple(vectors)),))
        assert random_rank_one(n, d, seed=seed).vectors.tobytes() == want.vectors.tobytes()

    def test_valid_min_component_keeps_the_seeded_state(self):
        # The documented resampling loop, drawn by hand from the same seed.
        rng = np.random.default_rng(11)
        vectors = []
        for _ in range(3):
            while True:
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                if np.min(np.abs(v)) > 0.5 * np.linalg.norm(v):
                    break
            vectors.append(v / np.linalg.norm(v))
        want = CPState(3, 2, (RankOneTerm(1.0, tuple(vectors)),))
        got = random_rank_one(3, 2, seed=11, min_component=0.5)
        assert got.vectors.tobytes() == want.vectors.tobytes()
        assert got.weights.tobytes() == want.weights.tobytes()
        assert random_rank_one(2, 3, seed=1, min_component=0).term_count == 1


# -- array storage ---------------------------------------------------------------

#: Largest site count per local dimension for the dense comparisons below.
MAX_SITES = {2: 6, 3: 4, 5: 3}
#: Site factor kinds drawn for random operators.
FACTOR_KINDS = ("identity", "dense", "diagonal", "projector")


def _site_factor(rng, kind, d):
    if kind == "identity":
        return identity(d)
    if kind == "projector":
        return basis_projector(int(rng.integers(d)), d)
    if kind == "diagonal":
        return np.diag(np.exp(2j * np.pi * rng.random(d)))
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m / np.linalg.norm(m, 2)


def _site_vector(rng, d):
    """A random vector, or with some probability an exact basis or zero vector."""
    u = rng.random()
    if u < 0.15:
        return np.zeros(d)
    if u < 0.4:
        return np.eye(d)[int(rng.integers(d))]
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def _random_case(seed, d):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, MAX_SITES[d] + 1))
    op_terms = tuple(
        KronTerm(
            complex(rng.standard_normal(), rng.standard_normal()),
            tuple(_site_factor(rng, rng.choice(FACTOR_KINDS), d) for _ in range(n)),
        )
        for _ in range(int(rng.integers(1, 4)))
    )
    state_terms = tuple(
        RankOneTerm(
            complex(rng.standard_normal(), rng.standard_normal()),
            tuple(_site_vector(rng, d) for _ in range(n)),
        )
        for _ in range(int(rng.integers(1, 5)))
    )
    return StructuredOperator(n, d, op_terms), CPState(n, d, state_terms)


class TestArrayStorage:
    def test_arrays_are_read_only(self):
        s = apply_op_cp(diagonal_decomposition(2, 2).factors[0], random_rank_one(3, 2, seed=1))
        assert s.weights.shape == (2,) and s.vectors.shape == (2, 3, 2)
        for a in (s.weights, s.vectors, s.reverse_sites().vectors):
            assert not a.flags.writeable
        with pytest.raises(AttributeError):
            s.n = 4

    def test_terms_are_views_of_the_arrays(self):
        s = apply_op_cp(diagonal_decomposition(2, 3).factors[1], random_rank_one(3, 3, seed=2))
        for t, term in enumerate(s.terms):
            assert term.weight == s.weights[t]
            for i, v in enumerate(term.site_vectors):
                assert np.shares_memory(v, s.vectors)
                np.testing.assert_array_equal(v, s.vectors[t, i])

    def test_reverse_sites_is_a_site_slice(self):
        s = random_state(np.random.default_rng(3), 3, 3, 2)
        r = s.reverse_sites()
        np.testing.assert_array_equal(r.vectors, s.vectors[:, ::-1])
        np.testing.assert_array_equal(r.weights, s.weights)

    def test_all_candidates_pruned_keeps_the_first(self):
        # E_0 on a site holding e_1 annihilates every candidate.
        op = StructuredOperator(2, 2, (embed_term(2, 2, {0: basis_projector(0, 2)}),))
        out = apply_op_cp(op, cp_basis_state([1, 0], 2))
        assert out.term_count == 1 and out.weights[0] == 0
        np.testing.assert_array_equal(out.vectors[0, 0], [1, 0])
        assert np.max(np.abs(cp_to_dense(out))) == 0

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([2, 3, 5]),
        prune=st.sampled_from([0.0, 1e-14]),
    )
    def test_apply_matches_dense(self, seed, d, prune):
        op, s = _random_case(seed, d)
        out = apply_op_cp(op, s, prune=prune)
        want = expand(op) @ cp_to_dense(s)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(cp_to_dense(out) - want)) < 1e-12 * scale
        norms = np.linalg.norm(out.vectors, axis=-1)
        assert np.max(np.abs(norms - 1)) < 1e-14
        if prune == 0:
            # One candidate per (state term, operator term), state-term-major.
            k = len(op.terms)
            assert out.term_count == s.term_count * k
            for index, term in enumerate(out.terms):
                t, j = divmod(index, k)
                ot = op.terms[j]
                expected = s.terms[t].weight * ot.coefficient * kron_all(
                    [f @ v for f, v in zip(ot.factors, s.terms[t].site_vectors)]
                )
                got = term.weight * kron_all(term.site_vectors)
                assert np.max(np.abs(got - expected)) < 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 5]))
    def test_terms_round_trip(self, seed, d):
        op, s = _random_case(seed, d)
        out = apply_op_cp(op, s, prune=0.0)
        rebuilt = CPState(out.n, out.d, out.terms)
        np.testing.assert_array_equal(rebuilt.weights, out.weights)
        np.testing.assert_array_equal(rebuilt.vectors, out.vectors)
        np.testing.assert_array_equal(cp_to_dense(rebuilt), cp_to_dense(out))
        renormalized = CPState(
            out.n, out.d, [RankOneTerm(t.weight, t.site_vectors) for t in out.terms]
        )
        assert np.max(np.abs(cp_to_dense(renormalized) - cp_to_dense(out))) < 1e-12
        assert np.max(np.abs(cp_to_dense(out) - dense_by_digit_indexing(out))) < 1e-12


# -- bitwise reference kernel ----------------------------------------------------------


def _reference_normalize(weights, vectors, sites=True):
    """The all-sites renormalisation: every site's norm, every vector divided."""
    norms = np.where(sites, np.linalg.norm(vectors, axis=-1), 1.0)
    zero = norms == 0
    vectors = vectors / np.where(zero, 1.0, norms)[..., None]
    vectors[zero] = np.eye(1, vectors.shape[-1])
    return weights * np.prod(norms, axis=-1), vectors


def reference_apply_op_cp(op, s, prune=1e-14):
    """The loop version of ``apply_op_cp``: one product per (operator term, site)."""
    k = len(op.terms)
    vectors = np.repeat(s.vectors[:, None], k, axis=1)
    touched = np.zeros((k, s.n), dtype=bool)
    for j, term in enumerate(op.terms):
        for i, f in term.site_matrices:
            touched[j, i] = True
            vectors[:, j, i] = s.vectors[:, i] @ f.T
    coefficients = np.array([t.coefficient for t in op.terms])
    weights, vectors = _reference_normalize(s.weights[:, None] * coefficients, vectors, touched)
    weights = weights.reshape(-1)
    vectors = vectors.reshape(-1, s.n, s.d)
    if prune > 0:
        magnitudes = np.abs(weights)
        wmax = magnitudes.max()
        keep = magnitudes >= prune * wmax if wmax > 0 else np.zeros(weights.shape, dtype=bool)
        if not keep.any():
            keep[0] = True
        if not keep.all():
            weights, vectors = weights[keep], vectors[keep]
    return CPState._from_arrays(s.n, s.d, weights, vectors)


class TestReferenceKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([2, 3, 5]),
        prune=st.sampled_from([0.0, 1e-14]),
    )
    def test_same_bits_as_the_loop_version(self, seed, d, prune):
        op, s = _random_case(seed, d)
        got, want = apply_op_cp(op, s, prune), reference_apply_op_cp(op, s, prune)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.vectors.tobytes() == want.vectors.tobytes()

    def test_qft_chain_same_bits(self):
        got = want = random_rank_one(8, 2, seed=3)
        for f in qft_plan(8, 2).factors:
            got, want = apply_op_cp(f, got), reference_apply_op_cp(f, want)
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.vectors.tobytes() == want.vectors.tobytes()

    def test_operator_with_no_stored_site(self):
        op = StructuredOperator(2, 2, (KronTerm(0.5j, (identity(2), identity(2))),))
        s = random_state(np.random.default_rng(5), 2, 2, 3)
        got, want = apply_op_cp(op, s, 0.0), reference_apply_op_cp(op, s, 0.0)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.vectors.tobytes() == want.vectors.tobytes()

    def test_untouched_site_keeps_a_negative_zero(self):
        # Negating a basis vector stores -0.0+0.0j.  The all-sites division by
        # 1 turned that into +0.0 on a site the operator leaves out; the copy
        # keeps it.  The values are equal.
        s = CPState(2, 2, [RankOneTerm(1.0, (-np.eye(2, dtype=complex)[1], np.eye(2)[0]))])
        op = StructuredOperator(2, 2, (KronTerm(1.0, (identity(2), basis_projector(0, 2))),))
        got, want = apply_op_cp(op, s, 0.0), reference_apply_op_cp(op, s, 0.0)
        np.testing.assert_array_equal(got.vectors, want.vectors)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.vectors[:, 0].tobytes() == s.vectors[:, 0].tobytes()
        assert np.signbit(got.vectors[0, 0, 0].real) and not np.signbit(want.vectors[0, 0, 0].real)

    @pytest.mark.parametrize("orientation", [CONTROL_FIRST, TARGET_FIRST])
    @pytest.mark.parametrize("n,d", [(8, 2), (6, 3), (4, 5)])
    def test_experiment_equals_public_calls(self, n, d, orientation):
        # The public calls are apply_op_cp over plan.factors, the digit
        # reversal and the dense check against the DFT matrix.
        state = random_rank_one(n, d, seed=n + d)
        report = qft_rank_experiment(n, d, state, orientation=orientation)
        plan = qft_plan(n, d, orientation)
        expected = dft_matrix(state.dim) @ cp_to_dense(state)
        steps = []
        for f in plan.factors:
            state = apply_op_cp(f, state)
            steps.append((f.label, state.term_count))
        state = state.reverse_sites()
        steps.append(("digit-reversal", state.term_count))
        assert [(s.factor_label, s.term_count) for s in report.steps] == steps
        assert report.residual == float(np.max(np.abs(cp_to_dense(state) - expected)))

    def test_experiment_builds_no_operator(self, monkeypatch):
        plans = []

        def build(*args):
            plans.append(real(*args))
            return plans[-1]

        real = cpstate.qft_plan
        monkeypatch.setattr(cpstate, "qft_plan", build)
        qft_rank_experiment(4, 2, random_rank_one(4, 2, seed=2))
        (plan,) = plans
        assert "factors" not in plan.__dict__


# -- term-count trajectories ---------------------------------------------------------


def trajectory_state(kind, n, d, seed):
    """Random product state, basis state, or a random state with some sites on basis vectors."""
    if kind == "random":
        return random_rank_one(n, d, seed=seed)
    rng = np.random.default_rng(seed)
    digits = [int(x) for x in rng.integers(0, d, n)]
    if kind == "basis":
        return cp_basis_state(digits, d)
    vectors = list(random_rank_one(n, d, seed=seed).terms[0].site_vectors)
    for i, digit in enumerate(digits):
        if rng.random() < 0.4:
            vectors[i] = np.eye(d)[digit]
    return CPState(n, d, (RankOneTerm(1.0, tuple(vectors)),))


def _counts(text):
    """``"1 2*3"`` -> ``[1, 2, 2, 2]``."""
    out = []
    for part in text.split():
        value, _, repeat = part.partition("*")
        out += [int(value)] * int(repeat or 1)
    return out


#: (state kind, n, d, seed, orientation, prune, term count after every step),
#: recorded with the object-per-term engine this array engine replaced.
TRAJECTORIES = [
    ("random", 8, 2, 0, TARGET_FIRST, 1e-14, "1 2 4 8 16 32 64 128*30"),
    ("random", 6, 3, 1, TARGET_FIRST, 1e-14, "1 3 9 27 81 243*17"),
    ("random", 5, 2, 2, TARGET_FIRST, 0.0, "1 2 4 8 16*2 32 64 128*2 256 512*2 1024*3"),
    ("random", 4, 3, 0, TARGET_FIRST, 0.0, "1 3 9 27*2 81 243*2 729*3"),
    ("random", 5, 2, 0, CONTROL_FIRST, 1e-14, "1 2*5 4*4 8*3 16*3"),
    ("random", 3, 3, 2, CONTROL_FIRST, 0.0, "1 3 9*2 27*3"),
    ("basis", 8, 2, 0, TARGET_FIRST, 1e-14, "1*37"),
    ("basis", 6, 2, 1, CONTROL_FIRST, 1e-14, "1 2*6 4*5 8*4 16*3 32*3"),
    ("basis", 5, 3, 0, TARGET_FIRST, 1e-14, "1*16"),
    ("basis", 3, 3, 1, CONTROL_FIRST, 1e-14, "1 3*3 9*3"),
    ("mixed", 8, 2, 3, TARGET_FIRST, 1e-14, "1 2*3 4*2 8 16*30"),
    ("mixed", 7, 2, 7, TARGET_FIRST, 1e-14, "1*2 2 4 8*2 16*23"),
    ("mixed", 6, 3, 4, TARGET_FIRST, 1e-14, "1 3*2 9*2 27*17"),
    ("mixed", 5, 2, 5, CONTROL_FIRST, 1e-14, "1 2*5 4*4 8*3 16*3"),
    ("mixed", 4, 3, 6, TARGET_FIRST, 0.0, "1 3 9 27*2 81 243*2 729*3"),
]


@pytest.mark.parametrize("kind,n,d,seed,orientation,prune,counts", TRAJECTORIES)
def test_recorded_trajectories(kind, n, d, seed, orientation, prune, counts):
    report = qft_rank_experiment(
        n, d, trajectory_state(kind, n, d, seed), prune=prune, orientation=orientation
    )
    assert [s.term_count for s in report.steps] == _counts(counts)
    assert report.residual < 1e-12
