import json

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
    diagonal_cascade_cp,
    diagonal_decomposition,
    embed_term,
    expand,
    identity,
    kron_all,
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
        # The CP engine applies each factor's terms; no dense kernel is built.
        plans = []

        def build(*args):
            plans.append(real(*args))
            return plans[-1]

        real = cpstate.qft_plan
        monkeypatch.setattr(cpstate, "qft_plan", build)
        qft_rank_experiment(4, 3, random_rank_one(4, 3, seed=2))
        (plan,) = plans
        assert plan.factors and all("_kernel" not in f.__dict__ for f in plan.factors)


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
