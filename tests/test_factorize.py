import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from kronfft import (
    CONTROL_FIRST,
    TARGET_FIRST,
    ButterflyStep,
    CPhaseStep,
    DenseLimitError,
    FourierStep,
    Gate,
    GateCounts,
    KronTerm,
    Permutation,
    PlanFormatError,
    apply_structured,
    basis_projector,
    circuit_unitary,
    count_gates,
    decomposition_product,
    dft_matrix,
    diagonal_decomposition,
    diagonal_target,
    digit_reversal,
    direct_sum,
    expand,
    fft_apply,
    fft_plan,
    identity,
    kron,
    lower_to_circuit,
    omega_diag,
    plan_from_json,
    plan_product,
    plan_to_json,
    qft_count_formulas,
    qft_plan,
    r_gate_power,
    unitarity_residual,
    verify_plan,
)
from kronfft.factorize import _LocalStep, plan_from_dict


def plan_residual(plan):
    return float(np.max(np.abs(plan_product(plan) - dft_matrix(plan.dim))))


def assert_identity_off_sites(step, op, n, d):
    sites = set(step.sites(n))
    for term in op.terms:
        for site, f in enumerate(term.factors):
            if site not in sites:
                np.testing.assert_array_equal(f, identity(d))


class TestFftPlan:
    def test_single_site_plan_is_hadamard(self):
        plan = fft_plan(1, 2)
        assert len(plan.factors) == 1
        np.testing.assert_allclose(expand(plan.factors[0]), dft_matrix(2), atol=1e-15)
        assert plan.reversal.image == (0, 1)

    @pytest.mark.parametrize("n,d", [(3, 2), (5, 2), (2, 3), (3, 3), (2, 5)])
    def test_plan_reproduces_dft(self, n, d):
        assert plan_residual(fft_plan(n, d)) < 1e-12

    def test_factor_count_and_leading_identities(self):
        n, d = 4, 2
        plan = fft_plan(n, d)
        assert len(plan.factors) == n
        for idx, op in enumerate(plan.factors):
            stage = n - 1 - idx  # application order runs from the largest stage down
            lead = n - stage - 1
            for term in op.terms:
                for site in range(lead):
                    assert term.factors[site] is identity(d)

    @pytest.mark.parametrize("n,d", [(1, 2), (4, 2), (3, 3)])
    def test_steps_are_butterfly_stages(self, n, d):
        plan = fft_plan(n, d)
        assert plan.steps == tuple(ButterflyStep(k) for k in range(n - 1, -1, -1))
        for step, op in zip(plan.steps, plan.factors):
            assert step.sites(n) == tuple(range(n - 1 - step.stage, n))
            assert op.label == f"butterfly@{n - step.stage}"
            assert_identity_off_sites(step, op, n, d)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_radix_two_stages_have_two_nonzeros_per_row(self, n):
        plan = fft_plan(n, 2)
        for op in plan.factors:
            dense = expand(op)
            per_row = np.count_nonzero(dense, axis=1)
            assert np.all(per_row == 2)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fft_plan(0, 2)
        with pytest.raises(ValueError):
            fft_plan(2, 1)


class TestRecursiveSplit:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)])
    def test_one_split_level(self, n, d):
        # (I_d (x) P' F_{n-1}) (I (+) Omega (+) ...) (F_d (x) I) == P_n F_n
        sub = digit_reversal(n - 1, d).to_matrix() @ dft_matrix(d ** (n - 1))
        lhs = (
            kron(np.eye(d), sub)
            @ diagonal_target(n - 1, d)
            @ kron(dft_matrix(d), np.eye(d ** (n - 1)))
        )
        rhs = digit_reversal(n, d).to_matrix() @ dft_matrix(d**n)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestDiagonalDecomposition:
    def test_single_factor_qubit(self):
        dd = diagonal_decomposition(1, 2)
        np.testing.assert_allclose(
            expand(dd.factors[0]), np.diag([1, 1, 1, -1j]), atol=1e-15
        )

    @pytest.mark.parametrize("k", range(1, 9))
    def test_product_matches_direct_sum_qubits(self, k):
        dd = diagonal_decomposition(k, 2)
        residual = np.max(np.abs(decomposition_product(dd) - diagonal_target(k, 2)))
        assert residual < 1e-12

    @pytest.mark.parametrize("d,k", [(3, 1), (3, 3), (5, 2)])
    def test_product_matches_direct_sum_qudits(self, d, k):
        for orientation in (CONTROL_FIRST, TARGET_FIRST):
            dd = diagonal_decomposition(k, d, orientation)
            residual = np.max(np.abs(decomposition_product(dd) - diagonal_target(k, d)))
            assert residual < 1e-12

    @pytest.mark.parametrize("d,k", [(2, 4), (3, 3), (5, 2)])
    def test_orientations_are_matrix_equal(self, d, k):
        a = diagonal_decomposition(k, d, CONTROL_FIRST)
        b = diagonal_decomposition(k, d, TARGET_FIRST)
        for fa, fb in zip(a.factors, b.factors):
            assert np.max(np.abs(expand(fa) - expand(fb))) < 1e-13

    def test_factors_commute_in_any_order(self):
        rng = np.random.default_rng(0)
        dd = diagonal_decomposition(4, 2)
        dense = [expand(f) for f in dd.factors]
        for a in dense:
            for b in dense:
                assert np.max(np.abs(a @ b - b @ a)) < 1e-13
        reference = np.linalg.multi_dot(dense)
        for _ in range(5):
            order = rng.permutation(4)
            shuffled = np.linalg.multi_dot([dense[i] for i in order])
            assert np.max(np.abs(shuffled - reference)) < 1e-12

    def test_target_is_direct_sum_of_omega_powers(self):
        d, k = 3, 2
        want = omega_diag(k, d, 0)
        for level in range(1, d):
            want = direct_sum(want, omega_diag(k, d, level))
        np.testing.assert_allclose(diagonal_target(k, d), want, atol=1e-15)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            diagonal_decomposition(0, 2)
        with pytest.raises(ValueError):
            diagonal_decomposition(1, 2, "sideways")

    def test_needs_two_levels(self):
        with pytest.raises(ValueError, match="local dimension must be at least 2"):
            diagonal_decomposition(2, d=1)


class TestQftPlan:
    @pytest.mark.parametrize("n,d", [(1, 2), (3, 2), (5, 2), (2, 3), (4, 3), (2, 5)])
    def test_plan_reproduces_dft(self, n, d):
        for orientation in (CONTROL_FIRST, TARGET_FIRST):
            assert plan_residual(qft_plan(n, d, orientation)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_factor_count(self, n):
        plan = qft_plan(n, 2)
        assert len(plan.factors) == n + n * (n - 1) // 2

    def test_every_factor_touches_at_most_two_sites(self):
        plan = qft_plan(5, 3)
        for step, op in zip(plan.steps, plan.factors):
            assert len(step.sites(plan.n)) <= 2
            assert_identity_off_sites(step, op, plan.n, plan.d)

    @pytest.mark.parametrize("orientation", [CONTROL_FIRST, TARGET_FIRST])
    def test_two_site_factors_pair_projectors_with_phases(self, orientation):
        # every two-site factor is a projector family on the step's control
        # and the matching R powers on its target, exactly
        plan = qft_plan(4, 3, orientation)
        cphases = 0
        for step, op in zip(plan.steps, plan.factors):
            assert_identity_off_sites(step, op, plan.n, plan.d)
            if isinstance(step, FourierStep):
                assert len(op.terms) == 1
                continue
            cphases += 1
            assert step.control != step.target
            assert step.level >= 2
            assert len(op.terms) == plan.d
            for ell, term in enumerate(op.terms):
                assert term.coefficient == 1
                np.testing.assert_array_equal(
                    term.factors[step.control], basis_projector(ell, plan.d)
                )
                np.testing.assert_array_equal(
                    term.factors[step.target], r_gate_power(step.level, plan.d, ell)
                )
        assert cphases == 6

    @pytest.mark.parametrize("orientation", [CONTROL_FIRST, TARGET_FIRST])
    def test_steps_in_application_order(self, orientation):
        def cphase(b, i):
            if orientation == CONTROL_FIRST:
                return CPhaseStep(b, b + i, i + 1)
            return CPhaseStep(b + i, b, i + 1)

        plan = qft_plan(3, 2, orientation)
        assert plan.steps == (
            FourierStep(0), cphase(0, 2), cphase(0, 1),
            FourierStep(1), cphase(1, 1),
            FourierStep(2),
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orientations_expand_identically(self, n):
        a = plan_product(qft_plan(n, 2, CONTROL_FIRST))
        b = plan_product(qft_plan(n, 2, TARGET_FIRST))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_degenerate_plan_matches_fft(self):
        qf = qft_plan(1, 3)
        ff = fft_plan(1, 3)
        np.testing.assert_allclose(
            expand(qf.factors[0]), expand(ff.factors[0]), atol=1e-15
        )


class TestVerifyPlan:
    def test_trivial_plan_is_exact(self):
        report = verify_plan(fft_plan(1, 2))
        assert report.residual < 1e-15
        assert report.dim == 2

    def test_deep_qubit_plan(self):
        report = verify_plan(fft_plan(8, 2))
        assert report.residual < 1e-11
        assert report.max_factor_unitarity < 1e-13

    def test_qudit_qft_plan(self):
        report = verify_plan(qft_plan(4, 3))
        assert report.residual < 1e-11
        assert len(report.factor_unitarity) == 4 + 6

    def test_respects_dense_limit(self):
        with pytest.raises(DenseLimitError):
            verify_plan(fft_plan(5, 2), dense_limit=16)

    @pytest.mark.parametrize("n", [10**6, 10**8])
    def test_huge_loaded_plan_hits_the_dense_limit(self, n):
        # The plan loads at any size; the check never forms 3**n.
        doc = {"version": 1, "kind": "qft", "n": n, "d": 3, "orientation": "target-first", "factors": []}
        plan = plan_from_json(json.dumps(doc))
        with pytest.raises(DenseLimitError, match=rf"dimension 3\*\*{n} exceeds"):
            verify_plan(plan)
        with pytest.raises(DenseLimitError):
            plan_product(plan)

    def test_unitarity_can_be_skipped(self):
        report = verify_plan(fft_plan(3, 2), unitarity=False)
        assert report.factor_unitarity == ()


def _oracle_residual(plan):
    """The residual as one subtraction against the whole DFT matrix."""
    return float(np.max(np.abs(plan_product(plan) - dft_matrix(plan.dim))))


class TestStreamedOracle:
    """``verify_plan`` gathers the DFT rows in blocks; the residual must be
    the one the whole matrix gives, bit for bit."""

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 5), (3, 1), (3, 4), (5, 1), (5, 3)])
    @pytest.mark.parametrize("kind", ["fft", "qft"])
    def test_residual_equals_whole_matrix(self, kind, d, n):
        plan = (fft_plan if kind == "fft" else qft_plan)(n, d)
        assert verify_plan(plan).residual == _oracle_residual(plan)

    # 3**7 and 5**5 are not multiples of the row block.
    @pytest.mark.parametrize("n,d", [(7, 3), (5, 5)])
    def test_residual_equals_whole_matrix_at_ragged_size(self, n, d):
        plan = fft_plan(n, d)
        assert verify_plan(plan, unitarity=False).residual == _oracle_residual(plan)

    def test_tampered_plan_residual_equals_whole_matrix(self):
        doc = json.loads(plan_to_json(qft_plan(6, 2)))
        doc["factors"][-2]["level"] += 1  # the last controlled phase
        plan = plan_from_json(json.dumps(doc))
        report = verify_plan(plan)
        assert report.residual > 1e-3
        assert report.residual == _oracle_residual(plan)

    def test_dense_limit_raised_before_allocating(self):
        plan = fft_plan(13, 2)  # one 2**13 x 2**13 array would be 1 GiB
        tracemalloc.start()
        try:
            with pytest.raises(DenseLimitError):
                verify_plan(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("make", [lambda: fft_plan(10, 2), lambda: qft_plan(10, 2), lambda: fft_plan(7, 3)])
    def test_peak_is_two_dense_arrays(self, make):
        plan = make()
        tracemalloc.start()
        try:
            verify_plan(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * plan.dim**2 * 16


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedMemory:
    """The plan product and a circuit's unitary are formed on blocks of identity
    columns, so at the dense limit (N = 4096, 256 MiB per N x N array)
    ``verify_plan`` holds no N x N array and ``plan_product`` and
    ``circuit_unitary`` hold only their output."""

    def test_verify_plan_peak(self):
        assert _traced_peak(verify_plan, fft_plan(12, 2)) <= 32 * 2**20

    def test_plan_product_peak(self):
        assert _traced_peak(plan_product, fft_plan(12, 2)) <= 300 * 2**20

    def test_circuit_unitary_peak(self):
        circuit = lower_to_circuit(qft_plan(12, 2))
        assert _traced_peak(circuit_unitary, circuit) <= 300 * 2**20


class TestFftApply:
    def test_basis_state_gives_uniform_column(self):
        plan = fft_plan(3, 2)
        e0 = np.zeros(8, dtype=complex)
        e0[0] = 1.0
        np.testing.assert_allclose(
            fft_apply(plan, e0), np.full(8, 1 / np.sqrt(8)), atol=1e-14
        )

    def test_linearity(self):
        rng = np.random.default_rng(1)
        plan = fft_plan(4, 2)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        lhs = fft_apply(plan, a * x + b * y)
        rhs = a * fft_apply(plan, x) + b * fft_apply(plan, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_large_transform_matches_dense(self):
        rng = np.random.default_rng(2)
        plan = fft_plan(10, 2)
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        got = fft_apply(plan, x)
        want = dft_matrix(1024) @ x
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("kind", ["fft", "qft"])
    def test_inverse_round_trip(self, kind):
        rng = np.random.default_rng(3)
        plan = fft_plan(3, 3) if kind == "fft" else qft_plan(3, 3)
        x = rng.standard_normal(27) + 1j * rng.standard_normal(27)
        assert np.max(np.abs(fft_apply(plan, fft_apply(plan, x), inverse=True) - x)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fft_apply(fft_plan(3, 2), np.zeros(7))


class TestPlanSerialization:
    @pytest.mark.parametrize("make", [lambda: fft_plan(3, 2), lambda: qft_plan(3, 2), lambda: qft_plan(2, 3, CONTROL_FIRST)])
    def test_round_trip(self, make):
        plan = make()
        text = plan_to_json(plan)
        again = plan_from_json(text)
        assert plan_to_json(again) == text
        assert plan_residual(again) < 1e-12

    def test_rebuilt_factors_match_original(self):
        plan = qft_plan(3, 2)
        again = plan_from_json(plan_to_json(plan))
        for a, b in zip(plan.factors, again.factors):
            np.testing.assert_allclose(expand(a), expand(b), atol=1e-15)

    def test_tampered_level_breaks_verification(self):
        doc = json.loads(plan_to_json(qft_plan(3, 2)))
        for desc in doc["factors"]:
            if desc["op"] == "cphase":
                desc["level"] += 1
                break
        tampered = plan_from_json(json.dumps(doc))
        assert plan_residual(tampered) > 1e-3

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.update(version=9),
            lambda doc: doc.update(kind="dct"),
            lambda doc: doc.update(orientation="sideways"),
            lambda doc: doc.update(n=0),
            lambda doc: doc["factors"].append({"op": "mystery"}),
            lambda doc: doc["factors"].append({"op": "fourier", "site": 99}),
            lambda doc: doc["factors"].append(
                {"op": "cphase", "level": 2, "control": 1, "target": 1}
            ),
            lambda doc: doc["factors"].append(
                {"op": "cphase", "level": 0, "control": 0, "target": 1}
            ),
            lambda doc: doc["factors"].append({"op": "butterfly", "stage": 5}),
            # Steps that do not belong to the document's plan kind.
            lambda doc: doc["factors"].append({"op": "butterfly", "stage": 1}),
            lambda doc: doc.update(kind="fft"),
            lambda doc: doc.update(
                kind="fft", factors=[{"op": "butterfly", "stage": 0}, {"op": "fourier", "site": 0}]
            ),
            lambda doc: doc.update(
                kind="fft",
                factors=[
                    {"op": "butterfly", "stage": 0},
                    {"op": "cphase", "level": 2, "control": 0, "target": 1},
                ],
            ),
            lambda doc: doc.update(factors="not a list"),
        ],
    )
    def test_malformed_documents_rejected(self, mutate):
        doc = json.loads(plan_to_json(qft_plan(3, 2)))
        mutate(doc)
        with pytest.raises(PlanFormatError):
            plan_from_json(json.dumps(doc))

    def test_document_must_be_an_object(self):
        with pytest.raises(PlanFormatError, match="must be a JSON object"):
            plan_from_json("[1, 2]")
        with pytest.raises(PlanFormatError, match="must be a JSON object"):
            plan_from_dict(["qft", 2, 2])

    def test_non_object_factor_rejected(self):
        doc = json.loads(plan_to_json(qft_plan(2, 2)))
        doc["factors"].append(["cphase", 2, 0, 1])
        with pytest.raises(PlanFormatError):
            plan_from_json(json.dumps(doc))

    def test_high_level_cphase_round_trips_and_lowers(self):
        # For d = 2, R_1100 rounds to exactly the identity matrix, so the
        # factor's matrices no longer show its level; the step record does.
        doc = json.loads(plan_to_json(qft_plan(3, 2)))
        desc = next(f for f in doc["factors"] if f["op"] == "cphase")
        desc["level"] = 1100
        text = json.dumps(doc)
        plan = plan_from_json(text)
        assert plan_to_json(plan) == text
        gate = Gate("cphase", target=desc["target"], control=desc["control"], level=1100)
        circuit = lower_to_circuit(plan)
        assert gate in circuit.gates
        formulas = qft_count_formulas(3)
        assert count_gates(circuit) == GateCounts(
            hadamard_or_fourier=formulas["hadamard_or_fourier"],
            controlled_r=formulas["controlled_r"],
            swap=formulas["swap"],
        )
        factor = plan.factors[plan.steps.index(CPhaseStep(desc["control"], desc["target"], 1100))]
        np.testing.assert_array_equal(expand(factor), np.eye(8))

    @pytest.mark.parametrize("make", [lambda: qft_plan(64, 2), lambda: fft_plan(64, 2)])
    def test_symbolic_work_builds_no_operator(self, make):
        plan = make()
        loaded = plan_from_json(plan_to_json(plan))
        plan_to_json(loaded)
        if plan.kind == "qft":
            lower_to_circuit(plan)
            lower_to_circuit(loaded)
        assert "factors" not in plan.__dict__
        assert "factors" not in loaded.__dict__

    @pytest.mark.parametrize(
        "make", [lambda: fft_plan(4, 3), lambda: qft_plan(4, 2), lambda: qft_plan(3, 5, CONTROL_FIRST)]
    )
    def test_step_label_and_term_count_match_operator(self, make):
        plan = make()
        for step, op in zip(plan.steps, plan.factors):
            assert step.label(plan.n) == op.label
            assert step.term_count(plan.d) == len(op.terms)

    def test_factors_built_once_from_steps(self):
        plan = plan_from_json(plan_to_json(qft_plan(3, 3)))
        factors = plan.factors
        assert plan.factors is factors
        assert len(factors) == len(plan.steps)

    @pytest.mark.parametrize(
        "op,field,value",
        [
            (None, "n", True),
            (None, "d", True),
            ("butterfly", "stage", True),
            ("fourier", "site", False),
            ("cphase", "control", True),
            ("cphase", "target", False),
            ("cphase", "level", True),
        ],
    )
    def test_json_booleans_are_not_integers(self, op, field, value):
        # Each boolean stands for an in-range integer, so only its type is wrong.
        plan = fft_plan(2, 2) if op == "butterfly" else qft_plan(1 if op is None else 2, 2)
        doc = json.loads(plan_to_json(plan))
        entry = doc if op is None else next(f for f in doc["factors"] if f["op"] == op)
        entry[field] = value
        with pytest.raises(PlanFormatError):
            plan_from_json(json.dumps(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(PlanFormatError):
            plan_from_json("{not json")

    @pytest.mark.parametrize(
        "entry,message",
        [
            ({"op": "fourier", "site": True}, "fourier site must be an integer, got True"),
            ({"op": "fourier"}, "fourier site must be an integer, got None"),
            ({"op": "fourier", "site": 3}, "FourierStep(site=3) does not fit on 3 sites"),
            ({"op": "cphase", "control": 1.0, "target": 0, "level": 2},
             "cphase control must be an integer, got 1.0"),
            ({"op": "cphase", "control": 1, "target": 0, "level": "2"},
             "cphase level must be an integer, got '2'"),
            ({"op": "cphase", "control": 1, "target": 1, "level": 2},
             "control and target wires must differ"),
            ({"op": "cphase", "control": 1, "target": 0, "level": 0},
             "cphase gate needs a positive R level"),
            ({"op": "cphase", "control": 5, "target": 0, "level": 3},
             "CPhaseStep(control=5, target=0, level=3) does not fit on 3 sites"),
        ],
    )
    def test_loaded_steps_obey_the_gate_rules(self, entry, message):
        # A loaded step is checked by the same rules as a gate, under its own field names.
        doc = json.loads(plan_to_json(qft_plan(3, 2)))
        doc["factors"].append(entry)
        with pytest.raises(PlanFormatError) as raised:
            plan_from_json(json.dumps(doc))
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "n,d,message",
        [
            (0, 2, "plans need at least one site"),
            (2, 1, "local dimension must be at least 2"),
            (True, 2, "plan n must be an integer, got True"),
            (2, 2.0, "plan d must be an integer, got 2.0"),
        ],
    )
    def test_dimensions_are_checked_as_plan_arguments(self, n, d, message):
        doc = {"version": 1, "kind": "qft", "n": n, "d": d, "factors": []}
        with pytest.raises(PlanFormatError) as raised:
            plan_from_dict(doc)
        assert str(raised.value) == message


class TestPlanSizes:
    """A plan's n and d are ints: numpy integers convert, and any other type raises."""

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: qft_plan(True, 2), "plan n must be an integer, got True"),
            (lambda: fft_plan(3, 2.0), "plan d must be an integer, got 2.0"),
            (lambda: qft_plan(3, "2"), "plan d must be an integer, got '2'"),
            (lambda: fft_plan(None), "plan n must be an integer, got None"),
        ],
        ids=["bool-n", "float-d", "str-d", "none-n"],
    )
    def test_non_integer_sizes_raise(self, call, message):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message

    @pytest.mark.parametrize("build", [fft_plan, qft_plan])
    def test_numpy_sizes_round_trip(self, build):
        plan = build(np.int64(3), np.int64(3))
        assert type(plan.n) is int and type(plan.d) is int
        text = plan_to_json(plan)
        assert text == plan_to_json(build(3, 3))
        assert plan_to_json(plan_from_json(text)) == text

    @pytest.mark.parametrize(
        "step,message",
        [
            (FourierStep(True), "fourier site must be an integer, got True"),
            (CPhaseStep(0, 1, 2.5), "cphase level must be an integer, got 2.5"),
            (CPhaseStep(0, 1.0, 2), "cphase target must be an integer, got 1.0"),
            (ButterflyStep(True), "butterfly stage must be an integer, got True"),
            (ButterflyStep(0.0), "butterfly stage must be an integer, got 0.0"),
            (CPhaseStep(1, 1, 2), "control and target wires must differ"),
        ],
    )
    def test_hand_built_steps_are_checked_before_their_operator(self, step, message):
        with pytest.raises(ValueError) as raised:
            step.operator(2, 2)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "step,label",
        [
            (FourierStep(np.int64(1)), "fourier@2"),
            (CPhaseStep(np.int32(0), 1, np.int64(2)), "cr2@1>2"),
            (ButterflyStep(np.int64(1)), "butterfly@1"),
        ],
    )
    def test_numpy_integer_step_fields_convert(self, step, label):
        op = step.operator(2, 2)
        assert op.label == label
        assert all(type(getattr(step, f.name)) is int for f in dataclasses.fields(step))

    def test_built_steps_are_not_checked(self, monkeypatch):
        # Building stays cheap: loaded steps and gates run the step rules, and
        # a step runs them again only when its operator is built.
        def refuse(step, noun="gate"):
            raise AssertionError(f"checked {step!r}")

        monkeypatch.setattr(_LocalStep, "_check", refuse)
        plan = qft_plan(6, 3)
        plan_to_json(plan)
        with pytest.raises(AssertionError, match=r"^checked FourierStep\(site=0\)$"):
            plan.factors


def stored_site_matrices(plan):
    return sum(len(t.site_matrices) for f in plan.factors for t in f.terms)


class TestStoredSites:
    @pytest.mark.parametrize("n,d", [(1, 2), (5, 2), (4, 3), (3, 5), (150, 2)])
    def test_qft_plan_stores_one_or_two_sites_per_term(self, n, d):
        # Fourier: one matrix.  Controlled phase: d projectors and the d - 1
        # non-identity R powers.
        assert stored_site_matrices(qft_plan(n, d)) == n + (2 * d - 1) * n * (n - 1) // 2

    @pytest.mark.parametrize("n,d", [(1, 2), (6, 2), (4, 3), (3, 5)])
    def test_fft_plan_stores_no_leading_identities(self, n, d):
        assert stored_site_matrices(fft_plan(n, d)) == n + (d - 1) * n * (n + 1) // 2

    @pytest.mark.parametrize("n", [16, 18])
    def test_butterfly_unitarity_above_dense_limit(self, n):
        # Each stage's Gram operator is diagonal off its Fourier site, so the
        # residual is taken without expanding the factor.
        for f in fft_plan(n, 2).factors:
            assert unitarity_residual(f) <= 1e-12, f.label

    @pytest.mark.parametrize(
        "make",
        [lambda: fft_plan(5, 2), lambda: fft_plan(3, 5), lambda: qft_plan(4, 3, CONTROL_FIRST),
         lambda: qft_plan(5, 2)],
    )
    def test_step_terms_pass_the_exact_identity_test(self, make):
        # Step operators skip the per-term identity test; rebuilding each term
        # from all its factors with that test keeps the same stored matrices.
        plan = make()
        for op in plan.factors:
            for t in op.terms:
                again = KronTerm(t.coefficient, t.factors)
                assert [i for i, _ in again.site_matrices] == [i for i, _ in t.site_matrices]
                assert all(
                    a.tobytes() == b.tobytes()
                    for (_, a), (_, b) in zip(again.site_matrices, t.site_matrices)
                )

    def test_high_level_cphase_stores_only_control_projectors(self):
        # R_1100 and all its powers equal the identity at d = 2.
        op = CPhaseStep(0, 2, 1100).operator(3, 2)
        assert [[site for site, _ in t.site_matrices] for t in op.terms] == [[0], [0]]
        for ell, t in enumerate(op.terms):
            assert t.site_matrices[0][1] is basis_projector(ell, 2)

    @pytest.mark.parametrize("make", [lambda: qft_plan(20, 2), lambda: qft_plan(8, 3)])
    def test_factor_unitarity_above_dense_limit(self, make):
        plan = make()
        assert plan.dim > 4096
        for f in plan.factors:
            assert unitarity_residual(f) <= 1e-12, f.label


class TestPlanApplicationOrder:
    def test_factors_apply_right_to_left(self):
        # The stored order must reproduce the DFT when applied first-to-last;
        # reversing it must not (for n >= 2 the stages do not commute).
        plan = fft_plan(3, 2)
        x = np.zeros(8, dtype=complex)
        x[1] = 1.0
        forward = x
        for f in plan.factors:
            forward = apply_structured(f, forward)
        forward = Permutation(plan.reversal.image).apply(forward)
        assert np.max(np.abs(forward - dft_matrix(8)[:, 1])) < 1e-13
        backward = x
        for f in reversed(plan.factors):
            backward = apply_structured(f, backward)
        backward = Permutation(plan.reversal.image).apply(backward)
        assert np.max(np.abs(backward - dft_matrix(8)[:, 1])) > 1e-2
