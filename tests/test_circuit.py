import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronfft import (
    CONTROL_FIRST,
    KEEP_SWAP,
    ORIENTATIONS,
    TARGET_FIRST,
    THREE_CNOT,
    ButterflyStep,
    CPhaseStep,
    Circuit,
    CircuitFormatError,
    DenseLimitError,
    FactorizationPlan,
    FourierStep,
    Gate,
    StructuredOperator,
    adjoint,
    apply_structured,
    basis_projector,
    circuit_unitary,
    count_gates,
    deserialize,
    dft_matrix,
    embed_term,
    equivalent_variants,
    expand,
    fft_apply,
    fft_plan,
    gate_unitary,
    lower_to_circuit,
    plan_from_json,
    plan_to_json,
    qft_count_formulas,
    qft_plan,
    r_gate_power,
    render_text,
    serialize,
    shift_matrix,
    simulate_dense,
    single_site_operator,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def _every_gate(n: int, d: int) -> list:
    """Every gate kind on ``n >= 3`` wires, two-wire kinds both ways round, and
    the R levels 1, 3 and 1100 (R_1100 and its powers are the identity at d = 2)."""
    gates = [Gate("fourier", 0), Gate("not", n - 1)]
    gates += [Gate("phase", 1, level=level) for level in (1, 3, 1100)]
    for control, target in ((0, 2), (2, 1)):
        gates += [Gate("cphase", target, control, level) for level in (1, 3, 1100)]
        gates += [Gate("cnot", target, control), Gate("swap", target, control)]
    return gates + ([Gate("hadamard", 1)] if d == 2 else [])


def _embedded_gate(g: Gate, n: int, d: int) -> StructuredOperator:
    """A gate's operator built kind by kind from ``embed_term`` and
    ``single_site_operator``, identity factors dropped."""
    if g.kind in ("hadamard", "fourier"):
        return single_site_operator(n, d, g.target, dft_matrix(d), f"fourier@{g.target + 1}")
    if g.kind == "phase":
        return single_site_operator(n, d, g.target, r_gate_power(g.level, d, 1), f"r{g.level}")
    if g.kind == "not":
        return single_site_operator(n, d, g.target, shift_matrix(d), "not")
    if g.kind == "cphase":
        label = f"cr{g.level}@{g.control + 1}>{g.target + 1}"
        on_target = [r_gate_power(g.level, d, ell) for ell in range(d)]
    elif g.kind == "cnot":
        label = "cnot"
        on_target = [np.linalg.matrix_power(shift_matrix(d), ell) for ell in range(d)]
    else:
        units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)  # units[a, b] is |a><b|
        terms = [
            embed_term(n, d, {g.target: units[a, b], g.control: units[b, a]})
            for a in range(d)
            for b in range(d)
        ]
        return StructuredOperator(n, d, tuple(terms), "swap")
    terms = [
        embed_term(n, d, {g.control: basis_projector(ell, d), g.target: m})
        for ell, m in enumerate(on_target)
    ]
    return StructuredOperator(n, d, tuple(terms), label)


class TestLowering:
    def test_single_wire(self):
        c = lower_to_circuit(qft_plan(1, 2))
        assert c.gates == (Gate("hadamard", target=0),)

    def test_three_wire_target_first_sequence(self):
        c = lower_to_circuit(qft_plan(3, 2, TARGET_FIRST))
        assert c.gates == (
            Gate("hadamard", target=0),
            Gate("cphase", target=0, control=2, level=3),
            Gate("cphase", target=0, control=1, level=2),
            Gate("hadamard", target=1),
            Gate("cphase", target=1, control=2, level=2),
            Gate("hadamard", target=2),
            Gate("swap", target=0, control=2),
        )

    def test_control_first_swaps_roles(self):
        c = lower_to_circuit(qft_plan(3, 2, CONTROL_FIRST))
        cr = [g for g in c.gates if g.kind == "cphase"]
        assert cr == [
            Gate("cphase", target=2, control=0, level=3),
            Gate("cphase", target=1, control=0, level=2),
            Gate("cphase", target=2, control=1, level=2),
        ]

    def test_qudit_lowering_uses_fourier_gates(self):
        c = lower_to_circuit(qft_plan(2, 3))
        kinds = [g.kind for g in c.gates]
        assert kinds == ["fourier", "cphase", "fourier", "swap"]

    def test_three_cnot_expansion(self):
        c = lower_to_circuit(qft_plan(2, 2), swap_style=THREE_CNOT)
        tail = c.gates[-3:]
        assert [g.kind for g in tail] == ["cnot", "cnot", "cnot"]
        assert tail[0].control == tail[2].control != tail[1].control

    def test_fft_plans_rejected(self):
        with pytest.raises(ValueError):
            lower_to_circuit(fft_plan(3, 2))

    def test_three_cnot_rejected_for_qudits(self):
        with pytest.raises(ValueError):
            lower_to_circuit(qft_plan(2, 3), swap_style=THREE_CNOT)

    def test_unknown_swap_style(self):
        with pytest.raises(ValueError):
            lower_to_circuit(qft_plan(2, 2), swap_style="teleport")

    def test_butterfly_step_does_not_lower(self):
        plan = FactorizationPlan(2, 2, "qft", TARGET_FIRST, (FourierStep(0), ButterflyStep(0)))
        with pytest.raises(ValueError, match="is not a one- or two-site gate"):
            lower_to_circuit(plan)

    def test_numpy_plan_sizes_serialise(self):
        c = lower_to_circuit(qft_plan(np.int64(3)))
        assert serialize(c) == serialize(lower_to_circuit(qft_plan(3)))

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (4, 2), (2, 3), (3, 3)])
    def test_gates_match_plan_factors(self, n, d):
        plan = qft_plan(n, d)
        c = lower_to_circuit(plan)
        for op, gate in zip(plan.factors, c.gates):
            got = expand(gate_unitary(gate, n, d))
            np.testing.assert_allclose(got, expand(op), atol=1e-13)


class TestGateUnitary:
    def test_cnot_is_projector_sum(self):
        op = gate_unitary(Gate("cnot", target=1, control=0), 2, 2)
        want = np.kron(basis_projector(0, 2), np.eye(2)) + np.kron(
            basis_projector(1, 2), X
        )
        np.testing.assert_array_equal(expand(op), want)

    def test_swap_equals_three_cnots(self):
        swap = expand(gate_unitary(Gate("swap", target=0, control=1), 2, 2))
        prod = np.eye(4)
        for g in (
            Gate("cnot", target=1, control=0),
            Gate("cnot", target=0, control=1),
            Gate("cnot", target=1, control=0),
        ):
            prod = expand(gate_unitary(g, 2, 2)) @ prod
        np.testing.assert_array_equal(prod, swap)

    def test_swap_exchanges_tensor_factors(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        op = gate_unitary(Gate("swap", target=0, control=1), 2, 3)
        got = apply_structured(op, np.kron(a, b))
        np.testing.assert_allclose(got, np.kron(b, a), atol=1e-14)

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (3, 5)])
    def test_simulated_swap_equals_its_operator(self, n, d):
        # simulate_dense transposes digit axes; gate_unitary builds the operator.
        rng = np.random.default_rng(n * d)
        x = rng.standard_normal((d**n, 2)) + 1j * rng.standard_normal((d**n, 2))
        for a in range(n):
            for b in range(n):
                if a != b:
                    g = Gate("swap", target=a, control=b)
                    want = apply_structured(gate_unitary(g, n, d), x)
                    c = Circuit(n, d, (g,))
                    np.testing.assert_array_equal(simulate_dense(c, x), want)
                    np.testing.assert_array_equal(simulate_dense(c, x[:, 0]), want[:, 0])

    def test_distant_controlled_phase_and_its_twin(self):
        a = gate_unitary(Gate("cphase", target=2, control=0, level=3), 4, 2)
        b = gate_unitary(Gate("cphase", target=0, control=2, level=3), 4, 2)
        np.testing.assert_allclose(expand(a), expand(b), atol=1e-14)

    def test_sum_gate_increments_modulo_d(self):
        op = gate_unitary(Gate("cnot", target=1, control=0), 2, 3)
        dense = expand(op)
        for control in range(3):
            for value in range(3):
                src = np.zeros(9)
                src[control * 3 + value] = 1.0
                dst = dense @ src
                assert dst[control * 3 + (value + control) % 3] == 1.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_every_kind_is_unitary(self, d):
        gates = [
            Gate("fourier", target=0),
            Gate("phase", target=1, level=2),
            Gate("not", target=0),
            Gate("cphase", target=1, control=0, level=3),
            Gate("cnot", target=0, control=1),
            Gate("swap", target=0, control=1),
        ]
        if d == 2:
            gates.append(Gate("hadamard", target=1))
        for g in gates:
            dense = expand(gate_unitary(g, 2, d))
            residual = np.max(np.abs(dense @ dense.conj().T - np.eye(d * d)))
            assert residual < 1e-13, g

    def test_invalid_wires(self):
        with pytest.raises(ValueError):
            gate_unitary(Gate("hadamard", target=5), 2, 2)

    def test_hadamard_unitary_requires_qubits(self):
        with pytest.raises(ValueError, match="qubit gate"):
            gate_unitary(Gate("hadamard", 0), 2, 3)

    @pytest.mark.parametrize(
        "gate,step,d",
        [
            (Gate("hadamard", target=1), FourierStep(1), 2),
            (Gate("fourier", target=2), FourierStep(2), 3),
            (Gate("cphase", target=0, control=2, level=3), CPhaseStep(2, 0, 3), 2),
            (Gate("cphase", target=2, control=1, level=2), CPhaseStep(1, 2, 2), 5),
        ],
    )
    def test_plan_gates_are_their_step_operators(self, gate, step, d):
        op, want = gate_unitary(gate, 3, d), step.operator(3, d)
        assert op.label == want.label == step.label(3)
        assert len(op.terms) == len(want.terms)
        for t, u in zip(op.terms, want.terms):
            assert t.coefficient == u.coefficient
            assert [i for i, _ in t.site_matrices] == [i for i, _ in u.site_matrices]
            assert all(a is b for (_, a), (_, b) in zip(t.site_matrices, u.site_matrices))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_every_kind_matches_its_embedded_terms(self, d):
        # Each kind's operator, built as the per-kind embedding of its matrices.
        for g in _every_gate(3, d):
            op, want = gate_unitary(g, 3, d), _embedded_gate(g, 3, d)
            assert op.label == want.label, g
            assert [t.coefficient for t in op.terms] == [t.coefficient for t in want.terms], g
            for t, u in zip(op.terms, want.terms, strict=True):
                assert [i for i, _ in t.site_matrices] == [i for i, _ in u.site_matrices], g
                for (_, a), (_, b) in zip(t.site_matrices, u.site_matrices):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), g
                    assert not a.flags.writeable, g

    def test_shift_matrix_is_cyclic(self):
        s = shift_matrix(3)
        np.testing.assert_array_equal(
            np.linalg.matrix_power(s, 3), np.eye(3)
        )

    def test_controlled_gate_diagonal_iff_target_diagonal(self):
        cr = expand(gate_unitary(Gate("cphase", target=1, control=0, level=2), 2, 2))
        assert np.count_nonzero(cr - np.diag(np.diagonal(cr))) == 0
        cx = expand(gate_unitary(Gate("cnot", target=1, control=0), 2, 2))
        assert np.count_nonzero(cx - np.diag(np.diagonal(cx))) > 0

    def test_all_controlled_r_gates_commute(self):
        c = lower_to_circuit(qft_plan(4, 2))
        dense = [
            expand(gate_unitary(g, c.n, c.d)) for g in c.gates if g.kind == "cphase"
        ]
        for a in dense:
            for b in dense:
                assert np.max(np.abs(a @ b - b @ a)) < 1e-13


class TestSimulateDense:
    def test_empty_circuit(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_array_equal(simulate_dense(Circuit(2), x), x)

    def test_qft_circuit_on_basis_state(self):
        c = lower_to_circuit(qft_plan(3, 2))
        e0 = np.zeros(8, dtype=complex)
        e0[0] = 1.0
        got = simulate_dense(c, e0)
        np.testing.assert_allclose(got, np.full(8, 1 / np.sqrt(8)), atol=1e-14)

    @pytest.mark.parametrize("n,d", [(3, 2), (5, 2), (2, 3), (3, 3)])
    def test_matches_dft_oracle(self, n, d):
        rng = np.random.default_rng(n * d)
        c = lower_to_circuit(qft_plan(n, d))
        x = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        assert np.max(np.abs(simulate_dense(c, x) - dft_matrix(d**n) @ x)) < 1e-11

    def test_adjoint_gates_undo_the_circuit(self):
        rng = np.random.default_rng(2)
        c = lower_to_circuit(qft_plan(3, 2))
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = simulate_dense(c, x)
        for g in reversed(c.gates):
            y = apply_structured(adjoint(gate_unitary(g, c.n, c.d)), y)
        assert np.max(np.abs(y - x)) < 1e-11

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            simulate_dense(Circuit(2), np.zeros(3))

    @pytest.mark.parametrize("n", [10**6, 10**8])
    def test_huge_loaded_circuit_hits_the_dense_limit(self, n):
        # The check never forms 3**n, and its message names the power.
        c = deserialize(json.dumps({"version": 1, "n": n, "d": 3, "gates": []}))
        with pytest.raises(DenseLimitError, match=rf"dimension 3\*\*{n} exceeds"):
            circuit_unitary(c)
        with pytest.raises(DenseLimitError):
            simulate_dense(c, np.zeros(1))

    @pytest.mark.parametrize("gates", [(), (Gate("swap", 0, 1),), (Gate("hadamard", 0),)])
    @pytest.mark.parametrize("shape", [(), (4, 2, 2)])
    def test_shape_contract_whatever_the_first_gate(self, gates, shape):
        # Only (N,) and (N, m) states are accepted, as by fft_apply.
        with pytest.raises(ValueError, match="expected shape"):
            simulate_dense(Circuit(2, 2, gates), np.ones(shape))


class TestCounts:
    def test_four_wires_three_cnot(self):
        c = lower_to_circuit(qft_plan(4, 2), swap_style=THREE_CNOT)
        counts = count_gates(c)
        assert counts.hadamard_or_fourier == 4
        assert counts.controlled_r == 6
        assert counts.cnot == 6
        assert counts.swap == 0

    def test_five_wires_controlled_r(self):
        counts = count_gates(lower_to_circuit(qft_plan(5, 2)))
        assert counts.controlled_r == 10
        assert counts.swap == 2

    def test_single_wire(self):
        counts = count_gates(lower_to_circuit(qft_plan(1, 2)))
        assert counts.hadamard_or_fourier == 1
        assert counts.total == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_formula_agreement(self, n):
        plan = qft_plan(n, 2)
        formulas = qft_count_formulas(n)
        keep = count_gates(lower_to_circuit(plan))
        assert keep.hadamard_or_fourier == formulas["hadamard_or_fourier"]
        assert keep.controlled_r == formulas["controlled_r"]
        assert keep.swap == formulas["swap"]
        three = count_gates(lower_to_circuit(plan, swap_style=THREE_CNOT))
        assert three.cnot == formulas["cnot_constructive"]

    def test_table_figure_differs_for_odd_n(self):
        for n in range(1, 12):
            f = qft_count_formulas(n)
            if n % 2 == 0:
                assert f["cnot_table"] == f["cnot_constructive"]
            else:
                assert f["cnot_table"] == f["cnot_constructive"] + 1

    def test_total_matches_gate_list(self):
        c = lower_to_circuit(qft_plan(4, 2), swap_style=THREE_CNOT)
        assert count_gates(c).total == len(c.gates)


class TestEquivalentVariants:
    def test_no_controlled_gates_yields_original_only(self):
        c = lower_to_circuit(qft_plan(1, 2))
        variants = equivalent_variants(c, "swap-control-target")
        assert variants == [c]

    def test_all_flip_combinations_equal(self):
        c = lower_to_circuit(qft_plan(3, 2))
        variants = equivalent_variants(c, "swap-control-target")
        assert len(variants) == 8
        u0 = circuit_unitary(variants[0])
        for v in variants[1:]:
            assert np.max(np.abs(circuit_unitary(v) - u0)) < 1e-12

    def test_commuting_reorderings_equal(self):
        c = lower_to_circuit(qft_plan(3, 2))
        variants = equivalent_variants(c, "shuffle-commuting")
        assert len(variants) == 2  # the two-gate run in the first block
        u0 = circuit_unitary(variants[0])
        assert np.max(np.abs(circuit_unitary(variants[1]) - u0)) < 1e-12

    def test_combined_policy_counts(self):
        c = lower_to_circuit(qft_plan(3, 2))
        variants = equivalent_variants(c, "both")
        assert len(variants) == 16
        assert variants[0] == c

    def test_sampling_is_deterministic(self):
        c = lower_to_circuit(qft_plan(5, 2))
        a = equivalent_variants(c, "both", seed=3, limit=20)
        b = equivalent_variants(c, "both", seed=3, limit=20)
        assert a == b
        assert len(a) == 20
        assert a[0] == c

    def test_exhaustive_order(self):
        # Flip masks vary fastest, then the first run's permutations in
        # lexicographic order, then the next run's (a run of one gate here).
        c = lower_to_circuit(qft_plan(3, 2))
        want = [  # (control, target, level) of the controlled-R gates at 1, 2 and 4
            [(2, 0, 3), (1, 0, 2), (2, 1, 2)],
            [(0, 2, 3), (1, 0, 2), (2, 1, 2)],
            [(2, 0, 3), (0, 1, 2), (2, 1, 2)],
            [(0, 2, 3), (0, 1, 2), (2, 1, 2)],
            [(2, 0, 3), (1, 0, 2), (1, 2, 2)],
            [(0, 2, 3), (1, 0, 2), (1, 2, 2)],
            [(2, 0, 3), (0, 1, 2), (1, 2, 2)],
            [(0, 2, 3), (0, 1, 2), (1, 2, 2)],
            [(1, 0, 2), (2, 0, 3), (2, 1, 2)],
            [(1, 0, 2), (0, 2, 3), (2, 1, 2)],
            [(0, 1, 2), (2, 0, 3), (2, 1, 2)],
            [(0, 1, 2), (0, 2, 3), (2, 1, 2)],
            [(1, 0, 2), (2, 0, 3), (1, 2, 2)],
            [(1, 0, 2), (0, 2, 3), (1, 2, 2)],
            [(0, 1, 2), (2, 0, 3), (1, 2, 2)],
            [(0, 1, 2), (0, 2, 3), (1, 2, 2)],
        ]
        expected = []
        for cphases in want:
            gates = list(c.gates)
            for i, (control, target, level) in zip((1, 2, 4), cphases):
                gates[i] = Gate("cphase", target=target, control=control, level=level)
            expected.append(Circuit(3, 2, tuple(gates)))
        assert equivalent_variants(c, "both") == expected

    def test_seeded_sample_is_pinned(self):
        c = lower_to_circuit(qft_plan(5, 2))
        text = "\n".join(serialize(v) for v in equivalent_variants(c, "both", seed=3, limit=20))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "5356dc3ce36679c65e541f745f1a4f5c7604f48062676e75a0e9623b8a6fbf4d"

    @pytest.mark.parametrize("policy", ["swap-control-target", "both"])
    def test_sampling_past_64_controlled_gates(self, policy):
        # 66 controlled-R gates: 2**66 flip masks, more than an int64 holds.
        c = lower_to_circuit(qft_plan(12, 2))
        variants = equivalent_variants(c, policy, seed=4, limit=5)
        assert len(set(variants)) == len(variants) == 5 and variants[0] == c
        rng = np.random.default_rng(12)
        x = rng.standard_normal(c.dim) + 1j * rng.standard_normal(c.dim)
        want = simulate_dense(c, x)
        for v in variants[1:]:
            assert np.max(np.abs(simulate_dense(v, x) - want)) < 1e-12

    def test_sampled_variants_stay_equivalent(self):
        c = lower_to_circuit(qft_plan(4, 2))
        u0 = circuit_unitary(c)
        for v in equivalent_variants(c, "both", seed=1, limit=12):
            assert np.max(np.abs(circuit_unitary(v) - u0)) < 1e-12

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            equivalent_variants(Circuit(2), "mirror")

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, limit):
        with pytest.raises(ValueError, match="limit"):
            equivalent_variants(lower_to_circuit(qft_plan(3, 2)), limit=limit)


class TestRenderText:
    def test_single_hadamard(self):
        c = Circuit(2, 2, (Gate("hadamard", target=0),))
        rows = render_text(c).splitlines()
        assert "[H]" in rows[0]
        assert "[H]" not in rows[2]
        assert rows[2].startswith("q2:")

    def test_two_wire_qft_golden(self):
        c = lower_to_circuit(qft_plan(2, 2))
        assert render_text(c) == "\n".join(
            [
                "q1: --[H]--[R2]-------x--",
                "            |         |",
                "q2: --------@----[H]--x--",
            ]
        )

    def test_qutrit_gates_golden(self):
        gates = (
            Gate("fourier", target=0),
            Gate("phase", target=1, level=2),
            Gate("not", target=2),
            Gate("cnot", target=2, control=0),
            Gate("cphase", target=1, control=2, level=3),
            Gate("swap", target=0, control=1),
        )
        assert render_text(Circuit(3, 3, gates)) == "\n".join(
            [
                "q1: --[F3]--------------@---------x--",
                "                        |         |",
                "q2: --------[R2]--------|---[R3]--x--",
                "                        |    |",
                "q3: --------------[X]--[X]---@-------",
            ]
        )

    def test_connector_crosses_middle_wire(self):
        c = Circuit(3, 2, (Gate("cphase", target=0, control=2, level=2),))
        rows = render_text(c).splitlines()
        assert "[R2]" in rows[0]
        assert "|" in rows[2]  # middle wire row carries the vertical bar
        assert "@" in rows[4]

    def test_wire_cap(self):
        with pytest.raises(ValueError):
            render_text(Circuit(17, 2))


class TestSerialization:
    def test_empty_circuit_round_trip(self):
        c = Circuit(3, 2)
        assert deserialize(serialize(c)) == c

    def test_qft_circuit_round_trip(self):
        c = lower_to_circuit(qft_plan(3, 2), swap_style=THREE_CNOT)
        again = deserialize(serialize(c))
        assert again == c
        assert again.gates == c.gates

    def test_schema_shape(self):
        doc = json.loads(serialize(lower_to_circuit(qft_plan(2, 2))))
        assert doc["version"] == 1
        assert doc["n"] == 2 and doc["d"] == 2
        assert doc["gates"][0] == {"kind": "hadamard", "target": 0}
        assert doc["gates"][1] == {
            "kind": "cphase",
            "target": 0,
            "control": 1,
            "level": 2,
        }

    def test_wire_conflict_rejected(self):
        doc = {
            "version": 1,
            "n": 2,
            "d": 2,
            "gates": [{"kind": "cphase", "target": 1, "control": 1, "level": 2}],
        }
        with pytest.raises(CircuitFormatError):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize(
        "gates",
        [
            [{"kind": "warp", "target": 0}],
            [{"kind": "hadamard", "target": 9}],
            [{"kind": "hadamard", "target": "zero"}],
            [{"kind": "cphase", "target": 0, "control": 1, "level": 0}],
            [{"kind": "cphase", "target": 0, "control": 1}],
            "not a list",
            ["not an object"],
        ],
    )
    def test_malformed_gates_rejected(self, gates):
        doc = {"version": 1, "n": 2, "d": 2, "gates": gates}
        with pytest.raises(CircuitFormatError):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize(
        "field,value",
        [("n", True), ("d", True), ("target", False), ("control", True), ("level", True)],
    )
    def test_json_booleans_are_not_integers(self, field, value):
        # Each boolean stands for an in-range integer, so only its type is wrong.
        header = field in ("n", "d")
        gate = Gate("hadamard", 0) if header else Gate("cphase", target=0, control=1, level=2)
        doc = json.loads(serialize(Circuit(1 if header else 2, 2, (gate,))))
        entry = doc if header else doc["gates"][0]
        entry[field] = value
        with pytest.raises(CircuitFormatError):
            deserialize(json.dumps(doc))

    def test_document_must_be_an_object(self):
        with pytest.raises(CircuitFormatError, match="must be a JSON object"):
            deserialize("[1, 2]")

    @pytest.mark.parametrize(
        "gate,message",
        [
            ({"kind": "warp", "target": 0}, "unknown gate kind 'warp'"),
            ({"target": 0}, "unknown gate kind None"),
            ({"kind": "hadamard"}, "gate target must be an integer, got None"),
            ({"kind": "hadamard", "target": 1.0}, "gate target must be an integer, got 1.0"),
            ({"kind": "cnot", "target": 0, "control": "1"}, "gate control must be an integer, got '1'"),
            ({"kind": "phase", "target": 0, "level": [2]}, "gate level must be an integer, got [2]"),
            ({"kind": "cnot", "target": 0}, "cnot gate needs a second wire"),
            ({"kind": "phase", "target": 0}, "phase gate needs a positive R level"),
            ({"kind": "hadamard", "target": 0, "level": 2}, "hadamard gate takes no level"),
        ],
    )
    def test_entries_are_checked_by_the_gate(self, gate, message):
        doc = {"version": 1, "n": 2, "d": 2, "gates": [gate]}
        with pytest.raises(CircuitFormatError) as raised:
            deserialize(json.dumps(doc))
        assert str(raised.value) == message
        with pytest.raises(ValueError) as direct:
            Gate(gate.get("kind"), gate.get("target"), gate.get("control"), gate.get("level"))
        assert str(direct.value) == message

    @pytest.mark.parametrize(
        "n,d,message",
        [(2.0, 2, "circuit n must be an integer, got 2.0"), (2, None, "circuit d must be an integer, got None")],
    )
    def test_document_sizes_are_checked_by_the_circuit(self, n, d, message):
        with pytest.raises(CircuitFormatError) as raised:
            deserialize(json.dumps({"version": 1, "n": n, "d": d, "gates": []}))
        assert str(raised.value) == message

    def test_bad_version_and_bad_json(self):
        with pytest.raises(CircuitFormatError):
            deserialize(json.dumps({"version": 2, "n": 1, "d": 2, "gates": []}))
        with pytest.raises(CircuitFormatError):
            deserialize("[1, 2")


@st.composite
def loadable_qft_documents(draw):
    """A plan document of random Fourier and controlled-phase steps, possibly none."""
    n, d = draw(st.integers(1, 4)), draw(st.sampled_from([2, 3, 5]))
    factors = []
    for _ in range(draw(st.integers(0, 8))):
        site = draw(st.integers(0, n - 1))
        if n == 1 or draw(st.booleans()):
            factors.append({"op": "fourier", "site": site})
        else:
            target = (site + draw(st.integers(1, n - 1))) % n
            level = draw(st.one_of(st.integers(1, 12), st.just(1100)))
            factors.append({"op": "cphase", "level": level, "control": site, "target": target})
    orientation = draw(st.sampled_from(ORIENTATIONS))
    return {"version": 1, "kind": "qft", "n": n, "d": d, "orientation": orientation,
            "factors": factors}


class TestLoadedPlanLowering:
    """A loaded QFT plan's steps lower to gates that are the same records: the
    lowered circuit transforms a batch bit for bit as ``fft_apply`` does."""

    @settings(max_examples=120, deadline=None)
    @given(doc=loadable_qft_documents(), seed=st.integers(0, 2**32 - 1))
    def test_round_trips_and_lowered_bits(self, doc, seed):
        text = json.dumps(doc)
        plan = plan_from_json(text)
        assert plan_to_json(plan) == text
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((plan.dim, 2)) + 1j * rng.standard_normal((plan.dim, 2))
        want = fft_apply(plan, x).tobytes()
        for style in (KEEP_SWAP, THREE_CNOT) if plan.d == 2 else (KEEP_SWAP,):
            c = lower_to_circuit(plan, style)
            assert deserialize(serialize(c)) == c
            assert simulate_dense(c, x).tobytes() == want


class TestGateValidation:
    def test_hadamard_requires_qubits(self):
        with pytest.raises(ValueError):
            Circuit(2, 3, (Gate("hadamard", target=0),))

    def test_controlled_gates_need_two_wires(self):
        with pytest.raises(ValueError):
            Gate("cnot", target=0)
        with pytest.raises(ValueError):
            Gate("cnot", target=0, control=0)

    def test_levels_only_on_phase_kinds(self):
        with pytest.raises(ValueError):
            Gate("hadamard", target=0, level=2)
        with pytest.raises(ValueError):
            Gate("phase", target=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Gate("toffoli", target=0)

    def test_single_wire_kinds_take_no_control(self):
        with pytest.raises(ValueError, match="takes no control wire"):
            Gate("not", 0, control=1)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize(
        "kind,target,control,level",
        [("cphase", 1, 0, 2), ("cphase", 0, 2, 3), ("cnot", 0, 2, None), ("swap", 2, 0, None),
         ("not", 0, None, None), ("phase", 1, None, 3), ("fourier", 2, None, None)],
    )
    def test_numpy_integers_are_ints(self, kind, target, control, level, d):
        def numpy_int(v):
            return None if v is None else np.int64(v)

        twin = Gate(kind, target, control, level)
        g = Gate(kind, numpy_int(target), numpy_int(control), numpy_int(level))
        assert g == twin
        assert all(type(v) is int for v in (g.target, g.control, g.level) if v is not None)
        c, c_twin = Circuit(3, d, (g,)), Circuit(3, d, (twin,))
        x = np.random.default_rng(3).standard_normal(d**3) + 0j
        assert simulate_dense(c, x).tobytes() == simulate_dense(c_twin, x).tobytes()
        assert circuit_unitary(c).tobytes() == circuit_unitary(c_twin).tobytes()
        assert serialize(c) == serialize(c_twin)
        assert deserialize(serialize(c)) == c

    @pytest.mark.parametrize(
        "kind,target,control,level",
        [("hadamard", True, None, None), ("cnot", 0, True, None), ("phase", 0, None, True),
         ("cphase", np.int64(1), False, 2)],
    )
    def test_bool_wires_and_levels_raise(self, kind, target, control, level):
        with pytest.raises(ValueError, match="must be an integer, got (True|False)"):
            Gate(kind, target, control, level)

    @pytest.mark.parametrize("n,d", [(0, 2), (1, 1)])
    def test_circuits_need_a_wire_of_two_levels(self, n, d):
        with pytest.raises(ValueError, match="n >= 1 wires"):
            Circuit(n, d)

    @pytest.mark.parametrize(
        "target,control,level,message",
        [
            (None, None, None, "gate target must be an integer, got None"),
            (1.5, 0, 2, "gate target must be an integer, got 1.5"),
            ("0", None, None, "gate target must be an integer, got '0'"),
            (1, 0.0, 2, "gate control must be an integer, got 0.0"),
            (1, 0, 2.5, "gate level must be an integer, got 2.5"),
        ],
    )
    def test_non_integer_fields_raise_value_error(self, target, control, level, message):
        kind = "hadamard" if control is None else "cphase"
        with pytest.raises(ValueError) as raised:
            Gate(kind, target, control, level)
        assert type(raised.value) is ValueError and str(raised.value) == message

    @pytest.mark.parametrize(
        "n,d,message",
        [
            (2.0, 2, "circuit n must be an integer, got 2.0"),
            (2, True, "circuit d must be an integer, got True"),
            ("2", 2, "circuit n must be an integer, got '2'"),
        ],
    )
    def test_circuit_sizes_must_be_integers(self, n, d, message):
        with pytest.raises(ValueError) as raised:
            Circuit(n, d)
        assert str(raised.value) == message

    def test_numpy_circuit_sizes_become_ints(self):
        c = Circuit(np.int64(2), np.int64(3), (Gate("fourier", 1),))
        assert type(c.n) is int and type(c.d) is int
        assert c == Circuit(2, 3, (Gate("fourier", 1),))
        assert deserialize(serialize(c)) == c
