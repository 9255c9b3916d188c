"""Compiled structured kernels, the transpose digit reversal and the input
shape contract, checked against dense expansion, ``numpy.fft`` and the
term-by-term definitions."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronfft import (
    CPhaseStep,
    Circuit,
    DiagonalDecomposition,
    Gate,
    StructuredOperator,
    apply_structured,
    basis_projector,
    circuit_unitary,
    compose,
    decomposition_product,
    diagonal_decomposition,
    digit_reversal,
    embed_term,
    expand,
    fft_apply,
    fft_plan,
    gate_unitary,
    lower_to_circuit,
    plan_from_json,
    plan_product,
    plan_to_json,
    qft_plan,
    simulate_dense,
    single_site_operator,
    verify_plan,
)
from kronfft import tensor
from kronfft.spectral import fourier_gate
from kronfft.tensor import _SHORT_REST, _compile

#: Operator shapes that compile to one contraction plus one diagonal.
COMPILED = ("single-dense", "butterfly", "diagonal")
#: Operator shapes that keep the term-by-term path.
FALLBACK = ("two-dense", "overlapping-rows", "swap")


def _dense(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2


def _diagonal(rng, d):
    """Random phases, each exactly 1 with probability 1/2."""
    phases = np.exp(2j * np.pi * rng.random(d))
    return np.diag(np.where(rng.random(d) < 0.5, 1.0, phases))


def _coefficient(rng):
    return complex(rng.standard_normal(), rng.standard_normal())


def _diagonal_sites(rng, d, sites):
    return {i: _diagonal(rng, d) for i in sites if rng.random() < 0.7}


def random_operator(shape: str, n: int, d: int, seed: int) -> StructuredOperator:
    rng = np.random.default_rng(seed)
    site = int(rng.integers(n))
    rest = [i for i in range(n) if i != site]
    if shape == "single-dense":
        sites = _diagonal_sites(rng, d, rest)
        sites[site] = _dense(rng, d)
        terms = (embed_term(n, d, sites, _coefficient(rng)),)
    elif shape == "butterfly":
        # Projected rows on one site, so the terms' rows there are disjoint.
        terms = []
        for level in range(d):
            sites = _diagonal_sites(rng, d, rest)
            sites[site] = basis_projector(level, d) @ _dense(rng, d)
            terms.append(embed_term(n, d, sites, _coefficient(rng)))
    elif shape == "diagonal":
        terms = [
            embed_term(n, d, _diagonal_sites(rng, d, range(n)), _coefficient(rng))
            for _ in range(int(rng.integers(1, 4)))
        ]
    elif shape == "two-dense":
        other = (site + 1) % n
        terms = (embed_term(n, d, {site: _dense(rng, d), other: _dense(rng, d)}),)
    elif shape == "overlapping-rows":
        terms = [
            embed_term(n, d, {site: _dense(rng, d), **_diagonal_sites(rng, d, rest)})
            for _ in range(2)
        ]
    elif shape == "swap":
        return gate_unitary(Gate("swap", target=site, control=(site + 1) % n), n, d)
    else:
        raise ValueError(shape)
    return StructuredOperator(n, d, tuple(terms))


class TestCompiledKernels:
    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(COMPILED + FALLBACK),
        n=st.integers(1, 4),
        d=st.sampled_from([2, 3, 5]),
        columns=st.integers(1, 20),
        seed=st.integers(0, 2**31),
    )
    def test_matches_dense_expansion(self, shape, n, d, columns, seed):
        # Trailing extents times columns fall on both sides of _SHORT_REST.
        if n == 1 and shape in ("two-dense", "swap"):
            n = 2
        op = random_operator(shape, n, d, seed)
        assert (op._kernel is None) == (shape in FALLBACK)
        rng = np.random.default_rng(seed + 1)
        dense = expand(op)
        x = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        batch = rng.standard_normal((op.dim, columns)) + 1j * rng.standard_normal((op.dim, columns))
        assert np.max(np.abs(apply_structured(op, x) - dense @ x)) < 1e-12
        assert np.max(np.abs(apply_structured(op, batch) - dense @ batch)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_diagonal_before_contraction_site(self, d):
        # The diagonal depends on site 0, before the contraction on site 2,
        # so it cannot be folded into the short-extent block.
        n = 3
        rng = np.random.default_rng(d)
        phases = np.diag(np.exp(2j * np.pi * rng.random(d)))
        op = StructuredOperator(n, d, (embed_term(n, d, {0: phases, 2: _dense(rng, d)}),))
        kernel = op._kernel
        assert kernel.matrix is not None and kernel.diagonal is not None
        assert kernel.block is None
        dense = expand(op)
        for shape in ((op.dim,), (op.dim, 4), (op.dim, 17)):
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert np.max(np.abs(apply_structured(op, x) - dense @ x)) < 1e-12

    def test_short_stages_carry_folded_block(self):
        n, d = 6, 2
        for stage, f in zip(range(n - 1, -1, -1), fft_plan(n, d).factors):
            short = d**stage <= _SHORT_REST
            assert (f._kernel.block is not None) == short, f.label

    def test_plan_factors_compile(self):
        for plan in (fft_plan(4, 3), qft_plan(4, 2), qft_plan(3, 3, "control-first")):
            assert all(f._kernel is not None for f in plan.factors)

    def test_diagonal_storage(self):
        # A controlled phase keeps at most d**2 numbers, a butterfly stage k at
        # most its d**(k+1) twiddles, a Fourier gate none.
        n, d = 5, 3
        plan = qft_plan(n, d)
        fourier, cphase = plan.factors[0]._kernel, plan.factors[1]._kernel
        assert fourier.diagonal is None and cphase.matrix is None
        assert cphase.diagonal.size <= d**2
        for stage, f in zip(range(n - 1, -1, -1), fft_plan(n, d).factors):
            kernel = f._kernel
            assert kernel.diagonal is None or kernel.diagonal.size <= d ** (stage + 1)

    def test_no_terms_gives_zero(self):
        op = StructuredOperator(2, 2, ())
        np.testing.assert_array_equal(apply_structured(op, np.ones(4)), np.zeros(4))

    def test_input_is_not_modified(self):
        op = random_operator("diagonal", 3, 2, seed=5)
        x = np.arange(8, dtype=complex)
        apply_structured(op, x)
        np.testing.assert_array_equal(x, np.arange(8))


def _replay(plan, x, inverse):
    """``fft_apply`` as its public parts: each factor, then the reversal table."""
    work = np.conj(x) if inverse else x
    for f in plan.factors:
        work = apply_structured(f, work)
    work = plan.reversal.apply(work)
    return np.conj(work) if inverse else work


class TestFftApply:
    @pytest.mark.parametrize("kind", ["fft", "qft"])
    @pytest.mark.parametrize("n,d", [(20, 2), (12, 3), (8, 5)])
    def test_matches_numpy_fft_at_size(self, kind, n, d):
        plan = (fft_plan if kind == "fft" else qft_plan)(n, d)
        rng = np.random.default_rng(n * d)
        x = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        for inverse, oracle in ((False, np.fft.fft), (True, np.fft.ifft)):
            y = fft_apply(plan, x, inverse=inverse)
            assert np.max(np.abs(y - oracle(x, norm="ortho"))) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["fft", "qft"]),
        d=st.sampled_from([2, 3, 5]),
        n=st.integers(1, 6),
        columns=st.integers(0, 3),
        inverse=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_matches_numpy_fft_and_replay(self, kind, d, n, columns, inverse, seed):
        plan = (fft_plan if kind == "fft" else qft_plan)(n, d)
        shape = (d**n, columns) if columns else (d**n,)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = fft_apply(plan, x, inverse=inverse)
        oracle = (np.fft.ifft if inverse else np.fft.fft)(x, norm="ortho", axis=0)
        assert np.max(np.abs(y - oracle)) < 1e-10
        replay = _replay(plan, x, inverse)
        assert y.dtype == replay.dtype and y.shape == replay.shape
        assert y.tobytes() == replay.tobytes()


@pytest.mark.parametrize("columns", [0, 3])
@pytest.mark.parametrize(
    "make", [lambda: fft_plan(8, 2), lambda: qft_plan(8, 2), lambda: fft_plan(5, 3),
             lambda: fft_plan(4, 5)],
)
def test_fft_apply_equals_replay_across_block_threshold(make, columns):
    # Within one plan, short trailing extents take the block GEMM and long
    # ones the batched matmul; both must equal the per-factor reference.
    plan = make()
    rng = np.random.default_rng(plan.dim + columns)
    shape = (plan.dim, columns) if columns else (plan.dim,)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for inverse in (False, True):
        assert fft_apply(plan, x, inverse).tobytes() == _replay(plan, x, inverse).tobytes()


class TestInputShapes:
    @pytest.mark.parametrize("shape", [(), (8, 2, 2), (8, 1, 1)])
    def test_apply_structured_rejects(self, shape):
        op = StructuredOperator(3, 2, (embed_term(3, 2, {}),))
        with pytest.raises(ValueError):
            apply_structured(op, np.ones(shape))

    @pytest.mark.parametrize("shape", [(), (8, 2, 2), (8, 1, 1)])
    def test_fft_apply_rejects(self, shape):
        with pytest.raises(ValueError):
            fft_apply(fft_plan(3, 2), np.ones(shape))


def _reverse_digit_by_digit(j, n, d):
    rev = 0
    for _ in range(n):
        j, digit = divmod(j, d)
        rev = rev * d + digit
    return rev


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", range(1, 8))
def test_digit_reversal_matches_definition(n, d):
    image = digit_reversal(n, d).image
    assert isinstance(image, tuple)
    assert image == tuple(_reverse_digit_by_digit(j, n, d) for j in range(d**n))


def _chain(ops, x):
    """Each operator in turn through the reference ``apply_structured``."""
    for op in ops:
        x = apply_structured(op, x)
    return x


def _read_only(a):
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


def _cphase_first_plan(n, d):
    """A QFT plan, loaded from JSON, whose first step is a controlled phase."""
    doc = json.loads(plan_to_json(qft_plan(n, d)))
    doc["factors"] = doc["factors"][1:] + doc["factors"][:1]
    plan = plan_from_json(json.dumps(doc))
    assert plan.factors[0]._kernel.matrix is None
    return plan


def _gate_chain(c, x):
    """``simulate_dense`` as its parts: a swap exchanges two digit axes, every
    other gate is its operator through ``apply_structured``."""
    for g in c.gates:
        if g.kind == "swap":
            digits = x.reshape((c.d,) * c.n + x.shape[1:])
            x = digits.swapaxes(g.target, g.control).reshape(x.shape)
        else:
            x = apply_structured(gate_unitary(g, c.n, c.d), x)
    return x


class TestOwnedArrays:
    """Diagonal factors scale arrays the library owns in place; the caller's
    array is never written, and results stay bit for bit the reference."""

    @pytest.mark.parametrize("columns", [0, 3])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize(
        "make",
        [lambda: qft_plan(5, 2), lambda: fft_plan(4, 3), lambda: _cphase_first_plan(4, 2),
         lambda: _cphase_first_plan(3, 3)],
    )
    def test_fft_apply_leaves_input_and_matches_chain(self, make, inverse, columns):
        plan = make()
        rng = np.random.default_rng(7)
        shape = (plan.dim, columns) if columns else (plan.dim,)
        x = _read_only(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        before = x.tobytes()
        y = fft_apply(plan, x, inverse=inverse)
        assert x.tobytes() == before
        assert y.tobytes() == _replay(plan, x, inverse).tobytes()
        writable = np.array(x)
        fft_apply(plan, writable, inverse=inverse)
        assert writable.tobytes() == before

    @pytest.mark.parametrize("inverse", [False, True])
    def test_fft_apply_on_column_major_batch(self, inverse):
        # np.conj keeps a Fortran-ordered input's layout, so the array the
        # controlled phase scales in place is not C-contiguous.
        plan = _cphase_first_plan(4, 2)
        rng = np.random.default_rng(8)
        x = np.asfortranarray(rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5)))
        before = x.tobytes()
        y = fft_apply(plan, x, inverse=inverse)
        assert x.tobytes() == before
        assert y.tobytes() == _replay(plan, x, inverse).tobytes()

    @pytest.mark.parametrize(
        "make", [lambda: fft_plan(4, 2), lambda: qft_plan(3, 3), lambda: _cphase_first_plan(4, 2)]
    )
    def test_plan_product_matches_chain(self, make):
        plan = make()
        reference = plan.reversal.apply(_chain(plan.factors, np.eye(plan.dim, dtype=complex)))
        first = plan_product(plan)
        assert first.tobytes() == reference.tobytes()
        # The compiled diagonals are shared and must come through unchanged.
        assert plan_product(plan).tobytes() == first.tobytes()

    @pytest.mark.parametrize("k,d", [(3, 2), (2, 3)])
    def test_decomposition_product_matches_chain(self, k, d):
        dd = diagonal_decomposition(k, d)
        # Two Fourier gates composed, and a CNOT, take the term-by-term path.
        fourier = [single_site_operator(k + 1, d, i, fourier_gate(d)) for i in (0, 1)]
        fallback = (compose(*fourier), gate_unitary(Gate("cnot", target=1, control=0), k + 1, d))
        assert all(op._kernel is None for op in fallback)
        mixed = (dd.factors[0], *fallback, compose(dd.factors[1], dd.factors[0])) + dd.factors[1:]
        for factors in (dd.factors, mixed):
            custom = DiagonalDecomposition(k, d, dd.orientation, factors)
            reference = _chain(factors, np.eye(d ** (k + 1), dtype=complex))
            assert decomposition_product(custom).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("columns", [0, 2])
    @pytest.mark.parametrize("d", [2, 3])
    def test_simulate_dense_leaves_input_and_matches_chain(self, d, columns):
        n = 3
        gates = (
            Gate("cphase", target=2, control=0, level=2),
            Gate("cnot", target=1, control=2),
            Gate("phase", target=1, level=3),
            Gate("swap", target=0, control=2),
            Gate("cphase", target=0, control=1, level=3),
            Gate("fourier", target=2),
            Gate("cphase", target=1, control=2, level=2),
        )
        c = Circuit(n, d, gates)
        rng = np.random.default_rng(d + columns)
        shape = (d**n, columns) if columns else (d**n,)
        x = _read_only(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        before = x.tobytes()
        y = simulate_dense(c, x)
        assert x.tobytes() == before
        assert y.tobytes() == _gate_chain(c, x).tobytes()
        writable = np.array(x)
        simulate_dense(c, writable)
        assert writable.tobytes() == before
        unitary = circuit_unitary(c)
        assert unitary.tobytes() == _gate_chain(c, np.eye(d**n, dtype=complex)).tobytes()


def _same_array(a, b):
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_kernel(kernel, compiled, label):
    """Every field equal, arrays bit for bit."""
    for field in dataclasses.fields(kernel):
        a, b = getattr(kernel, field.name), getattr(compiled, field.name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert _same_array(a, b), (label, field.name)
        else:
            assert a == b, (label, field.name)


def _fresh_plans():
    doc = json.loads(plan_to_json(qft_plan(4, 3)))
    doc["factors"] = doc["factors"][1:] + doc["factors"][:1]
    return (fft_plan(5, 3), fft_plan(6, 2), qft_plan(6, 2, "control-first"),
            plan_from_json(json.dumps(doc)))


class TestStepKernels:
    """Plan steps build their own kernels, bit for bit the ones ``_compile``
    recovers from the steps' operators, and dense application of a plan
    builds no operator."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_step_kernel_equals_compiled_operator(self, n, d):
        plans = (fft_plan(n, d), qft_plan(n, d, "control-first"), qft_plan(n, d, "target-first"))
        for plan in plans:
            for step in plan.steps:
                _assert_same_kernel(step.kernel(n, d), _compile(step.operator(n, d)), step)

    def test_loaded_plan_with_phase_free_cphase(self):
        # R_1100 and its powers equal the identity at d = 2, so that step's
        # operator stores only projectors and its kernel scales nothing.
        doc = json.loads(plan_to_json(qft_plan(4, 2)))
        next(f for f in doc["factors"] if f["op"] == "cphase")["level"] = 1100
        plan = plan_from_json(json.dumps(doc))
        for step in plan.steps:
            _assert_same_kernel(step.kernel(4, 2), _compile(step.operator(4, 2)), step)
        (high,) = [s for s in plan.steps if isinstance(s, CPhaseStep) and s.level == 1100]
        assert high.kernel(4, 2).diagonal is None

    def test_dense_application_never_compiles(self, monkeypatch):
        def refuse(op):
            raise AssertionError(f"compiled {op.label!r}")

        monkeypatch.setattr(tensor, "_compile", refuse)
        for plan in _fresh_plans():
            rng = np.random.default_rng(plan.dim)
            x = rng.standard_normal((plan.dim, 2)) + 1j * rng.standard_normal((plan.dim, 2))
            fft_apply(plan, x)
            fft_apply(plan, x[:, 0], inverse=True)
            plan_product(plan)
            verify_plan(plan, unitarity=False)
            assert "factors" not in plan.__dict__
            if plan.kind == "qft":
                # Lowered gates are the steps' operators, and swaps are transposes.
                circuit_unitary(lower_to_circuit(plan))

    def test_dense_application_matches_factor_chain(self):
        for plan in _fresh_plans():
            first = plan_product(plan)
            reference = plan.reversal.apply(_chain(plan.factors, np.eye(plan.dim, dtype=complex)))
            assert first.tobytes() == reference.tobytes()

    def test_kernels_shared_with_built_factors(self):
        plan = qft_plan(3, 3)
        factors = plan.factors
        assert all("_kernel" not in f.__dict__ for f in factors)
        assert all(k is f._kernel for k, f in zip(plan.kernels, factors))
