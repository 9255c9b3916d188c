"""kronfft: Kronecker-structured FFT/QFT factorizations of the DFT matrix.

The library constructs the DFT matrix, derives its radix-2 and radix-d
FFT/QFT factorizations, lowers the QFT factorization to a gate-level circuit
IR, simulates plans and circuits on dense vectors and on sums of rank-1
tensors, and verifies every decomposition against brute-force oracles.
"""

from .tensor import (
    DEFAULT_ATOL,
    DEFAULT_DENSE_LIMIT,
    DenseLimitError,
    KronTerm,
    Permutation,
    StructuredOperator,
    adjoint,
    apply_structured,
    basis_projector,
    compose,
    digit_reversal,
    direct_sum,
    embed_term,
    expand,
    identity,
    kron,
    kron_all,
    permute_tensor_factors,
    single_site_operator,
    unitarity_residual,
    unitarity_residual_dense,
)
from .spectral import (
    dft_matrix,
    exponent_matrix_render,
    omega,
    omega_diag,
    omega_kron_factors,
    r_gate,
    r_gate_power,
)
from .factorize import (
    CONTROL_FIRST,
    FFT,
    ORIENTATIONS,
    QFT,
    TARGET_FIRST,
    ButterflyStep,
    CPhaseStep,
    DiagonalDecomposition,
    FactorizationPlan,
    FourierStep,
    PlanFormatError,
    PlanVerification,
    decomposition_product,
    diagonal_decomposition,
    diagonal_target,
    fft_apply,
    fft_plan,
    plan_from_json,
    plan_product,
    plan_to_json,
    qft_plan,
    verify_plan,
)
from .circuit import (
    CIRCUIT_SCHEMA_VERSION,
    KEEP_SWAP,
    THREE_CNOT,
    Circuit,
    CircuitFormatError,
    Gate,
    GateCounts,
    circuit_unitary,
    count_gates,
    deserialize,
    equivalent_variants,
    gate_unitary,
    lower_to_circuit,
    qft_count_formulas,
    render_text,
    serialize,
    shift_matrix,
    simulate_dense,
)
from .cpstate import (
    CPState,
    RankOneTerm,
    RankTrajectory,
    TrajectoryStep,
    apply_op_cp,
    bipartition_rank,
    compress,
    cp_basis_state,
    cp_to_dense,
    diagonal_cascade_cp,
    qft_rank_experiment,
    random_rank_one,
)

__version__ = "0.1.0"
