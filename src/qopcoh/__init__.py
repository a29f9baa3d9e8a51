"""Coherence analysis of quantum operations through their Choi states."""

from .channel import (
    ChoiState,
    QuantumOperation,
    apply_via_choi,
    choi_from_operation,
    dephasing_operation,
    hadamard_operation,
    identity_operation,
    is_cptp,
    is_incoherent_operation,
    kraus_from_choi,
    mix_operations,
    pauli_x_operation,
    pauli_z_operation,
    random_cptp,
    random_density_matrix,
    random_incoherent_cptp,
    random_unitary,
    unitary_from_choi,
)
from .coherence import (
    Ensemble,
    MeasureResult,
    max_coherent_operation,
    measure_coherence,
    mf_convex_roof,
    mf_pure,
    mf_single_qubit_unitary,
    uhlmann_fidelity,
    verify_axioms,
)
from .linalg import (
    HermitianEig,
    devectorize,
    eig_hermitian,
    max_abs,
    partial_trace_in,
    partial_trace_out,
    sqrt_psd,
    vectorize,
)
from .superop import (
    ClassificationReport,
    Superoperation,
    apply,
    check_cptp_preservation,
    check_structural_relations,
    classify,
    closure_harness,
    compose,
    convex_combine,
    kraus_outcomes,
    phase_out,
    phase_out_sandwich,
    sample_class_member,
)

__version__ = "0.1.0"
