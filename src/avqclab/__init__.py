"""Toolkit for adversarially varying quantum channels.

Finite channel families under a per-use adversary: validated quantum
primitives, symmetrizability linear programs, random-code capacity of
classical-quantum families, common-randomness diagnostics for bipartite
sources, and block-code evaluation with the worst-case state sequence
searched exhaustively or greedily. JSON document I/O and a CLI front end
sit on top.
"""

from .avqc import (
    AssociatedCqChannel,
    AvCqc,
    Avqc,
    ClassicalAvc,
    CqChannel,
    build_associated_avcqc,
    product_avqc,
    reduce_to_classical,
    reduce_to_classical_weighted,
)
from .capacity import MinimaxResult, chi_of_mixture, cq_random_capacity, simplex_grid
from .codes import (
    CorrelatedCode,
    CorrelatedEntanglementCode,
    DeterministicCode,
    ErrorReport,
    FidelityReport,
    RandomCode,
    compose_two_phase,
    compose_two_phase_entanglement,
    evaluate_code,
    evaluate_entanglement_code,
    permutation_symmetrize,
    projective_decoder,
    random_code_reduction,
    two_phase_schedule,
)
from .correlation import (
    BinaryReduction,
    BipartiteSource,
    CodeDistributionDiagnostics,
    CrExtractability,
    CrFunctionsPair,
    CrPairStatistics,
    WitsenhausenSplit,
    binary_reduction,
    code_distribution_diagnostics,
    cr_extractable,
    cr_pair_statistics,
    witsenhausen_binarize,
)
from .errors import (
    AvqclabError,
    BudgetExceeded,
    DimensionMismatch,
    SchemaError,
    ValidationError,
)
from .measures import (
    binary_entropy,
    entanglement_fidelity,
    entanglement_fidelity_purification,
    holevo_chi,
    mutual_information,
    shannon_entropy,
    von_neumann_entropy,
)
from .serialize import (
    dumps_document,
    from_document,
    loads_document,
    probes_to_document,
    read_document,
    to_document,
    write_document,
)
from .quantum import (
    DensityMatrix,
    Povm,
    PureState,
    QuantumChannel,
    apply_channel,
    apply_channel_to_slot,
    apply_channel_to_slot_batch,
    apply_product_channel,
    basis_state,
    bit_flip_channel,
    completely_depolarizing_channel,
    compose_channels,
    computational_povm,
    constant_channel,
    identity_channel,
    maximally_mixed,
    measure,
    mix_channels,
    phase_flip_channel,
    projective_povm,
    tensor_channel,
    tensor_states,
    unitary_channel,
)
from .symmetrize import (
    SymmetrizabilityVerdict,
    SymmetrizingFamily,
    check_symmetrizable,
    check_symmetrizable_classical,
    check_symmetrizable_cq,
    check_symmetrizable_pure,
    convex_representation,
    extend_family,
    hermitian_probe_frame,
    symmetrization_residual,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
