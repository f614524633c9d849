"""Branching families of quantum histories.

Construct trees of projective decompositions over finite-dimensional
Hilbert spaces, compute chain operators, weights and decoherence
matrices, coarse grain histories, and embed families as projectors on
the tensor-product history space.  Families round-trip through a
canonical JSON document format; the ``qhistories`` command exposes the
same operations from the shell.
"""

from .chain import (
    chain_operator,
    decoherence_matrix,
    evolved_state,
    family_decoherence_matrix,
    is_consistent,
    is_dynamically_impossible,
    is_weakly_consistent,
    weight,
    weight_table,
)
from .coarse import (
    event_probability,
    intra_branch_sum,
    product_sum,
    verify_intra_additivity,
    verify_product_additivity,
)
from .dynamics import (
    ConstantHamiltonian,
    EvolutionProvider,
    PiecewiseUnitary,
    TrivialEvolution,
)
from .errors import (
    EmbeddingError,
    InvalidFamilyError,
    ParseError,
    TransBranchError,
)
from .fileio import export_dot, load_document, parse_family, serialize_family
from .hpo import (
    HistoryProjector,
    HPOFamily,
    embed,
    embed_family,
    extended_weight,
    is_homogeneous,
    is_hpo_family,
    isham_counterexample,
    isham_histories,
    sum_hpo,
)
from .linalg import (
    DEFAULT_TOL,
    adjoint,
    hs_inner,
    is_decomposition,
    is_density_matrix,
    is_hermitian,
    is_projector,
    is_unitary,
    kron,
    kron_all,
    maximally_mixed,
    projector_onto,
)
from .structure import (
    ROOT_ID,
    BranchingFamily,
    HistorySequence,
    Moment,
    ValidationIssue,
    ValidationReport,
    from_product,
    new_family,
)

__version__ = "0.1.0"

__all__ = [
    "BranchingFamily",
    "ConstantHamiltonian",
    "DEFAULT_TOL",
    "EmbeddingError",
    "EvolutionProvider",
    "HPOFamily",
    "HistoryProjector",
    "HistorySequence",
    "InvalidFamilyError",
    "Moment",
    "ParseError",
    "PiecewiseUnitary",
    "ROOT_ID",
    "TransBranchError",
    "TrivialEvolution",
    "ValidationIssue",
    "ValidationReport",
    "adjoint",
    "chain_operator",
    "decoherence_matrix",
    "embed",
    "embed_family",
    "event_probability",
    "evolved_state",
    "export_dot",
    "extended_weight",
    "family_decoherence_matrix",
    "from_product",
    "hs_inner",
    "intra_branch_sum",
    "is_consistent",
    "is_decomposition",
    "is_density_matrix",
    "is_dynamically_impossible",
    "is_hermitian",
    "is_homogeneous",
    "is_hpo_family",
    "is_projector",
    "is_unitary",
    "is_weakly_consistent",
    "isham_counterexample",
    "isham_histories",
    "kron",
    "kron_all",
    "load_document",
    "maximally_mixed",
    "new_family",
    "parse_family",
    "product_sum",
    "projector_onto",
    "serialize_family",
    "sum_hpo",
    "verify_intra_additivity",
    "verify_product_additivity",
    "weight",
    "weight_table",
]
