"""Exact computation with classical and quantum sl(2) weight modules.

Construction of the finite-dimensional modules F_n, truncated Verma
modules, and Rasskazova's V(beta, lambda, n); tensor products under the
classical and quantum coproducts; Clebsch-Gordan decomposition; exact
extraction of highest-weight vectors by fraction-free elimination; and
evaluation of the explicit highest-weight transfer formula against the
nullspace oracle.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .qarith import (
    ExactDivisionError,
    LaurentPoly,
    lp_gcd,
    q_binom,
    q_fact,
    q_int,
    specialize_one,
    v,
)
from .modrep import (
    CLASSICAL,
    QUANTUM,
    Flavor,
    RasskazovaParams,
    RelationFailure,
    RelationReport,
    Vector,
    WeightModule,
    apply,
    check_relations,
    corrupt_one_entry,
    finite_dim_classical,
    finite_dim_quantum,
    rasskazova,
    verma_classical,
)
from .tensorcg import (
    ComparisonReport,
    Decomposition,
    DecompositionError,
    Interpretation,
    NullspaceError,
    WEIGHT_MATCHED,
    cg_decompose,
    decompose_by_character,
    highest_weight_vector,
    highest_weight_vectors,
    phi_vector,
    phi_vs_oracle,
    tensor,
    weight_spaces,
)

__all__ = [
    "ExactDivisionError",
    "LaurentPoly",
    "lp_gcd",
    "q_binom",
    "q_fact",
    "q_int",
    "specialize_one",
    "v",
    "CLASSICAL",
    "QUANTUM",
    "Flavor",
    "RasskazovaParams",
    "RelationFailure",
    "RelationReport",
    "Vector",
    "WeightModule",
    "apply",
    "check_relations",
    "corrupt_one_entry",
    "finite_dim_classical",
    "finite_dim_quantum",
    "rasskazova",
    "verma_classical",
    "ComparisonReport",
    "Decomposition",
    "DecompositionError",
    "Interpretation",
    "NullspaceError",
    "WEIGHT_MATCHED",
    "cg_decompose",
    "decompose_by_character",
    "highest_weight_vector",
    "highest_weight_vectors",
    "phi_vector",
    "phi_vs_oracle",
    "tensor",
    "weight_spaces",
    "__version__",
]
