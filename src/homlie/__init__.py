"""Exact computation with Hom-Lie superalgebras and their operator spaces."""

from .algebra import (
    AlgebraSpec,
    IdentityFailure,
    ValidationReport,
    bracket,
    center,
    derived_subalgebra,
    parity_sign,
    validate,
)
from .catalog import BUILTIN, load_builtin, resolve
from .extension import (
    ExtendedAlgebra,
    build_extended,
    phi,
    verify_embedding_decomposition,
    verify_phi_properties,
)
from .fileformat import (
    AlgebraFileError,
    algebra_from_dict,
    algebra_to_dict,
    parse_algebra,
    parse_map_tuple,
    write_algebra,
)
from .linalg import (
    Matrix,
    Subspace,
    contains,
    frac,
    nullspace,
    rank,
    rref,
    subspace_intersection,
    subspace_sum,
)
from .spaces import (
    Check,
    CheckReport,
    GradedMap,
    MapSpace,
    SpaceKind,
    check_bracket_laws,
    check_inclusion_chain,
    check_qc_structure,
    compose,
    decompose_generalized,
    jordan_product,
    project_component,
    solve_space,
    space_contains,
    supercommutator,
)

__version__ = "0.1.0"
