"""Solvability of linear equation systems over finite groups and rings.

The package follows the constructive reduction chain: two-sided systems
over non-commutative rings and systems over abelian groups reduce to
commutative rings; commutative rings decompose into local summands; ordered
local rings reduce to cyclic groups Z_{p^n}; and chain-ring systems are
decided by a Hermite normal form with dual witnesses.  Matrix algebra over
Galois rings (inverse, determinant, and the characteristic polynomial by
Berkowitz's division-free recursion) rides on the same structure theory.
"""

from .errors import (
    CapacityError,
    InternalError,
    InvalidCertificate,
    InvalidParameter,
    NotARing,
    PreconditionViolation,
    RingsolveError,
    SpecParseError,
    Unsupported,
    UnsupportedRing,
)
from .linsys import (
    Certificate,
    GroupSystem,
    HermiteResult,
    LinSystem,
    NumericalSystem,
    TwoSidedSystem,
    UnsolvableWitness,
    eval_system,
    hermite_normal_form,
    solve,
    solve_chain,
    solve_commutative,
    solve_group,
    solve_twosided,
    verify_certificate,
)
from .matalg import (
    CharPoly,
    Matrix,
    charpoly_galois,
    determinant,
    gl_order,
    gl_order_local,
    inverse,
    is_invertible,
    mat_add,
    mat_mul,
    mat_pow,
)
from .reductions import (
    ReductionOutput,
    and_compose,
    build_phi_ring,
    collapse_nested,
    complement_chain,
    group_to_ring,
    normal_form,
    or_compose,
    project_to_local,
    ring_to_cyclic,
    twosided_to_numerical,
)
from .ring import (
    AbelianGroup,
    FiniteRing,
    GroupElement,
    Poly,
    RingElement,
    build_cyclic_group,
    build_poly_quotient,
    build_product,
    build_product_group,
    build_table_group,
    build_table_ring,
    build_zmod,
    characteristic,
    group_decompose_cyclic,
    idempotents,
    nilpotency,
    units,
)
from .structure import (
    ChainData,
    GaloisRep,
    LocalData,
    RingOrder,
    base,
    canonical_order,
    canonical_params,
    chain_data,
    decompose_local,
    galois_representation,
    is_galois_ring,
    is_local,
    minimal_generators_maximal_ideal,
    teichmuller_set,
)
from .sysio import parse_group_spec, parse_ring_spec

__all__ = [name for name in dir() if not name.startswith("_")]
