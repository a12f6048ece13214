"""liering: exact integer computations in the free Lie ring on two letters.

The package builds Lyndon-Shirshov bases, normalizes bracket expressions
onto them by bracketing Lyndon coordinates from the leaves up, computes
the integer kernel lattices of the pair map (A, B) -> [A,a] + [B,b]
bidegree by bidegree, and generates and re-verifies closed-form families
of bracket identities.
"""

from .algebra import (
    AssocPoly,
    BidegreeError,
    BracketExpr,
    InconsistencyError,
    LieElement,
    assoc_expand,
    basis_expansion,
    bracket,
    bracket_with_letter,
    engel,
    engel_expr,
    left_normed,
    normalize,
    parse_expr,
)
from .dims import (
    kernel_dim,
    kernel_dim_a2,
    kernel_dim_a3,
    kernel_dim_bigraded,
    lie_dim,
    lie_dim_bigraded,
)
from .families import (
    append_b_rewrite,
    family_coefficient,
    i2_certificate,
    i33_certificate,
    partial_sums,
    qbad_certificate,
)
from .kernels import (
    IdentityCertificate,
    MembershipReport,
    SurjectivityReport,
    check_surjective,
    kernel_certificates,
    kernel_lattice,
    lattice_membership,
    pair_image,
    pair_matrix,
    verify_certificate,
)
from .oracle import MatrixAssignment, OracleReport, oracle_check, random_assignment
from .words import is_lyndon, lyndon_bracket, lyndon_words, standard_factorization
from .zlinalg import IntMatrix, KernelLattice, lattice_equal

__version__ = "0.1.0"
