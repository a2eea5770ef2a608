"""Exact linear solving by signed permutation sums, plus a proof checker
that exhaustively verifies the underlying cancellation argument and emits
machine-readable pairing certificates.

Everything is exact: arbitrary-precision rationals and integer-coefficient
polynomials, no floating point anywhere.
"""

from .algebra import (
    Polynomial,
    Rational,
    Scalar,
    Symbol,
    a_symbol,
    b_symbol,
    render_scalar,
)
from .cramer import (
    LinearSystem,
    ResidualError,
    SingularSystemError,
    Solution,
    big_x,
    all_big_x,
    generic_system,
    rational_system,
    solve,
    verify_identity,
    weight_w0,
    weight_wj,
)
from .involution import (
    FElement,
    PairingCertificate,
    build_certificate,
    certificate_from_dict,
    certificate_to_dict,
    check_fact1,
    check_fact2,
    is_good,
    t_involution,
    validate_certificate,
    weight_W,
)
from .oracle import bareiss_det, bareiss_solve, cofactor_det
from .perm import (
    MAX_N_DEFAULT,
    Permutation,
    SizeLimitError,
    enumerate_permutations,
    inversions,
    make_permutation,
    position_of,
    sign,
    transpose_positions,
)

__all__ = [
    "Polynomial",
    "Rational",
    "Scalar",
    "Symbol",
    "a_symbol",
    "b_symbol",
    "render_scalar",
    "LinearSystem",
    "ResidualError",
    "SingularSystemError",
    "Solution",
    "big_x",
    "all_big_x",
    "generic_system",
    "rational_system",
    "solve",
    "verify_identity",
    "weight_w0",
    "weight_wj",
    "FElement",
    "PairingCertificate",
    "build_certificate",
    "certificate_from_dict",
    "certificate_to_dict",
    "check_fact1",
    "check_fact2",
    "is_good",
    "t_involution",
    "validate_certificate",
    "weight_W",
    "bareiss_det",
    "bareiss_solve",
    "cofactor_det",
    "MAX_N_DEFAULT",
    "Permutation",
    "SizeLimitError",
    "enumerate_permutations",
    "inversions",
    "make_permutation",
    "position_of",
    "sign",
    "transpose_positions",
]
