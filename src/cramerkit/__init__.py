"""Exact linear solving by signed permutation sums, plus a proof checker
that exhaustively verifies the underlying cancellation argument and emits
machine-readable pairing certificates.

Everything is exact: arbitrary-precision rationals and integer-coefficient
polynomials, no floating point anywhere.
"""

from importlib import import_module

# Each public name, under the module that defines it.  A bare
# `import cramerkit` loads no submodule; a name loads its module on first
# use (PEP 562), so a CLI child compiles only the modules it runs.
_MODULES = {
    "algebra": (
        "Polynomial",
        "Rational",
        "Scalar",
        "Symbol",
        "a_symbol",
        "b_symbol",
        "render_scalar",
    ),
    "cramer": (
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
    ),
    "involution": (
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
    ),
    "oracle": ("bareiss_det", "bareiss_solve", "cofactor_det"),
    "perm": (
        "MAX_N_DEFAULT",
        "Permutation",
        "SizeLimitError",
        "enumerate_permutations",
        "inversions",
        "make_permutation",
        "position_of",
        "sign",
        "transpose_positions",
    ),
}
_OWNER = {name: module for module, names in _MODULES.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name: str):
    if name in _MODULES:  # the submodule itself, after a bare `import cramerkit`
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *_OWNER})
