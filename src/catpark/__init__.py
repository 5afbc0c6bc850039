"""Parking distributions on regular caterpillar trees.

Enumeration and exact counting of bounded nondecreasing sequences, the
caterpillar parking model and its isomorphism with those sequences, the
first-return decomposition with its involution and rebuild bijection, exact
polynomial/series machinery for the statistic generating functions, and a
verification harness that checks every identity against brute force.

Importing the package loads none of its modules: ``_EXPORTS`` maps each
public name to the module that defines it, and the module ``__getattr__``
imports that module on the name's first use (PEP 562).  A ``catpark`` call
starts a fresh interpreter, so what it imports is paid on every call:
``catpark.cli`` loads only what its verbs use on every call, and a verb
that needs more imports it itself (see the ``cli`` module docstring).
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the catpark module that defines it
_EXPORTS = {name: module for module, names in {
    "caterpillar": (
        "CaterpillarTree", "ParkingOutcome", "build_caterpillar",
        "enumerate_caterpillar_pk", "from_lattice_path", "is_tree_pk",
        "simulate", "theta", "theta_inv", "to_lattice_path"),
    "decomposition": (
        "FirstReturnDecomposition", "decompose", "eta", "eta_inv", "f_stat",
        "first_fixed_point", "g_stat", "recompose", "tau", "u_luck",
        "u_omega"),
    "engine": (
        "JointCountTensor", "fuss_catalan_series", "gamma_poly_brute",
        "gamma_series_closed", "h_decompose", "h_series",
        "joint_count_tensor", "multi_stat_poly_brute", "r_poly_brute",
        "r_series_closed", "verify_convolution_identity",
        "verify_functional_equation", "verify_multi_stat_product",
        "verify_thm_rec"),
    "errors": (
        "CatparkError", "EnumerationCapError", "HBasisError",
        "InvalidCompositionError", "NonMembershipError"),
    "harness": ("run_verification",),
    "kernels": ("BACKEND",),
    "polynomials": ("MultiPoly", "complete_homogeneous"),
    "sequences": (
        "BoundFamily", "canonical_family", "count_u_pk", "enumerate_u_pk",
        "fuss_catalan", "is_u_pk"),
    "series": ("TruncatedSeries",),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
