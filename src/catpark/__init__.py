"""Parking distributions on regular caterpillar trees.

Enumeration and exact counting of bounded nondecreasing sequences, the
caterpillar parking model and its isomorphism with those sequences, the
first-return decomposition with its involution and rebuild bijection, exact
polynomial/series machinery for the statistic generating functions, and a
verification harness that checks every identity against brute force.
"""

from catpark.caterpillar import (
    CaterpillarTree,
    ParkingOutcome,
    build_caterpillar,
    enumerate_caterpillar_pk,
    from_lattice_path,
    is_tree_pk,
    simulate,
    theta,
    theta_inv,
    to_lattice_path,
)
from catpark.decomposition import (
    FirstReturnDecomposition,
    decompose,
    eta,
    eta_inv,
    f_stat,
    first_fixed_point,
    g_stat,
    recompose,
    tau,
    u_luck,
    u_omega,
)
from catpark.engine import (
    JointCountTensor,
    fuss_catalan_series,
    gamma_poly_brute,
    gamma_series_closed,
    h_decompose,
    h_series,
    joint_count_tensor,
    multi_stat_poly_brute,
    r_poly_brute,
    r_series_closed,
    verify_convolution_identity,
    verify_functional_equation,
    verify_multi_stat_product,
    verify_thm_rec,
)
from catpark.errors import (
    CatparkError,
    EnumerationCapError,
    HBasisError,
    InvalidCompositionError,
    NonMembershipError,
)
from catpark.harness import run_verification
from catpark.kernels import BACKEND
from catpark.polynomials import MultiPoly, complete_homogeneous
from catpark.sequences import (
    BoundFamily,
    canonical_family,
    count_u_pk,
    enumerate_u_pk,
    fuss_catalan,
    is_u_pk,
)
from catpark.series import TruncatedSeries

__version__ = "0.1.0"
