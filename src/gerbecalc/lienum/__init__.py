"""Numerical differential geometry on SU(2) and SU(3)."""

from .classes import (
    BiconjugacyChart,
    ConjugacyChart,
    alcove_barycentric,
    alcove_projection,
    biconjugacy_membership,
    eigenvalue_gap,
    exp_alcove,
    omega_lambda,
    varpi,
)
from .core import (
    MAX_QUAD_POINTS,
    AlgebraVector,
    ExpChart,
    GroupPoint,
    LieNumError,
    algebra_from_coords,
    bracket,
    inner,
    matrix_to_quat,
    quat_conj,
    quat_mul,
    quat_to_matrix,
    random_algebra,
    random_group,
    su_basis,
    theta_volume,
)
from .forms import (
    calibrate_H,
    eval_H,
    fd_exterior_derivative,
    integrate_H_SU2,
    maurer_cartan,
    maurer_cartan_exact,
    theta_su2,
)
from .wzw import (
    BallQuadrature,
    amplitude_ratio,
    check_shared_boundary,
    constant_map,
    equatorial_boundary,
    northern_extension,
    pullback_H_integral,
    southern_extension,
    term_amplitude,
    wzw_amplitude,
)

__all__ = [name for name in dir() if not name.startswith("_")]
