"""Canonical vector bundles over Grassmannians as Cartan models in SE(n).

Numerical realization of the correspondence between the bundle of
(p-plane, in-plane vector) pairs and the symmetric-space Cartan model
{g in SE(n) : sigma(g) = g^{-1}} for the involution sigma(R, X) =
(J R J, J X), including closed-form exp/log on se(n) and the transitive
SE(n) action on the bundle.
"""

from types import ModuleType as _ModuleType

from .bundle import (
    BundlePoint,
    CartanMotion,
    DpElement,
    bundle_act,
    bundle_point,
    double_projection,
    dp_exp_full,
    dp_log_full,
    find_transporter,
    in_Q,
    is_fixed_point,
    rho,
    rho_inv,
    sigma,
    tau,
    twisted_act,
)
from .config import Tolerances, default_tolerances
from .errors import (
    BranchAmbiguityError,
    CutLocusError,
    DegenerateSpanError,
    DimensionMismatchError,
    GeometryError,
    IllConditionedSpectrumError,
    NotInCartanModelError,
    NotOrthogonalSymmetryError,
    SingularMapError,
)
from .grassmann import (
    CartanRotation,
    DpGenerator,
    Plane,
    Signature,
    cartan_embed0,
    coordinate_plane,
    dp_exp,
    dp_log0,
    in_Q0,
    plane_equal,
    plane_from_frame,
    plane_from_span,
    principal_angles,
    rho0,
    rotate_plane,
    sigma0,
    twisted_act0,
)
from .liegroup import (
    Motion,
    Screw,
    identity_motion,
    se_bracket,
    se_exp,
    se_inv,
    se_log,
    se_mul,
    so_exp,
    so_log,
    y_omega,
    y_omega_solve,
)
from .matcore import (
    CanonicalRotationForm,
    basis_vector,
    canonical_rotation_form,
    complete_to_special_orthogonal,
    eigenspace_of_symmetric_involution,
    orthonormalize,
    projector,
    skew_canonical_form,
    skew_wedge,
)
from .projective import (
    half_angle_line,
    line_bundle_exp,
    moebius_grid,
    rotation_in_plane,
)
from .verify import VerifyConfig, VerifyReport, run_verification

__version__ = "0.1.0"

# Every public name bound above, less the submodules that the imports bind.
__all__ = sorted(k for k, v in globals().items() if not k.startswith("_") and not isinstance(v, _ModuleType))
