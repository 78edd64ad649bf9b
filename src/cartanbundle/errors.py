"""Exception hierarchy with machine-readable error codes.

Every domain error carries a stable ``code`` string so the CLI can emit
structured error JSON without string-matching messages. Each is raised by a
check that a value meets a condition (the input domain, SO(n), a Cartan
model, distance from a branch or a singularity), never by a map comparing
its result with a second route to it: ``verify`` checks those identities
and reports them as failed properties.
"""

from __future__ import annotations


class GeometryError(ValueError):
    """Base class for all domain errors raised by this package."""

    code = "geometry_error"

    def __init__(self, detail: str, **context):
        super().__init__(detail)
        self.detail = detail
        self.context = context


class DimensionMismatchError(GeometryError):
    code = "dimension_mismatch"


class DegenerateSpanError(GeometryError):
    """Spanning set is (numerically) rank deficient."""

    code = "degenerate_spanning_set"


class IllConditionedSpectrumError(GeometryError):
    """Eigenvalue pairing of an orthogonal matrix failed numerically."""

    code = "ill_conditioned_spectrum"


class NotOrthogonalSymmetryError(GeometryError):
    """Input is not a symmetric involution within tolerance."""

    code = "not_an_orthogonal_symmetry"


class BranchAmbiguityError(GeometryError):
    """Rotation has an angle at the branch boundary pi; the log is not unique."""

    code = "log_branch_ambiguity"


class SingularMapError(GeometryError):
    """The translation-transport map is singular for the given angles."""

    code = "y_omega_singular"


class NotInCartanModelError(GeometryError):
    code = "not_in_cartan_model"


class CutLocusError(GeometryError):
    """Principal angle at pi/2: the subspace-geodesic generator is not unique."""

    code = "cut_locus"
