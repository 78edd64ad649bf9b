"""Numerical tolerances: one frozen default, overridable per call.

Every numerical predicate reads its bounds from a ``Tolerances``. A field
bounds a condition that an input or a certified value must meet: membership
(SO(n), S_p, a fiber in its plane) or distance from a branch or a
singularity. None bounds the agreement of two routes to one value (a canonical
form rebuilding its matrix, ``dp_log_full`` inverting ``dp_exp_full``); no
map tests that on each call, and ``verify`` checks it under its own bounds.
The rank cutoff of ``orthonormalize`` is not a field either: it is the
fixed constant ``matcore._RANK_TOL``.
Callers pass their own, built as ``Tolerances(orth=...)`` or
``dataclasses.replace(default_tolerances(), orth=...)``; an unknown name is
a ``TypeError`` of either. The CLI builds one the second way from the
``--tol.NAME`` flags of each subcommand, one per field its maps read, which
argparse has already checked by name. Every ``tol`` is a ``Tolerances``: a
``tol`` left out is the shared ``default_tolerances()``, and ``None`` is not
one. Every field is a finite positive number, checked once at construction,
so a bound that no residual can exceed (NaN, +inf) or that every residual
exceeds (0, negative) is never built.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle threaded through every numerical predicate."""

    orth: float = 1e-9       # orthogonality / determinant checks
    invol: float = 1e-8      # |S - S^T|, |S^2 - I| of S = R J; sigma residual / (1 + |X|)
    branch: float = 1e-6     # distance from the log branch boundary at pi
    sing: float = 1e-9       # singularity cutoff for the half-angle factor
    plane: float = 1e-8      # projector distance of planes and lines
    fiber: float = 1e-9      # |(I - P) Y| / (1 + |Y|): bundle_point, CartanMotion

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not 0 < value < math.inf:  # also false for NaN
                raise ValueError(f"tolerance {f.name} must be a finite positive number, got {value!r}")


_DEFAULT = Tolerances()


def default_tolerances() -> Tolerances:
    """The default tolerances: one shared frozen ``Tolerances()``."""
    return _DEFAULT
