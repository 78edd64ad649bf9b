"""Numerical tolerances: one frozen default, overridable per call.

Every numerical predicate reads its bounds from a ``Tolerances``. Callers pass
their own (the CLI builds one from its ``--tol.NAME`` flags); otherwise the
predicate uses ``default_tolerances()``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle threaded through every numerical predicate.

    ``recon`` is a per-dimension bound: reconstruction residuals are compared
    against ``recon * n``.
    """

    orth: float = 1e-9       # orthogonality / determinant checks
    invol: float = 1e-8      # |S - S^T|, |S^2 - I| of S = R J; sigma residual / (1 + |X|)
    recon: float = 1e-10     # canonical-form reconstruction, per dimension
    rank: float = 1e-9       # relative smallest-singular-value cutoff
    branch: float = 1e-6     # distance from the log branch boundary at pi
    sing: float = 1e-9       # singularity cutoff for the half-angle factor
    plane: float = 1e-8      # projector distance of planes and lines
    fiber: float = 1e-9      # |(I - P) Y| / (1 + |Y|): bundle_point, CartanMotion, dp_log_full

    def with_overrides(self, overrides: dict) -> "Tolerances":
        names = {f.name for f in dataclasses.fields(self)}
        unknown = set(overrides) - names
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        for name, value in overrides.items():
            if value <= 0:
                raise ValueError(f"tolerance {name} must be positive")
        return dataclasses.replace(self, **overrides)


_DEFAULT = Tolerances()


def default_tolerances() -> Tolerances:
    """The default tolerances: one shared frozen ``Tolerances()``."""
    return _DEFAULT
