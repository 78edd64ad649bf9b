"""Numerical tolerances, overridable per call and globally via environment."""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from functools import lru_cache

ENV_TOL_SCALE = "CARTAN_BUNDLE_TOL_SCALE"


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

    def scaled(self, factor: float) -> "Tolerances":
        if factor <= 0:
            raise ValueError("tolerance scale must be positive")
        return Tolerances(
            **{f.name: getattr(self, f.name) * factor for f in dataclasses.fields(self)}
        )

    def with_overrides(self, overrides: dict) -> "Tolerances":
        names = {f.name for f in dataclasses.fields(self)}
        unknown = set(overrides) - names
        if unknown:
            raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
        for name, value in overrides.items():
            if value <= 0:
                raise ValueError(f"tolerance {name} must be positive")
        return dataclasses.replace(self, **overrides)


def default_tolerances() -> Tolerances:
    """Default tolerances, scaled by CARTAN_BUNDLE_TOL_SCALE when set.

    The variable is read on every call; the result is memoized per value.
    """
    return _tolerances_for(os.environ.get(ENV_TOL_SCALE))


@lru_cache(maxsize=8)
def _tolerances_for(scale: str | None) -> Tolerances:
    tol = Tolerances()
    if scale:
        tol = tol.scaled(float(scale))
    return tol
