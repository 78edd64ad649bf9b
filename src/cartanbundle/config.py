"""Numerical tolerances: one frozen default, overridable per call.

Every numerical predicate reads its bounds from a ``Tolerances``. Most
fields bound a condition that an input or a certified value must meet:
membership (SO(n), S_p, a fiber in its plane) or distance from a branch.
One bounds the agreement of two routes to one value: ``plane`` bounds the
projector distance of ``plane_equal`` and of three ``verify`` rows
(``grassmann.cartan_roundtrips``, ``grassmann.rho0_equivariance`` and
``projective.half_angle_line``). Other such agreements (a canonical form
rebuilding its matrix, ``dp_log_full`` inverting ``dp_exp_full``) are
tested by no map on each call; ``verify`` checks them under its own bounds.
Three cutoffs are fixed constants, not fields: the rank cutoff of
``orthonormalize`` (``matcore._RANK_TOL``), the half-angle factor below
which ``y_omega_solve`` is singular (``liegroup._FACTOR_TOL``) and the sine
below which a principal pair gets no U column (``grassmann._SINE_TOL``).
Callers pass their own, built as ``Tolerances(orth=...)`` or
``dataclasses.replace(default_tolerances(), orth=...)``; an unknown name is
a ``TypeError`` of either. The CLI builds one the second way from the
``--tol.NAME`` flags of each subcommand, one per field its maps read, which
argparse has already checked by name. Every ``tol`` is a ``Tolerances``: a
``tol`` left out is the shared ``default_tolerances()``, and ``None`` is not
one. Every field is a finite positive number, checked once at construction,
so a bound that no residual can exceed (NaN, +inf) or that every residual
exceeds (0, negative) is never built. A field must be a real number by the
rule of ``matcore.check_finite_scalar``, which one reader holds for both
(``_real_scalar``: a Python or NumPy int or float, not a bool, nor a
string, a complex number or an array), else ``ValueError``, and is kept
as a Python float: so a test of one operand against it gives a Python
``bool``, whatever number it was given as.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np


def _real_scalar(x) -> float | None:
    """x as a Python float if it is a real scalar, else None; an integer past the float range is inf.

    The one reader of a real scalar, for ``Tolerances`` and
    ``matcore.check_finite_scalar``, each of which raises its own error
    where it gives None. The real scalars are the Python and NumPy ints and
    floats, whose NumPy dtype ``matcore._real`` accepts; Python's bool is
    an int, so it is refused by name.
    """
    if isinstance(x, bool) or not isinstance(x, (float, int, np.floating, np.integer)):
        return None
    try:
        return float(x)
    except OverflowError:  # an integer past the float range, such as 10**400
        return math.inf


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle threaded through every numerical predicate."""

    orth: float = 1e-9       # |R^T R - I|, |det R - 1| per n; the logs may take det's sign from their split
    invol: float = 1e-8      # |S - S^T|, |S^2 - I| of S = R J; sigma residual / (1 + |X|)
    branch: float = 1e-6     # distance from the log branch boundary at pi
    plane: float = 1e-8      # projector distance of planes and lines
    fiber: float = 1e-9      # |(I - P) Y| / (1 + |Y|): bundle_point, CartanMotion

    def __post_init__(self):
        for f in dataclasses.fields(self):
            given = getattr(self, f.name)
            value = _real_scalar(given)
            if value is None or not 0 < value < math.inf:  # also false for NaN
                raise ValueError(f"tolerance {f.name} must be a finite positive int or float, not a bool, "
                                 f"got {given!r}")
            object.__setattr__(self, f.name, value)


_DEFAULT = Tolerances()


def default_tolerances() -> Tolerances:
    """The default tolerances: one shared frozen ``Tolerances()``."""
    return _DEFAULT
