"""Independent brute-force oracles used only by the tests.

These deliberately avoid the canonical-form code paths they check. The
series exponential and the SVD projector are the ones ``cartanbundle.verify``
ships as its own oracles, re-exported here under the test names.
"""

import numpy as np

from cartanbundle.liegroup import y_omega
from cartanbundle.verify import series_exp as series_exp_oracle
from cartanbundle.verify import svd_projector as svd_projector_oracle  # noqa: F401


def y_series_oracle(omega, v, terms=50):
    """Translation series v + omega v / 2! + omega^2 v / 3! + ..."""
    acc = np.zeros_like(v, dtype=float)
    term = np.asarray(v, dtype=float)
    for k in range(1, terms + 1):
        acc = acc + term
        term = omega @ term / (k + 1)
    return acc


def homogeneous_exp_oracle(omega, v, terms=50):
    """Series exponential of the (n+1) x (n+1) screw block matrix."""
    n = omega.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = omega
    M[:n, n] = v
    return series_exp_oracle(M, terms)


def dp_log_v_oracle(omega, X, p):
    """Least-squares pull-back of X through Y_omega restricted to span(e_1..e_p).

    Builds the restricted map column by column from the generic ``y_omega``.
    """
    n = omega.shape[0]
    M = np.column_stack([y_omega(omega, np.eye(n)[:, k]) for k in range(p)])
    v, *_ = np.linalg.lstsq(M, X, rcond=None)
    return v
