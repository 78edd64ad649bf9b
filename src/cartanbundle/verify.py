"""Randomized property harness.

Every invariant of the library has a named property here; ``run_verification``
evaluates them on seeded samples and aggregates a report. Each property is a
``Row`` of ``PROPERTIES``, listed as ``(name, row)``, and draws from its own
stream, whose index is the row's.

A row is a check, a bound and a draw. ``draw(cfg, rng, count)`` draws all of
the row's samples at once, as stacks whose index i is sample i, or, for
samples of several dimensions, as one stack per dimension: ``count`` =
``cfg.samples`` samples (the wedge row draws index pairs, uniform over the
C(n, 2) pairs, and the Moebius seam row windings). A check returns only
its errors: one, or a tuple in a fixed order.
``Row.errors`` keeps every sample's errors, one column per error with entry
i for sample i. Because each property draws its samples grouped by kind,
the samples of a run of N are in general not the first N samples of a
longer run.

``bound(cfg)`` gives the row's bound, or its tuple of bounds in the same
order as the errors, so every bound is stated once, in the table. Calling
the row, ``row(cfg, rng) -> (samples, max_error, passed)``, is the only
place where an error meets its bound: the row passes if every error is at
most its bound, so a NaN fails, and ``max_error`` is the worst error. Two
kinds of comparison are rewritten to fit that form. A library predicate that
a check exercises (``in_Q0``, ``in_Q``, ``is_fixed_point``) enters as the
error ``float(not holds)`` against bound 0, so a false predicate fails its
row with a finite ``max_error``. A comparison scaled per sample, as by
1 + |X|, enters as the relative error against a fixed bound. Errors are
combined with ``np.maximum`` and ``np.max``, which keep a NaN.

Every row checks whole stacks: its check, ``check(cfg, *stacks)``, calls
the public maps on them, and names no private attribute of ``bundle``,
``grassmann``, ``liegroup`` or ``projective``. A stack of certified values
is one ``Plane``, ``BundlePoint``, ``CartanRotation``, ``CartanMotion``,
``DpGenerator`` or ``DpElement`` whose arrays carry the stacks' leading
shape, so the constructors and the maps of certified values take the
stacks as the exponentials and the predicates do. Each element of a stack
comes out bit for bit as its single call, with every check of that call
(domain, skew, SO(n), symmetric involution, frame, fiber, generator block,
unit direction, branch, singular factor, ``_sure`` and its one fallback,
S_p and cut locus); an element that fails raises the single call's error
class with its ``index`` in the context, and fails its row. Besides the
public maps, the checks read ``matcore``'s kernels of the one-record
canonical forms (``_rotation_form``, ``_eigenspace``), its norm, projector
and wedge. The line rows and the seam row call the public line maps on
their stacks.
Every check sees one dimension: a row that draws samples of several
dimensions keeps the stack that its sampler returns for each dimension,
with the indices of that dimension's samples in the draw
(``_per_dimension``, a ``_Mixed``), and is never regrouped per sample.
``Row.errors`` runs the check once per dimension, scatters its errors to
those indices, and maps a raise's ``index`` back to the sample's index in
the full draw (``_by_dimension``). The three
``projective`` rows run under the default tolerances, which the public
line maps read. The oracles ``series_exp`` and
``svd_projector`` take stacks too, and ``svd_projector`` keeps the rank
of each matrix; the canonical forms and the involution eigenspaces of a
stack vary in their count of angles and their dimension, and their
products are grouped by it. The line rows' oracle (``_paper_lines``)
takes ``np.cos`` and ``np.sin``, whose bits are those of ``math.cos`` and
``math.sin``.
``tests/test_verify.py`` keeps one-sample checks, on the public maps, of
most rows, and requires the same errors bit for bit.

Every certified value a check builds from raw samples (its planes, bundle
points, ``tau`` outputs and Cartan rotations and motions) is checked under
``cfg.tol``, as is the acting rotation of each twisted action
(``twisted_act``, ``twisted_act0``); the maps of certified values reuse
it. So an override of any tolerance reaches every check that reads it.

The truncated matrix-power-series exponential lives here purely as a
verification oracle -- the production exponential is a function of one
real symmetric ``eigh``, of omega^T omega.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import bundle as bn
from . import grassmann as gr
from . import liegroup as lg
from . import matcore as mc
from . import projective as pj
from . import sampling as sp
from .config import Tolerances, default_tolerances
from .errors import GeometryError
from .liegroup import Motion, Screw


@dataclass(frozen=True)
class VerifyConfig:
    n: int = 4
    p: int = 2
    samples: int = 500
    seed: int = 0
    tol: Tolerances = default_tolerances()

    def __post_init__(self):
        self.sig  # Signature checks (n, p)
        if not (mc._is_int(self.samples) and self.samples >= 1 and mc._is_int(self.seed)):
            raise ValueError(f"config requires integers samples >= 1 and seed: {self.samples!r}, {self.seed!r}")
        if not isinstance(self.tol, Tolerances):
            raise ValueError(f"config requires a Tolerances for tol, got {self.tol!r}")

    @property
    def sig(self) -> gr.Signature:
        return gr.Signature(self.p, self.n - self.p)


@dataclass(frozen=True)
class PropertyResult:
    """One row's outcome: its name, samples drawn, worst error and verdict.

    An unchecked record: its fields are taken as given, and each map that
    reads them checks them.
    """

    name: str
    samples: int
    max_error: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "max_error": self.max_error,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerifyReport:
    """Every row's ``PropertyResult``, in table order, whether all passed, and the wall time.

    An unchecked record: its fields are taken as given, and each map that
    reads them checks them.
    """

    properties: tuple
    passed: bool
    wall_time_s: float

    def to_json(self) -> dict:
        return {
            "properties": [r.to_json() for r in self.properties],
            "pass": self.passed,
            "wall_time_s": self.wall_time_s,
        }


def series_exp(M: np.ndarray) -> np.ndarray:
    """Power-series matrix exponential to 50 terms, of M or of each of a stack (verification oracle only)."""
    acc = np.eye(M.shape[-1])
    term = np.eye(M.shape[-1])
    for k in range(1, 51):
        term = term @ M / k
        acc = acc + term
    return acc


def svd_projector(vectors: np.ndarray) -> np.ndarray:
    """Independent projector oracle via SVD range extraction, of a matrix or of each of a stack.

    Each matrix keeps its own rank r, the count of singular values above
    1e-12 max(1, largest): the matrices of each r share one product of
    their first r left singular vectors.
    """
    U, s, _ = np.linalg.svd(vectors, full_matrices=False)
    r, m = np.sum(s > 1e-12 * np.maximum(1.0, s[..., :1]), axis=-1), U.shape[-2]
    P = np.empty(U.shape[:-2] + (m, m))
    for k, at in mc._groups(r):
        Uk = U[at][..., :k]
        P[at] = Uk @ Uk.mT
    return P


def _motion_dist(a: Motion, b: Motion):
    """|H(a) - H(b)| for the homogeneous matrices, or one per motion of a stack."""
    return mc._norm(a.homogeneous() - b.homogeneous(), 2)


# ---------------------------------------------------------------- properties


def _errors(errors) -> tuple:
    """A check's errors as a tuple: one error stands alone."""
    return errors if isinstance(errors, tuple) else (errors,)


@dataclass(frozen=True)
class Row:
    """One property: its check, its bound and its draw.

    ``draw(cfg, rng, count)`` draws all of the row's samples at once, from
    the row's stream, as a tuple of stacks whose index i is sample i:
    ``count`` samples. The check, ``check(cfg, *stacks)``, gets arrays of
    one dimension. Where the draw's first entry is an array, it gets the
    whole stacks. Where it is a ``_Mixed`` of
    ``_per_dimension``, a mixed draw, that entry holds the stacks of each
    dimension as they were drawn, with their samples' indices; ``errors``
    calls the check once per dimension, on those stacks and the entries of
    the other stacks at those indices, and scatters its errors into the
    columns (``_by_dimension``). ``bound(cfg)`` gives one bound per error,
    in the same order.
    """

    check: Callable
    bound: Callable
    draw: Callable

    def errors(self, cfg: VerifyConfig, rng) -> tuple:
        """``(samples, columns)``: the number drawn, and one column per error, entry i from sample i."""
        stacks = self.draw(cfg, rng, cfg.samples)
        if isinstance(stacks[0], _Mixed):
            return len(stacks[0]), _by_dimension(self.check, cfg, *stacks)
        return len(stacks[0]), _errors(self.check(cfg, *stacks))

    def __call__(self, cfg: VerifyConfig, rng) -> tuple:
        """``(samples, max_error, passed)``, the one place where an error meets its bound.

        The row passes if every error is at most its bound, so a NaN fails,
        and ``max_error`` is the worst error (NaN if any is NaN).
        """
        samples, columns = self.errors(cfg, rng)
        worst = tuple(np.max(column) for column in columns)
        passed = all(e <= b for e, b in zip(worst, _errors(self.bound(cfg)), strict=True))
        return samples, np.max(worst), passed


@dataclass(frozen=True)
class _Mixed:
    """Samples of several dimensions, as drawn: ``groups`` holds (at, stacks) per dimension, ascending.

    ``at`` holds the indices in the draw of that dimension's samples,
    ascending, and ``stacks`` their tuple of stacks, entry j for sample
    ``at[j]``. Its length is the number of samples.
    """

    groups: tuple

    def __len__(self) -> int:
        return sum(len(at) for at, _ in self.groups)


def _per_dimension(dims: np.ndarray, draw) -> _Mixed:
    """Samples whose dimension is ``dims[i]``: one ``draw(nn, count)`` per dimension, ascending.

    ``draw`` returns a tuple of stacks for ``count`` samples of dimension
    ``nn``, which the result keeps as they are.
    """
    groups = []
    for nn in mc._distinct(dims):
        at = np.flatnonzero(dims == nn)
        groups.append((at, draw(int(nn), len(at))))
    return _Mixed(tuple(groups))


def _by_dimension(check, cfg, mixed: _Mixed, *stacks) -> tuple:
    """The error columns of a check on a mixed draw, run once per dimension of the samples (``Row.errors``).

    Each group of ``mixed`` goes to one call, ``check(cfg, *group_stacks,
    *(s[at] for s in stacks))``: its own stacks, of one dimension, then the
    entries of the draw's other stacks, whose entry i is sample i's, at its
    indices. Its errors go to those indices of the columns. A raise gets
    the sample's ``index`` in the full draw.
    """
    columns = None
    for at, group in mixed.groups:
        try:
            errors = _errors(check(cfg, *group, *(s[at] for s in stacks)))
        except GeometryError as e:
            if "index" in e.context:
                e.context["index"] = int(at[e.context["index"]])
            raise
        columns = columns or tuple(np.empty(len(mixed)) for _ in errors)
        for column, error in zip(columns, errors):
            column[at] = error
    return columns


def _frames(cfg, rng, count):
    return (sp.sample_frames(rng, cfg.n, cfg.p, count),)


def _rotations(cfg, rng, count):
    return (sp.sample_rotations(rng, cfg.n, count),)


def _motion_pairs(cfg, rng, count):
    return sp.sample_motions(rng, cfg.n, (count, 2))


def _point(cfg, F: np.ndarray, Y: np.ndarray) -> bn.BundlePoint:
    """The stacked bundle point (plane_from_frame(F), Y), certified under cfg.tol."""
    return bn.bundle_point(gr.plane_from_frame(F, cfg.tol), Y)


def _wedge_pairs(cfg, rng, count):
    """``count`` index pairs (i, j), 1 <= i < j <= n, each uniform over the C(n, 2) pairs."""
    i, j = np.triu_indices(cfg.n, 1)
    at = rng.integers(0, len(i), count)
    return i[at] + 1, j[at] + 1


def _wedge_antisymmetry(cfg, i, j):
    """|W + W^T| for each wedge W = e_i ^ e_j of R^n."""
    W = mc._wedge(i, j, cfg.n)
    return mc._norm(W + W.mT, 2)


def _projector(cfg, F):
    """The worse of |P P - P| and |P - P^T| for P the projector of each plane_from_frame(F)."""
    P = gr.plane_from_frame(F, cfg.tol).projector
    return np.maximum(mc._norm(P @ P - P, 2), mc._norm(P - P.mT, 2))


def _canonical_form(cfg, R):
    """|Q blockdiag(R(theta_i), I) Q^T - R| for the canonical form of each rotation."""
    Q, angles = mc._rotation_form(mc.check_special_orthogonal(R, cfg.tol))
    return mc._norm(Q @ mc._blocks(angles, R.shape[-1], rotation=True) @ Q.mT - R, 2)


def _completion(cfg, F):
    """The worse of |det A - 1| and |P_A - P| for A the completion to SO(n) of each plane's frame.

    P is the plane's projector and P_A that of the first p columns of A.
    """
    plane = gr.plane_from_frame(F, cfg.tol)
    A = mc.complete_to_special_orthogonal(plane.frame, cfg.tol)
    return np.maximum(np.abs(np.linalg.det(A) - 1.0), mc._norm(mc._projector(A[..., : cfg.p]) - plane.projector, 2))


def _involution_eigenspace(cfg, A):
    """|S F + F| for F the -1 eigenspace of each S = A J A^T; the frames of one dimension, k, share one product.

    ``eigh`` orders the eigenvalues ascending, so the kept columns, those
    near -1, are the first k of V, for k their count. They are taken with a
    mask, not a slice: the mask's copy holds column-major matrices, and
    ``matmul`` on a row-major view of the same values differs in the last
    bits from n = 32 on. A ``keep`` that is not those first k columns
    enters the error as 1, so the row checks which columns ``_eigenspace``
    keeps, not only how many.
    """
    S = A @ cfg.sig.matrix @ A.mT
    V, keep = mc._eigenspace(S, -1, cfg.tol)
    errors, cols = np.empty(len(A)), np.arange(A.shape[-1])
    for k, at in mc._groups(keep.sum(axis=-1)):
        F = V[at][..., cols < k]
        errors[at] = np.maximum(mc._norm(S[at] @ F + F, 2), (keep[at] != (cols < k)).any(axis=-1))
    return errors


def _group_axioms(cfg, R, X):
    """The worse of |(g1 g2) g3 - g1 (g2 g3)| and |g1 g1^{-1} - e|; R and X hold the triples."""
    g1, g2, g3 = (Motion(R[:, k], X[:, k]) for k in range(3))
    return np.maximum(
        _motion_dist(lg.se_mul(lg.se_mul(g1, g2), g3), lg.se_mul(g1, lg.se_mul(g2, g3))),
        _motion_dist(lg.se_mul(g1, lg.se_inv(g1)), lg.identity_motion(cfg.n)),
    )


def _exp_series(cfg, omega, v):
    """|exp(xi) - series_exp(xi)| for the screws xi = (omega, v)."""
    return mc._norm(lg.se_exp(Screw(omega, v)).homogeneous() - series_exp(Screw(omega, v).matrix()), 2)


def _y_omega_identity(cfg, omega, v):
    """|omega Y - (e^omega - I) v| for (e^omega, Y) = exp(omega, v), per sample."""
    g = lg.se_exp(Screw(omega, v))
    return mc._norm(np.matvec(omega, g.X) - np.matvec(g.R - np.eye(cfg.n), v), 1)


def _and_vectors(sample, *args):
    """The draw of ``sample(rng, n, count, *args)`` and ``count`` standard normal vectors of R^n."""

    def draw(cfg, rng, count):
        return sample(rng, cfg.n, count, *args), rng.standard_normal((count, cfg.n))

    return draw


def _y_omega_roundtrip(cfg, omega, v):
    return mc._norm(lg.y_omega_solve(omega, lg.y_omega(omega, v)) - v, 1)


def _log_exp_roundtrip(cfg, omega, v):
    g = lg.se_exp(Screw(omega, v))
    return _motion_dist(lg.se_exp(lg.se_log(g, cfg.tol)), g)


def _sigma0_automorphism(cfg, R):
    """(|sigma0(sigma0(R1)) - R1|, |sigma0(R1 R2) - sigma0(R1) sigma0(R2)|); R holds the pairs (R1, R2)."""
    R1, R2, sig = R[:, 0], R[:, 1], cfg.sig
    return (mc._norm(gr.sigma0(gr.sigma0(R1, sig), sig) - R1, 2),
            mc._norm(gr.sigma0(R1 @ R2, sig) - gr.sigma0(R1, sig) @ gr.sigma0(R2, sig), 2))


def _q0_invariance(cfg, B, A):
    """(1 if not ``in_Q0``, |(R' J)^2 - I|) for R' the twisted action of A on exp(B)."""
    sig, tol = cfg.sig, cfg.tol
    R = gr.dp_exp(gr.DpGenerator(sig.p, sig.q, B), tol).mat
    acted = gr.twisted_act0(A, R, sig, tol)
    M = acted @ sig.matrix
    return np.where(gr.in_Q0(acted, sig, tol), 0.0, 1.0), mc._norm(M @ M - mc._eye(cfg.n), 2)


def _frames_and_rotations(cfg, rng, count):
    return _frames(cfg, rng, count) + _rotations(cfg, rng, count)


def _grassmann_roundtrips(cfg, F, A):
    """(plane -> S_p0 -> plane, rotation -> plane -> S_p0).

    The plane's embedding is read back through the public constructor, and
    each rotation goes through it before its plane is embedded again.
    """
    sig, tol = cfg.sig, cfg.tol
    plane = gr.plane_from_frame(F, tol)
    back = gr.rho0(gr.CartanRotation(gr.cartan_embed0(plane).mat, sig, tol))
    R = gr.twisted_act0(A, np.broadcast_to(np.eye(cfg.n), A.shape), sig, tol)
    R2 = gr.cartan_embed0(gr.rho0(gr.CartanRotation(R, sig, tol))).mat
    return mc._norm(back.projector - plane.projector, 2), mc._norm(R2 - R, 2)


def _rho0_equivariance(cfg, F, A):
    """|rho0(A . R) - A rho0(R)| for R = cartan_embed0(F) and the twisted action, A . R checked."""
    sig, tol = cfg.sig, cfg.tol
    R = gr.cartan_embed0(gr.plane_from_frame(F, tol))
    lhs = gr.rho0(gr.CartanRotation(gr.twisted_act0(A, R.mat, sig, tol), sig, tol))
    rhs = gr.rotate_plane(A, gr.rho0(R))
    return mc._norm(lhs.projector - rhs.projector, 2)


def _dp_log0_roundtrip(cfg, B):
    """The worse of |B' - B| and |dp_exp(B') - R| per sample, for R = dp_exp(B) and B' = dp_log0(R)."""
    sig, tol = cfg.sig, cfg.tol
    R = gr.dp_exp(gr.DpGenerator(sig.p, sig.q, B), tol)
    back = gr.dp_log0(R)
    return np.maximum(mc._norm(back.B - B, 2), mc._norm(gr.dp_exp(back, tol).mat - R.mat, 2))


def _fixed_point_residual(g: Motion, sig: gr.Signature) -> tuple:
    """(r, |r - 2 off| / (1 + r)) for r = |sigma(g) - g|, for each motion of stacks.

    ``off`` is the norm of g's off-block entries R[:p, p:], R[p:, :p] and
    X[:p]; r is exactly twice it, so the second entry is a rounding error.
    """
    p = sig.p
    r = _motion_dist(bn.sigma(g, sig), g)
    a, b, c = mc._norm(g.R[:, :p, p:], 2), mc._norm(g.R[:, p:, :p], 2), mc._norm(g.X[:, :p], 1)
    off = np.sqrt(a * a + b * b + c * c)
    return r, np.abs(r - 2.0 * off) / (1.0 + r)


def _fixed_points(cfg, R, X, Rh, Xh):
    """(r of a fixed point g, r against 2 off on g and on a generic h, 1 if ``is_fixed_point`` errs).

    r and off are as in ``_fixed_point_residual``.
    """
    sig, tol = cfg.sig, cfg.tol
    g, h = Motion(R, X), Motion(Rh, Xh)
    r, agree = _fixed_point_residual(g, sig)
    # generic motions are not fixed
    sorted_ok = bn.is_fixed_point(g, sig, tol) & ~bn.is_fixed_point(h, sig, tol)
    return r, np.maximum(agree, _fixed_point_residual(h, sig)[1]), np.where(sorted_ok, 0.0, 1.0)


def _q_invariance(cfg, R, X):
    """(sigma residual of g' per 1 + |X'|, 1 if not ``in_Q``, routes to g' per 1 + |X| + |Y|).

    g' = (R', X') is the twisted action of a = (A, X) on s = tau(...) = (S, Y),
    in closed form and by plain group arithmetic. R and X hold the pairs.
    """
    sig, tol = cfg.sig, cfg.tol
    s = bn.tau(Motion(R[:, 0], X[:, 0]), sig, tol).motion
    a = Motion(R[:, 1], X[:, 1])
    acted = bn.twisted_act(a, s, sig, tol)
    diff = lg.se_mul(bn.sigma(acted, sig), acted).homogeneous() - np.eye(cfg.n + 1)
    err = mc._norm(diff, 2) / (1.0 + mc._norm(acted.X, 1))
    # the closed form against plain group arithmetic
    generic = lg.se_mul(lg.se_mul(a, s), bn.sigma(lg.se_inv(a), sig))
    scale = 1.0 + mc._norm(a.X, 1) + mc._norm(s.X, 1)
    outside = np.where(bn.in_Q(acted, sig, tol), 0.0, 1.0)
    return err, outside, _motion_dist(acted, generic) / scale


def _frame_drift(cfg, s: bn.CartanMotion):
    """|P_s - P_eigh| for a motion s built in S_p by construction, or for each of a stack.

    P_s is the projector of the plane that s carries. Its motion goes
    through the public constructor under cfg.tol, which raises if it misses
    S_p, and P_eigh is the projector of the plane that check finds.
    """
    checked = bn.CartanMotion(s.motion, cfg.sig, cfg.tol)
    return mc._norm(bn.rho(s).plane.projector - bn.rho(checked).plane.projector, 2)


def _tau_properties(cfg, R, X):
    """The worse of |sigma(t) - t^{-1}| and the carried frame drift, for t = tau(R, X)."""
    t = bn.tau(Motion(R, X), cfg.sig, cfg.tol)
    return np.maximum(_motion_dist(bn.sigma(t.motion, cfg.sig), lg.se_inv(t.motion)), _frame_drift(cfg, t))


def _projection_identity(cfg, A, X):
    """|D - 2 P X| for D = double_projection(A, X) and P the SVD projector onto A.pi0."""
    D = bn.double_projection(A, X, cfg.sig, cfg.tol)
    # twice the projection onto A.pi0, with the projector from an SVD
    P = svd_projector(A[:, :, : cfg.p])
    return mc._norm(D - np.matvec(2.0 * P, X), 1)


def _point_dist(a: bn.BundlePoint, b: bn.BundlePoint):
    """The worse of the plane and the fiber distance between bundle points, for each pair of stacks."""
    return np.maximum(mc._norm(a.plane.projector - b.plane.projector, 2), mc._norm(a.fiber - b.fiber, 1))


def _rho_equivariance(cfg, R, X):
    """|rho(a . s) - a * rho(s)| for s = tau(...), the twisted action a . s, checked, and the bundle action *."""
    sig, tol = cfg.sig, cfg.tol
    s = bn.tau(Motion(R[:, 0], X[:, 0]), sig, tol)
    a = Motion(R[:, 1], X[:, 1])
    acted = bn.CartanMotion(bn.twisted_act(a, s.motion, sig, tol), sig, tol)
    return _point_dist(bn.rho(acted), bn.bundle_act(a, bn.rho(s), sig))


def _rho_bijectivity(cfg, R, X, F, Y):
    """(round trips through rho and rho_inv, carried frame drift of the rho_inv outputs)."""
    s = bn.tau(Motion(R, X), cfg.sig, cfg.tol)
    s2 = bn.rho_inv(bn.rho(s))
    b = _point(cfg, F, Y)
    s3 = bn.rho_inv(b)
    return (
        np.maximum(_motion_dist(s2.motion, s.motion), _point_dist(bn.rho(s3), b)),
        np.maximum(_frame_drift(cfg, s2), _frame_drift(cfg, s3)),
    )


def _action_law(cfg, R, X, F, Y):
    """|(a1 a2) * b - a1 * (a2 * b)| for the bundle action *; R and X hold the pairs (a1, a2)."""
    a1, a2, sig = Motion(R[:, 0], X[:, 0]), Motion(R[:, 1], X[:, 1]), cfg.sig
    b = _point(cfg, F, Y)
    return _point_dist(bn.bundle_act(lg.se_mul(a1, a2), b, sig), bn.bundle_act(a1, bn.bundle_act(a2, b, sig), sig))


def _dp_full_routes(cfg, B, v):
    """(routes to exp(xi) per 1 + |X|, dp_log_full round trip, carried frame drift), per sample."""
    sig, tol = cfg.sig, cfg.tol
    xi = bn.DpElement(gr.DpGenerator(sig.p, sig.q, B), v)
    s = bn.dp_exp_full(xi, tol)
    # the closed form against the generic eigh route of se_exp, and
    # against the doubling identity exp(xi) = tau(exp(xi/2))
    screw = xi.screw()
    g = lg.se_exp(screw)
    doubled = bn.tau(lg.se_exp(Screw(0.5 * screw.omega, 0.5 * screw.v)), sig, tol).motion
    routes = np.maximum(_motion_dist(s.motion, g) / (1.0 + mc._norm(g.X, 1)),
                        _motion_dist(s.motion, doubled) / (1.0 + mc._norm(s.motion.X, 1)))
    drift = _frame_drift(cfg, s)
    back = bn.dp_log_full(s)
    return routes, np.maximum(mc._norm(back.gen.B - B, 2), mc._norm(back.v - v, 1)), drift


def _transporter(cfg, F, Y):
    """|a * src - dst| for a = find_transporter(src, dst); F and Y hold the pairs (src, dst)."""
    src, dst = _point(cfg, F[:, 0], Y[:, 0]), _point(cfg, F[:, 1], Y[:, 1])
    return _point_dist(bn.bundle_act(bn.find_transporter(src, dst), src, cfg.sig), dst)


def _directions(cfg, rng, count):
    """Unit directions U of dimensions 2 to min(n, 5), a mixed draw, and angles theta in [0, 2 pi)."""
    U = _per_dimension(
        rng.integers(2, min(cfg.n, 5) + 1, size=count),
        lambda nn, k: (sp.sample_unit_directions(rng, nn, k),),
    )
    return U, rng.uniform(0.0, 2.0 * math.pi, count)


def _paper_lines(theta: np.ndarray, U: np.ndarray) -> np.ndarray:
    """The paper's half-angle vectors cos(theta/2) e_1 + sin(theta/2) U: the oracle of the line rows.

    One per entry of theta and row of U, with ``np.cos`` and ``np.sin``,
    whose bits are libm's (``math.cos`` and ``math.sin``).
    """
    half = 0.5 * theta
    return np.cos(half)[:, None] * mc.basis_vector(1, U.shape[-1]) + np.sin(half)[:, None] * U


def _line_bundle_exp(cfg, U, theta, lam):
    """|line_bundle_exp - se_exp|, and the fiber off the paper's half-angle line; the maps read the defaults."""
    m = pj.line_bundle_exp(theta, U, lam)
    E1 = mc.basis_vector(1, U.shape[-1])
    omega = -theta[:, None, None] * (E1[:, None] * U[:, None, :] - U[:, :, None] * E1)
    g = lg.se_exp(Screw(omega, lam[:, None] * E1))
    # fiber sits on the half-angle line
    V = _paper_lines(theta, U)
    return np.maximum(_motion_dist(m, g), mc._norm(m.X - V * np.vecdot(V, m.X)[:, None], 1))


def _half_angle_line(cfg, U, theta):
    """The line of rotation_in_plane (certified under cfg.tol) and half_angle_line, each against the paper's."""
    R = gr.CartanRotation(pj.rotation_in_plane(theta, U), gr.Signature(1, U.shape[-1] - 1), cfg.tol)
    V = _paper_lines(theta, U)
    VV = V[:, :, None] * V[:, None, :]
    return np.maximum(mc._norm(gr.rho0(R).projector - VV, 2), mc._norm(pj.half_angle_line(theta, U).projector - VV, 2))


def _windings(cfg, rng, count):
    """``count`` windings m in {1, 2, 3} and fiber coordinates lam in [-2, 2)."""
    return rng.integers(1, 4, count), rng.uniform(-2.0, 2.0, count)


def _moebius_seam(cfg, m, lam):
    """(|line_bundle_exp - (I, 0)| per 1 + |lam|, |half_angle_line frame - (-1)^m e_1|) at theta = 2 pi m, U = e_2.

    The Moebius band is C(2, 1): its line geodesic closes at theta = 2 pi m,
    and the frame it carries comes back as (-1)^m e_1, so an odd winding
    turns it over. The maps read the defaults.
    """
    theta, U = 2.0 * math.pi * m, np.broadcast_to(mc.basis_vector(2, 2), (len(m), 2))
    closure = _motion_dist(pj.line_bundle_exp(theta, U, lam), lg.identity_motion(2)) / (1.0 + np.abs(lam))
    F = pj.half_angle_line(theta, U).frame[..., 0]
    return closure, mc._norm(F - (-1.0) ** m[:, None] * mc.basis_vector(1, 2), 1)


# (name, row), with row = Row(check, bound, draw): bound(cfg) is the
# bound of the check's one error, or the tuple of bounds of its errors in
# their order. A predicate's error is 0 or 1, held to 0.
PROPERTIES = (
    ("matcore.wedge_antisymmetry", Row(_wedge_antisymmetry, lambda cfg: 0.0, _wedge_pairs)),
    ("matcore.projector_idempotent_symmetric", Row(_projector, lambda cfg: 1e-12 * cfg.n, _frames)),
    ("matcore.canonical_form_reconstruction", Row(_canonical_form, lambda cfg: 1e-10,
        draw=lambda cfg, rng, count: (_per_dimension(
            rng.integers(2, min(cfg.n, 8) + 1, size=count),
            lambda nn, k: (sp.sample_rotations(rng, nn, k),),
        ),))),
    ("matcore.frame_completion", Row(_completion, lambda cfg: cfg.tol.orth * cfg.n, _frames)),
    ("matcore.involution_eigenspace", Row(_involution_eigenspace, lambda cfg: 1e-10, _rotations)),
    ("liegroup.group_axioms", Row(_group_axioms, lambda cfg: 1e-11 * cfg.n,
        draw=lambda cfg, rng, count: sp.sample_motions(rng, cfg.n, (count, 3)))),
    ("liegroup.exp_matches_series", Row(_exp_series, lambda cfg: 1e-9,
        draw=lambda cfg, rng, count: (_per_dimension(
            rng.integers(2, min(cfg.n, 6) + 1, size=count),
            lambda nn, k: sp.sample_screws(rng, nn, k),
        ),))),
    ("liegroup.y_omega_identity", Row(_y_omega_identity, lambda cfg: 1e-10, _and_vectors(sp.sample_skews))),
    ("liegroup.y_omega_roundtrip", Row(
        _y_omega_roundtrip, lambda cfg: 1e-9, _and_vectors(sp.sample_skews_bounded, math.pi))),
    ("liegroup.log_exp_roundtrip", Row(
        _log_exp_roundtrip, lambda cfg: 1e-8, _and_vectors(sp.sample_skews_bounded, math.pi - 1e-3))),
    ("grassmann.sigma0_automorphism", Row(_sigma0_automorphism, lambda cfg: (0.0, 1e-12 * cfg.n),
        draw=lambda cfg, rng, count: (sp.sample_rotations(rng, cfg.n, (count, 2)),))),
    ("grassmann.q0_invariance", Row(_q0_invariance, lambda cfg: (0.0, cfg.tol.invol),
        draw=lambda cfg, rng, count: (
            sp.sample_dp_generators(rng, cfg.p, cfg.n - cfg.p, count), sp.sample_rotations(rng, cfg.n, count),
        ))),
    ("grassmann.cartan_roundtrips", Row(_grassmann_roundtrips, lambda cfg: (cfg.tol.plane, 1e-9),
        _frames_and_rotations)),
    ("grassmann.rho0_equivariance", Row(_rho0_equivariance, lambda cfg: cfg.tol.plane, _frames_and_rotations)),
    ("grassmann.dp_log0_roundtrip", Row(_dp_log0_roundtrip, lambda cfg: 1e-8,
        draw=lambda cfg, rng, count: (
            sp.sample_dp_generators(rng, cfg.p, cfg.n - cfg.p, count, bound=math.pi - 0.1),
        ))),
    ("bundle.fixed_point_characterization", Row(_fixed_points, lambda cfg: (1e-12 * cfg.n, 1e-12, 0.0),
        draw=lambda cfg, rng, count: (
            *sp.sample_fixed_points(rng, cfg.sig, count), *sp.sample_motions(rng, cfg.n, count)
        ))),
    ("bundle.q_invariance", Row(_q_invariance, lambda cfg: (cfg.tol.invol, 0.0, 1e-11 * cfg.n), _motion_pairs)),
    ("bundle.tau_properties", Row(_tau_properties, lambda cfg: 1e-10,
        draw=lambda cfg, rng, count: sp.sample_motions(rng, cfg.n, count))),
    ("bundle.projection_identity", Row(
        _projection_identity, lambda cfg: 1e-10, _and_vectors(sp.sample_rotations))),
    ("bundle.rho_equivariance", Row(_rho_equivariance, lambda cfg: 1e-9, _motion_pairs)),
    ("bundle.rho_bijectivity", Row(_rho_bijectivity, lambda cfg: (1e-9, 1e-10),
        draw=lambda cfg, rng, count: (
            *sp.sample_motions(rng, cfg.n, count), *sp.sample_bundle_points(rng, cfg.n, cfg.p, count)
        ))),
    ("bundle.action_law", Row(_action_law, lambda cfg: 1e-10,
        draw=lambda cfg, rng, count: (
            *_motion_pairs(cfg, rng, count), *sp.sample_bundle_points(rng, cfg.n, cfg.p, count)
        ))),
    ("bundle.dp_full_routes", Row(_dp_full_routes, lambda cfg: (1e-10 * cfg.n, 1e-8, 1e-10),
        draw=lambda cfg, rng, count: sp.sample_dp_elements(
            rng, cfg.p, cfg.n - cfg.p, count, bound=math.pi - 0.1
        ))),
    ("bundle.transporter", Row(_transporter, lambda cfg: 1e-9,
        draw=lambda cfg, rng, count: sp.sample_bundle_points(rng, cfg.n, cfg.p, (count, 2)))),
    ("projective.line_bundle_exp", Row(_line_bundle_exp, lambda cfg: 1e-10,
        draw=lambda cfg, rng, count: (*_directions(cfg, rng, count), rng.uniform(-2.0, 2.0, count)))),
    ("projective.half_angle_line", Row(_half_angle_line, lambda cfg: cfg.tol.plane, _directions)),
    ("projective.moebius_seam", Row(_moebius_seam, lambda cfg: (1e-12, 1e-12), _windings)),
)


def run_verification(cfg: VerifyConfig) -> VerifyReport:
    """Run every named property on independent seeded streams."""
    start = time.perf_counter()
    results = []
    for stream, (name, row) in enumerate(PROPERTIES):
        rng = sp.make_rng(cfg.seed, stream)
        try:
            samples, max_error, passed = row(cfg, rng)
        except GeometryError:
            # a domain error raised mid-check is a failed property, not a crash
            samples, max_error, passed = 0, float("inf"), False
        results.append(PropertyResult(name, int(samples), float(max_error), bool(passed)))
    return VerifyReport(
        properties=tuple(results),
        passed=all(r.passed for r in results),
        wall_time_s=time.perf_counter() - start,
    )
