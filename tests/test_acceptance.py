"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
Every check is seeded and runs at desk scale (n <= 8, well under a minute).
"""

import math

import numpy as np

from cartanbundle import (
    CartanMotion,
    CartanRotation,
    Screw,
    Signature,
    bundle_act,
    dp_exp_full,
    dp_log_full,
    find_transporter,
    half_angle_line,
    in_Q,
    is_fixed_point,
    line_bundle_exp,
    rho,
    rho0,
    rho_inv,
    rotation_in_plane,
    se_exp,
    se_log,
    se_mul,
    sigma,
    tau,
    twisted_act,
    y_omega,
    y_omega_solve,
)
from cartanbundle.sampling import (
    make_rng,
    sample_bundle_point,
    sample_cartan_motion,
    sample_dp_element,
    sample_fixed_point,
    sample_motion,
    sample_rotation,
    sample_screw,
    sample_skew_bounded,
    sample_unit_direction,
)
from cartanbundle.verify import moebius_seam_check

from oracles import homogeneous_exp_oracle, svd_projector_oracle

SEED = 20260823


def report(label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {label}{suffix}")
    assert ok, f"{label}: {detail}"


def test_exponential_matches_series_oracle():
    rng = make_rng(SEED, 1)
    worst = 0.0
    for i in range(1000):
        n = 2 + i % 5
        xi = sample_screw(rng, n, norm_bound=4.0)
        g = se_exp(xi)
        H = homogeneous_exp_oracle(xi.omega, xi.v)
        worst = max(worst, float(np.max(np.abs(g.homogeneous() - H))))
    report(
        "exponential matches 50-term series oracle, 1000 screws, n in 2..6",
        worst <= 1e-9,
        f"max err {worst:.2e}",
    )


def test_translation_map_identity():
    rng = make_rng(SEED, 2)
    worst = 0.0
    for i in range(500):
        n = 2 + i % 5
        omega = sample_skew_bounded(rng, n, 3.0)
        v = rng.standard_normal(n)
        lhs = omega @ y_omega(omega, v)
        rhs = (se_exp(Screw(omega, np.zeros(n))).R - np.eye(n)) @ v
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    report(
        "translation-map identity omega*Y(v) = (exp(omega)-I)v",
        worst <= 1e-10,
        f"max err {worst:.2e}",
    )


def test_log_inverts_exp():
    rng = make_rng(SEED, 3)
    worst_g = 0.0
    worst_v = 0.0
    for i in range(500):
        n = 2 + i % 5
        omega = sample_skew_bounded(rng, n, math.pi - 1e-3)
        v = rng.standard_normal(n)
        g = se_exp(Screw(omega, v))
        xi = se_log(g)
        g2 = se_exp(xi)
        worst_g = max(
            worst_g, float(np.linalg.norm(g2.homogeneous() - g.homogeneous()))
        )
        worst_v = max(
            worst_v, float(np.linalg.norm(y_omega_solve(omega, y_omega(omega, v)) - v))
        )
    ok = worst_g <= 1e-8 and worst_v <= 1e-9
    report(
        "log inverts exp (angles bounded away from pi); fiber solve inverts the fiber map",
        ok,
        f"max motion err {worst_g:.2e}, max solve err {worst_v:.2e}",
    )


def test_symmetry_is_involutive_automorphism():
    rng = make_rng(SEED, 4)
    worst_hom = 0.0
    exact = True
    char_ok = True
    for i in range(500):
        n = 3 + i % 4
        p = 1 + i % (n - 1)
        sig = Signature(p, n - p)
        g1, g2 = sample_motion(rng, n), sample_motion(rng, n)
        back = sigma(sigma(g1, sig), sig)
        exact = exact and np.array_equal(back.R, g1.R) and np.array_equal(back.X, g1.X)
        prod = se_mul(g1, g2)
        lhs = sigma(prod, sig).homogeneous()
        rhs = se_mul(sigma(g1, sig), sigma(g2, sig)).homogeneous()
        worst_hom = max(worst_hom, float(np.linalg.norm(lhs - rhs)) / n)
        # structural samples must be recognized; for generic samples the
        # sigma residual must be twice the off-block residual
        char_ok = char_ok and is_fixed_point(sample_fixed_point(rng, sig), sig)
        r_sigma = float(np.linalg.norm(sigma(g1, sig).homogeneous() - g1.homogeneous()))
        off = math.sqrt(
            np.linalg.norm(g1.R[:p, p:]) ** 2 + np.linalg.norm(g1.R[p:, :p]) ** 2 + np.linalg.norm(g1.X[:p]) ** 2
        )
        char_ok = char_ok and abs(r_sigma - 2.0 * off) <= 1e-12 * (1.0 + r_sigma)
    ok = exact and worst_hom <= 1e-12 and char_ok
    report(
        "symmetry is an involutive automorphism with block-structure fixed points",
        ok,
        f"involution exact={exact}, max hom err/n {worst_hom:.2e}",
    )


def test_orbit_map_lands_in_model():
    rng = make_rng(SEED, 5)
    all_in = True
    worst = 0.0
    for i in range(500):
        n = 3 + i % 4
        p = 1 + i % (n - 1)
        sig = Signature(p, n - p)
        g = sample_motion(rng, n)
        s = tau(g, sig)
        all_in = all_in and in_Q(s.motion, sig)
        a = sample_motion(rng, n)
        all_in = all_in and in_Q(twisted_act(a, s.motion, sig), sig)
        # orbit route and exponential route produce the same model element
        el = sample_dp_element(rng, p, n - p, bound=math.pi - 0.2)
        exp_route = se_exp(el.screw()).homogeneous()
        half = Screw(el.screw().omega / 2, el.screw().v / 2)
        tau_route = tau(se_exp(half), sig).motion.homogeneous()
        worst = max(worst, float(np.linalg.norm(exp_route - tau_route)))
    ok = all_in and worst <= 1e-10
    report(
        "orbit map lands in the model; orbit and exponential routes agree",
        ok,
        f"membership={all_in}, max route gap {worst:.2e}",
    )


def test_double_projection_identity():
    rng = make_rng(SEED, 6)
    worst = 0.0
    for n, p in ((2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (6, 3)):
        sig = Signature(p, n - p)
        J = sig.matrix
        for _ in range(500):
            A = sample_rotation(rng, n)
            X = rng.standard_normal(n)
            lhs = X - A @ J @ A.T @ X
            P = svd_projector_oracle(A[:, :p])
            worst = max(worst, float(np.linalg.norm(lhs - 2 * P @ X)))
    report(
        "double projection identity against SVD-projector oracle, six (n,p) shapes",
        worst <= 1e-10,
        f"max err {worst:.2e}",
    )


def test_bundle_identification_and_transport():
    rng = make_rng(SEED, 7)
    worst_eq = 0.0
    worst_rt = 0.0
    worst_tr = 0.0
    for i in range(500):
        n = 3 + i % 4
        p = 1 + i % (n - 1)
        sig = Signature(p, n - p)
        s = sample_cartan_motion(rng, n, p)
        a = sample_motion(rng, n)
        # the twisted action of a on s stays in the model without re-projection
        acted = CartanMotion.certify(twisted_act(a, s.motion, sig), sig)
        b1 = rho(acted)
        b2 = bundle_act(a, rho(s), sig)
        worst_eq = max(
            worst_eq,
            float(np.linalg.norm(b1.plane.projector - b2.plane.projector)),
            float(np.linalg.norm(b1.fiber - b2.fiber)),
        )
        s2 = rho_inv(rho(s))
        worst_rt = max(
            worst_rt, float(np.linalg.norm(s2.motion.homogeneous() - s.motion.homogeneous()))
        )
        b = sample_bundle_point(rng, n, p)
        worst_rt = max(
            worst_rt,
            float(np.linalg.norm(rho(rho_inv(b)).fiber - b.fiber)),
            float(np.linalg.norm(rho(rho_inv(b)).plane.projector - b.plane.projector)),
        )
        src, dst = sample_bundle_point(rng, n, p), sample_bundle_point(rng, n, p)
        carrier = find_transporter(src, dst)
        moved = bundle_act(carrier, src, sig)
        worst_tr = max(
            worst_tr,
            float(np.linalg.norm(moved.plane.projector - dst.plane.projector)),
            float(np.linalg.norm(moved.fiber - dst.fiber)),
        )
    ok = worst_eq <= 1e-9 and worst_rt <= 1e-9 and worst_tr <= 1e-9
    report(
        "bundle identification is equivariant, invertible, and transports witnesses",
        ok,
        f"equivariance {worst_eq:.2e}, round trips {worst_rt:.2e}, transport {worst_tr:.2e}",
    )


def test_half_angle_and_line_bundle_forms():
    rng = make_rng(SEED, 8)
    worst_line = 0.0
    worst_exp = 0.0
    for i in range(500):
        n = 2 + i % 5
        U = sample_unit_direction(rng, n)
        theta = float(rng.uniform(0, 2 * math.pi))
        lam = float(rng.uniform(-2, 2))
        sig = Signature(1, n - 1)
        cr = CartanRotation.certify(rotation_in_plane(theta, U), sig)
        worst_line = max(
            worst_line,
            float(np.linalg.norm(rho0(cr).projector - half_angle_line(theta, U).projector)),
        )
        m = line_bundle_exp(theta, U, lam)
        E1 = np.eye(n)[:, 0]
        xi = Screw(-theta * (np.outer(E1, U) - np.outer(U, E1)), lam * E1)
        worst_exp = max(
            worst_exp,
            float(np.linalg.norm(m.homogeneous() - se_exp(xi).homogeneous())),
        )
    m = line_bundle_exp(math.pi, np.array([0.0, 1.0]), 1.0)
    value_err = float(np.linalg.norm(m.X - np.array([0.0, 2 / math.pi])))
    ok = worst_line <= 1e-8 and worst_exp <= 1e-10 and value_err <= 1e-12
    report(
        "half-angle line and line-bundle closed forms, including the (0, 2/pi) value",
        ok,
        f"line {worst_line:.2e}, exp {worst_exp:.2e}, value {value_err:.2e}",
    )


def test_generator_log_round_trip():
    rng = make_rng(SEED, 9)
    worst = 0.0
    for i in range(500):
        n = 3 + i % 4
        p = 1 + i % (n - 1)
        el = sample_dp_element(rng, p, n - p, bound=math.pi - 0.1)
        s = dp_exp_full(el)
        el2 = dp_log_full(s)
        worst = max(
            worst,
            float(np.linalg.norm(el2.gen.B - el.gen.B)),
            float(np.linalg.norm(el2.v - el.v)),
        )
    report(
        "generator logarithm inverts the generator exponential, 500 samples",
        worst <= 1e-8,
        f"max err {worst:.2e}",
    )


def test_moebius_seam():
    pairs, max_dev, flips_ok, resolution = moebius_seam_check(128, 9, 2.0)
    ok = pairs == 9 and flips_ok and max_dev <= resolution
    report(
        "Moebius seam: line coincidence within grid resolution and orientation reversal",
        ok,
        f"{pairs} seam pairs, max line deviation {max_dev:.2e} <= {resolution:.2e}",
    )
