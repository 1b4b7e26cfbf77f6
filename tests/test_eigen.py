"""Shooting eigensolver oracles, Rayleigh transplants, Cheng threshold."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import eigh_tridiagonal, expm
from scipy.optimize import brentq

from conftest import perturbed_euclidean
from smmskit import eigen
from smmskit.comparison import doubling_F
from smmskit.eigen import (EIGEN_TOL, cheng_constants, cheng_epsilon,
                           check_cheng_estimate, model_eigenvalue,
                           rayleigh_quotient_transplant, smms_radial_eigenvalue)
from smmskit.model import mean_curvature_model
from smmskit.numkit import SubdivisionLimitError, Tolerance, quad_adaptive
from smmskit.smms import make_space, mean_curvature_f, weighted_area

J01 = 2.404825557695773  # first zero of the Bessel function J_0


def fd_first_eigenvalue(s, R, N=2000):
    """Cell-centered finite differences on the self-adjoint form
    -(A_f phi')' = lambda A_f phi with a Dirichlet ghost at R."""
    h = R / N
    centers = (np.arange(N) + 0.5) * h
    faces = np.arange(N + 1) * h
    A_face = np.asarray(weighted_area(s, faces))
    A_cell = np.asarray(weighted_area(s, centers))
    main = (A_face[:-1] + A_face[1:]) / h
    main[-1] = (A_face[N - 1] + 2 * A_face[N]) / h
    off = -A_face[1:N] / h
    d = main / (A_cell * h)
    e = off / (h * np.sqrt(A_cell[:-1] * A_cell[1:]))
    return float(eigh_tridiagonal(d, e, select="i", select_range=(0, 0))[0][0])


class TestModelEigenvalue:
    def test_flat_ball_is_pi_squared(self):
        res = model_eigenvalue(3, 0.0, 0.0, 1.0)
        assert abs(res.lam - math.pi ** 2) <= 1e-6 * math.pi ** 2
        assert res.residual <= 1e-6

    def test_flat_disk_is_bessel_zero(self):
        res = model_eigenvalue(2, 0.0, 0.0, 1.0)
        assert abs(res.lam - J01 ** 2) <= 1e-6 * J01 ** 2

    def test_hemisphere_cosine(self):
        res = model_eigenvalue(3, 0.0, 1.0, math.pi / 2)
        assert abs(res.lam - 3.0) <= 1e-6 * 3.0
        for r, phi in res.samples:
            assert abs(phi - math.cos(r)) < 1e-6

    def test_eigenfunction_shape(self):
        res = model_eigenvalue(3, 0.4, 0.0, 1.0)
        phis = res.samples[:, 1]
        assert phis[0] == 1.0
        assert np.all(phis[:-1] > 0.0)
        assert np.all(np.diff(phis) < 1e-10)
        assert 0.0 < res.r_half < 1.0
        lo, hi = res.bracket
        assert hi - lo <= EIGEN_TOL.rel_tol * res.lam * 1.01

    def test_samples_csv_header(self):
        res = model_eigenvalue(3, 0.0, 0.0, 1.0)
        lines = res.samples_csv().splitlines()
        assert lines[0] == "r,phi"
        assert len(lines) == len(res.samples) + 1

    def test_domain_monotonicity(self):
        radii = np.linspace(0.4, 2.2, 10)
        lams = [model_eigenvalue(3, 0.3, 0.0, R, Tolerance(1e-9, 1e-9)).lam
                for R in radii]
        assert np.all(np.diff(lams) < 0.0)

    def test_drift_continuity(self):
        lam0 = model_eigenvalue(3, 0.0, 0.0, 1.0).lam
        lam_eps = model_eigenvalue(3, 1e-3, 0.0, 1.0).lam
        assert abs(lam_eps / lam0 - 1.0) < 1e-3

    def test_shooting_consistency(self):
        tol = Tolerance(abs_tol=1e-9, rel_tol=1e-9)
        tight = Tolerance(abs_tol=5e-10, rel_tol=5e-10)
        lam1 = model_eigenvalue(3, 0.2, 0.5, 1.2, tol).lam
        lam2 = model_eigenvalue(3, 0.2, 0.5, 1.2, tight).lam
        assert abs(lam1 - lam2) < 10 * tol.rel_tol * lam1

    @pytest.mark.parametrize("n, a, H, R", [
        (4, 0.0, -1.0, 2.0), (2, 0.0, 1.0, 1.5), (3, 0.0, 1.0, 1.0), (3, 0.5, 0.0, 1.0),
    ])
    def test_eigen_tol_meets_a_dop853_reference(self, n, a, H, R):
        # At EIGEN_TOL (rel_tol 1e-10) lambda is within 1e-10 relative of a
        # DOP853 shoot of phi(R) closed by brentq; shoots at the fixed
        # 1e-12/1e-11 left the first two balls 1.4e-10 and 1.6e-10 off.
        res = model_eigenvalue(n, a, H, R, EIGEN_TOL)
        r0 = 1e-6 * R

        def phi_R(lam):
            sol = solve_ivp(lambda t, y: [y[1], -(mean_curvature_model(float(n), H, t) + a)
                                          * y[1] - lam * y[0]],
                            (r0, R), [1.0 - lam * r0 * r0 / (2.0 * n), -lam * r0 / n],
                            method="DOP853", rtol=1e-13, atol=1e-14)
            return sol.y[0, -1]

        want = brentq(phi_R, res.lam * (1.0 - 1e-7), res.lam * (1.0 + 1e-7),
                      xtol=1e-15, rtol=1e-15)
        assert res.verdict == "PASS"
        assert abs(res.lam - want) <= 1e-10 * want

    def test_range_gate(self):
        with pytest.raises(ValueError):
            model_eigenvalue(3, 0.0, 1.0, 2.0)  # R > pi/(2 sqrt H)
        with pytest.raises(ValueError):
            model_eigenvalue(3, 0.0, 0.0, -1.0)


class TestSmmsEigenvalue:
    def test_flat_matches_model(self):
        s = make_space("euclidean", n=3)
        res = smms_radial_eigenvalue(s, 1.0)
        assert abs(res.lam - math.pi ** 2) <= 1e-6 * math.pi ** 2

    def test_linear_drift_coefficient_identity(self):
        # m_f = m_H + a identically, so the two solvers see the same ODE.
        s = make_space("linear_drift", n=3, a=0.5, base="euclidean")
        lam_space = smms_radial_eigenvalue(s, 1.0).lam
        lam_model = model_eigenvalue(3, 0.5, 0.0, 1.0).lam
        assert abs(lam_space - lam_model) <= 1e-10 * lam_model

    def test_soliton_fd_oracle(self):
        s = make_space("gaussian_soliton", n=3, c=0.25)
        lam = smms_radial_eigenvalue(s, 1.0).lam
        assert abs(lam - fd_first_eigenvalue(s, 1.0)) <= 1e-4 * lam

    def test_perturbed_space_fd_oracle(self):
        s = perturbed_euclidean(3, 0.05, 2.0, amp=0.1, nu=1.5)
        lam = smms_radial_eigenvalue(s, 1.5).lam
        assert abs(lam - fd_first_eigenvalue(s, 1.5)) <= 1e-4 * lam

    def test_radius_gate(self):
        s = make_space("euclidean", n=3)
        with pytest.raises(ValueError):
            smms_radial_eigenvalue(s, 12.0)


class TestRayleighTransplant:
    def test_model_attains_eigenvalue(self):
        s = make_space("euclidean", n=3)
        Q = rayleigh_quotient_transplant(s, 3, 0.0, 0.0, 1.0)
        assert abs(Q - math.pi ** 2) <= 1e-6 * math.pi ** 2

    def test_min_max_upper_bound(self):
        s = perturbed_euclidean(3, 0.01, 2.0)
        lam = smms_radial_eigenvalue(s, 1.0).lam
        Q = rayleigh_quotient_transplant(s, 3, 0.0, 0.0, 1.0)
        assert Q >= lam - 1e-8 * lam
        assert Q / lam < 1.05  # small perturbation keeps the gap small

    def test_error_term_inequality(self):
        # Q <= lambda_model + int (m_f - m_H - a)_+ |phi'| A_f / int phi^2 A_f.
        s = perturbed_euclidean(3, 0.04, 3.0, amp=0.05, nu=1.0)
        n, a, H, R = 3, 0.0, 0.0, 1.2
        res = model_eigenvalue(n, a, H, R)

        def phi(t):
            return res.traj.at(t)[:, 0]

        def dphi(t):
            return res.traj.at(t)[:, 1]

        def excess(t):
            return np.maximum(0.0, mean_curvature_f(s, t)
                              - mean_curvature_model(float(n), H, t) - a)

        qtol = Tolerance(abs_tol=1e-10, rel_tol=1e-9)
        num, _ = quad_adaptive(lambda t: excess(t) * np.abs(dphi(t))
                               * weighted_area(s, t), 1e-9, R, qtol)
        den, _ = quad_adaptive(lambda t: phi(t) ** 2
                               * weighted_area(s, t), 1e-9, R, qtol)
        Q = rayleigh_quotient_transplant(s, n, a, H, R)
        assert Q <= res.lam + num / den + 1e-7

    def test_reads_the_model_shoot_without_a_solve(self, monkeypatch):
        # Q from a fresh shoot at the model eigenfunction's lambda on the
        # same panels, bit for bit, and no shoot while Q is taken.
        s = perturbed_euclidean(3, 0.01, 2.0)
        n, a, H, R = 3, 0.2, 0.0, 1.1
        res = model_eigenvalue(n, a, H, R, EIGEN_TOL)

        def coeff(t):
            return mean_curvature_model(float(n), H, t) + a

        panels = eigen._Panels(coeff, n, R)
        level = (res.panels // 192).bit_length() - 1
        _, ys, used = panels.shoot((res.traj.lam,), level)
        assert used == level
        fresh = eigen.MagnusShoot(res.traj.lam, n, R, panels.level(level)[0],
                                  eigen._GEOM_PANELS << level, ys[0], coeff)

        def weighted(t, col):
            return fresh.at(t)[:, col] ** 2 * weighted_area(s, t)

        qtol = Tolerance(abs_tol=1e-11, rel_tol=1e-10)
        expected = (quad_adaptive(lambda t: weighted(t, 1), 0.0, R, qtol)[0]
                    / quad_adaptive(lambda t: weighted(t, 0), 0.0, R, qtol)[0])
        calls = []
        monkeypatch.setattr(eigen._Panels, "shoot", lambda *args: calls.append(args))
        assert rayleigh_quotient_transplant(s, n, a, H, R) == expected
        assert not calls


class TestCheng:
    def test_constants_self_verify(self):
        cc = cheng_constants(3, 0.0, 0.0, 1.0, 0.1)
        # epsilon below the doubling threshold keeps e^{F} <= 4
        F = doubling_F(3, 0.0, 1.0, cc.epsilon, a=0.0)
        assert math.exp(F) <= 4.0 + 1e-10
        # quadratic factor forces Q <= (1+delta) lambda at the boundary
        lhs = 0.1 * math.sqrt(cc.lam_model)
        rhs = cc.C * cc.eps_quadratic * math.sqrt(1.1)
        assert lhs >= rhs - 1e-12

    def test_epsilon_small_delta_limit(self):
        eps_tiny = cheng_epsilon(3, 0.0, 0.0, 1.0, 1e-4)
        eps_mid = cheng_epsilon(3, 0.0, 0.0, 1.0, 0.1)
        assert 0.0 < eps_tiny < eps_mid

    def test_epsilon_monotone_in_delta(self):
        deltas = np.linspace(0.05, 0.5, 10)
        eps = [cheng_epsilon(3, 0.0, 0.0, 1.0, d) for d in deltas]
        assert np.all(np.diff(eps) >= -1e-15)

    def test_model_space_passes(self):
        s = make_space("euclidean", n=3)
        rep = check_cheng_estimate(s, 0.0, 0.0, 1.0, 0.1)
        assert rep.passed and not rep.not_applicable
        assert abs(rep.ratio - 1.0) < 1e-8

    def test_gate_reports_not_applicable(self):
        s = perturbed_euclidean(3, 0.1, 5.0)  # large excess integral
        rep = check_cheng_estimate(s, 0.0, 0.0, 1.0, 0.1)
        assert rep.not_applicable and rep.verdict == "NOT-APPLICABLE"
        assert rep.ratio > 0.0  # ratio still reported

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            cheng_epsilon(3, 0.0, 0.0, 1.0, 0.0)


SHOOT_CASES = [
    ("sphere", {"n": 3, "H": 1.0}, 1.0),
    ("euclidean", {"n": 2}, 1.0),
    ("hyperbolic", {"n": 3, "H": -0.7}, 1.3),
    ("perturbed_sphere", {"n": 3}, 1.0),
]
SHOOT_CLOSED_FORMS = {"sphere": math.pi ** 2 - 1.0, "euclidean": J01 ** 2,
                      "hyperbolic": math.pi ** 2 / 1.69 + 0.7}
CLI_TOL = Tolerance(abs_tol=1e-8, rel_tol=1e-6, max_steps=200_000)


def record_passes(monkeypatch) -> list:
    """(lams, level used) of every pass over the panels, in order."""
    passes = []
    shoot = eigen._Panels.shoot

    def recording(self, lams, level):
        out = shoot(self, lams, level)
        passes.append((tuple(lams), out[2]))
        return out

    monkeypatch.setattr(eigen._Panels, "shoot", recording)
    return passes


def prufer_reference(coeff, n: int, R: float, lam: float) -> float:
    """theta(R; lam) - pi from scipy's DOP853 on the Pruefer equation."""
    r0 = 1e-6 * R

    def rhs(t, y):
        sin, cos = math.sin(y[0]), math.cos(y[0])
        return [cos * cos / R + float(coeff(np.array([t]))[0]) * sin * cos
                + lam * R * sin * sin]

    theta0 = math.atan2(1.0 - lam * r0 * r0 / (2.0 * n), -lam * r0 * R / n)
    return solve_ivp(rhs, (r0, R), [theta0], method="DOP853", rtol=1e-13,
                     atol=1e-14).y[0, -1] - math.pi


EIGHT_BALLS = [
    ("sphere", 3, (0.0, 1.0), 1.0),
    ("flat", 3, (0.0, 0.0), 1.0),
    ("hyperbolic", 3, (0.0, -0.7), 1.3),
    ("drift_n4", 4, (0.5, -1.0), 2.0),
    ("drift_n5", 5, (1.0, 0.5), 1.2),
    ("hyperbolic_n9", 9, {"H": -25.0, "r_max": 5.0}, 4.0),
    ("perturbed_sphere", 3, {}, 1.0),
    ("linear_drift", 3, {"a": 20.0}, 4.0),
]


class TestPruferSolver:
    def test_steep_hyperbolic_ball_gives_the_first_eigenvalue(self, monkeypatch):
        # lambda_1 = pi^2 + 100 and lambda_2 = 4 pi^2 + 100.  Without the Ritz
        # seed the bracket grows from pi^2 past lambda_2 before the root
        # search starts; the seeded search must land on the same root.
        want = math.pi ** 2 + 100.0
        passes = record_passes(monkeypatch)
        s = make_space("hyperbolic", n=3, H=-100.0, r_max=2.0)
        no_seed, ritz_value = (lambda *args: math.nan), eigen._ritz_value
        for seed in (no_seed, ritz_value):
            monkeypatch.setattr(eigen, "_ritz_value", seed)
            passes.clear()
            res = model_eigenvalue.__wrapped__(3, 0.0, -100.0, 1.0)
            if seed is no_seed:
                assert max(max(lams) for lams, _ in passes) > 4.0 * math.pi ** 2 + 100.0
            assert abs(res.lam - want) <= 1e-8 * want
            res = smms_radial_eigenvalue(s, 1.0)
            assert abs(res.lam - want) <= 1e-8 * want
            assert res.verdict == "PASS"
            assert math.pi <= res.theta_hi < 2.0 * math.pi

    @pytest.mark.parametrize("tol", [CLI_TOL, EIGEN_TOL], ids=["rel1e-6", "EIGEN_TOL"])
    @pytest.mark.parametrize("name, params, R", SHOOT_CASES,
                             ids=[c[0] for c in SHOOT_CASES])
    def test_at_most_twelve_shoots(self, monkeypatch, name, params, R, tol):
        passes = record_passes(monkeypatch)
        res = smms_radial_eigenvalue(make_space(name, **params), R, tol)
        assert res.verdict == "PASS"
        assert 1 <= len(passes) <= 12
        assert res.shoots == len(passes)
        if tol is CLI_TOL:
            assert len(passes) == 2

    @pytest.mark.parametrize("name, params, R", SHOOT_CASES,
                             ids=[c[0] for c in SHOOT_CASES])
    def test_final_bracket_contains_lambda(self, name, params, R):
        for tol in (CLI_TOL, EIGEN_TOL):
            res = smms_radial_eigenvalue(make_space(name, **params), R, tol)
            lo, hi = res.bracket
            assert lo <= res.lam <= hi
            assert hi - lo <= tol.rel_tol * hi

    @pytest.mark.parametrize("name, params, R", SHOOT_CASES,
                             ids=[c[0] for c in SHOOT_CASES])
    def test_ritz_seed_closes_the_bracket_in_two_shoots(self, monkeypatch, name, params,
                                                         R):
        # One pass on the 192 level-0 panels shoots both ends of the seeded
        # bracket and the Ritz value inside it; one more shoots the Ritz
        # value on 384 panels for the level rule and the residual bound.
        # The report counts both.
        passes = record_passes(monkeypatch)
        res = smms_radial_eigenvalue(make_space(name, **params), R, CLI_TOL)
        assert res.verdict == "PASS"
        assert passes == [((*res.bracket, res.lam_ritz), 0), ((res.lam_ritz,), 1)]
        assert res.bracket[0] <= res.lam_ritz <= res.bracket[1]
        assert res.traj.lam == res.lam_ritz
        assert res.shoots == 2 and res.panels == 192
        assert res.to_dict()["shoots"] == 2 and res.to_dict()["panels"] == 192

    @pytest.mark.parametrize("name, params, R", [*SHOOT_CASES, ("model", {"n": 3}, 1.3)],
                             ids=[c[0] for c in SHOOT_CASES] + ["model"])
    def test_joint_prufer_solve_matches_one_solve_per_lambda(self, name, params, R):
        # Both ends of the seeded bracket in one pass, against a pass each.
        n = params["n"]
        if name == "model":
            res = model_eigenvalue(n, 0.5, -0.7, R, CLI_TOL)

            def coeff(t):
                return mean_curvature_model(3.0, -0.7, t) + 0.5
        else:
            s = make_space(name, **params)
            res = smms_radial_eigenvalue(s, R, CLI_TOL)

            def coeff(t):
                return mean_curvature_f(s, t)
        lo, hi = res.bracket
        panels = eigen._Panels(coeff, n, R)
        joint = panels.shoot((lo, hi), 0)[0]
        single = [panels.shoot((lam,), 0)[0][0] for lam in (lo, hi)]
        assert joint[0] < math.pi <= joint[1]
        assert np.allclose(joint, single, rtol=0.0, atol=1e-12)

        # One lambda against the same Magnus steps taken with 2x2 matrix
        # commutators and scipy's expm, and numpy's unwrap of atan2(phi, R phi').
        # The first _GEOM_PANELS panels step in x = log r (dy/dx = r A y),
        # the others in r.
        edges = panels.level(0)[0]
        gauss = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
        log = np.arange(len(edges) - 1) < eigen._GEOM_PANELS
        h = np.where(log, np.log(edges[1:] / edges[:-1]), np.diff(edges))
        nodes = np.where(log[:, None], edges[:-1, None] * np.exp(h[:, None] * gauss),
                         edges[:-1, None] + h[:, None] * gauss)
        jac = np.where(log[:, None], nodes, 1.0)
        m = np.asarray(coeff(nodes.ravel())).reshape(nodes.shape)

        def com(x, y):
            return x @ y - y @ x

        r0 = edges[0]
        ys = [np.array([1.0 - lo * r0 * r0 / (2.0 * n), -lo * r0 * R / n])]
        for hi_, ji, mi in zip(h, jac, m):
            A1, A2, A3 = (j * np.array([[0.0, 1.0 / R], [-lo * R, -mj]])
                          for j, mj in zip(ji, mi))
            a1, a2 = hi_ * A2, math.sqrt(15.0) * hi_ / 3.0 * (A3 - A1)
            a3 = 10.0 * hi_ / 3.0 * (A3 - 2.0 * A2 + A1)
            c1 = com(a1, a2)
            c2 = -com(a1, 2.0 * a3 + c1) / 60.0
            omega = a1 + a3 / 12.0 + com(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
            ys.append(expm(omega) @ ys[-1])
        ys = np.array(ys)
        theta = np.unwrap(np.arctan2(ys[:, 0], ys[:, 1]))[-1]
        assert abs(theta - single[0]) <= 1e-12

    @pytest.mark.parametrize("name, params, R", SHOOT_CASES,
                             ids=[c[0] for c in SHOOT_CASES])
    def test_ritz_value_bounds_the_eigenvalue_from_above(self, name, params, R):
        res = smms_radial_eigenvalue(make_space(name, **params), R)
        assert res.lam_ritz >= res.lam - 1e-9 * res.lam
        assert res.to_dict()["lambda_ritz"] == res.lam_ritz
        want = SHOOT_CLOSED_FORMS.get(name)
        if want is not None:
            assert abs(res.lam_ritz - want) <= 1e-12 * want

    @pytest.mark.parametrize("name, params, want, shoots", [
        ("linear_drift", {"n": 3, "a": 20.0}, 108.68375394023235, 21),
        ("hyperbolic", {"n": 9, "H": -25.0, "r_max": 5.0}, 400.7466976739629, 34),
    ], ids=["drift_a20", "hyperbolic_n9"])
    def test_unconverged_ritz_value_falls_back_to_the_plain_search(self, name, params,
                                                                   want, shoots):
        # The weight spans e^80 on B(0, 4): 24 basis functions leave the Ritz
        # value 0.7% and 3% high, so theta(R) >= pi at the seeded lower end.
        # The eigenfunction then comes from a shoot at the root of the plain
        # search, which the final bracket holds; the level rule moves both
        # balls to finer panels, where that bracket is shot again.
        res = smms_radial_eigenvalue(make_space(name, **params), 4.0, CLI_TOL)
        assert res.lam_ritz > res.lam * (1.0 + 1e-3)
        assert res.shoots == shoots
        assert res.bracket[0] <= res.traj.lam <= res.bracket[1]
        assert res.panels > 192
        assert res.verdict == "PASS"
        assert abs(res.lam - want) <= 1e-9 * want

    @pytest.mark.parametrize("name, params, R", SHOOT_CASES,
                             ids=[c[0] for c in SHOOT_CASES])
    def test_seeded_eigenfunction_matches_an_independent_shoot(self, name, params, R):
        # The samples and r_half come from the seeded pass's shoot at the
        # Ritz value; a DOP853 shoot at the reported lambda agrees.
        s = make_space(name, **params)
        res = smms_radial_eigenvalue(s, R, CLI_TOL)
        assert res.shoots == 2 and res.traj.lam == res.lam_ritz
        n, lam, r0 = params["n"], res.lam, 1e-6 * R

        def rhs(t, y):
            return [y[1], -float(mean_curvature_f(s, t)) * y[1] - lam * y[0]]

        sol = solve_ivp(rhs, (r0, R), [1.0 - lam * r0 * r0 / (2.0 * n), -lam * r0 / n],
                        method="DOP853", rtol=1e-13, atol=1e-14, dense_output=True)
        rs, phis = res.samples[1:, 0], res.samples[1:, 1]
        assert np.max(np.abs(phis - sol.sol(rs)[0])) <= 1e-9
        r_half = brentq(lambda r: sol.sol(r)[0] - 0.5, r0, R, xtol=1e-15)
        assert abs(res.r_half - r_half) <= 1e-9

    def test_a_ritz_value_outside_the_final_bracket_takes_a_shoot_at_the_root(
            self, monkeypatch):
        # At rel_tol 1e-10 the seeded bracket is wider than its closing
        # width, so the seeded pass shoots its ends alone, the secant follows,
        # and the eigenfunction is shot at the root: on the sphere the
        # bracket closes tighter than the Ritz value's own error.  The pass
        # at the root with twice the panels follows it.
        searches = []
        search = eigen._search

        def recording(panels, level, tol, seed_lo, seed_hi, seed):
            root, eig = search(panels, level, tol, seed_lo, seed_hi, seed)
            searches.append((level, seed, root, eig[0], eig[3]))
            return root, eig

        monkeypatch.setattr(eigen, "_search", recording)
        passes = record_passes(monkeypatch)
        res = smms_radial_eigenvalue(make_space("sphere", n=3, H=1.0), 1.0, EIGEN_TOL)
        level, seed, root, lam_eig, used = searches[0]
        assert (level, seed, used) == (0, res.lam_ritz, 0)
        assert not root.lo <= res.lam_ritz <= root.hi
        assert len(passes[0][0]) == 2 and passes[0][1] == 0
        assert all(res.lam_ritz not in lams for lams, _ in passes)
        assert lam_eig == root.root
        at_root = passes.index(((root.root,), 0))
        assert passes[at_root + 1] == ((root.root,), 1)
        assert res.traj.lam == searches[-1][3]
        assert res.bracket[0] <= res.traj.lam <= res.bracket[1]
        assert passes[-1] == ((res.traj.lam,), searches[-1][4] + 1)
        assert res.shoots == len(passes)
        assert res.verdict == "PASS"

    @pytest.mark.parametrize("R", [1e-9, 1e-6, 1e-3, 1.0, 3.0])
    def test_accuracy_does_not_depend_on_the_radius(self, R):
        # The shoots run in (phi, R phi') and theta = atan2(phi, R phi'), so
        # a small ball is solved as well as the unit ball.
        res = smms_radial_eigenvalue(make_space("euclidean", n=3), R, CLI_TOL)
        assert res.verdict == "PASS"
        assert abs(res.lam * R * R / math.pi ** 2 - 1.0) <= 1e-9
        assert res.residual_bound <= 1e-6

    def test_closed_forms_far_inside_the_tolerance(self):
        # The root of theta(R) = pi is interpolated, so even the CLI
        # tolerance gives the closed forms to the panels' accuracy.
        for (n, H, R), want in (((3, 0.0, 1.0), math.pi ** 2),
                                ((2, 0.0, 1.0), J01 ** 2),
                                ((3, -0.7, 1.3), math.pi ** 2 / 1.69 + 0.7)):
            res = model_eigenvalue(n, 0.0, H, R, CLI_TOL)
            assert abs(res.lam - want) <= 1e-9 * want

    def test_theta_error_falls_2_to_the_6_per_panel_doubling(self, monkeypatch):
        # Level-0 panels coarse enough that four doublings stay above the
        # rounding of theta (their first uniform panel turns theta too far,
        # so the shoots start at level 1); successive differences shrink by
        # about 64.
        monkeypatch.setattr(eigen, "_GEOM_PANELS", 16)
        monkeypatch.setattr(eigen, "_UNIFORM_PANELS", 16)
        s = make_space("perturbed_sphere", n=3)
        panels = eigen._Panels(lambda t: mean_curvature_f(s, t), 3, 1.0)
        thetas = []
        for level in range(1, 6):
            (theta,), _, used = panels.shoot((60.0,), level)
            assert used == level
            thetas.append(theta)
        diffs = np.abs(np.diff(thetas))
        ratios = diffs[:-1] / diffs[1:]
        assert np.all((ratios > 50.0) & (ratios < 80.0))
        assert ratios[-1] > 60.0

    @pytest.mark.parametrize("n, R, zeros", [(2, 1.0, 1024.0), (2, 2.5, 1024.0),
                                             (3, 1.0, 1024.5), (3, 0.3, 1024.5)])
    def test_a_large_trial_lambda_counts_every_zero(self, n, R, zeros):
        # lambda = (zeros pi / R)^2 on the flat ball: phi has exactly
        # k = floor(sqrt(lambda) R / pi) zeros in (0, R) (J_0's k-th zero
        # lies near (k - 1/4) pi, sin's at k pi), so theta(R) lies in
        # [k pi, (k + 1) pi).  The level-0 panels would turn theta by ~20 pi
        # each; the shoot splits them until each turns it by less than pi/2.
        lam = (zeros * math.pi / R) ** 2
        panels = eigen._Panels(lambda t: mean_curvature_model(float(n), 0.0, t), n, R)
        (theta,), _, level = panels.shoot((lam,), 0)
        k = math.floor(math.sqrt(lam) * R / math.pi)
        assert k == 1024 and level > 0
        assert k * math.pi <= theta < (k + 1) * math.pi

    def test_a_trial_lambda_past_the_panel_cap_raises(self):
        # Bracket growth may try lambda up to 2^40 pi^2 / R^2; its panels
        # would pass the cap, and the shoot raises before it builds them.
        panels = eigen._Panels(lambda t: mean_curvature_model(3.0, 0.0, t), 3, 1.0)
        with pytest.raises(SubdivisionLimitError, match="panels"):
            panels.shoot((2.0 ** 40 * math.pi ** 2,), 0)
        assert panels.passes == 0

    @pytest.mark.parametrize("name, n, params, R", EIGHT_BALLS,
                             ids=[c[0] for c in EIGHT_BALLS])
    def test_eigen_tol_meets_a_scipy_pruefer_reference(self, name, n, params, R):
        # At EIGEN_TOL lambda is within 1e-10 relative of the root of
        # theta(R) = pi shot by scipy's DOP853 and closed by brentq.
        if isinstance(params, tuple):
            a, H = params
            res = model_eigenvalue(n, a, H, R, EIGEN_TOL)

            def coeff(t):
                return mean_curvature_model(float(n), H, t) + a
        else:
            kind = {"hyperbolic_n9": "hyperbolic"}.get(name, name)
            s = make_space(kind, n=n, **params)
            res = smms_radial_eigenvalue(s, R, EIGEN_TOL)

            def coeff(t):
                return mean_curvature_f(s, t)
        want = brentq(lambda lam: prufer_reference(coeff, n, R, lam),
                      res.lam * (1.0 - 1e-7), res.lam * (1.0 + 1e-7),
                      xtol=1e-15, rtol=1e-15)
        assert res.verdict == "PASS"
        assert abs(res.lam - want) <= 1e-10 * want


class TestEigenVerdict:
    def test_solve_passes_with_its_tolerances_stated(self):
        res = model_eigenvalue(3, 0.0, 0.0, 1.0, CLI_TOL)
        d = res.to_dict()
        assert d["verdict"] == "PASS" and d["pass"] is True and d["reason"] == ""
        assert d["residual"] <= d["residual_bound"]
        assert d["tol_abs"] == 1e-8 and d["tol_rel"] == 1e-6

    def test_residual_above_its_bound_fails(self):
        res = model_eigenvalue(3, 0.0, 0.0, 1.0)
        bad = dataclasses.replace(res, residual=2.0 * res.residual_bound)
        d = bad.to_dict()
        assert d["verdict"] == "FAIL" and d["pass"] is False
        assert "residual" in d["reason"]

    def test_wide_bracket_fails(self):
        res = model_eigenvalue(3, 0.0, 0.0, 1.0)
        bad = dataclasses.replace(res, bracket=(0.5 * res.lam, res.lam))
        assert bad.verdict == "FAIL" and "bracket" in bad.reason

    def test_second_zero_fails(self):
        res = model_eigenvalue(3, 0.0, 0.0, 1.0)
        bad = dataclasses.replace(res, theta_hi=2.0 * math.pi)
        assert bad.verdict == "FAIL" and "first eigenvalue" in bad.reason

    @pytest.mark.parametrize("which", ["model", "ball"])
    def test_cheng_fails_on_a_failed_solve_even_when_gated(self, monkeypatch, which):
        name = {"model": "model_eigenvalue", "ball": "smms_radial_eigenvalue"}[which]
        solve = getattr(eigen, name)

        def off_bound(*args):
            res = solve(*args)
            return dataclasses.replace(res, residual=2.0 * res.residual_bound)

        monkeypatch.setattr(eigen, name, off_bound)
        # H = 2 on the unit sphere: the excess integral is far above epsilon.
        s = make_space("sphere", n=3, H=1.0)
        rep = check_cheng_estimate(s, 2.0, 0.0, 1.0, 0.1, tol=CLI_TOL)
        assert rep.verdict == "FAIL" and not rep.not_applicable
        assert rep.reason.startswith(f"{which} eigenvalue solve: residual")
        assert rep.to_dict()["tolerance"] == 1e-8

    def test_cheng_report_states_tolerances(self):
        s = make_space("euclidean", n=3)
        d = check_cheng_estimate(s, 0.0, 0.0, 1.0, 0.1, tol=CLI_TOL).to_dict()
        assert d["tol_abs"] == 1e-8 and d["tol_rel"] == 1e-6
