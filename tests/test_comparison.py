"""Comparison checkers against closed forms, Riemann oracles and equality cases."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import perturbed_euclidean, plateau_space
from smmskit import comparison
from smmskit.comparison import (DoublingCertificate, check_absolute_volume_negH,
                                check_area_comparison, check_doubling,
                                check_mc_bounded_f, check_mc_bounded_f_inner,
                                check_mc_bounded_f_pi2, check_mc_drift,
                                check_mc_rough, check_vol_r1, check_volume_absolute,
                                check_volume_comparison, doubling_F, doubling_epsilon,
                                volume_ratio_profile)
from smmskit.cli import main
from smmskit.model import c_const, sn as model_sn, sn_prime as model_sn_prime
from smmskit.numkit import KernelError
from smmskit.smms import RadialProfile, WarpedSMMS, make_space


def sphere_with_potential(n=3, H=1.0, amp=0.1):
    """Round sphere carrying f = amp cos r (|f| <= amp)."""
    r_max = math.pi / math.sqrt(H)
    w = RadialProfile(lambda r: model_sn(H, r),
                      d1=lambda r: model_sn_prime(H, r),
                      d2=lambda r: -H * np.asarray(model_sn(H, r), dtype=float),
                      r_max=r_max)
    f = RadialProfile(lambda r: amp * np.cos(np.asarray(r, dtype=float)),
                      d1=lambda r: -amp * np.sin(np.asarray(r, dtype=float)),
                      d2=lambda r: -amp * np.cos(np.asarray(r, dtype=float)),
                      r_max=r_max)
    return WarpedSMMS(n=n, w=w, f=f, r_max=r_max, closed=True,
                      name="sphere_with_potential")


class TestMcRough:
    def test_flat_closed_form_margin(self):
        s = make_space("euclidean", n=3)
        rep = check_mc_rough(s, 0.0, 1.0, grid=np.linspace(1.0, 5.0, 33))
        assert rep.passed
        for r, lhs, rhs, margin in rep.grid:
            assert abs(margin - 2.0 * (1.0 / 1.0 - 1.0 / r)) < 1e-10
        assert rep.grid[0][3] == 0.0  # equality at r0

    def test_sphere_cot_closed_form(self):
        s = make_space("sphere", n=3, H=1.0)
        r0 = math.pi / 4
        grid = np.linspace(r0, 3 * math.pi / 4, 41)
        rep = check_mc_rough(s, 1.0, r0, grid=grid)
        assert rep.passed
        for r, lhs, rhs, margin in rep.grid:
            want_lhs = 2.0 / math.tan(r)
            want_rhs = 2.0 / math.tan(r0) - 2.0 * (r - r0)
            assert abs(lhs - want_lhs) < 1e-10
            assert abs(rhs - want_rhs) < 1e-10
            assert margin >= -1e-12

    def test_plateau_equality_case(self):
        # Flat radial curvature, m = 0 and f'' = (n-1)H - rho on the plateau.
        s = plateau_space(n=3)
        rep = check_mc_rough(s, 0.5, 1.1, grid=np.linspace(1.1, 3.8, 28))
        assert rep.passed
        assert np.max(np.abs(rep.grid[:, 3])) <= 1e-8
        assert len(rep.equality_radii) == rep.grid.shape[0]

    def test_rejects_bad_base_radius(self):
        s = make_space("euclidean", n=3)
        with pytest.raises(ValueError):
            check_mc_rough(s, 0.0, 12.0)


class TestMcBoundedF:
    def test_flat_model_is_tight(self):
        s = make_space("euclidean", n=3)
        rep = check_mc_bounded_f_inner(s, 0.0, n_grid=64)
        assert rep.passed and abs(rep.min_margin) <= 1e-12

    def test_flat_space_positive_target_closed_form(self):
        # lhs 2/r, rhs 2 cot r + 2r; margin = 2(cot r - 1/r) + 2r >= 0.
        s = make_space("euclidean", n=3)
        grid = np.linspace(0.05, math.pi / 4, 40)
        rep = check_mc_bounded_f_inner(s, 1.0, grid=grid, refine=False)
        assert rep.passed
        for r, lhs, rhs, margin in rep.grid:
            want = 2.0 / math.tan(r) + 2.0 * r - 2.0 / r
            assert abs(margin - want) < 1e-9

    def test_dense_grid_oracle(self):
        s = perturbed_euclidean(3, 0.06, 3.0, amp=0.08, nu=2.0)
        rep = check_mc_bounded_f_inner(s, 0.0, n_grid=48)
        dense = check_mc_bounded_f_inner(s, 0.0, n_grid=480, refine=False)
        assert rep.passed and dense.passed
        assert dense.min_margin >= -1e-9

    def test_sphere_with_potential_both_ranges(self):
        s = sphere_with_potential(amp=0.1)
        reports = check_mc_bounded_f(s, 1.0, n_grid=96)
        assert [r.theorem_id for r in reports] == ["MC_BOUNDED_F_INNER",
                                                   "MC_BOUNDED_F_PI2"]
        for rep in reports:
            assert rep.min_margin >= -1e-9

    def test_pi2_needs_positive_curvature(self):
        s = make_space("euclidean", n=3)
        with pytest.raises(ValueError):
            check_mc_bounded_f_pi2(s, 0.0)

    def test_underreported_k_rejected(self):
        s = sphere_with_potential(amp=0.1)
        with pytest.raises(ValueError):
            check_mc_bounded_f_inner(s, 1.0, k=0.05)

    def test_empty_admissible_grid(self):
        s = make_space("euclidean", n=3, r_max=0.5)
        with pytest.raises(ValueError):
            check_mc_bounded_f_pi2(s, 1.0)  # range starts past r_max


class TestMcDrift:
    @pytest.mark.parametrize("base,H", [("euclidean", 0.0), ("sphere", 1.0),
                                        ("hyperbolic", -1.0)])
    def test_model_equality(self, base, H):
        kwargs = {"n": 3, "a": 0.4, "base": base}
        if base != "euclidean":
            kwargs["H"] = H
        s = make_space("linear_drift", **kwargs)
        rep = check_mc_drift(s, H, 0.4, n_grid=64)
        assert rep.passed and abs(rep.min_margin) <= 1e-8

    def test_perturbed_drift_refined_oracle(self):
        # f = -0.5 r + 0.1 sin r has f' >= -0.6.
        r_max = 4.0
        f = RadialProfile(
            lambda r: -0.5 * np.asarray(r, dtype=float) + 0.1 * np.sin(np.asarray(r, dtype=float)),
            d1=lambda r: -0.5 + 0.1 * np.cos(np.asarray(r, dtype=float)),
            d2=lambda r: -0.1 * np.sin(np.asarray(r, dtype=float)),
            r_max=r_max)
        w = RadialProfile(lambda r: np.asarray(r, dtype=float),
                          d1=lambda r: np.ones_like(np.asarray(r, dtype=float)),
                          d2=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                          r_max=r_max)
        s = WarpedSMMS(n=3, w=w, f=f, r_max=r_max, closed=False)
        rep = check_mc_drift(s, 0.0, 0.6, n_grid=48)
        dense = check_mc_drift(s, 0.0, 0.6, n_grid=480, refine=False)
        assert rep.passed and dense.min_margin >= -1e-9

    def test_soliton_margin_closed_form(self):
        # rho = 0 and m_f = 2/r - r/2, so the margin is exactly r/2.
        s = make_space("gaussian_soliton", n=3, c=0.25)
        grid = np.linspace(0.2, 3.0, 29)
        rep = check_mc_drift(s, 0.0, 0.0, grid=grid, refine=False)
        assert rep.passed
        for r, lhs, rhs, margin in rep.grid:
            assert abs(margin - r / 2.0) < 1e-12

    def test_underreported_drift_rejected(self):
        s = make_space("linear_drift", n=3, a=0.5, base="euclidean")
        with pytest.raises(ValueError):
            check_mc_drift(s, 0.0, 0.2)


class TestAreaComparison:
    def test_model_equality_both_modes(self):
        s = make_space("euclidean", n=3)
        for bound in ("k", "a"):
            rep = check_area_comparison(s, 0.0, 0.5, 2.0, bound=bound, n_grid=48)
            assert rep.passed and abs(rep.min_margin) <= 1e-8

    def test_flat_vs_sphere_model_closed_form(self):
        s = make_space("euclidean", n=3)
        rep = check_area_comparison(s, 1.0, 0.2, 0.6, bound="k", n_grid=32,
                                    refine=False)
        assert rep.passed
        assert abs(rep.params["l"] - 1.2) < 1e-9
        base = (0.2 / math.sin(0.2)) ** 2
        for r, lhs, rhs, margin in rep.grid:
            assert abs(lhs - (r / math.sin(r)) ** 2) < 1e-10
            assert abs(rhs - math.exp(1.2 * r) * base) < 1e-9

    def test_linear_drift_constant_ratio(self):
        s = make_space("linear_drift", n=3, a=0.5, base="euclidean")
        rep = check_area_comparison(s, 0.0, 0.5, 2.0, bound="a", n_grid=48)
        assert rep.passed and abs(rep.min_margin) <= 1e-8

    def test_range_gate(self):
        s = make_space("euclidean", n=3)
        with pytest.raises(ValueError, match=r"pi/\(4 sqrt\(H\)\)"):
            check_area_comparison(s, 1.0, 0.2, 1.0, bound="k")


class TestVolumeComparison:
    def test_model_equality(self):
        s = make_space("euclidean", n=3)
        for bound in ("k", "a"):
            rep = check_volume_comparison(s, 0.0, 0.25, 2.0, bound=bound, n_grid=48)
            assert rep.passed and abs(rep.min_margin) <= 1e-8

    def test_riemann_oracle_flat_vs_sphere(self):
        s = make_space("euclidean", n=3)
        rep = check_volume_comparison(s, 1.0, 0.25, 0.5, bound="a", n_grid=16,
                                      refine=False)
        assert rep.passed
        # Midpoint-rule oracle for V_f, V_model and the exp correction.
        N = 1_000_000
        l = rep.params["l"]
        assert abs(l - 1.0) < 1e-9  # rho = 2 on [0, 0.5]
        for r, lhs, rhs, margin in rep.grid[::5]:
            ts = (np.arange(N) + 0.5) * (r / N)
            am = 4 * math.pi * np.sin(ts) ** 2
            vf = float(np.sum(4 * math.pi * ts ** 2)) * r / N
            vm = float(np.sum(am)) * r / N
            assert abs(lhs - vf / vm) <= 2e-6 * abs(lhs)
            # cumulative midpoint sums run half a panel long; correct it
            vm_cum = (np.cumsum(am) - 0.5 * am) * (r / N)
            integrand = (np.exp(l * ts) - 1.0) * am / vm_cum
            corr = float(np.sum(integrand)) * r / N
            base = rep.grid[0][1]
            assert abs(rhs - base * math.exp(corr)) <= 2e-6 * abs(rhs)

    def test_absolute_drift_form_equality(self):
        s = make_space("linear_drift", n=3, a=1.0, base="euclidean")
        rep = check_volume_absolute(s, 0.0, 1.0, n_grid=48)
        assert rep.passed and abs(rep.min_margin) <= 1e-8

    def test_r_zero_dispatch(self):
        s = make_space("linear_drift", n=3, a=1.0, base="euclidean")
        rep = check_volume_comparison(s, 0.0, 0.0, 1.0, bound="a", n_grid=32)
        assert rep.theorem_id == "VOL_B_ABS"
        with pytest.raises(ValueError):
            check_volume_comparison(s, 0.0, 0.0, 1.0, bound="k")

    def test_vol_r1_is_bounded_f_form_at_one(self):
        s = make_space("euclidean", n=4)
        r1 = check_vol_r1(s, 0.0, 2.5, n_grid=32)
        va = check_volume_comparison(s, 0.0, 1.0, 2.5, bound="k", n_grid=32)
        assert r1.theorem_id == "VOL_R1"
        assert np.allclose(r1.grid[:, 2], va.grid[:, 2], rtol=0, atol=0)
        with pytest.raises(ValueError):
            check_vol_r1(s, 0.0, 0.8)

    def test_area_pass_implies_volume_pass(self):
        spaces = [
            (make_space("perturbed_sphere", n=3, H=1.0, eps=0.06, omega=2.0), 1.0),
            (perturbed_euclidean(3, 0.05, 2.0, amp=0.1, nu=1.0), 0.0),
            (perturbed_euclidean(4, 0.08, 3.5), 0.0),
        ]
        for s, H in spaces:
            quarter = math.pi / (4 * math.sqrt(H)) if H > 0 else math.inf
            R = min(0.9 * s.r_interior_hi, 0.999 * quarter)
            for bound in ("k", "a"):
                area = check_area_comparison(s, H, R / 4, R, bound=bound, n_grid=40)
                vol = check_volume_comparison(s, H, R / 4, R, bound=bound, n_grid=40)
                if area.passed:
                    assert vol.passed

    def test_refinement_reuses_the_correction_solve(self, monkeypatch):
        integrate_ode = comparison.integrate_ode
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate_ode(*args, **kwargs)

        monkeypatch.setattr(comparison, "integrate_ode", counted)
        s = make_space("perturbed_sphere", n=3, H=1.0)
        rep = check_volume_absolute(s, 1.0, 1.2)
        assert rep.grid.shape[0] == 1021  # refined from 256 radii
        assert len(calls) == 1


class TestDoubling:
    def test_threshold_zero_is_zero(self):
        assert doubling_F(3, 0.0, 1.0, 0.0, k=0.0) == 0.0
        assert doubling_F(3, 1.0, 0.7, 0.0, a=0.5) == 0.0

    def test_flat_series_oracle(self):
        # Flat k-mode: A/V = 3/t, so F(s) = 3 sum s^m/(m m!).
        def F_series(sigma):
            return 3.0 * sum(sigma ** m / (m * math.factorial(m))
                             for m in range(1, 40))
        cert = doubling_epsilon(3, 0.0, 1.0, 4.0, k=0.0)
        assert abs(math.exp(cert.F_at_epsilon) - 4.0) <= 1e-10
        assert math.exp(cert.F_at_epsilon) <= 4.0 + 1e-10
        lo, hi = 0.0, 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if F_series(mid) < math.log(4.0):
                lo = mid
            else:
                hi = mid
        assert abs(cert.epsilon - 0.5 * (lo + hi)) < 1e-9

    def test_drift_mode_riemann_oracle(self):
        cert = doubling_epsilon(3, 0.0, 1.0, 2.0, a=0.5)
        N = 2_000_000
        ts = (np.arange(N) + 0.5) / N
        area = np.exp(0.5 * ts) * ts ** 2
        vol = (np.cumsum(area) - 0.5 * area) / N
        integrand = (np.exp(cert.epsilon * ts) - 1.0) * area / vol
        F_oracle = float(np.sum(integrand)) / N
        # the oracle itself is first-order near the pole
        assert abs(F_oracle - math.log(2.0)) < 5e-7

    def test_monotone_in_alpha(self):
        eps = [doubling_epsilon(3, 0.0, 1.0, al, a=0.5).epsilon
               for al in (1.5, 2.0, 4.0, 8.0)]
        assert np.all(np.diff(eps) > 0.0)

    def test_check_doubling_model_space(self):
        s = make_space("euclidean", n=3)
        rep = check_doubling(s, 0.0, 2.0, 1.0, n_grid=20)
        assert rep.passed and rep.min_margin > 0.0

    def test_check_doubling_gate(self):
        s = make_space("euclidean", n=3)
        rep = check_doubling(s, 1.0, 2.0, 0.7, epsilon=0.1, n_grid=16)
        assert rep.not_applicable and rep.verdict == "NOT-APPLICABLE"
        assert "exceeds" in rep.reason

    def test_perturbed_sphere_end_to_end(self):
        s = make_space("perturbed_sphere", n=3, H=1.0, eps=0.002, omega=1.0)
        R = 0.99 * math.pi / 2
        rep = check_doubling(s, 1.0, 2.0, R, n_grid=20)
        assert not rep.not_applicable
        assert rep.passed

    def test_threshold_matches_brentq_in_few_evaluations(self, monkeypatch):
        args = (3, 1.0, 0.5, 4.0)
        target = math.log(4.0)
        evals = []

        def counted(*a, **k):
            evals.append(a)
            return doubling_F(*a, **k)

        monkeypatch.setattr(comparison, "doubling_F", counted)
        # The undecorated function: other tests may have cached this case.
        cert = doubling_epsilon.__wrapped__(*args, a=0.1)
        assert len(evals) <= 10
        g_eps = doubling_F(3, 1.0, 0.5, cert.epsilon, a=0.1) - target
        assert g_eps <= 0.0
        oracle = brentq(lambda s: doubling_F(3, 1.0, 0.5, s, a=0.1) - target,
                        0.0, 4.0, xtol=1e-15, rtol=1e-15)
        assert abs(cert.epsilon - oracle) <= 1e-12

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            doubling_epsilon(3, 0.0, 1.0, 1.0, k=0.0)

    def test_violated_certificate_is_a_numerical_failure(self):
        # exp(F) = e > alpha = 2: the root solve did not meet its target.
        with pytest.raises(KernelError) as info:
            DoublingCertificate(n=3, H=0.0, R=1.0, alpha=2.0, epsilon=1.0,
                                F_at_epsilon=1.0)
        assert not isinstance(info.value, ValueError)


def F_nested_quad(n, H, R, sigma, k=None, a=None):
    """F(sigma) from its definition: (e^{c sigma t} - 1) A/V, V by inner quad."""
    d = n + 4.0 * k if k is not None else float(n)
    drift = 0.0 if a is None else a
    c = c_const(n, k) if k is not None else 1.0
    area = lambda t: math.exp(drift * t) * model_sn(H, t) ** (d - 1.0)

    def integrand(t):
        vol, _ = quad(area, 0.0, t, epsabs=0.0, epsrel=1e-13, limit=200)
        return math.expm1(c * sigma * t) * area(t) / vol

    return quad(integrand, 0.0, R, epsabs=0.0, epsrel=1e-13, limit=200)[0]


# (n, H, R, mode): k mode with non-integer d = n + 4k, and drift mode.
TABLE_CASES = [
    (3, -4.0, 1.0, {"k": 0.3}),
    (2, 1.0, 0.7, {"k": 0.45}),
    (5, -1.0, 2.0, {"k": 0.15}),
    (2, 0.0, 1.0, {"k": 0.2}),
    (3, 0.0, 1.5, {"a": 1.0}),
    (4, -1.0, 2.0, {"a": 0.5}),
    (3, 1.0, 1.2, {"a": 0.0}),
]


class TestDoublingTable:
    @pytest.mark.parametrize("n, H, R, mode", TABLE_CASES)
    def test_matches_nested_quad(self, n, H, R, mode):
        eps = doubling_epsilon(n, H, R, 4.0, **mode).epsilon
        for sigma in (1e-4, 1e-2, 0.5 * eps, eps):
            F = doubling_F(n, H, R, sigma, **mode)
            oracle = F_nested_quad(n, H, R, sigma, **mode)
            assert abs(F - oracle) <= 1e-10 * oracle

    @pytest.mark.parametrize("n, H, R, mode", TABLE_CASES)
    def test_matches_ode(self, n, H, R, mode):
        # The ODE's own error grows as sigma falls: at sigma = 1e-4 it is up
        # to 1.3e-8 relative against the nested quad (which the table meets
        # to 5e-15), so this comparison starts at 1e-2.
        mspace, c = comparison._model(n, H, **mode)
        eps = doubling_epsilon(n, H, R, 4.0, **mode).epsilon
        for sigma in (1e-2, 0.5 * eps, eps):
            F = doubling_F(n, H, R, sigma, **mode)
            ode = float(comparison._exp_correction(mspace, c * sigma, R)(np.array([R]))[0])
            assert abs(F - ode) <= 1e-8 * ode

    def test_threshold_solves_no_ode(self, monkeypatch):
        integrate_ode = comparison.integrate_ode
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate_ode(*args, **kwargs)

        monkeypatch.setattr(comparison, "integrate_ode", counted)
        cert = doubling_epsilon.__wrapped__(3, 1.0, 0.5, 4.0, a=0.1)
        assert calls == []
        assert math.exp(cert.F_at_epsilon) <= 4.0
        # The counter does see the ODE that E(r) still uses.
        comparison._exp_correction(comparison._model(3, 1.0, a=0.1)[0], 0.5,
                                   0.5)(np.array([0.5]))
        assert len(calls) == 1

    def test_truncated_table_fails_the_certificate(self, monkeypatch, capsys):
        ratio_table = comparison.ratio_table

        def truncated(mspace, R, nodes):
            return ratio_table(mspace, R, 4 if nodes == comparison._TABLE_NODES else nodes)

        monkeypatch.setattr(comparison, "ratio_table", truncated)
        with pytest.raises(KernelError, match="twice the nodes"):
            doubling_epsilon.__wrapped__(3, 1.0, 0.5, 4.0, a=0.1)
        # An alpha no other test asks for: doubling_epsilon is memoized.
        code = main(["check", "--space", "euclidean", "--n", "3", "--theorem",
                     "DOUBLING", "--H", "1", "--alpha", "3.14159", "--R", "0.7",
                     "--grid", "16"])
        assert code == 2
        assert capsys.readouterr().err.startswith("numerical failure: doubling table")

    def test_full_table_passes_the_certificate(self):
        table = comparison._doubling_table(5, -1.0, 2.0, 0.15, None)
        fine = comparison._doubling_table(5, -1.0, 2.0, 0.15, None,
                                          2 * comparison._TABLE_NODES)
        for sigma in (1e-4, 0.1, 1.0):
            comparison._certify_table(table, fine, sigma)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.5])
    def test_threshold_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            doubling_epsilon.__wrapped__(3, 0.0, 1.0, alpha, a=0.5)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
    def test_F_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            doubling_F(3, 0.0, 1.0, sigma, a=0.5)


class TestAbsoluteVolumeNegH:
    def test_hyperbolic_strict_margin(self):
        s = make_space("hyperbolic", n=3, H=-1.0)
        rep = check_absolute_volume_negH(s, -1.0, R_grid=np.linspace(0.05, 1.0, 24))
        assert rep.passed and rep.min_margin > 0.0

    def test_bounded_potential_case(self):
        r_max = 5.0
        w = RadialProfile(lambda r: model_sn(-1.0, r),
                          d1=lambda r: model_sn_prime(-1.0, r),
                          d2=lambda r: np.asarray(model_sn(-1.0, r), dtype=float),
                          r_max=r_max)
        f = RadialProfile(lambda r: 0.1 * np.sin(np.asarray(r, dtype=float)),
                          d1=lambda r: 0.1 * np.cos(np.asarray(r, dtype=float)),
                          d2=lambda r: -0.1 * np.sin(np.asarray(r, dtype=float)),
                          r_max=r_max)
        s = WarpedSMMS(n=3, w=w, f=f, r_max=r_max, closed=False)
        rep = check_absolute_volume_negH(s, -1.0, R_grid=np.linspace(0.1, 2.0, 20))
        assert rep.passed and rep.min_margin >= 0.0

    def test_requires_negative_curvature(self):
        s = make_space("euclidean", n=3)
        with pytest.raises(ValueError):
            check_absolute_volume_negH(s, 0.0)


class TestRatioProfile:
    def test_nonincreasing_on_perturbed_spaces(self):
        cases = [
            (make_space("perturbed_sphere", n=3, H=1.0, eps=0.05, omega=3.0), 1.0),
            (perturbed_euclidean(3, 0.07, 2.0, amp=0.1, nu=1.5), 0.0),
        ]
        for s, H in cases:
            half = math.pi / (2 * math.sqrt(H)) if H > 0 else math.inf
            R = min(0.9 * s.r_interior_hi, 0.99 * half)
            radii = np.linspace(R / 32, R, 32)
            D = volume_ratio_profile(s, H, radii, bound="a")
            assert np.all(np.diff(D) <= 1e-7)


class TestFullMode:
    def test_full_mode_margins_hold(self):
        # Full-eigenvalue excess is pointwise larger, so the bounds only
        # get more slack; margins must stay nonnegative.
        s = make_space("perturbed_sphere", n=3, H=1.0, eps=0.05, omega=3.0)
        from smmskit.smms import integral_rho
        l_rad = integral_rho(s, 1.0, math.pi, "radial")
        l_full = integral_rho(s, 1.0, math.pi, "full")
        assert l_full >= l_rad - 1e-12
        for rep in (check_mc_drift(s, 1.0, mode="full", n_grid=48),
                    check_volume_comparison(s, 1.0, 0.2, 0.7, bound="a",
                                            mode="full", n_grid=32)):
            assert rep.passed and rep.min_margin >= -1e-7
            assert rep.mode == "full"


class TestScaledCurvature:
    def test_equality_cases_at_H_four(self):
        s = make_space("sphere", n=4, H=4.0)
        quarter = math.pi / 8
        reps = [
            check_mc_drift(s, 4.0, 0.0, n_grid=48),
            check_mc_bounded_f_inner(s, 4.0, n_grid=48),
            check_area_comparison(s, 4.0, quarter / 4, 0.99 * quarter,
                                  bound="k", n_grid=48),
            check_volume_comparison(s, 4.0, quarter / 4, 0.99 * quarter,
                                    bound="k", n_grid=48),
        ]
        for rep in reps:
            assert rep.passed and abs(rep.min_margin) <= 1e-8


class TestReportPlumbing:
    def test_csv_header_and_shape(self):
        s = make_space("euclidean", n=3)
        rep = check_mc_drift(s, 0.0, n_grid=16, refine=False)
        csv = rep.grid_csv()
        assert csv.splitlines()[0] == "r,lhs,rhs,margin"
        assert len(csv.splitlines()) == 17

    def test_pass_vs_margin_consistency(self):
        s = perturbed_euclidean(3, 0.05, 2.0, amp=0.05, nu=1.0)
        rep = check_mc_drift(s, 0.0, n_grid=32)
        assert rep.passed == (rep.min_margin >= -rep.tolerance)
        d = rep.to_dict()
        assert d["theorem_id"] == "MC_DRIFT"
        assert d["units"]["H"] == "1/length^2"
        assert isinstance(d["pass"], bool)
