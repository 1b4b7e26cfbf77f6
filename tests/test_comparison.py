"""Comparison checkers against closed forms, Riemann oracles and equality cases."""

import json
import math
import re
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import perturbed_euclidean, plateau_space
from smmskit import comparison
from smmskit.comparison import (DoublingCertificate, check_absolute_volume_negH,
                                check_area_comparison, check_doubling,
                                check_mc_bounded_f_inner,
                                check_mc_bounded_f_pi2, check_mc_drift,
                                check_mc_rough, check_vol_r1, check_volume_absolute,
                                check_volume_comparison, doubling_F, doubling_epsilon,
                                volume_ratio_profile)
from smmskit.cli import main
from smmskit.model import area_model, c_const, sn as model_sn, sn_prime as model_sn_prime
from smmskit.numkit import KernelError, sphere_area
from smmskit.smms import (RadialProfile, WarpedSMMS, integral_rho, make_space,
                          mean_curvature_f, weighted_area)


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
    return WarpedSMMS(n=n, w=w, f=f, r_max=r_max, closed=True)


class TestMcRough:
    def test_flat_closed_form_margin(self):
        s = make_space("euclidean", n=3)
        rep = check_mc_rough(s, 0.0, 1.0, n_grid=33)
        assert rep.passed
        for r, lhs, rhs, margin in rep.grid:
            assert abs(margin - 2.0 * (1.0 / 1.0 - 1.0 / r)) < 1e-10
        assert rep.grid[0][3] == 0.0  # equality at r0

    def test_sphere_cot_closed_form(self):
        s = make_space("sphere", n=3, H=1.0)
        r0 = math.pi / 4
        rep = check_mc_rough(s, 1.0, r0, n_grid=41)
        assert rep.passed
        for r, lhs, rhs, margin in rep.grid:
            want_lhs = 2.0 / math.tan(r)
            want_rhs = 2.0 / math.tan(r0) - 2.0 * (r - r0)
            # Past 3 pi/4 the grid runs on to the far pole, where |cot r|
            # reaches ~1e6 and the same bound holds relative to it.
            scale = 1.0 if r <= 3 * math.pi / 4 else abs(want_lhs)
            assert abs(lhs - want_lhs) < 1e-10 * scale
            assert abs(rhs - want_rhs) < 1e-10
            assert margin >= -1e-12

    def test_plateau_equality_case(self):
        # Flat radial curvature, m = 0 and f'' = (n-1)H - rho on the plateau.
        s = plateau_space(n=3)
        rep = check_mc_rough(s, 0.5, 1.1, n_grid=28)
        assert rep.passed
        assert 1.0 <= rep.grid[0, 0] and rep.grid[-1, 0] <= 4.0  # all on the plateau
        assert np.max(np.abs(rep.grid[:, 3])) <= 1e-8
        assert len(rep.equality_radii) == rep.grid.shape[0]

    def test_rejects_bad_base_radius(self):
        s = make_space("euclidean", n=3)
        with pytest.raises(ValueError):
            check_mc_rough(s, 0.0, 12.0)


class TestRadiusRule:
    """Every check takes its radii and their range checks from one rule."""

    @pytest.mark.parametrize("check, says", [
        (lambda s: check_mc_rough(s, 0.0, 0.6), "require 0 < r0 <= R, got r0=0.6, "),
        (lambda s: check_mc_bounded_f_pi2(s, 1.0),
         "require 0 < pi/(4 sqrt(H)) <= R, got pi/(4 sqrt(H))=0.785398"),
        (lambda s: check_area_comparison(s, 0.0, 0.45, 0.4),
         "require 0 < r <= R, got r=0.45, R=0.4"),
        (lambda s: check_doubling(s, 0.0, 2.0, -1.0), "require 0 < R <= 0.5, got -1.0"),
        (lambda s: check_volume_comparison(s, 0.0, 0.2, 0.6), "require 0 < R <= 0.5, got 0.6"),
    ], ids=["r0", "pi2-start", "r", "R-negative", "R-beyond"])
    def test_diagnostic_names_the_radius(self, check, says):
        # r0 and the pi/2 range's start read "outside (0, cap)" and "empty
        # admissible grid"; a doubling R <= 0 reached ratio_table, and an R
        # past the interior read "beyond the interior range".
        with pytest.raises(ValueError, match=re.escape(says)):
            check(make_space("euclidean", n=3, r_max=0.5))

    @pytest.mark.parametrize("check", [
        lambda s, n: check_mc_rough(s, 0.0, 0.2, n_grid=n),
        lambda s, n: check_mc_bounded_f_inner(s, 1.0, n_grid=n),
        lambda s, n: check_mc_bounded_f_pi2(s, 1.0, n_grid=n),
        lambda s, n: check_mc_drift(s, 0.0, n_grid=n),
        lambda s, n: check_area_comparison(s, 0.0, 0.2, 0.4, n_grid=n),
        lambda s, n: check_volume_comparison(s, 0.0, 0.2, 0.4, n_grid=n),
        lambda s, n: check_volume_absolute(s, 0.0, 0.4, n_grid=n),
        lambda s, n: check_vol_r1(s, 0.0, 1.5, n_grid=n),
        lambda s, n: check_doubling(s, 0.0, 2.0, 0.4, n_grid=n),
        lambda s, n: check_absolute_volume_negH(s, -1.0, n_grid=n),
    ], ids=["MC_ROUGH", "MC_BOUNDED_F_INNER", "MC_BOUNDED_F_PI2", "MC_DRIFT", "AREA", "VOL",
            "VOL_B_ABS", "VOL_R1", "DOUBLING", "VOL_ABS_NEGH"])
    def test_grid_floor(self, check):
        # One below the floor is malformed input naming n_grid (0 divided
        # by zero in the rule, 1 gave a one-radius grid); the floor runs.
        s = make_space("euclidean", n=3)
        floor = comparison.MIN_GRID_POINTS
        for n_grid in (floor - 1, 0):
            with pytest.raises(ValueError, match=re.escape(
                    f"n_grid: a check needs at least {floor} grid points, got {n_grid}")):
                check(s, n_grid)
        check(s, floor)

    def test_inner_radius_at_the_outer_one(self):
        # lo = R is admitted, as r = R always was on AREA and VOL; it was
        # "outside (0, cap)" for r0.
        s = make_space("euclidean", n=3)
        R = s.r_max * (1.0 - 1e-9)
        rep = check_mc_rough(s, 0.0, R, n_grid=4)
        assert rep.passed and np.all(rep.grid[:, 0] == R)


class TestMcBoundedF:
    def test_flat_model_is_tight(self):
        s = make_space("euclidean", n=3)
        rep = check_mc_bounded_f_inner(s, 0.0, n_grid=64)
        assert rep.passed and abs(rep.min_margin) <= 1e-12

    def test_flat_space_positive_target_closed_form(self):
        # lhs 2/r, rhs 2 cot r + 2r; margin = 2(cot r - 1/r) + 2r >= 0.
        s = make_space("euclidean", n=3)
        rep = check_mc_bounded_f_inner(s, 1.0, n_grid=40)
        assert rep.passed
        for r, lhs, rhs, margin in rep.grid:
            want = 2.0 / math.tan(r) + 2.0 * r - 2.0 / r
            assert abs(margin - want) < 1e-9

    def test_dense_grid_oracle(self):
        s = perturbed_euclidean(3, 0.06, 3.0, amp=0.08, nu=2.0)
        rep = check_mc_bounded_f_inner(s, 0.0, n_grid=48)
        dense = check_mc_bounded_f_inner(s, 0.0, n_grid=480)
        assert rep.passed and dense.passed
        assert dense.min_margin >= -1e-9

    def test_sphere_with_potential_both_ranges(self):
        s = sphere_with_potential(amp=0.1)
        reports = [check_mc_bounded_f_inner(s, 1.0, n_grid=96),
                   check_mc_bounded_f_pi2(s, 1.0, n_grid=96)]
        assert [r.theorem_id for r in reports] == ["MC_BOUNDED_F_INNER",
                                                   "MC_BOUNDED_F_PI2"]
        for rep in reports:
            assert rep.min_margin >= -1e-9

    def test_pi2_range_and_coefficient_at_H4(self):
        # At H = 4, sqrt(H) = 2 and H = 4 differ, so the inner radius
        # pi/(4 sqrt(H)) = pi/8 and the coefficient's sin(2 sqrt(H) r) are
        # told apart from pi/(4H) and sin(2 H r).  The round sphere has
        # rho = 0, so rhs is the bound alone.
        n, H, k = 3, 4.0, 0.1
        rep = check_mc_bounded_f_pi2(make_space("sphere", n=n, H=H), H, k=k, n_grid=64)
        assert rep.grid[0, 0] == math.pi / 8
        r, rhs = rep.grid[:, 0], rep.grid[:, 2]
        sq = math.sqrt(H)
        want = (1.0 + 4.0 * k / ((n - 1) * np.sin(2.0 * sq * r))) * (n - 1) * sq / np.tan(sq * r)
        assert np.max(np.abs(rhs - want) / np.abs(want)) <= 1e-12

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
        dense = check_mc_drift(s, 0.0, 0.6, n_grid=480)
        assert rep.passed and dense.min_margin >= -1e-9

    def test_soliton_margin_closed_form(self):
        # rho = 0 and m_f = 2/r - r/2, so the margin is exactly r/2.
        s = make_space("gaussian_soliton", n=3, c=0.25)
        rep = check_mc_drift(s, 0.0, 0.0, n_grid=29)
        assert rep.passed
        for r, lhs, rhs, margin in rep.grid:
            assert abs(margin - r / 2.0) < 1e-12

    def test_underreported_drift_rejected(self):
        s = make_space("linear_drift", n=3, a=0.5, base="euclidean")
        with pytest.raises(ValueError):
            check_mc_drift(s, 0.0, 0.2)

    @pytest.mark.parametrize("w", [[0.0, 1.0], [0.0, 1.0, 0.1]], ids=["flat", "divergent"])
    def test_unknown_mode_rejected(self, w):
        # "Full" ran radial mode and was echoed as the report's mode.  With
        # w''(0) = 0.2 the radial excess diverges at the pole, and the
        # mode is still what is wrong.
        s = make_space("custom", n=3, w={"type": "poly", "coeffs": w}, r_max=3.0)
        with pytest.raises(ValueError, match="unknown rho mode 'Full'"):
            check_mc_drift(s, 1.0, mode="Full", n_grid=16)


class TestAreaComparison:
    def test_model_equality_both_modes(self):
        s = make_space("euclidean", n=3)
        for bound in ("k", "a"):
            rep = check_area_comparison(s, 0.0, 0.5, 2.0, bound=bound, n_grid=48)
            assert rep.passed and abs(rep.min_margin) <= 1e-8

    def test_flat_vs_sphere_model_closed_form(self):
        s = make_space("euclidean", n=3)
        rep = check_area_comparison(s, 1.0, 0.2, 0.6, bound="k", n_grid=32)
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
        rep = check_volume_comparison(s, 1.0, 0.25, 0.5, bound="a", n_grid=16)
        assert rep.passed
        # Midpoint-rule oracle for V_f, V_model and the exp correction.
        N = 1_000_000
        l = rep.params["l"]
        assert abs(l - 1.0) < 1e-9  # rho = 2 on [0, 0.5]
        # The four radii 0.25, 1/3, 5/12, 0.5 of the 16-point grid, refined or not.
        for r, lhs, rhs, margin in rep.grid[::(rep.grid.shape[0] - 1) // 3]:
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

    @pytest.mark.parametrize("bound", ["k", "a"])
    def test_r_zero_fails_the_radius_rule(self, bound):
        # r = 0 with the drift bound was a second path to VOL_B_ABS.
        s = make_space("linear_drift", n=3, a=1.0, base="euclidean")
        with pytest.raises(ValueError, match=r"^require 0 < r <= R, got r=0\.0, R=1\.0$"):
            check_volume_comparison(s, 0.0, 0.0, 1.0, bound=bound, n_grid=32)

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

    def test_refinement_integrates_its_own_grid(self):
        # The near-pole margins sit within ten 1e-8 tolerances, so the cells
        # there get the x4 grid's interior radii.  The refinement pass sums
        # E on its own radii (radii[0] and the new ones) and gives the E of
        # the whole x4 grid there; its rows are its own pass's.
        s = make_space("perturbed_sphere", n=3, H=1.0)
        rep = check_volume_absolute(s, 1.0, 1.2)
        mspace = comparison.ModelSpace(dim=3.0, H=1.0, drift=rep.params["a"])
        l, coarse = rep.params["l"], np.linspace(1.2 / 256, 1.2, 256)
        fine = np.linspace(coarse[0], 1.2, 1021)
        r = rep.grid[:, 0]
        shared = np.isin(r, coarse)
        assert np.array_equal(r[shared], coarse)
        new = r[~shared]
        assert 0 < len(new) < 3 * 255 and len(new) % 3 == 0  # refined, and locally
        assert np.all(np.isin(new, fine))
        vm, E = comparison._model_volumes(mspace, l, np.concatenate([coarse[:1], new]))
        E_fine = comparison._model_volumes(mspace, l, fine)[1][np.isin(fine, new)]
        assert np.all(np.abs(E[1:] - E_fine) <= 1e-13 * E_fine)
        f0 = float(s.f.eval(0.0))
        assert np.array_equal(rep.grid[~shared, 2], (vm * np.exp(-f0 + E))[1:])

    def test_large_model_dimension(self):
        # d = 46: V_model underflows to 0 within ~1e-7 of the pole, so E
        # must not divide by V there; its sum starts at the first radius.
        s = make_space("euclidean", n=3)
        rep = check_volume_comparison(s, 1.0, 0.25, 0.5, bound="k", const=10.75,
                                      n_grid=32)
        assert rep.passed and rep.params["l"] > 0.0

    def test_model_volume_pole_segment(self):
        # Flat k mode: V_model = area(S^{d-1}) t^d / d exactly; at d = 46 the
        # innermost volume is far below any absolute quadrature budget.
        s = make_space("euclidean", n=3)
        mspace = comparison.ModelSpace(dim=3.0 + 4.0 * 10.75, H=0.0)
        inner = np.linspace(1.5 / 16, 1.5, 16)
        _, vm, _ = comparison._volumes(s, mspace, inner)
        exact = sphere_area(mspace.dim) * inner ** mspace.dim / mspace.dim
        assert abs(vm[0] - exact[0]) <= 1e-12 * exact[0]
        assert np.all(np.abs(vm - exact) <= 1e-10 * exact)

    def test_one_rule_serves_every_k(self):
        # Model dimensions 3 + 4k for k in (0, 0.25) share the rule for w^3.
        from smmskit.numkit import gauss_jacobi
        s = make_space("custom", n=3, r_max=3.0,
                       w={"type": "poly", "coeffs": [0.0, 1.0, 0.0, 0.002]},
                       f={"type": "poly", "coeffs": [0.0, 0.0, 0.01]})
        check = lambda **bound: check_volume_comparison(s, 0.25, 0.3, 1.2, n_grid=32,
                                                        **bound)
        check()  # sup|f| = 0.09; VOL_B's model, dimension 3, reads the other rules
        misses = gauss_jacobi.cache_info().misses
        for k in np.linspace(0.1, 0.24, 10):
            check(bound="k", const=float(k))
        assert gauss_jacobi.cache_info().misses - misses <= 1


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

    @pytest.mark.parametrize("space, H, R, a, n_grid", [
        *((("gaussian_soliton", {}), 0.0, 1.5, None, n) for n in (16, 64, 512, 1024)),
        *((("perturbed_sphere", {"n": 2, "H": 1.0, "eps": 0.01, "omega": 3.0}), 1.0, 1.2, 0.15,
           n) for n in (16, 64, 1024)),
    ], ids=[*(f"soliton-{n}" for n in (16, 64, 512, 1024)),
            *(f"psphere2-{n}" for n in (16, 64, 1024))])
    def test_integrates_each_grid_once(self, monkeypatch, space, H, R, a, n_grid):
        # A check that does not refine integrates V_f once, on its own
        # n_grid radii (V_model is a fixed-rule sum), and reports every one
        # of them: a typed grid runs as typed (it was capped at 64, less the
        # first radius).  V_f/V_model does not increase on these spaces, so
        # the worst pair is the diagonal r1 = r2, where the margin is
        # alpha - 1 at every grid (the 64-radius pair table read 3.09-3.69).
        name, params = space
        s = make_space(name, **{"n": 3, **params})
        alpha = 4.0
        calls = []
        quad_grid = comparison.quad_grid
        monkeypatch.setattr(comparison, "quad_grid",
                            lambda f, edges, **kw: calls.append(len(edges))
                            or quad_grid(f, edges, **kw))
        rep = check_doubling(s, H, alpha, R, a=a, n_grid=n_grid)
        assert rep.passed and calls == [n_grid + 1]
        assert np.array_equal(rep.grid[:, 0], np.linspace(R / n_grid, R, n_grid))
        assert abs(rep.min_margin - (alpha - 1.0)) <= 1e-12 * (alpha - 1.0)

    @pytest.mark.parametrize("space, H, alpha, R, a, epsilon, n_grid, verdict", [
        (("perturbed_sphere", {"H": 1.0, "eps": 0.02, "omega": 1.0}), 1.0, 4.0, 1.5, 0.0,
         None, 512, "PASS"),
        (("euclidean", {}), 1.0, 1.01, 1.0, None, 10.0, 512, "FAIL"),
        # The first pass's worst pair (r1 = 0.66, r2 = 1.22) is within ten
        # tolerances, so its cells refine; their rows find a worse one.
        (("perturbed_sphere", {"H": 1.0, "eps": -0.02, "omega": 3.0}), 1.0, 1.02163, 1.5,
         0.0, 10.0, 16, "FAIL"),
    ], ids=["psphere-pass", "flat-fail", "psphere-refined"])
    def test_running_minimum_matches_every_pair(self, space, H, alpha, R, a, epsilon, n_grid,
                                                verdict):
        # The O(N) running minimum against an O(N^2) search over every pair
        # r1 < r2 the check reads, each judged in the ratio form
        # alpha V_m(r2)/V_m(r1) - V_f(r2)/V_f(r1) >= -max(1e-8, 1e-6 |rhs|),
        # with volumes from scipy.  V_f/V_model increases somewhere on the
        # perturbed spheres, so their worst pairs are off the diagonal.  A
        # first-pass row reads the first pass's radii, a refinement row all
        # of them (the last case's worst r1 is a first-pass radius).
        name, params = space
        s = make_space(name, n=3, **params)
        rep = check_doubling(s, H, alpha, R, epsilon=epsilon, a=a, n_grid=n_grid)
        mspace = comparison.ModelSpace(dim=3.0, H=H, drift=rep.params["a"])
        radii = rep.grid[:, 0]
        first = np.isin(radii, np.linspace(R / n_grid, R, n_grid))
        assert first.sum() == n_grid and first.all() != (n_grid == 16)  # 16 refines
        edges = np.concatenate([[0.0], radii])

        def volumes(area):
            return np.cumsum([quad(area, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                              for lo, hi in zip(edges[:-1], edges[1:])])

        vf = volumes(lambda t: float(weighted_area(s, t)))
        vm = volumes(lambda t: float(area_model(mspace, t)))
        ratio_f, ratio_m = vf[:, None] / vf, alpha * vm[:, None] / vm  # (r2, r1)
        read = np.tril(first | ~first[:, None])
        pairs = read & ~np.eye(len(radii), dtype=bool)
        holds = ratio_m - ratio_f >= -np.maximum(1e-8, 1e-6 * ratio_m)
        assert rep.verdict == verdict == ("PASS" if holds[pairs].all() else "FAIL")
        worst = np.where(read, alpha * ratio_f / ratio_m, -np.inf).max(axis=1)
        assert np.allclose(rep.grid[:, 1], worst, rtol=1e-9, atol=0.0)
        assert np.all(rep.grid[:, 2] == alpha)

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

    def test_cached_rules_change_no_bit(self, monkeypatch):
        from smmskit import model
        from smmskit.numkit import gauss_jacobi
        mspace = model.ModelSpace(dim=3.6, H=0.7)

        def run():
            cert = doubling_epsilon.__wrapped__(3, 0.7, 0.9, 3.0, k=0.15)
            return (cert.epsilon, cert.F_at_epsilon,
                    *(arr.tobytes() for arr in model.ratio_table(mspace, 0.9, 64)))

        cached = run()
        assert gauss_jacobi.cache_info().currsize > 0
        monkeypatch.setattr(model, "gauss_jacobi", gauss_jacobi.__wrapped__)
        assert run() == cached

    def test_alpha_must_exceed_one(self):
        with pytest.raises(ValueError):
            doubling_epsilon(3, 0.0, 1.0, 1.0, k=0.0)

    def test_violated_certificate_is_a_numerical_failure(self):
        # exp(F) = e > alpha = 2: the root solve did not meet its target.
        with pytest.raises(KernelError) as info:
            DoublingCertificate(n=3, H=0.0, R=1.0, alpha=2.0, epsilon=1.0,
                                F_at_epsilon=1.0)
        assert not isinstance(info.value, ValueError)


def _sn(H, t):
    """sn_H(t) on one float in ``math``: the quad oracles' closed form, about
    ten times cheaper a call than ``model.sn``, which reads an array."""
    q = math.sqrt(abs(H))
    return math.sin(q * t) / q if H > 0.0 else math.sinh(q * t) / q if H < 0.0 else t


def F_nested_quad(n, H, R, sigma, k=None, a=None):
    """F(sigma) from its definition: (e^{c sigma t} - 1) A/V, V by inner quad."""
    d = n + 4.0 * k if k is not None else float(n)
    drift = 0.0 if a is None else a
    c = c_const(n, k) if k is not None else 1.0
    area = lambda t: math.exp(drift * t) * _sn(H, t) ** (d - 1.0)

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


def E_nested_quad(mspace, cls, radii):
    """E(r) = int_0^r expm1(cl t) A/V dt at each radius and each cl, one quad
    per segment between radii; V/A(t) = int_0^t A(s)/A(t) ds by an inner
    quad in logarithms, so that large dimensions do not underflow."""
    d, H, a = mspace.dim, mspace.H, mspace.drift

    def log_area(t):
        return a * t + (d - 1.0) * math.log(_sn(H, t)) if t > 0.0 else -math.inf

    @lru_cache(maxsize=None)
    def v_over_a(t):
        la = log_area(t)
        return quad(lambda u: math.exp(log_area(u) - la), 0.0, t,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]

    out = np.zeros((len(cls), len(radii)))
    for i, cl in enumerate(cls):
        total, prev = 0.0, 0.0
        for j, r in enumerate(radii):
            total += quad(lambda t: math.expm1(cl * t) / v_over_a(t) if t > 0.0 else cl * d,
                          prev, r, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            out[i, j], prev = total, r
    return out


# (dim, H, drift, R): every dimension and curvature the fixed rule must hold
# at, non-integer dimensions from the n + 4k model among them.
E_CASES = [
    (2.0, -1.0, 0.0, 2.0),
    (3.0, 1.0, 0.0, 1.2),
    (3.72, -4.0, 0.0, 1.0),
    (4.36, 0.1, 0.0, 2.0),
    (7.4, 0.0, 0.0, 1.5),
    (11.0, -1.0, 0.0, 1.5),
    (46.0, 1.0, 0.0, 1.2),
    (46.0, -4.0, 0.0, 1.0),
    (3.0, -1.0, 1.0, 1.5),
]


class TestExpCorrection:
    @pytest.mark.parametrize("start", [1 / 256, 0.3], ids=["R/256", "0.3R"])
    @pytest.mark.parametrize("dim, H, drift, R", E_CASES)
    def test_matches_nested_quad_on_the_grid(self, dim, H, drift, R, start):
        mspace = comparison.ModelSpace(dim=dim, H=H, drift=drift)
        radii = np.linspace(start * R, R, 256)
        at = [*range(0, 256, 16), 255]
        cls = (1e-4, 1.0, 42.0 / R)
        oracle = E_nested_quad(mspace, cls, radii[at])
        for cl, want in zip(cls, oracle):
            E = comparison._model_volumes(mspace, cl, radii)[1][at]
            assert np.all(np.abs(E - want) <= 1e-12 * want)

    @pytest.mark.parametrize("n_grid", [2, 3, 8, 32])
    def test_coarse_grids_hold(self, n_grid):
        # Each interval is split until it spans at most half a unit of
        # cl + sqrt|H| + drift + (dim - 1) sqrt(max(-H, 0)).
        mspace = comparison.ModelSpace(dim=3.72, H=-1.0)
        R = 1.5
        radii = np.linspace(R / n_grid, R, n_grid)
        for cl in (1e-4, 42.0 / R):
            want = E_nested_quad(mspace, (cl,), radii)[0]
            E = comparison._model_volumes(mspace, cl, radii)[1]
            assert np.all(np.abs(E - want) <= 1e-12 * want)

    def test_zero_rate_is_zero(self):
        _, E = comparison._model_volumes(comparison.ModelSpace(dim=3.0, H=1.0), 0.0,
                                         np.linspace(0.1, 1.0, 10))
        assert np.array_equal(E, np.zeros(10))


# (dim, H, drift, R) for V_model at the grid radii: dimensions 2 to 46,
# curvatures -4 to 1, drifts 0 and 0.5.
V_CASES = [
    (2.0, -1.0, 0.0, 3.0),
    (2.0, -4.0, 0.5, 3.0),
    (3.0, 1.0, 0.0, 1.5),
    (3.4, -4.0, 0.5, 1.0),
    (4.36, 0.1, 0.0, 3.0),
    (7.4, 0.0, 0.5, 2.0),
    (12.2, 0.25, 0.0, 1.2),
    (46.0, -4.0, 0.0, 1.0),
    (46.0, 1.0, 0.5, 1.2),
    (3.0, -1.0, 0.5, 3.0),
]


class TestModelVolumes:
    @pytest.mark.parametrize("dim, H, drift, R", V_CASES)
    def test_matches_nested_quad_at_the_radii(self, dim, H, drift, R):
        # V/area(S^{d-1}) by one quad per segment between radii, cumulated;
        # the pass must hold on coarse grids (panel split) and near the pole
        # (Jacobi form), with E asked for or not.
        mspace = comparison.ModelSpace(dim=dim, H=H, drift=drift)
        area = lambda t: math.exp(drift * t) * _sn(H, t) ** (dim - 1.0)
        for n in (2, 3, 4, 16, 48, 256):
            for start in (R / n, 0.3 * R):
                radii = np.linspace(start, R, n)
                edges = np.concatenate([[0.0], radii])
                want = np.cumsum([quad(area, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]
                                  for a, b in zip(edges[:-1], edges[1:])])
                for cl in (0.0, 0.7):
                    vm, _ = comparison._model_volumes(mspace, cl, radii)
                    got = vm / sphere_area(dim)
                    assert np.all(np.abs(got - want) <= 1e-12 * want), (n, start, cl)


class TestNodeTables:
    """The (model, grid) node tables of ``_model_volumes``: a warm table
    gives the cold result bit for bit at every cl."""

    MODEL = comparison.ModelSpace(dim=3.72, H=-1.0, drift=0.3)
    CLS = (0.0, 1e-4, 0.05, 1.0, 28.0)

    @staticmethod
    def clear():
        comparison._volume_nodes.cache_clear()
        comparison._ratio_nodes.cache_clear()
        comparison._start_table.cache_clear()

    @pytest.mark.parametrize("radii", [np.linspace(0.3, 1.5, 256),
                                       np.linspace(0.3, 1.5, 1021),
                                       np.linspace(0.5, 1.5, 3)],
                             ids=["grid256", "refine1021", "coarse-split"])
    def test_warm_equals_cold_bit_for_bit(self, radii):
        cold = []
        for cl in self.CLS:
            self.clear()
            cold.append(comparison._model_volumes(self.MODEL, cl, radii))
        self.clear()
        for cl, (vm, E) in zip(self.CLS, cold):
            vm_warm, E_warm = comparison._model_volumes(self.MODEL, cl, radii)
            assert np.array_equal(vm_warm, vm) and np.array_equal(E_warm, E)
        if len(radii) > 3:  # the coarse grid's split depends on cl
            assert comparison._volume_nodes.cache_info().misses == 1
            assert comparison._ratio_nodes.cache_info().misses == 1

    def test_returned_volume_is_read_only(self):
        self.clear()
        for cl in (0.0, 1.0):
            for radii in (np.linspace(0.3, 1.5, 16), np.linspace(0.5, 1.5, 3)):
                vm, _ = comparison._model_volumes(self.MODEL, cl, radii)
                with pytest.raises(ValueError):
                    vm[0] = 1.0

    def test_grids_one_ulp_apart_do_not_share(self):
        self.clear()
        radii = np.linspace(0.3, 1.5, 64)
        other = radii.copy()
        other[17] = np.nextafter(other[17], 2.0)
        comparison._model_volumes(self.MODEL, 1.0, radii)
        comparison._model_volumes(self.MODEL, 1.0, other)
        for table in (comparison._volume_nodes, comparison._ratio_nodes):
            info = table.cache_info()
            assert info.misses == 2 and info.currsize == 2

    def test_caches_are_bounded(self):
        self.clear()
        for n in range(8, 14):
            comparison._model_volumes(self.MODEL, 1.0, np.linspace(0.3, 1.5, n))
        for table in (comparison._volume_nodes, comparison._ratio_nodes):
            info = table.cache_info()
            assert info.maxsize == 2 and info.currsize == 2

    def test_grids_that_start_together_share_the_start_table(self):
        # The grids of an R-sweep at a fixed r and a refinement's radii: one
        # start table, and every result bit for bit the cold one.
        grids = [np.linspace(0.3, R, 64) for R in (1.0, 1.2, 1.5)]
        grids.append(np.concatenate([[0.3], np.linspace(0.7, 0.8, 5)]))
        cold = []
        for radii in grids:
            self.clear()
            cold.append(comparison._model_volumes(self.MODEL, 1.0, radii))
        self.clear()
        for radii, (vm, E) in zip(grids, cold):
            vm_warm, E_warm = comparison._model_volumes(self.MODEL, 1.0, radii)
            assert np.array_equal(vm_warm, vm) and np.array_equal(E_warm, E)
        assert comparison._ratio_nodes.cache_info().misses == len(grids)
        assert comparison._start_table.cache_info().misses == 1
        for start in (0.2, 0.25, 0.35):
            comparison._model_volumes(self.MODEL, 1.0, np.linspace(start, 1.5, 64))
        info = comparison._start_table.cache_info()
        assert info.maxsize == 2 and info.currsize == 2


class TestDoublingTable:
    @pytest.mark.parametrize("n, H, R, mode", TABLE_CASES)
    def test_matches_nested_quad(self, n, H, R, mode):
        eps = doubling_epsilon(n, H, R, 4.0, **mode).epsilon
        for sigma in (1e-4, 1e-2, 0.5 * eps, eps):
            F = doubling_F(n, H, R, sigma, **mode)
            oracle = F_nested_quad(n, H, R, sigma, **mode)
            assert abs(F - oracle) <= 1e-10 * oracle

    @pytest.mark.parametrize("n, H, R, mode", TABLE_CASES)
    def test_matches_exp_correction(self, n, H, R, mode):
        # F(sigma) is E(R) at cl = c sigma, on the volume checks' grid sum.
        mspace, c = comparison._model(n, H, **mode)
        eps = doubling_epsilon(n, H, R, 4.0, **mode).epsilon
        radii = np.linspace(R / 256, R, 256)
        for sigma in (1e-4, 1e-2, 0.5 * eps, eps):
            F = doubling_F(n, H, R, sigma, **mode)
            E = comparison._model_volumes(mspace, c * sigma, radii)[1][-1]
            assert abs(F - E) <= 1e-10 * E

    @pytest.mark.parametrize("n, k, H, R", [(3, 0.3, -4.0, 1.0), (3, 0.0, 1.0, 1.2),
                                            (2, 0.5, 0.5, 1.5)])
    def test_exp_correction_matches_nested_quad_at_every_cl(self, n, k, H, R):
        # E is of size cl d R, and every term of its sum carries expm1(cl t),
        # so its error stays relative to it at small cl.
        mspace, c = comparison._model(n, H, k=k)
        radii = np.linspace(R / 256, R, 256)
        for cl in (1e-4, 1e-2, 1.0):
            E = comparison._model_volumes(mspace, cl, radii)[1][-1]
            oracle = F_nested_quad(n, H, R, cl / c, k=k)
            assert abs(E - oracle) <= 1e-12 * oracle

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

    def test_threshold_beyond_the_cap_is_the_cap(self, monkeypatch):
        # Flat k-mode, alpha = 1000: F(s) = 3 sum s^m/(m m!) meets log 1000
        # between 1.2 and 2, and uncapped growth from [0, 1] jumps to 2.5.
        def F_series(sigma):
            return 3.0 * sum(sigma ** m / (m * math.factorial(m)) for m in range(1, 40))

        monkeypatch.setattr(comparison, "_SIGMA_CAP", 1.2)
        cert = doubling_epsilon.__wrapped__(3, 0.0, 1.0, 1e3, k=0.0)
        assert cert.epsilon == 1.2
        assert abs(cert.F_at_epsilon - F_series(1.2)) <= 1e-12 * F_series(1.2)
        assert F_series(1.2) < math.log(1e3)
        # F(cap) >= log alpha: the root lies below the cap, and growth past
        # 2 stops at the cap, which closes the bracket.
        monkeypatch.setattr(comparison, "_SIGMA_CAP", 2.0)
        eps = doubling_epsilon.__wrapped__(3, 0.0, 1.0, 1e3, k=0.0).epsilon
        assert 1.2 < eps < 2.0
        assert F_series(eps) < math.log(1e3) <= F_series(eps * (1.0 + 1e-12))

    def test_soliton_threshold_beyond_the_cap_gets_a_verdict(self, capsys):
        # c(3, 25) = 2.9e-41, so F(1e9) = 4.6e-30 < log 4: the threshold lies
        # beyond the cap, which is reported as a certified lower bound; the
        # space has l = 0, so the gate holds and the grid decides.
        code = main(["check", "--space", "gaussian_soliton", "--n", "3", "--theorem",
                     "DOUBLING", "--alpha", "4", "--R", "1.5", "--k", "25", "--grid", "16"])
        captured = capsys.readouterr()
        assert code in (0, 1), captured.err
        check = json.loads(captured.out)["checks"][0]
        assert check["params"]["epsilon"] == comparison._SIGMA_CAP == 1e9
        assert check["verdict"] in ("PASS", "FAIL")

    def test_threshold_just_below_the_cap_is_found(self, capsys):
        # c(3, 10.75) puts the threshold at 5.2e8: growth from [0, 1] would
        # jump past the 1e9 cap, which is tried before the search gives up.
        code = main(["check", "--space", "euclidean", "--n", "3", "--theorem", "DOUBLING",
                     "--alpha", "4", "--R", "1.5", "--k", "10.75", "--grid", "16"])
        captured = capsys.readouterr()
        assert code in (0, 1), captured.err
        params = json.loads(captured.out)["checks"][0]["params"]
        eps = params["epsilon"]

        def excess(sigma):
            return doubling_F(3, params["H"], 1.5, sigma, k=10.75) - math.log(4.0)

        assert abs(eps - brentq(excess, 0.0, 1e9, xtol=1e-6, rtol=1e-15)) <= 1e-12 * eps
        assert excess(eps) < 0.0

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
        rep = check_absolute_volume_negH(s, -1.0, R=1.0, n_grid=20)
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
        rep = check_absolute_volume_negH(s, -1.0, R=2.0, n_grid=20)
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


def bumped(b3=0.02, f1=0.0, f2=0.03, r_max=2.9):
    """The benchmark's custom poly space: w = r + b3 r^3, f = f1 r + f2 r^2."""
    return make_space("custom", n=3, r_max=r_max,
                      w={"type": "poly", "coeffs": [0.0, 1.0, 0.0, b3]},
                      f={"type": "poly", "coeffs": [0.0, f1, f2]})


class TestLocalRefinement:
    """The first pass is refined only in the cells next to a radius whose
    margin is within ten tolerances of zero; an anchor and a model identity
    refine nothing."""

    def test_mc_rough_anchor_does_not_refine(self):
        # r0 compares m_f(r0) with itself: margin 0.0 there, at today's
        # tolerance, and no x4 pass.
        s = make_space("perturbed_sphere", n=3, H=1.0, eps=0.04, omega=3.0)
        r0 = 0.3 * s.r_max
        rep = check_mc_rough(s, 1.0, r0)
        assert rep.grid.shape[0] == 256
        assert rep.min_margin == 0.0 and rep.grid[0, 3] == 0.0
        assert rep.tolerance == max(1e-8, 1e-6 * abs(float(mean_curvature_f(s, r0))))
        assert rep.passed and rep.equality_radii == [r0]

    @pytest.mark.parametrize("n, a, r", [
        (4, 0.1, 0.13535353535353534), (4, 0.1, 0.2404040404040404),
        (4, 0.25, 0.11565656565656565), (4, 0.25, 0.13535353535353534),
        (4, 0.25, 0.4767676767676767), (4, 0.4, 0.13535353535353534),
        (4, 0.4, 0.2404040404040404), (4, 0.4, 0.4767676767676767),
        (4, 0.4, 0.5883838383838383), (5, 0.1, 0.1419191919191919),
        (5, 0.1, 0.24696969696969695), (5, 0.1, 0.3914141414141413), (5, 0.1, 0.7),
        (5, 0.25, 0.1419191919191919), (5, 0.25, 0.3914141414141413),
        (5, 0.25, 0.6409090909090909), (5, 0.4, 0.1419191919191919),
        (5, 0.4, 0.3914141414141413), (7, 0.4, 0.09595959595959595),
        (7, 0.4, 0.4833333333333332)])
    def test_an_area_anchor_margin_is_zero(self, n, a, r):
        # l = 0 on linear_drift, so rhs(r) is base, the ratio of the two
        # single-radius area reads, and lhs(r) that of the array reads.
        # These anchors read +-1.1e-16 or +-2.2e-16 while a single-radius
        # w ** (n - 1) called C pow.
        rep = check_area_comparison(make_space("linear_drift", n=n, a=a), 0.0, r, 3.0)
        assert rep.params["l"] == 0.0 and rep.grid[0, 0] == r
        assert rep.grid[0, 3] == 0.0

    @pytest.mark.parametrize("check", [
        lambda: check_mc_drift(make_space("sphere", n=3, H=1.0), 1.0, a=0.0),
        lambda: check_area_comparison(make_space("euclidean", n=3, r_max=6.0), 0.0,
                                      0.4, 3.0, bound="k"),
        lambda: check_volume_comparison(make_space("linear_drift", n=3, a=0.3), 0.0,
                                        0.4, 3.0),
        lambda: check_volume_absolute(make_space("linear_drift", n=3, a=0.3), 0.0, 2.0),
    ], ids=["MC_DRIFT-sphere", "AREA_A-flat", "VOL_B-linear_drift", "VOL_B_ABS-flat"])
    def test_model_identities_are_not_refined(self, check):
        rep = check()
        assert rep.grid.shape[0] == 256
        assert len(rep.equality_radii) == 256 and rep.passed
        tol = np.maximum(1e-8, 1e-6 * np.abs(rep.grid[:, 2]))
        assert np.all(np.abs(rep.grid[:, 3]) <= comparison._IDENTITY * tol)

    @pytest.mark.parametrize("check", [
        lambda: check_mc_drift(make_space("perturbed_sphere", n=3, H=1.0, eps=1e-4,
                                          omega=3.0), 1.0, a=0.0),
        lambda: check_volume_absolute(make_space("perturbed_sphere", n=3, H=1.0), 1.0, 1.2),
    ], ids=["MC_DRIFT", "VOL_B_ABS"])
    def test_refines_only_cells_next_to_near_radii(self, check, monkeypatch):
        passes = []
        evaluate = comparison._evaluate
        monkeypatch.setattr(comparison, "_evaluate", lambda tid, eval_on, radii: passes.append(
            (radii.copy(), evaluate(tid, eval_on, radii))) or passes[-1][1])
        rep = check()
        (radii, (lhs, rhs, margin)), (second, _) = passes
        # The cells the rule names, from the first pass alone.
        tol = np.maximum(1e-8, 1e-6 * np.abs(rhs))
        i = int(np.argmin(margin))
        assert abs(margin[i]) < 10.0 * tol[i]
        near = np.flatnonzero(margin < 10.0 * tol)  # each radius against its own tolerance
        cells = sorted({c for j in near for c in (j - 1, j) if 0 <= c < len(radii) - 1})
        assert 0 < len(cells) < len(radii) - 1
        fine = np.linspace(radii[0], radii[-1], 4 * (len(radii) - 1) + 1)
        new = np.concatenate([fine[4 * c + 1:4 * c + 4] for c in cells])
        # One more pass, from radii[0], on the x4 grid's radii of those cells.
        assert np.array_equal(second, np.concatenate([radii[:1], new]))
        assert rep.grid.shape[0] == len(radii) + 3 * len(cells)
        assert np.array_equal(rep.grid[:, 0], np.sort(np.concatenate([radii, new])))
        # The first pass's rows, bit for bit.
        coarse = np.isin(rep.grid[:, 0], radii)
        assert rep.grid[coarse].tobytes() == np.column_stack([radii, lhs, rhs, margin]).tobytes()
        imin = int(np.argmin(rep.grid[:, 3]))
        assert rep.min_margin == rep.grid[imin, 3]
        assert rep.tolerance == max(1e-8, 1e-6 * abs(rep.grid[imin, 2]))

    def test_a_pole_tolerance_does_not_refine_the_whole_grid(self, monkeypatch):
        # MC_DRIFT's rhs ~ 2/r makes the first radius's tolerance 3.3e-4,
        # hundreds of the others; measured against it, 237 radii were near
        # and the report had 967 radii.  Against their own, it keeps the
        # verdict, min_margin and tolerance of the whole x4 grid (every
        # cell refined: 4n - 3 radii on the same range).
        check = lambda: check_mc_drift(make_space("perturbed_sphere", n=3, H=1.0, eps=1e-4,
                                                  omega=3.0), 1.0, a=0.0)
        rep = check()
        monkeypatch.setattr(comparison, "_NEAR", math.inf)
        dense = check()
        assert rep.grid.shape[0] < 300 and dense.grid.shape[0] == 4 * 256 - 3
        assert rep.verdict == dense.verdict == "PASS"
        assert rep.min_margin == dense.min_margin and rep.tolerance == dense.tolerance

    @pytest.mark.parametrize("check", [
        lambda n: check_mc_rough(make_space("perturbed_sphere", n=3, H=1.0, eps=0.04,
                                            omega=3.0), 1.0, 0.3 * math.pi, n_grid=n),
        lambda n: check_area_comparison(bumped(), 0.0, 0.3, 2.0, bound="k", n_grid=n),
        lambda n: check_area_comparison(make_space("perturbed_sphere", n=3, H=1.0, eps=0.04,
                                                   omega=3.0), 1.0, 0.25, 1.4, n_grid=n),
        lambda n: check_area_comparison(make_space("linear_drift", n=3, a=0.3), 0.0, 0.4,
                                        3.0, n_grid=n),
        lambda n: check_area_comparison(make_space("gaussian_soliton", n=3, c=0.2, r_max=4.0),
                                        0.0, 0.4, 2.0, bound="k", n_grid=n),
        lambda n: check_volume_comparison(make_space("perturbed_sphere", n=3, H=1.0, eps=0.04,
                                                     omega=3.0), 1.0, 0.2, 0.7, bound="k",
                                          n_grid=n),
        lambda n: check_volume_comparison(bumped(), 0.1, 0.3, 1.8, bound="k", n_grid=n),
        lambda n: check_volume_comparison(bumped(f1=-0.2), 0.2, 0.3, 2.0, n_grid=n),
        lambda n: check_volume_comparison(make_space("linear_drift", n=3, a=0.3), 0.0, 0.4,
                                          3.0, n_grid=n),
        lambda n: check_vol_r1(bumped(), 0.3, 1.3, n_grid=n),
    ], ids=["MC_ROUGH", "AREA_A-poly", "AREA_B-perturbed", "AREA_B-linear_drift",
            "AREA_A-soliton", "VOL_A-perturbed", "VOL_A-poly", "VOL_B-poly",
            "VOL_B-linear_drift", "VOL_R1-poly"])
    def test_inner_radius_forms_agree_with_the_x4_grid(self, check):
        # The benchmark's forms with an explicit inner radius: the verdict
        # and min_margin of the old x4 radii (grid 4n - 3).
        rep, dense = check(256), check(4 * 256 - 3)
        assert rep.verdict == dense.verdict == "PASS"
        assert abs(rep.min_margin - dense.min_margin) <= max(rep.tolerance, dense.tolerance)


class TestReportPlumbing:
    def test_csv_header_and_shape(self):
        s = make_space("euclidean", n=3)
        rep = check_mc_drift(s, 0.0, n_grid=16)
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "r,lhs,rhs,margin"
        # A model identity (every margin at rounding level) is not refined.
        assert len(csv.splitlines()) == 17
        assert all(len(line.split(",")) == 4 for line in csv.splitlines())

    def test_pass_vs_margin_consistency(self):
        s = perturbed_euclidean(3, 0.05, 2.0, amp=0.05, nu=1.0)
        rep = check_mc_drift(s, 0.0, n_grid=32)
        assert rep.passed == (rep.min_margin >= -rep.tolerance)
        d = rep.to_dict()
        assert d["theorem_id"] == "MC_DRIFT"
        assert d["units"]["H"] == "1/length^2"
        assert isinstance(d["pass"], bool)
