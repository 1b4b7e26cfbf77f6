"""Model-space oracles: closed forms for sn, mean curvature, areas, volumes.

The volume oracles are hand integrals of omega_d sn_H^{d-1}:
  H=0:  R^d / d
  H=1:  d=2: 1-cos R;  d=3: R/2 - sin(2R)/4;  d=4: cos^3/3 - cos + 2/3;
        d=5: 3R/8 - sin(2R)/4 + sin(4R)/32
  H=-1: the sinh analogues.
"""

import math

import numpy as np
import pytest
from mpmath import mp

from smmskit.model import (ModelSpace, area_model, c_const, conjugate_radius, jacobi_factor,
                           log_psi, mean_curvature_model, sn, sn_prime, volume_model)
from smmskit.numkit import Tolerance, gauss_jacobi, sphere_area

GRID = np.linspace(0.05, 3.0, 64)
DIMS = (2, 3, 4, 5)
CURVS = (-1.0, 0.0, 1.0)


def sn_exact(H, r):
    if H > 0:
        return math.sin(math.sqrt(H) * r) / math.sqrt(H)
    if H < 0:
        return math.sinh(math.sqrt(-H) * r) / math.sqrt(-H)
    return r


def mc_exact(d, H, r):
    if H > 0:
        return (d - 1) * math.sqrt(H) / math.tan(math.sqrt(H) * r)
    if H < 0:
        return (d - 1) * math.sqrt(-H) / math.tanh(math.sqrt(-H) * r)
    return (d - 1) / r


def ball_integral_exact(d, H, R):
    """int_0^R sn_H(t)^{d-1} dt by hand, for d in 2..5 and H in {-1,0,1}."""
    if H == 0.0:
        return R ** d / d
    if H == 1.0:
        return {
            2: 1.0 - math.cos(R),
            3: R / 2 - math.sin(2 * R) / 4,
            4: math.cos(R) ** 3 / 3 - math.cos(R) + 2.0 / 3.0,
            5: 3 * R / 8 - math.sin(2 * R) / 4 + math.sin(4 * R) / 32,
        }[d]
    return {
        2: math.cosh(R) - 1.0,
        3: math.sinh(2 * R) / 4 - R / 2,
        4: math.cosh(R) ** 3 / 3 - math.cosh(R) + 2.0 / 3.0,
        5: 3 * R / 8 - math.sinh(2 * R) / 4 + math.sinh(4 * R) / 32,
    }[d]


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * (1.0 + abs(b))


class TestSn:
    @pytest.mark.parametrize("H", CURVS)
    def test_closed_form_on_grid(self, H):
        for r in GRID:
            assert close(sn(H, r), sn_exact(H, r), 1e-12)
        # A float, an int or a 0-d array gives a Python float, the array
        # path's value; an array gives an array of its shape.
        for fn in (sn, sn_prime):
            assert [fn(H, float(r)) for r in GRID] == fn(H, GRID).tolist()
            for r in (0.7, 2, np.float64(0.7), np.asarray(0.7)):
                assert type(fn(H, r)) is float
            assert fn(H, GRID[:6].reshape(2, 3)).shape == (2, 3)

    def test_spot_values(self):
        assert abs(sn(1.0, math.pi / 2) - 1.0) < 1e-15
        assert sn(0.0, 3.7) == 3.7
        assert abs(sn(-1.0, 1.0) - math.sinh(1.0)) < 1e-15

    def test_defining_ode(self):
        # sn'' + H sn = 0 via central differences.
        h = 1e-5
        for H in CURVS:
            for r in (0.3, 1.1, 2.2):
                d2 = (sn(H, r + h) - 2 * sn(H, r) + sn(H, r - h)) / h ** 2
                assert abs(d2 + H * sn(H, r)) < 1e-5

    def test_scaling(self):
        for H in (0.25, 2.0, 7.0):
            for r in GRID[:20]:
                assert close(sn(H, r), sn(1.0, math.sqrt(H) * r) / math.sqrt(H), 1e-12)
                assert close(sn(-H, r), sn(-1.0, math.sqrt(H) * r) / math.sqrt(H), 1e-12)

    def test_continuity_at_zero_curvature(self):
        for r in np.linspace(0.0, 10.0, 21):
            assert abs(sn(1e-8, r) - r) <= 1e-7 * (1.0 + r ** 3)
            assert abs(sn(-1e-8, r) - r) <= 1e-7 * (1.0 + r ** 3)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            sn(1.0, -0.1)


class TestMeanCurvature:
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("H", CURVS)
    def test_closed_form_on_grid(self, d, H):
        for r in GRID:
            assert close(mean_curvature_model(d, H, r), mc_exact(d, H, r))

    def test_spot_values(self):
        assert close(mean_curvature_model(3, 0.0, 2.0), 1.0, 1e-15)
        assert close(mean_curvature_model(3, 1.0, math.pi / 4), 2.0, 1e-12)
        # real effective dimension d = n + 4k with n=3, k=0.5
        assert close(mean_curvature_model(5.0, 0.0, 2.0), 2.0, 1e-15)

    def test_pole_series_matches_direct(self):
        for H in CURVS:
            for r in (1e-6, 5e-6, 9e-5):
                got = mean_curvature_model(3, H, r)
                want = 2 * (1.0 / r - H * r / 3.0)
                assert close(got, want, 1e-10)

    @pytest.mark.parametrize("H", [4.0, 1.0, 0.1, -0.1, -1.0, -25.0])
    def test_tiny_radii_match_mpmath(self, H):
        # sqrt|H| r from 1e-12 to 1e-3: the scalar and the array path
        # against 40-digit cot/coth at the same double radii.
        d, q = 3.4, math.sqrt(abs(H))
        radii = np.logspace(-12, -3, 37) / q
        with mp.workdps(40):
            cot = mp.cot if H > 0 else mp.coth
            want = np.array([float((mp.mpf(d) - 1) * mp.sqrt(abs(mp.mpf(H)))
                                   * cot(mp.sqrt(abs(mp.mpf(H))) * mp.mpf(r)))
                             for r in radii])
        scalar = np.array([mean_curvature_model(d, H, float(r)) for r in radii])
        array = mean_curvature_model(d, H, radii)
        assert np.all(np.abs(scalar - want) <= 1e-15 * want)
        assert np.all(np.abs(array - want) <= 1e-15 * want)

    def test_strictly_decreasing(self):
        for d in DIMS:
            for H in CURVS:
                vals = [mean_curvature_model(d, H, r) for r in GRID]
                assert np.all(np.diff(vals) < 0.0)

    def test_conjugate_point_rejected(self):
        with pytest.raises(ValueError):
            mean_curvature_model(3, 1.0, math.pi)
        with pytest.raises(ValueError):
            mean_curvature_model(3, 4.0, math.pi / 2)


class TestAreaVolume:
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("H", CURVS)
    def test_area_closed_form(self, d, H):
        m = ModelSpace(dim=float(d), H=H)
        for r in GRID:
            want = sphere_area(d) * sn_exact(H, r) ** (d - 1)
            assert close(area_model(m, r), want)

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("H", CURVS)
    def test_volume_closed_form(self, d, H):
        m = ModelSpace(dim=float(d), H=H)
        tol = Tolerance(abs_tol=1e-12, rel_tol=1e-12)
        for R in GRID[::4]:
            want = sphere_area(d) * ball_integral_exact(d, H, R)
            assert close(volume_model(m, R, tol), want)

    def test_spot_values(self):
        flat3 = ModelSpace(3.0, 0.0)
        assert close(area_model(flat3, 2.0), 16 * math.pi, 1e-12)
        round3 = ModelSpace(3.0, 1.0)
        assert close(area_model(round3, math.pi / 2), 4 * math.pi, 1e-12)
        drift2 = ModelSpace(2.0, 0.0, drift=1.0)
        assert close(area_model(drift2, 1.0), 2 * math.pi * math.e, 1e-12)
        assert close(volume_model(flat3, 1.0), 4 * math.pi / 3, 1e-10)
        assert close(volume_model(round3, math.pi), 2 * math.pi ** 2, 1e-10)
        assert volume_model(flat3, 0.0) == 0.0

    def test_drifted_volume_hand_integral(self):
        # 2 pi int_0^1 t e^t dt = 2 pi.
        m = ModelSpace(2.0, 0.0, drift=1.0)
        got = volume_model(m, 1.0, Tolerance(abs_tol=1e-12, rel_tol=1e-12))
        assert close(got, 2 * math.pi, 1e-10)

    def test_fundamental_theorem(self):
        rng = np.random.default_rng(11)
        m = ModelSpace(3.5, -0.6, drift=0.3)
        h = 1e-5
        for _ in range(50):
            R = rng.uniform(0.2, 2.8)
            dv = (volume_model(m, R + h) - volume_model(m, R - h)) / (2 * h)
            assert close(dv, area_model(m, R), 1e-6)

    def test_domain_rejections(self):
        m = ModelSpace(3.0, 1.0)
        with pytest.raises(ValueError):
            area_model(m, math.pi + 0.1)
        with pytest.raises(ValueError):
            volume_model(m, 4.0)
        with pytest.raises(ValueError):
            area_model(m, -0.1)


class TestCConst:
    def test_unweighted_is_one(self):
        for n in (2, 3, 5, 9):
            assert c_const(n, 0.0) == 1.0

    def test_half_k(self):
        assert close(c_const(3, 0.5), 2 * math.pi / 3, 1e-11)

    def test_quarter_k(self):
        # V(S^2)/V(S^1) = 4 pi / 2 pi = 2.
        assert close(c_const(2, 0.25), 2.0, 1e-11)

    def test_acceptance_ratio(self):
        # V(S^4)/V(S^2) = (8 pi^2/3)/(4 pi) = 2 pi / 3.
        assert abs(c_const(3, 0.5) - 2 * math.pi / 3) < 1e-10


class TestModelSpace:
    def test_conjugate_radius(self):
        assert conjugate_radius(4.0) == math.pi / 2
        assert conjugate_radius(0.0) == math.inf
        assert ModelSpace(3.0, 1.0).conjugate_radius == math.pi

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpace(0.5, 1.0)
        with pytest.raises(ValueError):
            ModelSpace(3.0, 1.0, drift=-0.1)


def _jacobi_on_own_weight(m, t, nodes):
    """J/psi on the Gauss-Jacobi rule for the weight v^(d-1) itself."""
    v, wv = gauss_jacobi(nodes, m.dim - 1.0)
    return np.exp(log_psi(m, np.outer(t, v)) - log_psi(m, t)[:, None]) @ wv


def _jacobi_mp(d, H, t):
    """J(t)/psi(t) = int_0^1 (sn(t v)/sn(t))^(d-1) dv at 30 digits."""
    with mp.workdps(30):
        if H == 0.0:
            return 1 / mp.mpf(d)
        t, s = mp.mpf(t), mp.sqrt(abs(H))
        sn_mp = (lambda x: mp.sin(s * x) / s) if H > 0.0 else (lambda x: mp.sinh(s * x) / s)
        return mp.quad(lambda v: (sn_mp(t * v) / sn_mp(t)) ** (d - 1),
                       [0, 0.5, 0.9, 0.99, 1])


class TestJacobiFactor:
    """J/psi on the rule for the integer weight w^b, b = ceil(d - 1)."""

    @pytest.mark.parametrize("d", [2.0, 3.0, 4.0, 9.0])
    @pytest.mark.parametrize("H", [1.0, 0.0, -1.0])
    @pytest.mark.parametrize("drift", [0.0, 0.3])
    def test_integer_dimension_is_its_own_rule(self, d, H, drift):
        m = ModelSpace(d, H, drift)
        t = np.linspace(1e-3, 3.1 if H > 0.0 else 20.0, 97)
        for nodes in (36, 48, 96):
            got = jacobi_factor(m, t, nodes)
            assert got.tobytes() == _jacobi_on_own_weight(m, t, nodes).tobytes()

    @pytest.mark.parametrize("d", [2.0004, 2.04, 2.5, 2.96, 3.1, 3.5, 5.2, 9.3])
    def test_real_dimension_as_accurate_as_its_own_rule(self, d):
        # Radii up to the theorems' caps, sqrt|H| t <= 20 for H < 0.  The one
        # steep corner seen beyond them: d = 12.3, sqrt|H| t = 35, 48 nodes,
        # 2.1e-11 relative against 6.1e-12 on the rule for v^(d-1).
        for H in (1.0, 0.0, -1.0):
            m = ModelSpace(d, H)
            t = np.array([0.3, 1.5, 2.5, 3.1] if H > 0.0 else [0.3, 2.0, 8.0, 20.0])
            want = [_jacobi_mp(d, H, x) for x in t]
            for nodes in (48, 96):
                got, own = jacobi_factor(m, t, nodes), _jacobi_on_own_weight(m, t, nodes)
                for x, g, o, w in zip(t, got, own, want):
                    err, err_own = (float(abs((v - w) / w)) for v in (g, o))
                    assert err <= max(4.0 * err_own, 1e-13), (H, x, nodes, err, err_own)
