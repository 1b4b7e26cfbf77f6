"""Warped-space catalog, curvature quantities, excess integrals, measures."""

import math
import warnings

import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from conftest import perturbed_euclidean
from smmskit.comparison import check_mc_drift
from smmskit.model import area_model, mean_curvature_model, ModelSpace
from smmskit.model import sn as model_sn, sn_prime as model_sn_prime
from smmskit.smms import (RadialProfile, CATALOG, DivergentExcessError, bakry_emery_radial,
                          cumulative_excess, integral_rho, make_space, mean_curvature_f,
                          potential_bounds, profile_from_spec, require_finite_excess, rho,
                          ricci_f_smallest_eigenvalue, ricci_radial,
                          sample_curvature, weighted_area, weighted_volume)

INTERIOR = np.linspace(0.2, 2.8, 40)


class TestCatalog:
    def test_euclidean(self):
        s = make_space("euclidean", n=3)
        assert not s.closed
        for r in INTERIOR:
            assert abs(ricci_radial(s, r)) < 1e-14

    def test_sphere(self):
        s = make_space("sphere", n=3, H=1.0)
        assert s.closed and s.r_max == math.pi
        for r in INTERIOR:
            assert abs(ricci_radial(s, r) - 2.0) < 1e-12

    def test_hyperbolic(self):
        s = make_space("hyperbolic", n=4, H=-1.0)
        for r in INTERIOR:
            assert abs(ricci_radial(s, r) + 3.0) < 1e-12

    def test_gaussian_soliton_is_einstein(self):
        # f = r^2/4 on flat space: Ric_f = g/2 in every direction.
        s = make_space("gaussian_soliton", n=3, c=0.25)
        for r in INTERIOR:
            assert abs(bakry_emery_radial(s, r) - 0.5) < 1e-12
            assert abs(ricci_f_smallest_eigenvalue(s, r) - 0.5) < 1e-12

    def test_linear_drift_stacks_on_base(self):
        s = make_space("linear_drift", n=3, a=0.7, base="euclidean")
        for r in INTERIOR:
            assert abs(bakry_emery_radial(s, r)) < 1e-12
            assert abs(mean_curvature_f(s, r) - (2.0 / r + 0.7)) < 1e-12

    def test_perturbed_sphere_closes(self):
        s = make_space("perturbed_sphere", n=3, H=1.0, eps=0.05, omega=3.0)
        assert s.closed
        assert abs(s.w.eval(s.r_max)) < 1e-12
        assert abs(s.w.d1(s.r_max) + 1.0) < 1e-12

    def test_perturbed_sphere_bad_omega_rejected(self):
        with pytest.raises(ValueError):
            make_space("perturbed_sphere", n=3, H=1.0, eps=0.05, omega=2.5)

    def test_unknown_space(self):
        with pytest.raises(ValueError):
            make_space("torus", n=3)

    def test_missing_dimension(self):
        with pytest.raises(ValueError):
            make_space("euclidean")

    @pytest.mark.parametrize("name, params", [
        ("sphere", {"H": 1.0, "Hx": 7.0}), ("euclidean", {"H": 1.0}),
        ("linear_drift", {"a": 0.5, "c": 0.25}),
        ("linear_drift", {"base": "sphere", "r_max": 3.0})])
    def test_unknown_parameter_rejected(self, name, params):
        bad = list(params)[-1]
        with pytest.raises(ValueError, match=f"space {name} has no parameter '{bad}'"):
            make_space(name, n=3, **params)

    def test_nonpositive_warping_rejected(self):
        with pytest.raises(ValueError):
            make_space("custom", n=3,
                       w={"type": "poly", "coeffs": [0.0, 1.0, -0.5]},
                       r_max=4.0)

    def test_catalog_listing_complete(self):
        assert set(CATALOG) == {"euclidean", "sphere", "hyperbolic",
                                "gaussian_soliton", "linear_drift",
                                "perturbed_sphere", "custom"}


class TestCurvature:
    def test_sphere_einstein(self):
        s = make_space("sphere", n=3, H=1.0)
        for r in (0.5, 1.5, 2.5):
            assert abs(bakry_emery_radial(s, r) - 2.0) < 1e-12
            assert abs(ricci_f_smallest_eigenvalue(s, r) - 2.0) < 1e-10

    def test_soliton_mean_curvature(self):
        s = make_space("gaussian_soliton", n=3, c=0.25)
        for r in (0.5, 1.0, 2.0):
            assert abs(mean_curvature_f(s, r) - (2.0 / r - r / 2.0)) < 1e-12

    def test_sphere_equator_mean_curvature(self):
        s = make_space("sphere", n=3, H=1.0)
        assert abs(mean_curvature_f(s, math.pi / 2)) < 1e-12

    def test_domain_validation(self):
        s = make_space("sphere", n=3, H=1.0)
        with pytest.raises(ValueError):
            ricci_radial(s, 0.0)
        with pytest.raises(ValueError):
            ricci_radial(s, math.pi)
        with pytest.raises(ValueError):
            mean_curvature_f(s, -0.2)

    def test_riccati_identity(self):
        # m' = -m^2/(n-1) - Ric(d_r, d_r) holds exactly on warped products.
        spaces = [
            make_space("sphere", n=3, H=1.0),
            make_space("hyperbolic", n=4, H=-1.0),
            make_space("perturbed_sphere", n=3, H=1.0, eps=0.08, omega=2.0),
            perturbed_euclidean(3, 0.05, 3.0),
        ]
        h = 1e-6
        for s in spaces:
            for r in np.linspace(0.3, 0.8 * s.r_max, 11):
                m = lambda t: mean_curvature_f(s, t) + float(s.f.d1(t))
                lhs = (m(r + h) - m(r - h)) / (2 * h)
                rhs = -m(r) ** 2 / (s.n - 1) - ricci_radial(s, r)
                assert abs(lhs - rhs) <= 1e-5 * (1.0 + abs(rhs))


class TestRho:
    def test_vanishes_on_matching_model(self):
        s = make_space("sphere", n=3, H=1.0)
        for r in (0.3, 1.2, 2.9):
            assert rho(s, 1.0, r) == 0.0

    def test_flat_space_positive_curvature_target(self):
        s = make_space("euclidean", n=3)
        for r in INTERIOR:
            assert abs(rho(s, 1.0, r) - 2.0) < 1e-14

    def test_soliton_threshold(self):
        s = make_space("gaussian_soliton", n=3, c=0.25)
        assert rho(s, 0.25, 1.0) == 0.0          # (n-1)H = 1/2 = Ric_f
        assert abs(rho(s, 0.3, 1.0) - 0.1) < 1e-12

    def test_full_dominates_radial(self):
        spaces = [make_space("perturbed_sphere", n=3, H=1.0, eps=0.07, omega=2.0),
                  perturbed_euclidean(4, 0.06, 2.5, amp=0.1, nu=1.5),
                  make_space("linear_drift", n=3, a=0.5, base="euclidean")]
        for s in spaces:
            for r in np.linspace(0.2, 0.9 * s.r_max, 17):
                assert rho(s, 1.0, r, "full") >= rho(s, 1.0, r, "radial") - 1e-14

    def test_zero_iff_bakry_emery_dominates(self):
        s = make_space("perturbed_sphere", n=3, H=1.0, eps=0.05, omega=3.0)
        for r in np.linspace(0.2, 2.9, 25):
            zero = rho(s, 1.0, r) == 0.0
            dominates = bakry_emery_radial(s, r) >= 2.0 - 1e-14
            assert zero == dominates

    def test_unknown_mode(self):
        s = make_space("euclidean", n=3)
        with pytest.raises(ValueError):
            rho(s, 1.0, 1.0, mode="sideways")


class TestIntegralRho:
    def test_constant_excess(self):
        s = make_space("euclidean", n=3)
        assert abs(integral_rho(s, 1.0, 2.0) - 4.0) < 1e-9

    def test_zero_excess(self):
        s = make_space("sphere", n=3, H=1.0)
        assert integral_rho(s, 1.0, s.r_max) == 0.0

    def test_riemann_sum_oracle(self):
        s = make_space("perturbed_sphere", n=3, H=1.0, eps=0.05, omega=3.0)
        got = integral_rho(s, 1.0, math.pi)
        ts = (np.arange(1_000_000) + 0.5) * (math.pi / 1_000_000)
        from smmskit.smms import _excess
        rho_ts = np.maximum(0.0, _excess(s, 1.0, ts, "radial"))
        oracle = float(np.sum(rho_ts)) * math.pi / 1_000_000
        assert abs(got - oracle) <= 1e-6 * oracle

    def test_truncates_at_r_max(self):
        s = make_space("sphere", n=3, H=1.0)
        assert integral_rho(s, 2.0, 50.0) == pytest.approx(
            integral_rho(s, 2.0, s.r_max), rel=1e-12)


def _curvatures(s, t):
    """Radial and tangential Ric_f at t clamped to the interior, written out
    from the profiles with the cancelling 1 - w'^2 (no pole rule)."""
    t = min(max(t, s.r_interior_lo), s.r_interior_hi)
    w, w1, w2 = float(s.w.eval(t)), float(s.w.d1(t)), float(s.w.d2(t))
    radial = -(s.n - 1.0) * w2 / w + float(s.f.d2(t))
    return radial, (-w2 / w + (s.n - 2.0) * (1.0 - w1 * w1) / (w * w)
                    + float(s.f.d1(t)) * w1 / w)


def _excess_oracle(s, H, R, mode):
    """scipy.integrate.quad of the clamped [g]_+, g = (n-1)H - Ric_f, split at
    the clamp radii and at breakpoints brentq finds on a 1025-point grid:
    the sign changes of g and, in full mode, of tangential - radial.  Near
    the poles ``_curvatures``' tangential value is rounding noise of
    relative size 1e-16/r^2, which scipy may warn about; its share of l is
    ~1e-11."""
    upper = min(R, s.r_max)

    def g(t):
        radial, tangential = _curvatures(s, t)
        return (s.n - 1.0) * H - (min(radial, tangential) if mode == "full" else radial)

    def kink(t):
        radial, tangential = _curvatures(s, t)
        return tangential - radial

    x = np.linspace(0.0, upper, 1025)
    points = {s.r_interior_lo, s.r_interior_hi}
    for fn in [g, kink] if mode == "full" else [g]:
        v = np.array([fn(t) for t in x])
        for i in np.flatnonzero(v[:-1] * v[1:] < 0.0):
            points.add(brentq(fn, x[i], x[i + 1], xtol=1e-15, rtol=1e-15))
    edges = [0.0, *sorted(p for p in points if 0.0 < p < upper), upper]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return sum(quad(lambda t: max(0.0, g(t)), a, b,
                        epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(edges[:-1], edges[1:]))


def _mp_full_excess(n, eps, R):
    """Full-mode l on ``perturbed_sphere`` (H = 1, omega = 3) at 40 digits:
    w, with w' and w'' by ``mp.diff``, clamped to [1e-6 pi, (1 - 1e-6) pi],
    breakpoints by ``findroot`` in each sign change of g and of tangential
    - radial on 257 samples, and ``mp.quad`` between them.  At 40 digits
    the cancelling 1 - w'^2 loses nothing that shows in double precision."""
    with mp.workdps(40):
        eps, lo, hi = mp.mpf(eps), mp.mpf("1e-6") * mp.pi, (1 - mp.mpf("1e-6")) * mp.pi
        upper = min(mp.mpf(R), mp.pi)

        def w(r):
            return mp.sin(r) * (1 + eps * mp.sin(3 * r) ** 2)

        def curvatures(r):
            r = min(max(r, lo), hi)
            w0, w1, w2 = w(r), mp.diff(w, r, 1), mp.diff(w, r, 2)
            return -(n - 1) * w2 / w0, -w2 / w0 + (n - 2) * (1 - w1 ** 2) / w0 ** 2

        def g(r):
            return n - 1 - min(curvatures(r))

        def kink(r):
            radial, tangential = curvatures(r)
            return tangential - radial

        xs = [upper * i / 256 for i in range(257)]
        points = {lo, hi}
        for fn in (g, kink):
            v = [fn(x) for x in xs]
            points.update(mp.findroot(fn, (xs[i], xs[i + 1]), solver="anderson")
                          for i in range(256) if v[i] * v[i + 1] < 0)
        edges = [mp.mpf(0), *sorted(p for p in points if 0 < p < upper), upper]
        return float(mp.quad(lambda r: max(0, g(r)), edges))


def _bumped():
    return make_space("custom", n=3, w={"type": "poly", "coeffs": [0.0, 1.0, 0.0, 0.02]},
                      f={"type": "poly", "coeffs": [0.0, 0.0, 0.03]}, r_max=3.0)


@pytest.fixture
def calls(monkeypatch):
    """Counts of the root searches and curvature abscissae that
    ``integral_rho`` uses, and the most panels a quadrature level took."""
    from smmskit import numkit, smms
    counts = {"roots": 0, "abscissae": 0, "panels": 0}

    def counting(name, key, size=None):
        fn = getattr(smms, name)

        def wrapped(*args, **kwargs):
            counts[key] += 1 if size is None else np.size(args[size])
            return fn(*args, **kwargs)

        monkeypatch.setattr(smms, name, wrapped)

    counting("find_root_bracketed", "roots")
    counting("_excess_of", "abscissae", size=2)  # the scan's samples and each _excess
    level = numkit._gauss_segments

    def counted_level(f, a, b, panels):
        counts["panels"] = max(counts["panels"], *panels)
        return level(f, a, b, panels)

    monkeypatch.setattr(numkit, "_gauss_segments", counted_level)
    return counts


class TestExcessQuadrature:
    """Breakpoint-split Gauss-Legendre against scipy at the 1e-10 budget."""

    @pytest.mark.parametrize("mode", ["radial", "full"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("R", [1.2, math.pi])
    def test_perturbed_sphere_matches_quad(self, n, mode, R):
        # R = r_max = pi: closed at both poles.
        s = make_space("perturbed_sphere", n=n, H=1.0, eps=0.05, omega=3.0)
        oracle = _excess_oracle(s, 1.0, R, mode)
        assert oracle > 0.5
        assert abs(integral_rho(s, 1.0, R, mode) - oracle) <= 1e-10 * oracle

    @pytest.mark.parametrize("mode", ["radial", "full"])
    def test_bumped_poly_matches_quad(self, mode):
        s = _bumped()
        oracle = _excess_oracle(s, 0.5, 2.0, mode)
        assert oracle > 1.0
        assert abs(integral_rho(s, 0.5, 2.0, mode) - oracle) <= 1e-10 * oracle

    def test_hyperbolic_full_mode_closes_no_rounding_roots(self, calls):
        # Radial and tangential curvature agree, so g is rounding noise.
        s = make_space("hyperbolic", n=3, H=-1.0)
        l = integral_rho(s, -1.0, 1.5, "full")
        assert 0.0 <= l <= 1e-10
        assert abs(l - _excess_oracle(s, -1.0, 1.5, "full")) <= 1e-10
        assert calls["roots"] <= 2

    @pytest.mark.parametrize("n, mode", [(2, "radial"), (3, "radial"), (2, "full")])
    @pytest.mark.parametrize("R", [1.2, math.pi])
    def test_eps_zero_stays_at_rounding(self, n, mode, R, calls):
        s = make_space("perturbed_sphere", n=n, H=1.0, eps=0.0, omega=3.0)
        assert 0.0 <= integral_rho(s, 1.0, R, mode) <= 1e-14
        assert calls["roots"] == 0

    def test_kinks_between_samples_double_the_panels(self, calls):
        # A spline potential has f'' piecewise linear: g = (n-1)H - f'' > 0
        # has a kink at every node, and no breakpoint marks them, so the
        # quadrature must double its panels past the first comparison.
        # Closed form: l = (n-1) H R - (f'(R) - f'(0)).
        nodes = [[r, 0.05 * r * r + 0.02 * math.sin(3.0 * r)]
                 for r in np.linspace(0.0, 3.0, 13)]
        s = make_space("custom", n=3, w={"type": "poly", "coeffs": [0.0, 1.0]},
                       f={"type": "table", "nodes": nodes}, r_max=3.0)
        exact = 2.0 * 0.5 * 2.6 - (s.f.d1(2.6) - s.f.d1(0.0))
        assert abs(integral_rho(s, 0.5, 2.6) - exact) <= 1e-10 * exact
        assert calls["panels"] > 2

    def test_sees_few_abscissae(self, calls):
        # Counts do not depend on the machine.  Simpson panel doubling
        # across the kinks took 264 044 abscissae for this integral.
        s = make_space("perturbed_sphere", n=3, H=1.0, eps=0.05, omega=3.0)
        integral_rho(s, 1.0, math.pi)
        assert 0 < calls["abscissae"] <= 3000

    def test_full_mode_scan_reads_the_curvature_once(self, monkeypatch):
        # The breakpoint scan read its 257 samples twice in full mode, once
        # for g and once for tangential - radial.  Every other array read is
        # one integrand call of the quadrature.
        from smmskit import smms
        reads, integrand = [], []
        read, quad = smms._bakry_emery, smms.quad_grid

        def counted_read(s, r, mode):
            if np.ndim(r):
                reads.append(np.size(r))
            return read(s, r, mode)

        def counted_quad(f, edges, *args, **kwargs):
            return quad(lambda t: integrand.append(np.size(t)) or f(t), edges,
                        *args, **kwargs)

        monkeypatch.setattr(smms, "_bakry_emery", counted_read)
        monkeypatch.setattr(smms, "quad_grid", counted_quad)
        s = make_space("perturbed_sphere", n=3, H=1.0, eps=0.05, omega=3.0)
        integral_rho(s, 1.0, 1.2, "full")
        assert integrand and reads == [257] + integrand

    @pytest.mark.parametrize("mode", ["radial", "full"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_mc_cumulative_excess_ends_at_integral_rho(self, n, mode):
        # MC_DRIFT integrates rho on its 256 radii plus integral_rho's
        # breakpoints; rhs - (m_H + a) at the last radius R is then l(R).
        s = make_space("perturbed_sphere", n=n, H=1.0, eps=0.05, omega=3.0)
        report = check_mc_drift(s, 1.0, mode=mode)
        radii, rhs = report.grid[:, 0], report.grid[:, 2]
        cum = rhs - mean_curvature_model(float(n), 1.0, radii)  # a = 0
        R = float(radii[-1])
        assert np.all(np.diff(cum) >= -1e-12)
        assert abs(cum[-1] - integral_rho(s, 1.0, R, mode)) <= 1e-12


class TestPoleRule:
    """1 - w'^2 near a pole without cancellation (smms._one_minus_w1_squared)."""

    def test_sphere_closed_form_at_both_poles(self):
        # w = sin r: 1 - w'^2 = sin^2 r, which 1 - cos^2 r loses near 0 and
        # pi (relative error 1e-16/d^2 at distance d from the pole); the
        # rule holds within 1.5e-3 r_max.  A radius near pi is known only to
        # spacing(pi), so w there carries that much absolute error.
        from smmskit.smms import _one_minus_w1_squared
        s = make_space("sphere", n=3, H=1.0)
        d = np.geomspace(s.r_interior_lo, 1e-3 * s.r_max, 60)
        for r, ulp in ((d, 0.0), (math.pi - d, np.spacing(math.pi))):
            want = np.sin(r) ** 2
            got = _one_minus_w1_squared(s, r, np.cos(r))
            assert np.all(np.abs(got - want) <= 1e-13 * want + 2.0 * ulp * np.sin(r))
            floats = [_one_minus_w1_squared(s, float(x), math.cos(x)) for x in r]
            assert np.array_equal(floats, got)

    @pytest.mark.parametrize("n, eps, R", [(3, 0.05, 1.2), (4, 0.03, math.pi)])
    def test_full_mode_matches_mpmath(self, n, eps, R):
        # References 1.9507942942539686 and 3.8798831394168459; the
        # tangential noise left ~1e-11 relative before the pole rule.
        s = make_space("perturbed_sphere", n=n, H=1.0, eps=eps, omega=3.0)
        want = _mp_full_excess(n, eps, R)
        assert abs(integral_rho(s, 1.0, R, "full") - want) <= 1e-12 * want

    def test_no_spurious_kink_near_the_pole(self, calls):
        # Rounding noise in tangential - radial (~c r^2 here) closed a kink
        # root at 6.4e-5, and the segment below it doubled to 4096 panels.
        from smmskit.smms import _excess_breakpoints
        s = make_space("perturbed_sphere", n=3, H=1.0, eps=0.05, omega=3.0)
        breakpoints = _excess_breakpoints(s, 1.0, 0.0, 1.2, "full")
        assert [b for b in breakpoints if b < 1e-3 * s.r_max] == [s.r_interior_lo]
        integral_rho(s, 1.0, 1.2, "full")
        assert calls["panels"] <= 8

    @pytest.mark.parametrize("name, params", [
        ("perturbed_sphere", {"H": 1.0, "eps": 0.03, "omega": 3.0}),
        ("perturbed_sphere", {"H": 4.0, "eps": 0.05, "omega": 2.0}),
        ("gaussian_soliton", {}),
    ])
    def test_scalar_full_excess_is_the_array_path(self, name, params):
        # A float read (the breakpoint root searches) stays in plain floats
        # and gives the array path's bits below the pole rule's r_s, in the
        # middle of the range, and near a closed far pole.
        from smmskit.smms import _POLE_RULE, _excess
        s = make_space(name, n=3, **params)
        r_s = _POLE_RULE * s.r_max
        d = np.concatenate([np.geomspace(s.r_interior_lo, 0.99 * r_s, 8),
                            np.geomspace(1.01 * r_s, 0.05 * s.r_max, 8)])
        rs = [d, np.linspace(0.1, 0.9, 9) * s.r_max]
        if s.closed:
            rs.append(s.r_max - d)
        for r in np.concatenate(rs):
            for H in (-1.0, 0.0, 1.0):
                got = _excess(s, H, float(r), "full")
                assert type(got) is float
                want = _excess(s, H, np.array([r]), "full")[0]
                assert np.float64(got).tobytes() == want.tobytes()

    def test_hyperbolic_full_mode_is_exact(self):
        # Ric_f = -(n-1) in both directions, so l = 0 (it was 8.5e-13).
        s = make_space("hyperbolic", n=3, H=-1.0)
        assert 0.0 <= integral_rho(s, -1.0, 3.0, "full") <= 1e-14

    def test_closed_finite_difference_profile(self):
        # w = sin r without derivatives: the round sphere, l = 0 up to the
        # finite differences' error; it raised SubdivisionLimitError.
        s = make_space("custom", n=3, w=RadialProfile(np.sin, r_max=math.pi),
                       r_max=math.pi, closed=True)
        assert 0.0 <= integral_rho(s, 1.0, math.pi, "full") <= 1e-8


class TestDivergentExcess:
    def test_drift_pole_in_full_mode(self):
        # f = -a r: f'(0) = -a, so the tangential excess grows like a/r.
        s = make_space("linear_drift", n=3, a=0.5)
        with pytest.raises(DivergentExcessError, match=r"0\.5/r near the pole r=0"):
            integral_rho(s, 0.2, 1.5, "full")
        with pytest.raises(DivergentExcessError):
            check_mc_drift(s, 0.2, mode="full", n_grid=16)
        assert integral_rho(s, 0.2, 1.5) == pytest.approx(0.6, rel=1e-12)

    def test_cumulative_excess_rejects_the_pole_itself(self):
        # It ended in SubdivisionLimitError, integrating the a/r pole.
        s = make_space("linear_drift", n=3, a=0.5)
        with pytest.raises(DivergentExcessError, match=r"0\.5/r near the pole r=0"):
            cumulative_excess(s, 0.2, [0.5, 1.0, 1.5], "full")

    def test_unknown_mode_is_rejected(self):
        # "Full" was taken as radial: it returned where "full" raises.
        s = make_space("linear_drift", n=3, a=0.5)
        with pytest.raises(DivergentExcessError):
            require_finite_excess(s, "full", 0.0, 1.5)
        for mode in ("Full", "tangential"):
            with pytest.raises(ValueError, match=f"unknown rho mode '{mode}'"):
                require_finite_excess(s, mode, 0.0, 1.5)

    def test_far_pole_counts_only_when_reached(self):
        # Round sphere with f = 0.1 r^2: f'(pi) > 0, so rho ~ 0.2 pi/(pi - r).
        sphere = make_space("sphere", n=3, H=1.0)
        s = make_space("custom", n=3, w=sphere.w, f={"type": "poly", "coeffs": [0.0, 0.0, 0.1]},
                       r_max=math.pi, closed=True)
        with pytest.raises(DivergentExcessError, match="far pole"):
            integral_rho(s, 1.0, math.pi, "full")
        for R, mode in ((3.0, "full"), (math.pi, "radial")):
            assert math.isfinite(integral_rho(s, 1.0, R, mode))

    def test_smooth_poles_are_finite(self):
        for name, params in [("sphere", {}), ("perturbed_sphere", {}), ("hyperbolic", {}),
                             ("gaussian_soliton", {}), ("linear_drift", {"a": 0.0})]:
            s = make_space(name, n=3, **params)
            assert math.isfinite(integral_rho(s, 1.0, s.r_max, "full"))

    def test_finite_difference_error_is_no_pole(self):
        # Without derivatives, w = r + 0.1 r^3 gets w''(0) r_max = +1.3e-11
        # from its finite differences: rounding, not a pole.
        as_array = lambda fn: (lambda r: fn(np.asarray(r, dtype=float)))
        s = make_space("custom", n=3, r_max=5.0,
                       w=RadialProfile(as_array(lambda r: r + 0.1 * r ** 3), r_max=5.0),
                       f=RadialProfile(as_array(lambda r: 0.2 * np.cos(r)), r_max=5.0))
        assert 0.0 < s.w.d2(0.0) < 1e-11
        for mode in ("radial", "full"):
            assert math.isfinite(integral_rho(s, 1.0, 5.0, mode))


class TestPotentialBounds:
    def test_zero_potential(self):
        pb = potential_bounds(make_space("euclidean", n=3))
        assert pb.k == 0.0 and pb.a == 0.0 and pb.grad == 0.0

    def test_linear_extrema(self):
        s = make_space("linear_drift", n=3, a=0.3, base="euclidean", r_max=2.0)
        pb = potential_bounds(s)
        assert abs(pb.k - 0.6) < 1e-12
        assert abs(pb.a - 0.3) < 1e-12

    def test_soliton_increasing(self):
        s = make_space("gaussian_soliton", n=3, c=0.25, r_max=2.0)
        pb = potential_bounds(s)
        assert abs(pb.k - 1.0) < 1e-12
        assert pb.a == 0.0
        assert abs(pb.grad - 1.0) < 1e-12


class TestMeasures:
    def test_euclidean_area_volume(self):
        s = make_space("euclidean", n=3)
        for r in (0.5, 1.0, 2.0):
            assert abs(weighted_area(s, r) - 4 * math.pi * r ** 2) < 1e-10
            assert abs(weighted_volume(s, r) - 4 * math.pi * r ** 3 / 3) < 1e-9

    def test_round_sphere_total_volume(self):
        s = make_space("sphere", n=3, H=1.0)
        assert abs(weighted_volume(s, math.pi) - 2 * math.pi ** 2) < 1e-9

    def test_drift_hand_integral(self):
        # 2 pi int_0^1 t e^t dt = 2 pi.
        s = make_space("linear_drift", n=2, a=1.0, base="euclidean", r_max=5.0)
        assert abs(weighted_volume(s, 1.0) - 2 * math.pi) < 1e-9

    def test_fundamental_theorem(self):
        s = make_space("gaussian_soliton", n=3, c=0.1)
        h = 1e-5
        for R in (0.5, 1.5, 2.5):
            dv = (weighted_volume(s, R + h) - weighted_volume(s, R - h)) / (2 * h)
            assert abs(dv - weighted_area(s, R)) <= 1e-6 * weighted_area(s, R)

    def test_matches_model_on_space_forms(self):
        for name, H in (("euclidean", 0.0), ("sphere", 1.0), ("hyperbolic", -1.0)):
            kwargs = {"n": 3} if name == "euclidean" else {"n": 3, "H": H}
            s = make_space(name, **kwargs)
            m = ModelSpace(3.0, H)
            for r in np.linspace(0.1, 0.9 * s.r_max, 12):
                assert abs(weighted_area(s, r) - area_model(m, r)) \
                    <= 1e-9 * area_model(m, r)


class TestSampleCurvature:
    def test_fields_consistent(self):
        s = make_space("perturbed_sphere", n=3, H=1.0, eps=0.05, omega=3.0)
        c = sample_curvature(s, 1.0, 1.3, "full")
        assert c.rho >= (s.n - 1) * 1.0 - c.ric_f_radial - 1e-12
        assert c.lambda_min <= c.ric_f_radial + 1e-12
        assert abs(c.m_f - (c.m - float(s.f.d1(1.3)))) < 1e-12

    def test_rho_integral_nondecreasing(self):
        s = make_space("perturbed_sphere", n=3, H=1.0, eps=0.05, omega=3.0)
        vals = [sample_curvature(s, 1.0, r).rho_integral for r in (0.5, 1.0, 2.0, 3.0)]
        assert np.all(np.diff(vals) >= -1e-12)


class TestProfiles:
    def test_fd_fallback_accuracy(self):
        p = RadialProfile(lambda r: np.sin(np.asarray(r, dtype=float)), r_max=3.0)
        for r in (1e-5, 0.5, 1.5, 2.9999):
            assert abs(p.d1(r) - math.cos(r)) < 1e-7
            assert abs(p.d2(r) + math.sin(r)) < 1e-5

    @pytest.mark.parametrize("order", [1, 2])
    def test_fd_on_arrays_matches_the_float_path(self, order):
        # Central stencils inside, one-sided ones within 2h of either end.
        p = RadialProfile(lambda r: np.sin(r) + 0.1 * np.cos(3.0 * r), r_max=math.pi)
        h = p._h
        rs = np.concatenate([np.linspace(0.0, math.pi, 100),
                             [h, 2 * h, 3 * h, math.pi - h, math.pi - 2 * h, math.pi - 3 * h]])
        got = p.d1(rs) if order == 1 else p.d2(rs)
        want = np.array([p.d1(float(r)) if order == 1 else p.d2(float(r)) for r in rs])
        assert got.shape == rs.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        assert (p.d1 if order == 1 else p.d2)(rs.reshape(2, -1)).shape == (2, len(rs) // 2)

    def test_analytic_d2_matches_differences(self):
        s = make_space("perturbed_sphere", n=3, H=1.0, eps=0.05, omega=3.0)
        h = 1e-4
        for r in np.linspace(0.3, 2.8, 9):
            fd = (s.w.eval(r + h) - 2 * s.w.eval(r) + s.w.eval(r - h)) / h ** 2
            assert abs(fd - s.w.d2(r)) <= 1e-6 * (1.0 + abs(s.w.d2(r)))

    def test_poly_profile(self):
        p = profile_from_spec({"type": "poly", "coeffs": [0.0, 1.0, 0.0, -0.1]}, 2.0)
        assert abs(p.eval(1.5) - (1.5 - 0.1 * 1.5 ** 3)) < 1e-14
        assert abs(p.d1(1.5) - (1.0 - 0.3 * 1.5 ** 2)) < 1e-14
        assert abs(p.d2(1.5) - (-0.6 * 1.5)) < 1e-14

    def test_poly_profile_is_bitwise_numpy_polynomial(self):
        # Horner on floats and on arrays must give numpy's bits, signed
        # zeros included.
        rng = np.random.default_rng(23)
        for _ in range(60):
            coeffs = rng.normal(size=rng.integers(1, 9)) * 10.0 ** rng.integers(-3, 3, 1)
            p = profile_from_spec({"type": "poly", "coeffs": coeffs.tolist()}, 4.0)
            ref = np.polynomial.Polynomial(coeffs)
            rs = np.concatenate([[0.0], rng.uniform(-4.0, 4.0, 40)])
            for got, want in ((p.eval, ref), (p.d1, ref.deriv(1)), (p.d2, ref.deriv(2))):
                assert got(rs).tobytes() == want(rs).tobytes()
                floats = np.array([got(r) for r in rs.tolist()])
                assert floats.tobytes() == want(rs).tobytes()

    @pytest.mark.parametrize("coeffs", [
        [2.5], [-2.5], [0.0], [-0.0], [1.5, -3.0], [-1.5, 3.0], [0.0, 1.0, 0.0],
        [-0.7, 0.0, 0.0], [0.0, 1.0, 0.0, 0.02], [0.3, -1.0, 0.5, 0.0],
        [-0.1, 0.0, 2.0, -0.3, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]])
    def test_poly_jet_is_numpy_deriv_with_trailing_zeros(self, coeffs):
        # The sweeps are built from the list (j c_j per derivative, polyder's
        # zero for a derivative past the degree), not numpy objects; the
        # bits stay numpy's on floats and arrays, signed zeros included.
        # (Not at r = -0.0, which Polynomial's domain map turns into +0.0.)
        p = profile_from_spec({"type": "poly", "coeffs": coeffs}, 4.0)
        ref = np.polynomial.Polynomial(coeffs)
        rs = np.array([0.0, 0.25, 1.0, 3.7, -1.5, -2.0])
        for k, want in enumerate((ref, ref.deriv(1), ref.deriv(2))):
            arr = p.jet(rs, (k,))[0]
            assert arr.tobytes() == want(rs).tobytes()
            floats = np.array([p.jet(r, (k,))[0] for r in rs.tolist()])
            assert floats.tobytes() == want(rs).tobytes()
            assert all(type(p.jet(r, (k,))[0]) is float for r in rs.tolist())

    def test_fourier_profile(self):
        p = profile_from_spec({"type": "fourier", "coeffs": [0.2, 0.1, 0.05]}, 2 * math.pi)
        r = 0.8
        want = 0.2 + 0.1 * math.cos(r) + 0.05 * math.sin(r)
        assert abs(p.eval(r) - want) < 1e-14
        assert abs(p.d1(r) - (-0.1 * math.sin(r) + 0.05 * math.cos(r))) < 1e-14

    def test_table_profile_spline(self):
        rs = np.linspace(0.0, 3.0, 16)
        nodes = [v for pair in zip(rs, np.sin(rs)) for v in pair]
        p = profile_from_spec({"type": "table", "nodes": nodes}, 3.0)
        for r in (0.7, 1.4, 2.6):
            assert abs(p.eval(r) - math.sin(r)) < 5e-4
            assert abs(p.d1(r) - math.cos(r)) < 5e-3

    def test_table_requires_eight_nodes(self):
        with pytest.raises(ValueError):
            profile_from_spec({"type": "table", "nodes": [0, 0, 1, 1, 2, 2]}, 2.0)

    def test_unknown_profile_type(self):
        with pytest.raises(ValueError):
            profile_from_spec({"type": "chebyshev", "coeffs": [1.0]}, 1.0)


def _custom_spaces():
    rs = np.linspace(0.0, 3.0, 12)
    table = [v for pair in zip(rs, 0.1 * np.cos(rs)) for v in pair]
    r_line = {"type": "poly", "coeffs": [0.0, 1.0]}
    return {
        "poly": make_space("custom", n=3, r_max=3.0,
                           w={"type": "poly", "coeffs": [0.0, 1.0, 0.0, -0.02]},
                           f={"type": "poly", "coeffs": [0.0, 0.1, 0.05]}),
        "fourier": make_space("custom", n=4, r_max=3.0, w=r_line,
                              f={"type": "fourier",
                                 "coeffs": [0.1, 0.05, 0.02, -0.03, 0.01]}),
        "table": make_space("custom", n=3, r_max=3.0, w=r_line,
                            f={"type": "table", "nodes": table}),
    }


SCALAR_PATH_SPACES = {
    "euclidean": make_space("euclidean", n=3),
    "sphere": make_space("sphere", n=3, H=1.0),
    "hyperbolic": make_space("hyperbolic", n=4, H=-0.7),
    "gaussian_soliton": make_space("gaussian_soliton", n=3, c=0.25),
    "linear_drift": make_space("linear_drift", n=3, a=0.5, base="sphere"),
    "perturbed_sphere": make_space("perturbed_sphere", n=3, eps=0.05, omega=3.0),
    **_custom_spaces(),
}


class TestScalarMeanCurvature:
    """A float radius gives a float m_f through the array path: the same
    numbers and the same domain errors as an array of radii."""

    def test_catalog_covered(self):
        assert set(CATALOG) - {"custom"} <= set(SCALAR_PATH_SPACES)

    @pytest.mark.parametrize("name", sorted(SCALAR_PATH_SPACES))
    def test_matches_array_path(self, name):
        s = SCALAR_PATH_SPACES[name]
        rs = np.linspace(1e-6, 1.0 - 1e-6, 101) * s.r_max
        array = mean_curvature_f(s, rs)
        scalar = np.array([mean_curvature_f(s, float(r)) for r in rs])
        assert all(type(mean_curvature_f(s, float(r))) is float for r in rs[:3])
        np.testing.assert_allclose(scalar, array, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("name", sorted(SCALAR_PATH_SPACES))
    def test_same_domain_errors(self, name):
        s = SCALAR_PATH_SPACES[name]
        outside = [0.0, -0.5, 1.5 * s.r_max] + ([s.r_max] if s.closed else [])
        for r in outside:
            with pytest.raises(ValueError) as scalar:
                mean_curvature_f(s, r)
            with pytest.raises(ValueError) as array:
                mean_curvature_f(s, np.array([0.5 * s.r_max, r]))
            assert str(scalar.value) == str(array.value)


# The profile reads as they were written before the jet, one callable per
# order: the jet of a profile whose formula is unchanged must give their bits.
def _sn_reads(H):
    return (lambda r: model_sn(H, r), lambda r: model_sn_prime(H, r),
            lambda r: -H * np.asarray(model_sn(H, r), dtype=float))


_LINE_READS = (lambda r: 1.0 * r, lambda r: 1.0 + 0.0 * r, lambda r: 0.0 * r)
_ZERO_READS = (lambda r: 0.0 + 0.0 * r, lambda r: 0.0 * r, lambda r: 0.0 * r)


def _poly_reads(coeffs):
    p = np.polynomial.Polynomial(coeffs)
    return p, p.deriv(1), p.deriv(2)


def _perturbed_reads(H, eps, omega):
    """w = sn_H (1 + eps sin^2(omega r)) with sin and cos of 2 omega r."""
    sn = lambda r: model_sn(H, r)
    p = lambda r: 1.0 + eps * np.sin(omega * r) ** 2
    p1 = lambda r: eps * omega * np.sin(2.0 * omega * r)
    p2 = lambda r: 2.0 * eps * omega * omega * np.cos(2.0 * omega * r)
    return (lambda r: sn(r) * p(r),
            lambda r: model_sn_prime(H, r) * p(r) + sn(r) * p1(r),
            lambda r: -H * sn(r) * p(r) + 2.0 * model_sn_prime(H, r) * p1(r) + sn(r) * p2(r))


def _fourier_reads(coeffs, r_max):
    """One cos and one sin per harmonic and per order."""
    a0, pairs = coeffs[0], coeffs[1:]
    a_k = pairs[0::2]
    b_k = (pairs[1::2] + [0.0])[:len(a_k)]

    def ev(r, order):
        r = np.asarray(r, dtype=float)
        out = np.full_like(r, a0 if order == 0 else 0.0)
        for k, (a, b) in enumerate(zip(a_k, b_k), start=1):
            w = 2.0 * math.pi / r_max * k
            if order == 0:
                out = out + a * np.cos(w * r) + b * np.sin(w * r)
            elif order == 1:
                out = out + w * (-a * np.sin(w * r) + b * np.cos(w * r))
            else:
                out = out - w ** 2 * (a * np.cos(w * r) + b * np.sin(w * r))
        return out

    return tuple(lambda r, k=k: ev(r, k) for k in range(3))


def _table_reads(sp):
    """The natural spline's three piecewise formulas, each with its own lookup."""
    def piece(r):
        r = np.asarray(r, dtype=float)
        i = np.clip(np.searchsorted(sp.xs, r, side="right") - 1, 0, len(sp.xs) - 2)
        return i, sp.xs[i + 1] - sp.xs[i], r - sp.xs[i], sp.xs[i + 1] - r

    def ev(r):
        i, h, t, u = piece(r)
        return (sp.m2[i] * u ** 3 + sp.m2[i + 1] * t ** 3) / (6 * h) \
            + (sp.ys[i] / h - sp.m2[i] * h / 6) * u \
            + (sp.ys[i + 1] / h - sp.m2[i + 1] * h / 6) * t

    def d1(r):
        i, h, t, u = piece(r)
        return (-sp.m2[i] * u ** 2 + sp.m2[i + 1] * t ** 2) / (2 * h) \
            - (sp.ys[i] / h - sp.m2[i] * h / 6) \
            + (sp.ys[i + 1] / h - sp.m2[i + 1] * h / 6)

    def d2(r):
        i, h, t, u = piece(r)
        return (sp.m2[i] * u + sp.m2[i + 1] * t) / h

    return ev, d1, d2


def _fd_reads(fn, h, r_max):
    """Five-point central differences, one-sided within 2h of an end."""
    def stencil(x, order):
        array = np.ndim(x) > 0
        x = np.asarray(x, dtype=float) if array else float(x)
        if order == 1:
            central = (fn(x - 2 * h) - 8 * fn(x - h) + 8 * fn(x + h) - fn(x + 2 * h)) / (12 * h)
        else:
            central = (-fn(x - 2 * h) + 16 * fn(x - h) - 30 * fn(x) + 16 * fn(x + h)
                       - fn(x + 2 * h)) / (12 * h * h)
        sgn = np.where(x < 2 * h, 1.0, -1.0) if array else (1.0 if x < 2 * h else -1.0)
        v = [fn(x + sgn * i * h) for i in range(5)]
        if order == 1:
            side = sgn * (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
        else:
            side = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)
        if array:
            return np.where((x < 2 * h) | (x > r_max - 2 * h), side, central)
        return side if x < 2 * h or x > r_max - 2 * h else central

    return fn, lambda r: stencil(r, 1), lambda r: stencil(r, 2)


def _sine(r):
    return math.sin(r) if isinstance(r, float) else np.sin(r)


def _fd_space():
    return make_space("custom", n=3, r_max=math.pi, closed=True,
                      w=RadialProfile(_sine, r_max=math.pi),
                      f=RadialProfile(lambda r: 0.2 * np.cos(r), d1=lambda r: -0.2 * np.sin(r),
                                      r_max=math.pi))


def _jet_cases():
    """name -> (space, {profile: (reads, exact)}); ``exact`` where the jet
    keeps the formula, else a few ulp where an identity replaces a call."""
    sp = SCALAR_PATH_SPACES
    fd = _fd_space()
    fourier = [0.1, 0.05, 0.02, -0.03, 0.01]
    drift_f = (lambda r: _ZERO_READS[0](r) - 0.5 * r, lambda r: _ZERO_READS[1](r) - 0.5,
               _ZERO_READS[2])
    soliton_f = (lambda r: 0.25 * np.asarray(r, dtype=float) ** 2,
                 lambda r: 2.0 * 0.25 * np.asarray(r, dtype=float),
                 lambda r: np.full_like(np.asarray(r, dtype=float), 2.0 * 0.25))
    return {
        "euclidean": (sp["euclidean"], {"w": (_LINE_READS, True), "f": (_ZERO_READS, True)}),
        "sphere": (sp["sphere"], {"w": (_sn_reads(1.0), True), "f": (_ZERO_READS, True)}),
        "hyperbolic": (sp["hyperbolic"], {"w": (_sn_reads(-0.7), True),
                                          "f": (_ZERO_READS, True)}),
        "gaussian_soliton": (sp["gaussian_soliton"], {"w": (_LINE_READS, True),
                                                      "f": (soliton_f, True)}),
        "linear_drift": (sp["linear_drift"], {"w": (_sn_reads(1.0), True),
                                              "f": (drift_f, True)}),
        "perturbed_sphere": (sp["perturbed_sphere"], {
            "w": (_perturbed_reads(1.0, 0.05, 3.0), False), "f": (_ZERO_READS, True)}),
        "poly": (sp["poly"], {"w": (_poly_reads([0.0, 1.0, 0.0, -0.02]), True),
                              "f": (_poly_reads([0.0, 0.1, 0.05]), True)}),
        "fourier": (sp["fourier"], {"w": (_poly_reads([0.0, 1.0]), True),
                                    "f": (_fourier_reads(fourier, 3.0), False)}),
        "table": (sp["table"], {"w": (_poly_reads([0.0, 1.0]), True),
                                "f": (_table_reads(sp["table"].f._jet.__self__), True)}),
        "finite_differences": (fd, {
            "w": (_fd_reads(_sine, fd.w._h, math.pi), True),
            "f": ((lambda r: 0.2 * np.cos(r), lambda r: -0.2 * np.sin(r),
                   _fd_reads(lambda r: 0.2 * np.cos(r), fd.f._h, math.pi)[2]), True)}),
    }


JET_CASES = _jet_cases()


class TestJet:
    """One read per profile: the value and both derivatives in one call."""

    def test_every_catalog_space_and_spec_kind_covered(self):
        assert set(CATALOG) - {"custom"} <= set(JET_CASES)
        assert {"poly", "fourier", "table", "finite_differences"} <= set(JET_CASES)

    @pytest.mark.parametrize("name", sorted(JET_CASES))
    @pytest.mark.parametrize("prof", ["w", "f"])
    def test_matches_the_per_order_reads(self, name, prof):
        s, cases = JET_CASES[name]
        reads, exact = cases[prof]
        p = getattr(s, prof)
        h = p._h
        rs = np.concatenate([np.linspace(0.0, s.r_max, 101),
                             [h, 3 * h, s.r_max - h, s.r_max - 3 * h]])
        arrays = p.jet(rs)
        floats = np.array([p.jet(r) for r in rs.tolist()]).T
        for k, read in enumerate(reads):
            want = np.asarray(read(rs), dtype=float)
            want_floats = np.array([float(read(r)) for r in rs.tolist()])
            if exact:
                assert arrays[k].tobytes() == want.tobytes()
                assert floats[k].tobytes() == want_floats.tobytes()
            else:  # a few ulp of the profile's scale
                ulp = np.spacing(np.max(np.abs(want)))
                assert np.max(np.abs(arrays[k] - want)) <= 4 * ulp
                assert np.max(np.abs(floats[k] - want_floats)) <= 4 * ulp

    @pytest.mark.parametrize("name", sorted(JET_CASES))
    def test_float_in_gives_floats_out(self, name):
        s, _ = JET_CASES[name]
        for p in (s.w, s.f):
            for r in (0.37 * s.r_max, 0.0, np.float64(0.5 * s.r_max)):
                out = p.jet(r)
                assert len(out) == 3 and all(type(v) is float for v in out)
                assert all(type(read(r)) is float for read in (p, p.eval, p.d1, p.d2))
            assert all(type(v) is float for v in p.jet(np.asarray(0.4 * s.r_max)))
            rs = np.linspace(0.1, 0.9, 6).reshape(2, 3) * s.r_max
            assert all(isinstance(v, np.ndarray) and v.shape == (2, 3) for v in p.jet(rs))

    @pytest.mark.parametrize("name", sorted(JET_CASES))
    def test_any_orders_match_eval_d1_d2(self, name):
        s, _ = JET_CASES[name]
        rs = np.linspace(0.0, s.r_max, 37)
        for p in (s.w, s.f):
            single = (p.eval(rs), p.d1(rs), p.d2(rs))
            for orders in ((0,), (1,), (2,), (0, 2), (2, 0), (1, 2), (0, 1), (0, 1, 2)):
                got = p.jet(rs, orders)
                assert [v.tobytes() for v in got] == [single[k].tobytes() for k in orders]

    @pytest.mark.parametrize("name", sorted(JET_CASES))
    @pytest.mark.parametrize("mode", ["radial", "full"])
    def test_one_read_per_profile_per_curvature_read(self, name, mode, monkeypatch):
        from smmskit import smms
        s, _ = JET_CASES[name]
        reads = []
        for prof in ("w", "f"):
            p = getattr(s, prof)
            monkeypatch.setattr(p, "_jet", lambda x, orders, jet=p._jet, prof=prof:
                                reads.append((prof, orders)) or jet(x, orders))
        want = ([("w", (0, 2)), ("f", (2,))] if mode == "radial"
                else [("w", (0, 1, 2)), ("f", (1, 2))])
        for r in (np.linspace(0.1, 0.9, 33) * s.r_max, 0.5 * s.r_max):
            reads.clear()
            smms._bakry_emery(s, r, mode)
            assert reads == want
        # Within the pole rule's reach the tangential curvature reads w''
        # once more, at the rule's Gauss nodes.
        reads.clear()
        smms._bakry_emery(s, np.array([1e-4, 0.5]) * s.r_max, mode)
        assert reads == want + ([("w", (2,))] if mode == "full" else [])


class TestBreakpointScanReuse:
    """A check's refinement takes its first pass's excess breakpoints."""

    @pytest.mark.parametrize("mode", ["radial", "full"])
    def test_a_refined_mc_check_closes_its_breakpoints_once(self, mode, monkeypatch):
        from smmskit import comparison, smms
        scans = []
        scan = smms._excess_breakpoints

        def counted(*args):
            scans.append(args[2:4])
            return scan(*args)

        monkeypatch.setattr(smms, "_excess_breakpoints", counted)
        space = lambda: make_space("perturbed_sphere", n=3, H=1.0, eps=1e-8, omega=3.0)
        report = check_mc_drift(space(), 1.0, a=0.0, mode=mode)
        assert len(report.grid) == 4 * 255 + 1  # every cell refined
        assert len(scans) == 1
        # The same numbers as passes that close them again on the range.
        monkeypatch.setattr(comparison, "excess_integrator",
                            lambda s, H, lo, hi, mode: lambda radii: smms.excess_integrator(
                                s, H, lo, hi, mode)(radii))
        again = check_mc_drift(space(), 1.0, a=0.0, mode=mode)
        assert len(scans) == 3
        assert again.grid.tobytes() == report.grid.tobytes()
