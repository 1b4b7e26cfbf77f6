"""Kernel oracles: closed forms, recurrences, and randomized linear systems."""

import math

import numpy as np
import pytest

from scipy.special import roots_jacobi

from smmskit.numkit import (BracketError, NonFiniteError, SubdivisionLimitError,
                            Tolerance, find_root_bracketed, gauss_jacobi,
                            integrate_ode, quad_adaptive, quad_grid, sphere_area)

TIGHT = Tolerance(abs_tol=1e-10, rel_tol=1e-10)


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert 0 < tol.abs_tol < 1 and 0 < tol.rel_tol < 1

    @pytest.mark.parametrize("bad", [
        dict(abs_tol=0.0), dict(abs_tol=2.0), dict(rel_tol=-1e-3),
        dict(max_steps=3),
    ])
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ValueError):
            Tolerance(**bad)


class TestIntegrateOde:
    def test_exponential(self):
        traj = integrate_ode(lambda t, y: y, 0.0, [1.0], 1.0, TIGHT)
        assert abs(traj.terminal()[0] - math.e) < 1e-9

    def test_harmonic_oscillator(self):
        rhs = lambda t, y: np.array([y[1], -y[0]])
        traj = integrate_ode(rhs, 0.0, [0.0, 1.0], math.pi / 2, TIGHT)
        assert abs(traj.terminal()[0] - 1.0) < 1e-9

    def test_riccati_closed_form(self):
        # m' = -m^2 with m(1) = 1 has m(t) = 1/t.
        traj = integrate_ode(lambda t, y: -y ** 2, 1.0, [1.0], 4.0, TIGHT)
        assert abs(traj.terminal()[0] - 0.25) < 1e-9

    def test_dense_output_matches_solution(self):
        # Cubic Hermite between nodes: O(h^4) on the capped step.
        traj = integrate_ode(lambda t, y: y, 0.0, [1.0], 1.0, TIGHT)
        for t in np.linspace(0.0, 1.0, 23):
            assert abs(traj.at(t)[0] - math.exp(t)) < 5e-7
        traj = integrate_ode(lambda t, y: y, 0.0, [1.0], 1.0, TIGHT,
                             max_step=1.0 / 64)
        for t in np.linspace(0.0, 1.0, 23):
            assert abs(traj.at(t)[0] - math.exp(t)) < 2e-9

    def test_nodes_strictly_increasing_and_start_at_ic(self):
        traj = integrate_ode(lambda t, y: -y, 0.0, [2.0], 3.0)
        assert traj.ts[0] == 0.0 and traj.ys[0][0] == 2.0
        assert np.all(np.diff(traj.ts) > 0)
        assert len(traj.errors) == len(traj.ts)
        assert np.all(traj.errors[1:] <= 1.0)  # accepted-step estimates

    def test_nonfinite_rhs_raises(self):
        def rhs(t, y):
            return np.array([math.inf if t > 0.5 else 1.0])
        with pytest.raises(NonFiniteError):
            integrate_ode(rhs, 0.0, [0.0], 1.0)

    def test_dense_output_range_check(self):
        traj = integrate_ode(lambda t, y: y, 0.0, [1.0], 1.0)
        with pytest.raises(ValueError):
            traj.at(1.5)

    def test_dense_output_on_arrays_matches_float_calls(self):
        traj = integrate_ode(lambda t, y: (y[1], -y[0]), 0.0, [0.0, 1.0], 3.0)
        ts = np.random.default_rng(3).uniform(0.0, 3.0, 500)
        rows = traj.at(ts)
        assert rows.shape == (500, 2)
        assert np.array_equal(rows, np.array([traj.at(float(t)) for t in ts]))
        for bad in ([0.5, 3.5], [-0.5, 1.0]):
            with pytest.raises(ValueError, match="outside trajectory range"):
                traj.at(np.array(bad))

    def test_random_linear_systems(self):
        # 2x2 constant-coefficient systems against the matrix exponential.
        rng = np.random.default_rng(7)
        for _ in range(100):
            A = rng.uniform(-2.0, 2.0, size=(2, 2))
            y0 = rng.uniform(-1.0, 1.0, size=2)
            t1 = rng.uniform(0.4, 1.5)
            traj = integrate_ode(lambda t, y: A @ y, 0.0, y0, t1, TIGHT)
            lam, V = np.linalg.eig(A)
            exact = (V @ np.diag(np.exp(lam * t1)) @ np.linalg.inv(V) @ y0).real
            assert np.allclose(traj.terminal(), exact, rtol=1e-6, atol=1e-6)


class TestQuadAdaptive:
    def test_sin_over_period(self):
        value, _ = quad_adaptive(math.sin, 0.0, math.pi, TIGHT)
        assert abs(value - 2.0) < 1e-9

    def test_cubic(self):
        value, _ = quad_adaptive(lambda t: t ** 3, 0.0, 2.0, TIGHT)
        assert abs(value - 4.0) < 1e-9

    def test_round_three_sphere_volume(self):
        # int_0^pi 4 pi sin^2 t dt = 2 pi^2.
        value, _ = quad_adaptive(lambda t: 4 * math.pi * math.sin(t) ** 2,
                                 0.0, math.pi, TIGHT)
        assert abs(value - 2.0 * math.pi ** 2) < 1e-8

    def test_degenerate_interval(self):
        assert quad_adaptive(math.sin, 1.0, 1.0) == (0.0, 0.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            quad_adaptive(math.sin, 1.0, 0.0)

    def test_additivity(self):
        f = lambda t: math.exp(-t) * math.cos(3 * t)
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = rng.uniform(0.1, 2.9)
            whole, _ = quad_adaptive(f, 0.0, 3.0, TIGHT)
            left, _ = quad_adaptive(f, 0.0, c, TIGHT)
            right, _ = quad_adaptive(f, c, 3.0, TIGHT)
            assert abs(whole - left - right) < 2e-10

    def test_recursion_cap_on_jump(self):
        step = lambda t: 1.0 if t > 1 / math.e else 0.0
        with pytest.raises(SubdivisionLimitError):
            quad_adaptive(step, 0.0, 1.0, Tolerance(1e-14, 1e-14))


class TestQuadGrid:
    def test_matches_scalar_quadrature(self):
        edges = np.linspace(0.0, math.pi, 17)
        segs, _ = quad_grid(np.sin, edges)
        assert abs(segs.sum() - 2.0) < 1e-10
        scalar, _ = quad_adaptive(math.sin, 0.0, math.pi, TIGHT)
        assert abs(segs.sum() - scalar) < 1e-9

    def test_kinked_integrand(self):
        # int_0^2 max(0, sin(5t)) dt: two full positive arches, 2/5 each
        # (5t in [0, pi] and [2pi, 3pi]; the next arch starts past t = 2).
        f = lambda t: np.maximum(0.0, np.sin(5 * np.asarray(t)))
        segs, _ = quad_grid(f, np.linspace(0.0, 2.0, 33))
        assert abs(segs.sum() - 0.8) < 1e-9

    def test_zero_width_segments(self):
        segs, err = quad_grid(np.sin, np.array([0.0, 0.0, 1.0, 1.0]))
        assert segs[0] == 0.0 and segs[2] == 0.0
        assert abs(segs.sum() - (1 - math.cos(1.0))) < 1e-10

    def test_subdivision_limit_on_jump(self):
        step = lambda t: (np.asarray(t) > 1 / math.e).astype(float)
        with pytest.raises(SubdivisionLimitError):
            quad_grid(step, np.array([0.0, 1.0]), abs_tol=1e-14, rel_tol=1e-14)

    def test_agrees_with_scalar_kernel_on_random_integrands(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a0, a1, w1, w2 = rng.uniform(-1.5, 1.5, size=4)
            f_vec = lambda t: a0 * np.cos(w1 * np.asarray(t)) \
                + a1 * np.sin(w2 * np.asarray(t)) + 0.3 * np.asarray(t) ** 2
            f_sca = lambda t: float(f_vec(t))
            edges = np.sort(rng.uniform(0.0, 3.0, size=6))
            segs, _ = quad_grid(f_vec, edges)
            whole, _ = quad_adaptive(f_sca, float(edges[0]), float(edges[-1]),
                                     TIGHT)
            assert abs(segs.sum() - whole) < 1e-9 * (1.0 + abs(whole))


class TestGaussJacobi:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.4, 6.8])
    @pytest.mark.parametrize("m", [1, 3, 8, 24])
    def test_exact_to_degree_2m_minus_1(self, m, beta):
        # int_0^1 v^beta v^p (1-v)^q dv = B(beta+p+1, q+1), p + q <= 2m - 1.
        v, w = gauss_jacobi(m, beta)
        for p in range(2 * m):
            for q in (0, 2 * m - 1 - p):
                exact = math.exp(math.lgamma(beta + p + 1) + math.lgamma(q + 1)
                                 - math.lgamma(beta + p + q + 2))
                rule = float(np.sum(w * v ** p * (1.0 - v) ** q))
                assert abs(rule - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.4, 6.8])
    @pytest.mark.parametrize("m", [1, 2, 48, 96])
    def test_nodes_and_weights(self, m, beta):
        v, w = gauss_jacobi(m, beta)
        assert v.shape == w.shape == (m,)
        assert np.all(np.diff(v) > 0.0) and 0.0 < v[0] and v[-1] < 1.0
        assert np.all(w > 0.0)
        assert abs(w.sum() - 1.0 / (beta + 1.0)) <= 1e-14

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.4, 6.8])
    @pytest.mark.parametrize("m", [5, 48, 128])
    def test_matches_scipy(self, m, beta):
        # scipy's rule is for (1-x)^0 (1+x)^beta on (-1, 1); v = (1+x)/2.
        # Its smallest Legendre weights at m = 128 are ~5e-11 off (checked
        # against 40-digit roots), which sets the weight tolerance.
        x, wx = roots_jacobi(m, 0.0, beta)
        v, w = gauss_jacobi(m, beta)
        assert np.max(np.abs(v - 0.5 * (1.0 + x))) <= 1e-14
        assert np.max(np.abs(w / (wx / 2.0 ** (beta + 1.0)) - 1.0)) <= 1e-10

    @pytest.mark.parametrize("m, beta", [(0, 0.0), (4, -1.0), (4, math.nan)])
    def test_rejects_bad_arguments(self, m, beta):
        with pytest.raises(ValueError):
            gauss_jacobi(m, beta)


class TestFindRootBracketed:
    def test_cosine(self):
        x = find_root_bracketed(math.cos, 0.0, 2.0, TIGHT).root
        assert abs(x - math.pi / 2) < 1e-9

    def test_sqrt2(self):
        x = find_root_bracketed(lambda t: t * t - 2.0, 0.0, 2.0, TIGHT).root
        assert abs(x - math.sqrt(2.0)) < 1e-9

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            find_root_bracketed(lambda t: t * t + 1.0, -1.0, 1.0)

    def test_endpoint_root(self):
        assert find_root_bracketed(lambda t: t, 0.0, 1.0).root == 0.0

    def test_decreasing_function(self):
        res = find_root_bracketed(lambda t: 2.0 - t * t, 0.0, 2.0, TIGHT)
        assert abs(res.root - math.sqrt(2.0)) < 1e-9
        assert res.lo <= math.sqrt(2.0) <= res.hi
        assert res.f_lo > 0.0 >= res.f_hi

    def test_known_f_lo_is_not_evaluated(self):
        calls = []

        def f(t):
            calls.append(t)
            return t - 0.3

        res = find_root_bracketed(f, 0.0, 1.0, TIGHT, f_lo=-0.3)
        assert 0.0 not in calls
        assert abs(res.root - 0.3) < 1e-12

    def test_growth_to_a_root_far_above_hi(self):
        calls = []

        def f(t):
            calls.append(t)
            return math.log(t) - math.log(5e3)

        res = find_root_bracketed(f, 1.0, 2.0, TIGHT, cap=1e6)
        assert res.lo <= 5e3 <= res.hi
        assert abs(res.root - 5e3) < 1e-9 * 5e3
        assert res.f_lo < 0.0 <= res.f_hi
        assert len(calls) < 40

    def test_bracket_error_past_the_cap(self):
        calls = []

        def f(t):
            calls.append(t)
            return t - 100.0

        with pytest.raises(BracketError):
            find_root_bracketed(f, 0.0, 1.0, TIGHT, cap=50.0)
        assert max(calls) <= 50.0

    @pytest.mark.parametrize("root", [0.37, 370.0])
    def test_closing_width(self, root):
        tol = Tolerance(abs_tol=1e-6, rel_tol=1e-8)
        res = find_root_bracketed(lambda t: math.expm1(t - root), 0.0, 1.0, tol,
                                  cap=1e4)
        assert res.lo <= root <= res.hi
        assert res.hi - res.lo <= max(tol.abs_tol, tol.rel_tol * res.hi)
        assert res.f_lo < 0.0 <= res.f_hi
        assert res.lo <= res.root <= res.hi


class TestSphereArea:
    def test_circle(self):
        assert abs(sphere_area(2.0) - 2 * math.pi) < 1e-12

    def test_two_sphere(self):
        assert abs(sphere_area(3.0) - 4 * math.pi) < 1e-12

    def test_four_sphere(self):
        assert abs(sphere_area(5.0) - 8 * math.pi ** 2 / 3) < 1e-10

    def test_dimension_recurrence(self):
        for d in np.linspace(1.0, 20.0, 58):
            lhs = sphere_area(d + 2.0)
            rhs = sphere_area(d) * 2 * math.pi / d
            assert abs(lhs / rhs - 1.0) < 1e-11

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            sphere_area(0.5)
