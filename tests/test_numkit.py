"""Kernel oracles: closed forms, recurrences, and randomized linear systems."""

import math
import re

import numpy as np
import pytest

from scipy.integrate import quad, solve_ivp
from scipy.special import roots_jacobi

from smmskit import numkit
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


def _dop853_tableau():
    """The module's DOP853 constants as full arrays: stage rows A (row 12 is
    the weights b), nodes c, the 5th-order error weights and the 3rd-order
    solution's weights."""
    A, c = np.zeros((16, 16)), np.zeros(16)
    e5, b3 = np.zeros(16), np.zeros(16)
    c[12] = 1.0  # the end point, the next step's first stage
    for name, value in vars(numkit).items():
        if m := re.fullmatch(r"_A(\d+)_(\d+)", name):
            A[int(m[1]), int(m[2])] = value
        elif m := re.fullmatch(r"_B(\d+)", name):
            A[12, int(m[1])] = value
        elif m := re.fullmatch(r"_C(\d+)", name):
            c[int(m[1])] = value
        elif m := re.fullmatch(r"_E5_(\d+)", name):
            e5[int(m[1])] = value
        elif m := re.fullmatch(r"_B3_(\d+)", name):
            b3[int(m[1])] = value
    return A, c, e5, b3


def _extension(coeffs, y_old, x):
    """DOP853's continuous extension at x in [0, 1] from one step's rows."""
    acc = 0.0
    for j in range(6, -1, -1):
        acc = (acc + coeffs[j]) * (x if j % 2 == 0 else 1.0 - x)
    return y_old + acc


class TestDop853Tableau:
    def test_rows_sum_to_their_nodes(self):
        A, c, _, _ = _dop853_tableau()
        assert np.count_nonzero(A) == 82
        for i in range(1, 16):
            assert abs(math.fsum(A[i]) - c[i]) < 1e-14, i

    def test_weights_integrate_polynomials_to_degree_seven(self):
        A, c, _, _ = _dop853_tableau()
        for k in range(8):
            assert abs(math.fsum(A[12] * c ** k) - 1.0 / (k + 1)) < 1e-14, k

    def test_error_weights_sum_to_zero(self):
        A, _, e5, b3 = _dop853_tableau()
        assert np.count_nonzero(e5) == 8 and np.count_nonzero(b3) == 3
        assert abs(math.fsum(e5)) < 1e-15
        assert abs(math.fsum(A[12] - b3)) < 1e-15

    def test_extension_meets_the_step_ends(self):
        traj = integrate_ode(lambda t, y: (y[1], -math.sin(y[0]) + 0.5 * math.cos(t)),
                             0.0, [2.0, 0.0], 10.0, TIGHT)
        assert traj.dense.shape == (len(traj.ts) - 1, 7, 2)
        for i, coeffs in enumerate(traj.dense):
            assert np.abs(_extension(coeffs, traj.ys[i], 0.0) - traj.ys[i]).max() == 0.0
            assert np.abs(_extension(coeffs, traj.ys[i], 1.0)
                          - traj.ys[i + 1]).max() <= 1e-15 * max(1.0, *abs(traj.ys[i + 1]))


class TestIntegrateOde:
    def test_exponential(self):
        traj = integrate_ode(lambda t, y: y, 0.0, [1.0], 1.0, TIGHT)
        assert abs(traj.terminal()[0] - math.e) < 1e-9
        assert len(traj.ts) - 1 == 5  # accepted steps, pinned here and below

    def test_harmonic_oscillator(self):
        rhs = lambda t, y: np.array([y[1], -y[0]])
        traj = integrate_ode(rhs, 0.0, [0.0, 1.0], math.pi / 2, TIGHT)
        assert abs(traj.terminal()[0] - 1.0) < 1e-9
        assert len(traj.ts) - 1 == 6

    def test_riccati_closed_form(self):
        # m' = -m^2 with m(1) = 1 has m(t) = 1/t.
        traj = integrate_ode(lambda t, y: (-(y[0] * y[0]),), 1.0, [1.0], 4.0, TIGHT)
        assert abs(traj.terminal()[0] - 0.25) < 1e-9
        assert len(traj.ts) - 1 == 14

    def test_dense_output_matches_solution(self):
        # The 7th-order continuous extension between the nodes, on steps
        # of a fifth of the interval.
        traj = integrate_ode(lambda t, y: y, 0.0, [1.0], 1.0, TIGHT)
        assert len(traj.ts) - 1 == 5
        for t in np.linspace(0.0, 1.0, 23):
            assert abs(traj.at(t)[0] - math.exp(t)) < 1e-9

    def test_nodes_strictly_increasing_and_start_at_ic(self):
        traj = integrate_ode(lambda t, y: (-y[0],), 0.0, [2.0], 3.0)
        assert traj.ts[0] == 0.0 and traj.ys[0][0] == 2.0
        assert np.all(np.diff(traj.ts) > 0)
        assert len(traj.errors) == len(traj.ts)
        assert np.all(traj.errors[1:] <= 1.0)  # accepted-step estimates
        assert len(traj.ts) - 1 == 5

    def test_nonfinite_rhs_raises(self):
        def rhs(t, y):
            return np.array([math.inf if t > 0.5 else 1.0])
        with pytest.raises(NonFiniteError):
            integrate_ode(rhs, 0.0, [0.0], 1.0)

    def test_dense_output_range_check(self):
        traj = integrate_ode(lambda t, y: y, 0.0, [1.0], 1.0)
        assert len(traj.ts) - 1 == 3
        with pytest.raises(ValueError):
            traj.at(1.5)

    def test_dense_output_on_arrays_matches_float_calls(self):
        traj = integrate_ode(lambda t, y: (y[1], -y[0]), 0.0, [0.0, 1.0], 3.0)
        assert len(traj.ts) - 1 == 5
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
        total = 0
        for _ in range(100):
            A = rng.uniform(-2.0, 2.0, size=(2, 2))
            y0 = rng.uniform(-1.0, 1.0, size=2)
            t1 = rng.uniform(0.4, 1.5)
            traj = integrate_ode(lambda t, y: A @ y, 0.0, y0, t1, TIGHT)
            lam, V = np.linalg.eig(A)
            exact = (V @ np.diag(np.exp(lam * t1)) @ np.linalg.inv(V) @ y0).real
            assert np.allclose(traj.terminal(), exact, rtol=1e-6, atol=1e-6)
            total += len(traj.ts) - 1
        assert total == 565  # accepted steps over the 100 systems

    def test_pendulum_against_dop853(self):
        rhs = lambda t, y: (y[1], -math.sin(y[0]))
        tol = Tolerance(abs_tol=1e-12, rel_tol=1e-12)
        traj = integrate_ode(rhs, 0.0, [2.5, 0.0], 10.0, tol)
        ref = solve_ivp(rhs, (0.0, 10.0), [2.5, 0.0], method="DOP853", t_eval=traj.ts,
                        rtol=1e-13, atol=1e-14)
        assert ref.success
        assert np.abs(traj.ys - ref.y.T).max() < 1e-9

    @pytest.mark.parametrize("rtol, atol", [(1e-3, 1e-6), (1e-9, 1e-11), (1e-12, 1e-14)])
    def test_forced_pendulum_takes_scipy_dop853_steps(self, rtol, atol):
        # Same method, first step and step control: the same accepted steps,
        # and dense output that agrees far inside the tolerance.  (At rtol
        # 1e-6 the first step's error estimate, 1e-7 of its scale, is
        # rounding, so the node times part by 2e-7 and the dense outputs
        # by 2e-11.)
        def rhs(t, y):
            return (y[1], -math.sin(y[0]) + 0.5 * math.cos(1.3 * t))

        traj = integrate_ode(rhs, 0.0, [2.0, 0.0], 10.0, Tolerance(atol, rtol))
        ref = solve_ivp(rhs, (0.0, 10.0), [2.0, 0.0], method="DOP853",
                        first_step=10.0 / 64, rtol=rtol, atol=atol, dense_output=True)
        assert ref.success
        assert len(traj.ts) == len(ref.t)
        ts = np.linspace(0.0, 10.0, 101)
        assert np.abs(traj.at(ts) - ref.sol(ts).T).max() <= 1e-12

    def test_prufer_angle_of_the_flat_unit_ball_against_dop853(self):
        # theta' = cos^2 + (n-1)/r sin cos + lam sin^2 at R = 1, from the pole
        # series at r0 = 1e-6; the flat 3-ball has lam_1 = pi^2, so theta(1) = pi.
        lam, n, r0 = math.pi ** 2, 3, 1e-6
        theta0 = math.atan2(1.0 - lam * r0 * r0 / (2 * n), -lam * r0 / n)

        def rhs(t, y):
            sin, cos = math.sin(y[0]), math.cos(y[0])
            return (cos * cos + (n - 1) / t * sin * cos + lam * sin * sin,)

        traj = integrate_ode(rhs, r0, (theta0,), 1.0, Tolerance(1e-12, 1e-12))
        ref = solve_ivp(rhs, (r0, 1.0), [theta0], method="DOP853", t_eval=traj.ts,
                        rtol=1e-13, atol=1e-14)
        assert ref.success
        assert np.abs(traj.ys[:, 0] - ref.y[0]).max() < 1e-9
        assert abs(traj.terminal()[0] - math.pi) < 1e-9

    def test_tuple_list_and_array_returns_give_the_same_trajectory(self):
        forms = (lambda a, b: (a, b), lambda a, b: [a, b], lambda a, b: np.array([a, b]))
        trajs = [integrate_ode(lambda t, y, form=form: form(y[1], -math.sin(y[0]) * t),
                               0.0, [1.0, 0.0], 4.0, TIGHT) for form in forms]
        for other in trajs[1:]:
            for field in ("ts", "ys", "dense", "errors"):
                assert getattr(other, field).tobytes() == getattr(trajs[0], field).tobytes()

    def test_every_stage_gets_a_list_of_floats(self):
        # From an array y0 and array returns: the state goes in as Python
        # floats at every stage, the first call at t0 included.
        seen = []

        def rhs(t, y):
            seen.append((t, type(y), [type(v) for v in y]))
            return np.array([y[1], -y[0]])

        traj = integrate_ode(rhs, 0.0, np.array([0.0, 1.0]), 1.0)
        assert seen[0][0] == 0.0
        assert len(seen) == 1 + 15 * (len(traj.ts) - 1)  # no step was rejected
        assert all(kind is list and types == [float, float] for _, kind, types in seen)

    def test_numpy_scalar_nan_in_a_tuple_raises_at_its_stage(self):
        # The third call is stage k2 of the first step: t = c2 h, h = 1/64.
        calls = []

        def rhs(t, y):
            calls.append(t)
            return (np.float64(math.nan) if len(calls) == 3 else -y[0],)

        with pytest.raises(NonFiniteError, match=r"at t=0\.0012328160615336188$"):
            integrate_ode(rhs, 0.0, [1.0], 1.0)
        assert len(calls) == 3

    @pytest.mark.parametrize("bad", [
        lambda t, y: (y[0],), lambda t, y: [y[0], y[1], 0.0],
        lambda t, y: float(y[0]), lambda t, y: np.zeros((2, 2)),
    ], ids=["one", "three", "scalar", "nested"])
    def test_wrong_component_count_raises(self, bad):
        with pytest.raises(ValueError, match="must return 2 numbers"):
            integrate_ode(bad, 0.0, [1.0, 0.0], 1.0)

    def test_nan_at_an_interior_stage_raises_at_that_stage(self):
        # The third call is stage k2 of the first step: t = c2 h, h = 1/64.
        calls = []

        def rhs(t, y):
            calls.append(t)
            return (math.nan if len(calls) == 3 else -y[0],)

        with pytest.raises(NonFiniteError, match=r"at t=0\.0012328160615336188$"):
            integrate_ode(rhs, 0.0, [1.0], 1.0)
        assert len(calls) == 3


class TestQuadAdaptive:
    def test_sin_over_period(self):
        value, _ = quad_adaptive(np.sin, 0.0, math.pi, TIGHT)
        assert abs(value - 2.0) < 1e-9

    def test_cubic(self):
        value, _ = quad_adaptive(lambda t: t ** 3, 0.0, 2.0, TIGHT)
        assert abs(value - 4.0) < 1e-9

    def test_round_three_sphere_volume(self):
        # int_0^pi 4 pi sin^2 t dt = 2 pi^2.
        value, _ = quad_adaptive(lambda t: 4 * math.pi * np.sin(t) ** 2,
                                 0.0, math.pi, TIGHT)
        assert abs(value - 2.0 * math.pi ** 2) < 1e-8

    def test_degenerate_interval(self):
        assert quad_adaptive(np.sin, 1.0, 1.0) == (0.0, 0.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            quad_adaptive(np.sin, 1.0, 0.0)

    def test_additivity(self):
        f = lambda t: np.exp(-t) * np.cos(3 * t)
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = rng.uniform(0.1, 2.9)
            whole, _ = quad_adaptive(f, 0.0, 3.0, TIGHT)
            left, _ = quad_adaptive(f, 0.0, c, TIGHT)
            right, _ = quad_adaptive(f, c, 3.0, TIGHT)
            assert abs(whole - left - right) < 2e-10

    def test_recursion_cap_on_jump(self):
        step = lambda t: (np.asarray(t) > 1 / math.e).astype(float)
        with pytest.raises(SubdivisionLimitError):
            quad_adaptive(step, 0.0, 1.0, Tolerance(1e-14, 1e-14))

    @pytest.mark.parametrize("tol", [TIGHT, Tolerance(1e-8, 1e-6), Tolerance(1e-11, 1e-10)])
    def test_is_quad_grid_on_one_interval(self, tol):
        # The one-interval form of the grid kernel, bit for bit.
        f = lambda t: np.exp(-t) * np.cos(3 * t) + np.abs(t - 0.5) ** 1.5
        for a, b in ((0.0, 3.0), (0.2, 0.21), (-1.0, 0.0)):
            value, err = quad_grid(f, [a, b], tol.abs_tol, tol.rel_tol)
            assert quad_adaptive(f, a, b, tol) == (value[0], err[0])


class TestQuadGrid:
    def test_matches_scalar_quadrature(self):
        edges = np.linspace(0.0, math.pi, 17)
        segs, _ = quad_grid(np.sin, edges)
        assert abs(segs.sum() - 2.0) < 1e-10
        scalar, _ = quad(math.sin, 0.0, math.pi, epsabs=1e-13, epsrel=1e-13)
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

    @staticmethod
    def _sequential(f, edges, abs_tol=1e-10, rel_tol=1e-10):
        """The docstring's rule, one call of ``f`` per level: a composite
        5-point Gauss-Legendre sum on 1, 2, 4, ... panels of each segment
        not yet converged.  Returns (sums, errors)."""
        x, w = gauss_jacobi(5, 0.0)
        a, b = edges[:-1], edges[1:]
        widths = b - a
        share = abs_tol * np.maximum(widths / max(widths.sum(), 1e-300), 1.0 / 64.0)

        def level(idx, panels):
            u = ((np.arange(panels)[:, None] + x) / panels).ravel()
            pts = a[idx][:, None] + widths[idx][:, None] * u
            y = f(pts.ravel()).reshape(pts.shape)
            return widths[idx] / panels * (y @ np.tile(w, panels))

        idx = np.arange(len(a))
        out, err = level(idx, 1), np.full(len(a), np.inf)
        panels = 1
        while len(idx):
            panels *= 2
            nxt = level(idx, panels)
            err[idx] = np.abs(nxt - out[idx])
            out[idx] = nxt
            idx = idx[err[idx] > np.maximum(share[idx], rel_tol * np.abs(nxt))]
        return out, err

    @pytest.mark.parametrize("f, edges, levels", [
        (np.exp, np.linspace(0.0, 1.0, 257), 2),
        (lambda t: np.maximum(0.0, np.sin(5.0 * t)), np.linspace(0.0, 2.0, 33), None),
        (np.sin, np.array([0.0, 0.0, 1.0, 1.0]), 2),
    ], ids=["smooth", "kinked", "zero-width"])
    def test_first_two_levels_take_one_call_and_keep_the_bits(self, f, edges, levels):
        # One call of the integrand yields the 1- and 2-panel sums; every
        # later level is one call on the segments still open.  Values and
        # error estimates are those of one call per level, bit for bit.
        sizes, ref_sizes = [], []
        out, err = quad_grid(lambda t: sizes.append(t.size) or f(t), edges)
        ref_out, ref_err = self._sequential(lambda t: ref_sizes.append(t.size) or f(t), edges)
        assert len(ref_sizes) == levels if levels else len(ref_sizes) > 2
        assert len(sizes) == len(ref_sizes) - 1
        assert sum(sizes) == sum(ref_sizes)
        assert np.array_equal(out, ref_out) and np.array_equal(err, ref_err)

    def test_subdivision_limit_on_jump(self):
        step = lambda t: (np.asarray(t) > 1 / math.e).astype(float)
        with pytest.raises(SubdivisionLimitError):
            quad_grid(step, np.array([0.0, 1.0]), abs_tol=1e-14, rel_tol=1e-14)

    def test_agrees_with_scalar_kernel_on_random_integrands(self):
        # Against the closed form and against scipy's scalar quadrature.
        rng = np.random.default_rng(17)
        for _ in range(20):
            a0, a1, w1, w2 = rng.uniform(-1.5, 1.5, size=4)
            f_vec = lambda t: a0 * np.cos(w1 * np.asarray(t)) \
                + a1 * np.sin(w2 * np.asarray(t)) + 0.3 * np.asarray(t) ** 2
            antideriv = lambda t: a0 * math.sin(w1 * t) / w1 \
                - a1 * math.cos(w2 * t) / w2 + 0.1 * t ** 3
            edges = np.sort(rng.uniform(0.0, 3.0, size=6))
            lo, hi = float(edges[0]), float(edges[-1])
            segs, _ = quad_grid(f_vec, edges)
            exact = antideriv(hi) - antideriv(lo)
            scalar, _ = quad(lambda t: float(f_vec(t)), lo, hi, epsabs=1e-13, epsrel=1e-13)
            for whole in (exact, scalar):
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

    @pytest.mark.parametrize("m, beta", [(32, 0.0), (64, 0.0), (48, 2.6), (96, 2.6)])
    def test_cached_rule_is_fresh_rule_and_read_only(self, m, beta):
        fresh = gauss_jacobi.__wrapped__(m, beta)
        first, again = gauss_jacobi(m, beta), gauss_jacobi(m, beta)
        for cached in (first, again):
            for arr, ref in zip(cached, fresh):
                assert arr.tobytes() == ref.tobytes()
                assert not arr.flags.writeable
        assert again[0] is first[0] and again[1] is first[1]
        with pytest.raises(ValueError):
            first[1][0] = 0.0

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

    def test_exact_zero_at_a_trial_point_ends_the_search(self):
        # The first secant point of x - 1/2 on [0, 1] is 1/2 exactly.
        calls = []

        def f(t):
            calls.append(t)
            return t - 0.5

        res = find_root_bracketed(f, 0.0, 1.0, TIGHT)
        assert calls == [0.0, 1.0, 0.5]
        assert res == (0.5, 0.5, 0.5, 0.0, 0.0)

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

    def test_root_between_last_growth_and_the_cap(self):
        # Growth from [0, 1] would jump to 79, past the cap; the cap is tried.
        calls = []

        def f(t):
            calls.append(t)
            return t - 40.0

        res = find_root_bracketed(f, 0.0, 1.0, TIGHT, cap=50.0)
        assert abs(res.root - 40.0) < 1e-9 * 40.0
        assert res.lo <= 40.0 <= res.hi <= 50.0
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
