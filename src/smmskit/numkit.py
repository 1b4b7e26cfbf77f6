"""Deterministic numerical kernels.

Embedded Runge-Kutta 4(5) integration with dense output, adaptive Simpson
quadrature, Gauss-Jacobi rules on (0, 1) by Golub-Welsch, safeguarded-secant
root finding with bracket growth, and unit-sphere areas.  Every routine is a
pure function of its inputs, so results are reproducible and safe to evaluate
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "OdeTrajectory",
    "integrate_ode",
    "quad_adaptive",
    "quad_grid",
    "gauss_jacobi",
    "RootBracket",
    "bracket_width",
    "find_root_bracketed",
    "sphere_area",
    "KernelError",
    "StepLimitError",
    "NonFiniteError",
    "SubdivisionLimitError",
    "BracketError",
]


class KernelError(Exception):
    """Base class for numerical kernel failures."""


class StepLimitError(KernelError):
    """Step or iteration budget exhausted before convergence."""


class NonFiniteError(KernelError):
    """A right-hand side or integrand produced NaN/inf (blow-up)."""


class SubdivisionLimitError(KernelError):
    """Adaptive quadrature hit its recursion cap with tolerance unmet."""


class BracketError(KernelError):
    """Root-finding endpoints do not enclose a sign change."""


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request shared by the kernels.

    ``abs_tol`` and ``rel_tol`` must lie in (0, 1); ``max_steps`` caps the
    number of ODE steps or root-finding iterations.
    """

    abs_tol: float = 1e-8
    rel_tol: float = 1e-6
    max_steps: int = 100_000

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol < 1.0):
            raise ValueError(f"abs_tol must be in (0, 1), got {self.abs_tol}")
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_steps < 16:
            raise ValueError(f"max_steps must be >= 16, got {self.max_steps}")


DEFAULT_TOL = Tolerance()


# ---------------------------------------------------------------------------
# ODE integration: classical Fehlberg 4(5) embedded pair.
# ---------------------------------------------------------------------------

_RK_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_RK_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 4, 0.0, 0.0, 0.0, 0.0],
    [3 / 32, 9 / 32, 0.0, 0.0, 0.0],
    [1932 / 2197, -7200 / 2197, 7296 / 2197, 0.0, 0.0],
    [439 / 216, -8.0, 3680 / 513, -845 / 4104, 0.0],
    [-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40],
])
_RK_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])
_RK_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])
_RK_E = _RK_B5 - _RK_B4


@dataclass(frozen=True)
class OdeTrajectory:
    """Accepted nodes of an adaptive integration, with dense evaluation.

    ``ts``/``ys`` hold node times and states, ``derivs`` the right-hand side
    at the nodes and ``errors`` the scaled local error estimate of each
    accepted step.  Dense evaluation between nodes is cubic Hermite
    interpolation (fourth-order accurate on the step).
    """

    ts: np.ndarray
    ys: np.ndarray
    derivs: np.ndarray
    errors: np.ndarray

    def __post_init__(self) -> None:
        if np.any(np.diff(self.ts) <= 0):
            raise ValueError("trajectory node times must be strictly increasing")

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    def at(self, t) -> np.ndarray:
        """Dense state at ``t`` inside [t0, t1]: one row for a float, one row
        per time for an array of times."""
        times = np.asarray(t, dtype=float)
        flat = np.atleast_1d(times)
        outside = (flat < self.ts[0] - 1e-12) | (flat > self.ts[-1] + 1e-12)
        if outside.any():
            raise ValueError(f"t={float(flat[outside][0])} outside trajectory range "
                             f"[{self.t0}, {self.t1}]")
        flat = np.clip(flat, self.t0, self.t1)
        i = np.clip(np.searchsorted(self.ts, flat, side="right") - 1, 0, len(self.ts) - 2)
        h = (self.ts[i + 1] - self.ts[i])[:, None]
        s = (flat - self.ts[i])[:, None] / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        rows = (
            h00 * self.ys[i]
            + h10 * h * self.derivs[i]
            + h01 * self.ys[i + 1]
            + h11 * h * self.derivs[i + 1]
        )
        return rows if times.ndim else rows[0]

    def terminal(self) -> np.ndarray:
        return self.ys[-1]


def _eval_rhs(rhs, t: float, y: np.ndarray) -> np.ndarray:
    f = np.asarray(rhs(t, y), dtype=float)
    if not np.isfinite(f).all():
        raise NonFiniteError(f"right-hand side is not finite at t={t}")
    return f


def integrate_ode(rhs, t0: float, y0, t1: float, tol: Tolerance = DEFAULT_TOL,
                  max_step: float | None = None) -> OdeTrajectory:
    """Integrate ``y' = rhs(t, y)`` from ``t0`` to ``t1 > t0``.

    The fifth-order solution is propagated; the embedded fourth-order
    difference controls the step.  ``max_step`` defaults to a sixteenth of
    the interval so that dense output stays at interpolation accuracy.
    """
    t0, t1 = float(t0), float(t1)
    if t1 <= t0:
        raise ValueError(f"require t1 > t0, got [{t0}, {t1}]")
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    span = t1 - t0
    hmax = span / 16 if max_step is None else min(float(max_step), span)
    h = min(hmax, span / 64)
    hmin = 1e-14 * span

    ts = [t0]
    ys = [y.copy()]
    fs = [_eval_rhs(rhs, t0, y)]
    errs = [0.0]

    t = t0
    nsteps = 0
    k = np.empty((6, len(y)))
    while t < t1 - 1e-14 * span:
        if nsteps >= tol.max_steps:
            raise StepLimitError(f"step budget {tol.max_steps} exhausted at t={t}")
        nsteps += 1
        h = min(h, t1 - t)

        k[0] = fs[-1] if ts[-1] == t else _eval_rhs(rhs, t, y)
        for i in range(1, 6):
            k[i] = _eval_rhs(rhs, t + _RK_C[i] * h, y + h * (_RK_A[i, :i] @ k[:i]))

        y5 = y + h * (_RK_B5 @ k)
        ydiff = h * (_RK_E @ k)
        scale = tol.abs_tol + tol.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((ydiff / scale) ** 2)))

        if err <= 1.0:
            t = t + h
            y = y5
            ts.append(t)
            ys.append(y)
            fs.append(_eval_rhs(rhs, t, y))
            errs.append(err)
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
            h = min(hmax, h * max(0.2, grow))
        else:
            h = h * max(0.2, 0.9 * err ** -0.2)
            if h < hmin:
                raise StepLimitError(f"step size underflow at t={t}")

    return OdeTrajectory(np.array(ts), np.array(ys), np.array(fs), np.array(errs))


# ---------------------------------------------------------------------------
# Adaptive Simpson quadrature.
# ---------------------------------------------------------------------------

_MAX_QUAD_DEPTH = 40


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width / 6.0 * (fa + 4.0 * fm + fb)


def _eval_f(f, x: float) -> float:
    v = float(f(x))
    if not math.isfinite(v):
        raise NonFiniteError(f"integrand is not finite at x={x}")
    return v


def _adapt(f, a, fa, b, fb, m, fm, whole, eps, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = _eval_f(f, lm)
    frm = _eval_f(f, rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * eps or (b - a) < 1e-15 * (1.0 + abs(a) + abs(b)):
        return left + right + delta / 15.0, abs(delta) / 15.0
    if depth >= _MAX_QUAD_DEPTH:
        raise SubdivisionLimitError(
            f"subdivision limit {_MAX_QUAD_DEPTH} reached on [{a}, {b}]"
        )
    vl, el = _adapt(f, a, fa, m, fm, lm, flm, left, eps / 2.0, depth + 1)
    vr, er = _adapt(f, m, fm, b, fb, rm, frm, right, eps / 2.0, depth + 1)
    return vl + vr, el + er


def quad_adaptive(f, a: float, b: float, tol: Tolerance = DEFAULT_TOL):
    """Adaptive-Simpson estimate of the integral of ``f`` over [a, b].

    Returns ``(value, err_estimate)``; ``a == b`` gives (0, 0).  The target
    is ``max(abs_tol, rel_tol * |integral|)``, the scale taken from a coarse
    composite pass.
    """
    a, b = float(a), float(b)
    if a > b:
        raise ValueError(f"require a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0

    xs = np.linspace(a, b, 17)
    vals = [_eval_f(f, x) for x in xs]
    coarse = 0.0
    for i in range(0, 16, 2):
        coarse += _simpson(vals[i], vals[i + 1], vals[i + 2], xs[i + 2] - xs[i])
    eps = max(tol.abs_tol, tol.rel_tol * abs(coarse))

    total = 0.0
    err = 0.0
    # Seed the recursion with the bootstrap panels already evaluated.
    for i in range(0, 16, 4):
        pa, pm, pb = xs[i], xs[i + 2], xs[i + 4]
        whole = _simpson(vals[i], vals[i + 2], vals[i + 4], pb - pa)
        v, e = _adapt(f, pa, vals[i], pb, vals[i + 4], pm, vals[i + 2],
                      whole, eps / 4.0, 0)
        total += v
        err += e
    return total, err


def _composite_segments(f, a: np.ndarray, b: np.ndarray, panels: int) -> np.ndarray:
    """Composite Simpson on each [a_i, b_i] with vectorized evaluation."""
    u = np.linspace(0.0, 1.0, 2 * panels + 1)
    x = a[:, None] + (b - a)[:, None] * u[None, :]
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if not np.all(np.isfinite(y)):
        raise NonFiniteError("integrand is not finite on the grid")
    odd = y[:, 1::2].sum(axis=1)
    even = y[:, 2:-1:2].sum(axis=1)
    return (b - a) / (6.0 * panels) * (y[:, 0] + y[:, -1] + 4.0 * odd + 2.0 * even)


_MAX_GRID_DOUBLINGS = 16


def quad_grid(f, edges, abs_tol: float = 1e-10, rel_tol: float = 1e-10):
    """Per-segment integrals of a vectorized integrand over consecutive edges.

    Adaptive Simpson in breadth-first form: each segment doubles its panel
    count until its Richardson estimate meets its tolerance share,
    max(abs_tol * max(width/total, 1/64), rel_tol * |I_i|); only
    unconverged segments are recomputed, so isolated kinks refine locally.
    Returns the extrapolated values and per-segment error estimates.
    ``f`` must accept arrays.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2:
        raise ValueError("edges must be a 1-d array with at least two entries")
    if np.any(np.diff(edges) < 0.0):
        raise ValueError("edges must be nondecreasing")
    a, b = edges[:-1], edges[1:]
    widths = b - a
    total = max(widths.sum(), 1e-300)
    share = abs_tol * np.maximum(widths / total, 1.0 / 64.0)

    prev = _composite_segments(f, a, b, 2)
    cur = _composite_segments(f, a, b, 4)
    err = np.abs(cur - prev) / 15.0
    out = cur + (cur - prev) / 15.0
    active = err > np.maximum(share, rel_tol * np.abs(cur))

    panels = 4
    for _ in range(_MAX_GRID_DOUBLINGS):
        if not active.any():
            return out, err
        panels *= 2
        idx = np.where(active)[0]
        nxt = _composite_segments(f, a[idx], b[idx], panels)
        err_idx = np.abs(nxt - cur[idx]) / 15.0
        out[idx] = nxt + (nxt - cur[idx]) / 15.0
        err[idx] = err_idx
        cur[idx] = nxt
        active[:] = False
        active[idx[err_idx > np.maximum(share[idx], rel_tol * np.abs(nxt))]] = True
    raise SubdivisionLimitError(
        f"quad_grid: {_MAX_GRID_DOUBLINGS} panel doublings did not meet tolerance")


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules (Golub & Welsch, Math. Comp. 23, 1969).
# ---------------------------------------------------------------------------

def gauss_jacobi(m: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss rule for v^beta dv on (0, 1).

    Exact for v^beta p(v) with deg p <= 2m - 1; beta = 0 is Gauss-Legendre.
    The nodes are the eigenvalues of the Jacobi matrix of the orthonormal
    polynomials (Golub-Welsch).  Each weight is 1/sum_k p_k(v)^2 over those
    polynomials, evaluated by their recurrence at the node: the squared
    first eigenvector components are accurate only relative to the largest
    weight, which loses the small weights of large-beta rules.  Nodes come
    sorted, inside (0, 1); weights are positive.
    """
    if m < 1:
        raise ValueError(f"gauss_jacobi requires m >= 1, got {m}")
    if not beta > -1.0:
        raise ValueError(f"gauss_jacobi requires beta > -1, got {beta}")
    beta = float(beta)
    k = np.arange(1, m, dtype=float)
    s = 2.0 * k + beta  # recurrence for (1+x)^beta on (-1, 1), halved onto (0, 1)
    diag = 0.5 + 0.5 * np.concatenate([[beta / (beta + 2.0)],
                                       beta * beta / (s * (s + 2.0))])
    off = k * (k + beta) / (s * np.sqrt(s * s - 1.0))
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p_prev, p = np.zeros(m), np.full(m, math.sqrt(beta + 1.0))
    total = p * p
    for j in range(m - 1):
        p_prev, p = p, ((nodes - diag[j]) * p - (off[j - 1] * p_prev if j else 0.0)) / off[j]
        total += p * p
    return nodes, 1.0 / total


# ---------------------------------------------------------------------------
# Bracketed root finding: safeguarded secant with bracket growth.
# ---------------------------------------------------------------------------

class RootBracket(NamedTuple):
    """Closed bracket [lo, hi] with f at its ends and ``root``, its secant point."""

    root: float
    lo: float
    hi: float
    f_lo: float
    f_hi: float


def bracket_width(tol: Tolerance, hi: float) -> float:
    """Width at which a root bracket with upper end ``hi`` is closed."""
    return max(tol.abs_tol, tol.rel_tol * abs(hi))


def find_root_bracketed(f, lo: float, hi: float, tol: Tolerance = DEFAULT_TOL,
                        f_lo: float | None = None,
                        cap: float | None = None) -> RootBracket:
    """Root of ``f`` above ``lo``, closed to ``bracket_width(tol, hi)``.

    ``f_lo`` may be passed when f(lo) is known; f may rise or fall.  While
    f(hi) has the sign of f(lo), lo takes hi and hi grows by twice the secant
    extrapolation, and by at least half of its distance from the first lo,
    up to ``cap`` (default: no growth).  Inside the bracket each point is the
    secant point of the last two, safeguarded as in Brent's method: it
    becomes the midpoint when it leaves the bracket or moves more than half
    the step before last, it is pushed a guard width (a quarter of the
    closing width) past the root estimate once it would move less than that,
    so that the bracket closes, and it stays a guard width inside the ends.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError(f"require lo < hi, got [{lo}, {hi}]")
    start, cap = lo, (hi if cap is None else float(cap))
    f_lo = float(f(lo)) if f_lo is None else float(f_lo)
    if f_lo == 0.0:
        return RootBracket(lo, lo, lo, 0.0, 0.0)
    sign = math.copysign(1.0, f_lo)  # sign * f > 0 on the lo side of the root
    f_hi = float(f(hi))
    while sign * f_hi > 0.0:
        reach = (-f_hi * (hi - lo) / (f_hi - f_lo) if abs(f_hi) < abs(f_lo)
                 else hi - start)
        lo, f_lo = hi, f_hi
        hi += max(2.0 * reach, 0.5 * (hi - start))
        if hi > cap:
            raise BracketError(f"no sign change of f up to {lo:.6g} (cap {cap:.6g})")
        f_hi = float(f(hi))

    x0, g0, x1, g1 = lo, f_lo, hi, f_hi
    step_before = step_last = math.inf
    for _ in range(tol.max_steps):
        width = bracket_width(tol, hi)
        if hi - lo <= width:
            return RootBracket(hi - f_hi * (hi - lo) / (f_hi - f_lo), lo, hi, f_lo, f_hi)
        guard = 0.25 * width
        x = x1 - g1 * (x1 - x0) / (g1 - g0) if g1 != g0 else lo
        if not lo < x < hi or abs(x - x1) > 0.5 * step_before:
            x = 0.5 * (lo + hi)
        elif abs(x - x1) < guard:
            x += guard if sign * g1 > 0.0 else -guard
        x = min(max(x, lo + guard), hi - guard)
        fx = float(f(x))
        if sign * fx > 0.0:
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
        step_before, step_last = step_last, abs(x - x1)
        x0, g0, x1, g1 = x1, g1, x, fx
    raise StepLimitError(f"root finder exceeded {tol.max_steps} iterations")


# ---------------------------------------------------------------------------
# Unit-sphere areas.
# ---------------------------------------------------------------------------

def sphere_area(d: float) -> float:
    """Area of the unit (d-1)-sphere, 2 pi^(d/2) / Gamma(d/2), for real d >= 1."""
    d = float(d)
    if d < 1.0:
        raise ValueError(f"sphere_area requires d >= 1, got {d}")
    try:
        return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    except OverflowError as exc:
        raise NonFiniteError(f"sphere_area: Gamma(d/2) overflows at d={d:.6g}") from exc
