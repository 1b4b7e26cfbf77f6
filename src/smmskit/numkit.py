"""Deterministic numerical kernels.

One quadrature rule (composite Gauss-Legendre by panel doubling,
``quad_grid``, with ``quad_adaptive`` its one-interval form), Gauss-Jacobi
rules on (0, 1) by Golub-Welsch, safeguarded-secant root finding with
bracket growth, and unit-sphere areas.  Every routine is a pure function
of its inputs, so results are reproducible and safe to evaluate
concurrently; Gauss-Jacobi rules are cached and come back read-only.

The unit of cost is a call of the function a kernel is given.  A quadrature
integrand is called on arrays, and one such call costs tens of
microseconds of numpy overhead, against a few hundredths of a microsecond
for each further abscissa; so ``quad_grid`` evaluates as many levels as it
can in one call (measurements at ``_GL_POINTS``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
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
    """Iteration budget exhausted before convergence."""


class NonFiniteError(KernelError):
    """An integrand, a table or an eigenvalue shoot produced NaN/inf (blow-up)."""


class SubdivisionLimitError(KernelError):
    """A panel cap was hit: adaptive quadrature's panel doubling with its
    tolerance unmet, or the Magnus panels an eigenvalue shoot needs."""


class BracketError(KernelError):
    """Root-finding endpoints do not enclose a sign change."""


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request shared by the kernels.

    ``abs_tol`` and ``rel_tol`` must lie in (0, 1); ``max_steps`` caps the
    number of root-finding iterations.
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
# Composite Gauss-Legendre quadrature with panel doubling.
# ---------------------------------------------------------------------------

# Points of the Gauss-Legendre rule on each panel, and the doubling cap.
#
# A quadrature costs what its integrand calls cost.  At 240 and 3 855
# abscissae, weighted_area takes 29 and 103 us a call, area_model 19 and
# 56 us, and [smms._excess]_+ 53 and 281 us (radial; 98 and 503 us in full
# mode; perturbed_sphere n = 3): 16-38 us of overhead per call (71 us
# full), and 0.01-0.06 us for each further abscissa (0.11 us full).
# quad_grid's own bookkeeping, with each panel count's unit abscissae and
# weight tiles cached (``_unit_panels``), is 36-40 us a call on 49 edges,
# against 7 us for an integrand t^2 on its 735 abscissae.  Best of 7 x 500-2000 calls, shared 2-vCPU
# Xeon, Python 3.11, BLAS on one thread.
#
# More points per panel trade levels, hence calls, for abscissae.  Per
# operation of the benchmark's workloads (seed 1: 30 sweep and 525 checks
# operations, in process, the program's caches emptied before each; time
# is the median of 4 runs of the busy time):
#
#   points   calls sweep / checks   abscissae sweep / checks   ms sweep / checks
#     5         35.1 / 2.10           33 783 /  7 179             24.3 / 4.84
#     6         28.6 / 2.03           40 242 /  8 611             24.3 / 4.44
#     7         25.0 / 1.90           46 762 / 10 036             21.2 / 4.35
#     8         22.7 / 1.75           53 368 / 11 464             24.1 / 5.18
#
# No count beats 5 beyond the host's noise (single runs spread 16-26 ms on
# sweep and 4.1-5.8 ms on checks; 7 reads lowest on both, inside that
# spread), and any other count would move every quadrature value.  Smooth
# segments meet 1e-10 by 2 or 4 panels, and a segment that doubles on
# (rounding or kink) noise doubles the fewest points.
_GL_POINTS = 5
_MAX_GRID_DOUBLINGS = 16


@lru_cache(maxsize=None)  # keyed on the panel counts 2^j, j <= _MAX_GRID_DOUBLINGS
def _unit_panels(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae on [0, 1] of the ``p``-panel composite rule and the rule's
    weights tiled once per panel, both read-only."""
    x, w = gauss_jacobi(_GL_POINTS, 0.0)
    u, wp = ((np.arange(p)[:, None] + x) / p).ravel(), np.tile(w, p)
    for arr in (u, wp):
        arr.setflags(write=False)
    return u, wp


def _gauss_segments(f, a: np.ndarray, b: np.ndarray, panels: tuple[int, ...]) -> list:
    """Composite ``_GL_POINTS``-point Gauss-Legendre sums of each [a_i, b_i],
    one array per panel count in ``panels``, all abscissae of all counts in
    one call of ``f``.  Each count's abscissae form one contiguous block of
    that call, so its sums are those of a call of its own, bit for bit."""
    rules = [_unit_panels(p) for p in panels]
    blocks = [a[:, None] + (b - a)[:, None] * u for u, _ in rules]
    y = np.asarray(f(np.concatenate([pts.ravel() for pts in blocks])), dtype=float)
    if not np.isfinite(y).all():
        raise NonFiniteError("integrand is not finite on the grid")
    sums, start = [], 0
    for p, pts, (_, wp) in zip(panels, blocks, rules):
        yp = y[start:start + pts.size].reshape(pts.shape)
        sums.append((b - a) / p * (yp @ wp))
        start += pts.size
    return sums


def quad_grid(f, edges, abs_tol: float = 1e-10, rel_tol: float = 1e-10):
    """Per-segment integrals of a vectorized integrand over consecutive edges.

    Breadth-first panel doubling: each segment takes a composite
    Gauss-Legendre sum on 1, 2, 4, ... panels until two successive sums
    differ by at most its tolerance share, max(abs_tol * max(width/total,
    1/64), rel_tol * |I_i|); only unconverged segments are recomputed, so
    isolated kinks refine locally.  Returns the finer sums and that
    difference per segment as the error estimate.  ``f`` must accept arrays.

    The cost is counted in calls of ``f``, each of which costs far more
    than its abscissae (see ``_GL_POINTS``).  The 1- and 2-panel sums of
    every segment come from one call on their 3 ``_GL_POINTS`` = 15
    abscissae per segment, and every later level is one call on the
    segments still open: a grid whose segments all agree at 2 panels costs
    one call.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2:
        raise ValueError("edges must be a 1-d array with at least two entries")
    if (np.diff(edges) < 0.0).any():
        raise ValueError("edges must be nondecreasing")
    a, b = edges[:-1], edges[1:]
    widths = b - a
    total = max(widths.sum(), 1e-300)
    share = abs_tol * np.maximum(widths / total, 1.0 / 64.0)

    coarse, out = _gauss_segments(f, a, b, (1, 2))
    err = np.abs(out - coarse)
    idx = np.arange(len(a))
    panels = 2
    while True:
        idx = idx[err[idx] > np.maximum(share[idx], rel_tol * np.abs(out[idx]))]
        if not len(idx):
            return out, err
        if panels == 2 ** _MAX_GRID_DOUBLINGS:
            raise SubdivisionLimitError(
                f"quad_grid: {_MAX_GRID_DOUBLINGS} panel doublings did not meet tolerance")
        panels *= 2
        (nxt,) = _gauss_segments(f, a[idx], b[idx], (panels,))
        err[idx] = np.abs(nxt - out[idx])
        out[idx] = nxt


def quad_adaptive(f, a: float, b: float, tol: Tolerance = DEFAULT_TOL):
    """``quad_grid`` on the one interval [a, b] at ``tol``'s abs_tol and
    rel_tol: ``(value, err_estimate)``, (0, 0) when a == b.  ``f`` must
    accept arrays."""
    a, b = float(a), float(b)
    if a > b:
        raise ValueError(f"require a <= b, got [{a}, {b}]")
    if a == b:
        return 0.0, 0.0
    value, err = quad_grid(f, [a, b], tol.abs_tol, tol.rel_tol)
    return float(value[0]), float(err[0])


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules (Golub & Welsch, Math. Comp. 23, 1969).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def gauss_jacobi(m: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss rule for v^beta dv on (0, 1).

    Exact for v^beta p(v) with deg p <= 2m - 1; beta = 0 is Gauss-Legendre.
    The nodes are the eigenvalues of the Jacobi matrix of the orthonormal
    polynomials (Golub-Welsch).  Each weight is 1/sum_k p_k(v)^2 over those
    polynomials, evaluated by their recurrence at the node: the squared
    first eigenvector components are accurate only relative to the largest
    weight, which loses the small weights of large-beta rules.  Nodes come
    sorted, inside (0, 1); weights are positive.  A rule is built once per
    (m, beta) and cached; both arrays are read-only.  The program asks only
    for integer beta (a real model dimension d takes the rule for
    ceil(d - 1), ``model.jacobi_factor``), so a process builds a few rules
    and serves every check, every k and every threshold from them.
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
    weights = 1.0 / total
    for arr in (nodes, weights):
        arr.setflags(write=False)
    return nodes, weights


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
                        f_lo: float | None = None, f_hi: float | None = None,
                        cap: float | None = None) -> RootBracket:
    """Root of ``f`` above ``lo``, closed to ``bracket_width(tol, hi)``.

    ``f_lo`` and ``f_hi`` may be passed when f(lo) and f(hi) are known; f
    may rise or fall.  While f(hi) has the sign of f(lo), lo takes hi and hi
    grows by twice the secant extrapolation, and by at least half of its
    distance from the first lo, up to ``cap`` (default: no growth), which it
    tries before it raises ``BracketError``.  Inside the bracket each point
    is the secant point of the last two, safeguarded as in Brent's method:
    one within a guard width (a quarter of the closing width) of the last
    trial is pushed a guard width on, away from it, so that the bracket
    closes, even where it rounds onto the end the last trial became (not
    right after a guard step: on rounding noise guard steps from an end
    would crawl); else it becomes the midpoint when it leaves the bracket or
    moves more than half the step before last.  It stays a guard width
    inside the ends.
    An exact zero of f, at lo or at any later trial point x, ends the search
    with the bracket [x, x].
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError(f"require lo < hi, got [{lo}, {hi}]")
    start, cap = lo, (hi if cap is None else float(cap))
    f_lo = float(f(lo)) if f_lo is None else float(f_lo)
    if f_lo == 0.0:
        return RootBracket(lo, lo, lo, 0.0, 0.0)
    sign = math.copysign(1.0, f_lo)  # sign * f > 0 on the lo side of the root
    f_hi = float(f(hi)) if f_hi is None else float(f_hi)
    while sign * f_hi > 0.0:
        if hi >= cap:
            raise BracketError(f"no sign change of f up to {hi:.6g} (cap {cap:.6g})")
        reach = (-f_hi * (hi - lo) / (f_hi - f_lo) if abs(f_hi) < abs(f_lo)
                 else hi - start)
        lo, f_lo = hi, f_hi
        hi = min(hi + max(2.0 * reach, 0.5 * (hi - start)), cap)
        f_hi = float(f(hi))
    if f_hi == 0.0:
        return RootBracket(hi, hi, hi, 0.0, 0.0)

    x0, g0, x1, g1 = lo, f_lo, hi, f_hi
    step_before = step_last = math.inf
    guarded = False  # the last trial was a guard step
    for _ in range(tol.max_steps):
        width = bracket_width(tol, hi)
        if hi - lo <= width:
            return RootBracket(hi - f_hi * (hi - lo) / (f_hi - f_lo), lo, hi, f_lo, f_hi)
        guard = 0.25 * width
        x = x1 - g1 * (x1 - x0) / (g1 - g0) if g1 != g0 else lo
        guarded = abs(x - x1) < guard and (
            not guarded or lo < x < hi and abs(x - x1) <= 0.5 * step_before)
        if guarded:
            x += guard if sign * g1 > 0.0 else -guard
        elif not lo < x < hi or abs(x - x1) > 0.5 * step_before:
            x = 0.5 * (lo + hi)
        x = min(max(x, lo + guard), hi - guard)
        fx = float(f(x))
        if fx == 0.0:
            return RootBracket(x, x, x, 0.0, 0.0)
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
