"""Rotationally symmetric smooth metric measure spaces.

A space is a warped product dr^2 + w(r)^2 g_{S^{n-1}} on [0, r_max] with a
radial potential f, carrying the measure e^{-f} dv.  This module holds the
radial profiles, a catalog of test spaces, and every curvature/measure
quantity the comparison checks consume: radial and tangential Bakry-Emery
curvature, weighted mean curvature m_f = m - f', the curvature excess
rho = [(n-1)H - lambda]_+ and its integral, potential bounds, and weighted
areas/volumes.

Conventions: the base point is the pole (rotational symmetry makes it
canonical, so the sup over base points in hypothesis constants is realized
as the single pole evaluation).  Curvature ratios are evaluated on the
interior (r_lo, r_hi), r_lo = 1e-6 r_max, with clamping toward the poles
where w -> 0; the improper upper limit of the excess integral is truncated
at r_max.  Pole rule: 1 - w'^2 in the tangential curvature has rounding
noise eps/r^2 (eps = 2.2e-16), within quad_grid's 1e-10 relative budget of
the curvature scale 1/r_max^2 only beyond r_s = sqrt(eps/1e-10) r_max =
1.5e-3 r_max; within r_s of a pole it is -(|w'| - 1)(|w'| + 1), with
|w'| - 1 integrated from w'' on a Gauss rule.

The excess integrals split their range at the sign changes of
g = (n-1)H - Ric_f (and, in full mode, at the kinks of the minimum of the
radial and tangential curvature), so each piece is smooth, and integrate
rho on those breakpoints and the requested radii with quad_grid at its
1e-10 budget: ``integral_rho`` at one radius, ``cumulative_excess`` at
many, and ``excess_integrator`` on every grid within one range (a check's
first pass and its refinement) from one breakpoint search.  A
pole where rho ~ c/r makes l = +inf, which raises
``DivergentExcessError`` (an unmet hypothesis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as _model
from .numkit import (NonFiniteError, Tolerance, find_root_bracketed, gauss_jacobi,
                     quad_adaptive, quad_grid, sphere_area)

__all__ = [
    "RadialProfile",
    "WarpedSMMS",
    "CurvatureSample",
    "PotentialBounds",
    "CATALOG",
    "make_space",
    "check_space_params",
    "profile_from_spec",
    "ricci_radial",
    "bakry_emery_radial",
    "ricci_f_smallest_eigenvalue",
    "mean_curvature_f",
    "rho",
    "cumulative_excess",
    "excess_integrator",
    "integral_rho",
    "require_finite_excess",
    "DivergentExcessError",
    "potential_bounds",
    "weighted_area",
    "weighted_volume",
    "sample_curvature",
]

RHO_MODES = ("radial", "full")


# ---------------------------------------------------------------------------
# Radial profiles.
# ---------------------------------------------------------------------------

def _apply(fn, x):
    """``fn`` at ``x``, a float or a float array, as the same kind: a float
    stays a float (the root searches of ``_excess_breakpoints``)."""
    return float(fn(x)) if isinstance(x, float) else np.asarray(fn(x), dtype=float)


def _lib(x):
    """``math`` for a float, so a float read stays in floats, else ``numpy``."""
    return math if isinstance(x, float) else np


class RadialProfile:
    """Scalar function of arc length with first and second derivatives.

    Its one read is ``jet(r, orders)``: the value (order 0) and derivatives
    at ``orders`` from one call, which computes their shared terms once and
    nothing that no asked order needs; ``eval``, ``d1`` and ``d2`` read one
    order of it.  A float in gives floats out, an array arrays of its shape.
    The catalog and spec profiles are built on such a jet.  Given as
    callables, analytic derivatives may be supplied; otherwise central
    differences with step h = max(1e-6, 1e-4 r_max) and Richardson
    extrapolation are used (one-sided stencils near the ends of
    [0, r_max]), both orders from one set of stencil values.  The callables
    must accept a float as well as a float array.
    """

    def __init__(self, fn, d1=None, d2=None, *, r_max: float, name: str = ""):
        self._fns = (fn, d1, d2)
        self._jet = self._callables_jet
        self.r_max = float(r_max)
        self.name = name
        self._h = max(1e-6, 1e-4 * self.r_max)

    @classmethod
    def _of_jet(cls, jet, *, r_max: float, name: str = "") -> "RadialProfile":
        """A profile read by ``jet(x, orders)``, x a float or a float array,
        which returns the values at ``orders`` as a list of x's kind."""
        p = cls(None, r_max=r_max, name=name)
        p._jet = jet
        return p

    def __call__(self, r):
        return self.eval(r)

    def jet(self, r, orders: tuple = (0, 1, 2)) -> list:
        """The value (order 0) and derivatives at ``orders``, in that order."""
        if isinstance(r, float):
            return self._jet(float(r), orders)
        x = np.asarray(r, dtype=float)
        out = self._jet(x, orders)
        return out if x.ndim else [float(v) for v in out]

    def eval(self, r):
        return self.jet(r, (0,))[0]

    def d1(self, r):
        return self.jet(r, (1,))[0]

    def d2(self, r):
        return self.jet(r, (2,))[0]

    def _callables_jet(self, x, orders: tuple) -> list:
        """The jet of the callables form: the given functions, and one
        finite-difference pass up to the highest missing order."""
        fns = self._fns
        missing = max((k for k in orders if fns[k] is None), default=0)
        fd = self._fd(x, missing) if missing else None
        return [fd[k - 1] if fns[k] is None else _apply(fns[k], x) for k in orders]

    def _fd(self, r, order: int) -> list:
        """Finite-difference derivatives 1..``order``: a float in plain
        floats, an array with both stencils vectorized, each on its mask."""
        if np.ndim(r) == 0:
            x = float(r)
            ends = x < 2 * self._h or x > self.r_max - 2 * self._h
            return self._stencil(lambda t: float(self._fns[0](t)), x, ends, order)
        x = np.asarray(r, dtype=float)
        ends = (x < 2 * self._h) | (x > self.r_max - 2 * self._h)
        f = lambda t: np.asarray(self._fns[0](t), dtype=float)
        out = [np.empty(x.shape) for _ in range(order)]
        for mask, at_end in ((~ends, False), (ends, True)):
            if mask.any():
                for o, d in zip(out, self._stencil(f, x[mask], at_end, order)):
                    o[mask] = d
        return out

    def _stencil(self, f, x, ends: bool, order: int) -> list:
        """Derivatives 1..``order`` from one set of values of ``f``: the
        five-point central stencil, or the one-sided one pointing into
        [0, r_max] when ``ends`` (x within 2h of an end)."""
        h = self._h
        if not ends:
            m2, m1, p1, p2 = f(x - 2 * h), f(x - h), f(x + h), f(x + 2 * h)
            out = [(m2 - 8 * m1 + 8 * p1 - p2) / (12 * h)]
            if order == 2:
                out.append((-m2 + 16 * m1 - 30 * f(x) + 16 * p1 - p2) / (12 * h * h))
            return out
        sgn = np.where(x < 2 * h, 1.0, -1.0) if np.ndim(x) else (1.0 if x < 2 * h else -1.0)
        v = [f(x + sgn * i * h) for i in range(5)]
        out = [sgn * (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)]
        if order == 2:
            out.append((2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h))
        return out


def _const_profile(value: float, r_max: float, name: str = "") -> RadialProfile:
    def jet(x, orders):
        zero = 0.0 * x  # value + 0 r keeps a float a float and an array an array
        return [value + zero if k == 0 else zero for k in orders]

    return RadialProfile._of_jet(jet, r_max=r_max, name=name)


# ---------------------------------------------------------------------------
# The space.
# ---------------------------------------------------------------------------

_POLE_FRACTION = 1e-6
_POLE_RULE = math.sqrt(np.finfo(float).eps / 1e-10)  # see _one_minus_w1_squared


@dataclass(frozen=True)
class WarpedSMMS:
    """Warped product with radial potential; immutable after construction."""

    n: int
    w: RadialProfile
    f: RadialProfile
    r_max: float
    closed: bool = False
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        if self.r_max <= 0.0:
            raise ValueError(f"r_max must be > 0, got {self.r_max}")
        scale = self.r_max
        w0, w1 = self.w.jet(0.0, (0, 1))
        if abs(w0) > 1e-10 * scale:
            raise ValueError(f"warping must vanish at the pole, w(0)={w0}")
        if abs(w1 - 1.0) > 1e-6:
            raise ValueError(f"smooth pole requires w'(0)=1, got {w1}")
        interior = np.linspace(scale / 257, scale * (1 - 1 / 257), 257)
        wv = np.asarray(self.w.eval(interior))
        if np.any(wv <= 0.0):
            bad = interior[np.argmax(wv <= 0.0)]
            raise ValueError(f"warping must be positive on (0, r_max); w({bad}) <= 0")
        if self.closed:
            w0, w1 = self.w.jet(self.r_max, (0, 1))
            if abs(w0) > 1e-8 * max(1.0, scale):
                raise ValueError(f"closed space requires w(r_max)=0, got {w0}")
            if abs(w1 + 1.0) > 1e-8:
                raise ValueError(f"closed space requires w'(r_max)=-1, got {w1}")

    @property
    def r_interior_lo(self) -> float:
        return _POLE_FRACTION * self.r_max

    @property
    def r_interior_hi(self) -> float:
        return self.r_max * (1.0 - _POLE_FRACTION) if self.closed else self.r_max


@dataclass(frozen=True)
class CurvatureSample:
    """Pointwise curvature/measure data along the radial direction."""

    r: float
    ric_radial: float
    ric_f_radial: float
    lambda_min: float
    m: float
    m_f: float
    rho: float
    rho_integral: float


@dataclass(frozen=True)
class PotentialBounds:
    """Grid suprema of the potential: k = sup|f|, a = max(0, -inf f'),
    grad = sup|f'|; ``n_grid`` records the resolution used."""

    k: float
    a: float
    grad: float
    n_grid: int


# ---------------------------------------------------------------------------
# Curvature and measure quantities.
# ---------------------------------------------------------------------------

def _check_open_interval(s: WarpedSMMS, r, what: str) -> None:
    r = np.asarray(r)
    if np.any(r <= 0.0) or np.any(r >= s.r_max):
        raise ValueError(f"{what} requires 0 < r < r_max={s.r_max}")


def _scalar(out):
    out = np.asarray(out)
    return out if out.ndim else float(out)


def ricci_radial(s: WarpedSMMS, r):
    """Ric(d_r, d_r) = -(n-1) w''/w."""
    _check_open_interval(s, r, "ricci_radial")
    return _scalar(_bakry_emery(s, r, "radial")[0])


def bakry_emery_radial(s: WarpedSMMS, r):
    """Radial Bakry-Emery curvature Ric(d_r,d_r) + f''."""
    _check_open_interval(s, r, "bakry_emery_radial")
    return _scalar(_bakry_emery(s, r, "radial")[1])


def _one_minus_w1_squared(s: WarpedSMMS, rc, w1):
    """1 - w'^2 at clamped radii ``rc``, w1 = w'(rc), by the pole rule: within
    r_s = sqrt(eps/1e-10) r_max = 1.5e-3 r_max of a pole it is -I (I + 2),
    I = |w'| - 1 = int_0^r w'' (int_r^r_max w'' at a closed far pole, as
    w'(0) = 1 = -w'(r_max)) on the 5-point Gauss-Legendre rule, whose error
    there is O((r_s/r_max)^10); elsewhere it is 1 - w1^2 (module docstring).
    A float ``rc`` stays in plain floats away from the poles (the root
    searches), with the array path's bits.
    """
    if isinstance(rc, float):
        d = s.r_max - rc if s.closed and rc > 0.5 * s.r_max else rc
        if not d < _POLE_RULE * s.r_max:
            return 1.0 - w1 * w1
    r = np.asarray(rc, dtype=float)
    far = s.closed & (r > 0.5 * s.r_max)
    d = np.where(far, s.r_max - r, r)  # distance to the nearer pole
    near = d < _POLE_RULE * s.r_max
    out = np.array(1.0 - w1 * w1, dtype=float)
    if near.any():
        v, wq = gauss_jacobi(5, 0.0)
        dn = d[near][:, None]
        t = np.where(far[near][:, None], s.r_max - dn * v, dn * v)
        i = dn[:, 0] * (s.w.d2(t.ravel()).reshape(t.shape) * wq).sum(axis=1)
        out[near] = -i * (i + 2.0)
    return out if out.ndim else float(out)


def _bakry_emery(s: WarpedSMMS, r, mode: str):
    """The one read of a space's curvature, from one jet of w and one of f
    at ``r`` clamped to the interior (a float stays a float, for the root
    searches): w, w'', f'' give Ric(d_r, d_r) = -(n-1) w''/w and radial
    Ric_f = Ric + f''; in full mode (else None) w' and f' too give
    tangential Ric_f = -w''/w + (n-2)(1 - w'^2)/w^2 + f' w'/w, whose pole
    rule reads w'' at its Gauss nodes as well."""
    lo, hi = s.r_interior_lo, s.r_interior_hi
    rc = (min(max(r, lo), hi) if isinstance(r, float)
          else np.minimum(np.maximum(np.asarray(r, dtype=float), lo), hi))
    if mode != "full":
        w, w2 = s.w.jet(rc, (0, 2))
        ric = -(s.n - 1.0) * w2 / w
        return ric, ric + s.f.d2(rc), None
    w, w1, w2 = s.w.jet(rc)
    f1, f2 = s.f.jet(rc, (1, 2))
    ric = -(s.n - 1.0) * w2 / w
    radial = ric + f2
    ric_tan = -w2 / w + (s.n - 2.0) * _one_minus_w1_squared(s, rc, w1) / (w * w)
    return ric, radial, ric_tan + f1 * w1 / w


def _excess(s: WarpedSMMS, H: float, r, mode: str):
    """g = (n-1)H - lambda at ``r`` clamped to the interior, so rho = [g]_+;
    lambda is radial Ric_f, in full mode the smaller of it and tangential."""
    if mode not in RHO_MODES:
        raise ValueError(f"unknown rho mode {mode!r}")
    return _excess_of(s, H, *_bakry_emery(s, r, mode)[1:])


def _excess_of(s: WarpedSMMS, H: float, radial, tangential):
    """g from the radial and tangential (None outside full mode) Ric_f; on
    floats in plain floats, the smaller one picked as ``np.minimum`` does."""
    if tangential is None:
        lam = radial
    elif isinstance(radial, float):
        lam = radial if radial <= tangential or radial != radial else tangential
    else:
        lam = np.minimum(radial, tangential)
    return (s.n - 1.0) * H - lam


def ricci_f_smallest_eigenvalue(s: WarpedSMMS, r):
    """Smallest eigenvalue of Ric_f: min of radial and tangential values."""
    _check_open_interval(s, r, "ricci_f_smallest_eigenvalue")
    _, radial, tangential = _bakry_emery(s, r, "full")
    return _scalar(np.minimum(radial, tangential))


def mean_curvature_f(s: WarpedSMMS, r):
    """Weighted mean curvature m_f = (n-1) w'/w - f' (no pole clamp).  A
    float ``r`` comes back as a float."""
    hi = s.r_max if not s.closed else s.r_max * (1.0 - 1e-12)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("mean_curvature_f requires r > 0")
    if np.any(r > hi):
        raise ValueError(f"mean_curvature_f requires r < r_max={s.r_max}")
    w, w1 = s.w.jet(r, (0, 1))
    return _scalar((s.n - 1.0) * w1 / w - s.f.d1(r))


def rho(s: WarpedSMMS, H: float, r, mode: str = "radial"):
    """Curvature excess [(n-1)H - lambda]_+.

    ``radial`` mode (the default, matching the hypotheses actually used by
    the comparison proofs) takes lambda = Ric_f(d_r, d_r); ``full`` takes the
    smallest Ric_f eigenvalue, so full >= radial pointwise.
    """
    _check_open_interval(s, r, "rho")
    return _scalar(np.maximum(0.0, _excess(s, H, r, mode)))


class DivergentExcessError(Exception):
    """The excess integral is +inf: rho grows like c/(distance to a pole).

    An unmet hypothesis (the theorems need a finite l), not a numerical
    failure; the CLI reports it as NOT-APPLICABLE."""


# A pole coefficient c with c r_max below this is taken as error in the
# profile derivatives: analytic ones give c at rounding level, the finite
# differences of a profile without derivatives about 1e-10 / r_max.  Such a
# pole adds about c ln(1/_POLE_FRACTION) = 14 c to the clamped l.
_POLE_TOL = 1e-9


def require_finite_excess(s: WarpedSMMS, mode: str, lo: float, hi: float) -> None:
    """Raise ``DivergentExcessError`` when int_lo^hi rho = +inf.

    Near a pole at distance x, rho ~ c/x with c = (n-1) w'' for the radial
    curvature and c = (2n-3) w'' - f' (pole r = 0) or (2n-3) w'' + f'
    (closed far pole r = r_max) for the tangential one, w'' and f' taken at
    the pole; ``full`` mode takes the larger.  Smooth profiles give c = 0.
    The pole at 0 counts when lo = 0, the far pole when hi reaches r_max.
    An unknown mode raises ``ValueError``, as ``rho`` does.
    """
    if mode not in RHO_MODES:
        raise ValueError(f"unknown rho mode {mode!r}")
    poles = []
    if lo == 0.0:
        poles.append((0.0, -1.0, "the pole r=0"))
    if s.closed and hi >= s.r_max:
        poles.append((s.r_max, 1.0, f"the far pole r=r_max={s.r_max:.12g}"))
    for r, sign, where in poles:
        w2 = float(s.w.d2(r))
        c = (s.n - 1.0) * w2
        if mode == "full":
            c = max(c, (2.0 * s.n - 3.0) * w2 + sign * float(s.f.d1(r)))
        if c * s.r_max > _POLE_TOL:
            dist = "r" if r == 0.0 else "(r_max - r)"
            raise DivergentExcessError(
                f"excess integral diverges: rho ~ {c:.6g}/{dist} near {where} "
                f"in {mode} mode")


# The excess integrals: breakpoint sample count and root closing width.
_EXCESS_SAMPLES = 257
_ROOT_TOL = 1e-14


def _crossings(fn, x: np.ndarray, fx: np.ndarray, tiny: float, tol: Tolerance) -> list:
    """Roots of ``fn`` in the sample cells where it changes sign, skipping
    cells whose samples are both within ``tiny`` of zero."""
    pos = fx > 0.0
    cells = np.flatnonzero((pos[:-1] != pos[1:])
                           & (np.maximum(np.abs(fx[:-1]), np.abs(fx[1:])) > tiny))
    return [find_root_bracketed(fn, x[i], x[i + 1], tol, f_lo=fx[i]).root for i in cells]


def _excess_breakpoints(s: WarpedSMMS, H: float, lo: float, hi: float,
                        mode: str) -> list:
    """Radii in [lo, hi] where rho may kink.

    g = ``_excess`` (rho before the positive part) is sampled on 257
    points; each sign change is closed by ``find_root_bracketed`` to 1e-14
    relative, except where both samples are within rounding,
    1e-12 max(|(n-1)H|, max|g|), of zero.  In full mode the sign changes of
    tangential - radial curvature, the kinks of their minimum, are closed
    the same way.  The clamp radii inside (lo, hi) are breakpoints too.
    """
    g = lambda t: _excess(s, H, t, mode)
    x = np.linspace(lo, hi, _EXCESS_SAMPLES)
    _, radial, tangential = _bakry_emery(s, x, mode)  # the one read of the samples
    gx = np.asarray(_excess_of(s, H, radial, tangential), dtype=float)
    if not np.all(np.isfinite(gx)):
        raise NonFiniteError(f"excess integrand is not finite on [{lo:.6g}, {hi:.6g}]")
    tiny = 1e-12 * max(abs((s.n - 1.0) * H), float(np.max(np.abs(gx))))
    tol = Tolerance(abs_tol=_ROOT_TOL * hi, rel_tol=_ROOT_TOL)
    roots = _crossings(g, x, gx, tiny, tol)
    if mode == "full":  # the kinks of min(radial, tangential)
        def kink(t):
            _, radial_t, tangential_t = _bakry_emery(s, t, mode)
            return tangential_t - radial_t
        roots += _crossings(kink, x, tangential - radial, tiny, tol)
    return roots + [c for c in (s.r_interior_lo, s.r_interior_hi) if lo < c < hi]


def excess_integrator(s: WarpedSMMS, H: float, lo: float, hi: float,
                      mode: str = "radial"):
    """int_lo^{r_i} rho as a function of nondecreasing radii r_i in [lo, hi].

    rho is smooth between ``_excess_breakpoints``, which are closed on
    [lo, hi] once, here, so every grid in that range (a check's first pass
    and its refinement) is integrated on the same ones: ``quad_grid`` at
    its default 1e-10 budget on the edges lo, the breakpoints below the
    last radius and the radii, and the integrals are its cumulative sums at
    the radii.  Raises ``DivergentExcessError`` when they are +inf
    (``require_finite_excess``).
    """
    if hi == lo:
        return lambda radii: np.zeros(len(radii))
    require_finite_excess(s, mode, lo, hi)  # an unknown mode too, before the scan
    breaks = np.asarray(_excess_breakpoints(s, H, lo, hi, mode), dtype=float)

    def cumulative(radii) -> np.ndarray:
        radii = np.asarray(radii, dtype=float)
        edges = np.sort(np.concatenate([[lo], radii, breaks[breaks < radii[-1]]]))
        segs, _ = quad_grid(lambda t: np.maximum(0.0, _excess(s, H, t, mode)), edges)
        cum = np.concatenate([[0.0], np.cumsum(segs)])
        return cum[np.searchsorted(edges, radii)]

    return cumulative


def cumulative_excess(s: WarpedSMMS, H: float, radii, mode: str = "radial",
                      lo: float = 0.0) -> np.ndarray:
    """int_lo^{r_i} rho for each of the nondecreasing ``radii`` in [lo, r_max]
    (``excess_integrator`` on [lo, radii[-1]])."""
    radii = np.asarray(radii, dtype=float)
    return excess_integrator(s, H, lo, float(radii[-1]), mode)(radii)


def integral_rho(s: WarpedSMMS, H: float, r: float, mode: str = "radial") -> float:
    """Excess integral l = int_0^r rho along the radial segment, truncated at
    r_max: ``cumulative_excess`` at the one radius, so it raises
    ``DivergentExcessError`` when l = +inf.
    """
    if mode not in RHO_MODES:
        raise ValueError(f"unknown rho mode {mode!r}")
    if r < 0.0:
        raise ValueError("integral_rho requires r >= 0")
    return float(cumulative_excess(s, H, [min(float(r), s.r_max)], mode)[0])


def potential_bounds(s: WarpedSMMS) -> PotentialBounds:
    """Sup-norms of f and f' over a refinement-controlled grid on [0, r_max]:
    257 points, doubled until k, a and grad change by at most 1e-9 relative,
    at most six times."""
    n = 257
    max_rounds = 6
    prev = None
    while True:
        grid = np.linspace(0.0, s.r_max, n)
        f0, f1 = s.f.jet(grid, (0, 1))
        lo1 = f1.min()  # a sup of |v| is |max v| or |min v|
        k = float(max(abs(f0.max()), abs(f0.min())))
        a = float(max(0.0, -lo1))
        grad = float(max(abs(f1.max()), abs(lo1)))
        cur = (k, a, grad)
        if prev is not None:
            if all(abs(c - p) <= 1e-9 * (1.0 + abs(c)) for c, p in zip(cur, prev)):
                break
            max_rounds -= 1
            if max_rounds <= 0:
                break
        prev = cur
        n = 2 * n - 1
    return PotentialBounds(k=k, a=a, grad=grad, n_grid=n)


def weighted_area(s: WarpedSMMS, r):
    """Weighted area of the geodesic r-sphere: area(S^{n-1}) w^{n-1} e^{-f}."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r > s.r_max * (1 + 1e-12)):
        raise ValueError(f"weighted_area requires 0 <= r <= r_max={s.r_max}")
    return _scalar(sphere_area(s.n) * s.w.eval(r) ** (s.n - 1.0) * np.exp(-s.f.eval(r)))


def weighted_volume(s: WarpedSMMS, R: float) -> float:
    """Weighted volume of the R-ball about the pole."""
    R = float(R)
    if R < 0.0 or R > s.r_max * (1 + 1e-12):
        raise ValueError(f"weighted_volume requires 0 <= R <= r_max={s.r_max}")
    if R == 0.0:
        return 0.0
    value, _ = quad_adaptive(lambda t: weighted_area(s, t), 0.0, R,
                             Tolerance(abs_tol=1e-10, rel_tol=1e-10))
    return value


def sample_curvature(s: WarpedSMMS, H: float, r: float,
                     mode: str = "radial") -> CurvatureSample:
    """All pointwise curvature data at radius r, plus the excess integral."""
    return CurvatureSample(
        r=float(r),
        ric_radial=float(ricci_radial(s, r)),
        ric_f_radial=float(bakry_emery_radial(s, r)),
        lambda_min=float(ricci_f_smallest_eigenvalue(s, r)),
        m=float(mean_curvature_f(s, r) + s.f.d1(np.asarray(r, dtype=float))),
        m_f=float(mean_curvature_f(s, r)),
        rho=float(rho(s, H, r, mode)),
        rho_integral=integral_rho(s, H, r, mode),
    )


# ---------------------------------------------------------------------------
# Catalog.
# ---------------------------------------------------------------------------

CATALOG = {
    "euclidean": {"params": {"n": "int >= 2", "r_max": "default 10"},
                  "doc": "flat space, w = r, f = 0"},
    "sphere": {"params": {"n": "int >= 2", "H": "curvature > 0, default 1"},
               "doc": "round sphere, w = sn_H, closed, r_max = pi/sqrt(H)"},
    "hyperbolic": {"params": {"n": "int >= 2", "H": "curvature < 0, default -1",
                              "r_max": "default 10/sqrt(-H)"},
                   "doc": "hyperbolic space, w = sinh(sqrt(-H) r)/sqrt(-H)"},
    "gaussian_soliton": {"params": {"n": "int >= 2", "c": "default 0.25",
                                    "r_max": "default 10"},
                         "doc": "flat space with f = c r^2 (Ric_f = 2c g)"},
    "linear_drift": {"params": {"n": "int >= 2", "a": "slope >= 0, default 0.5",
                                "base": "catalog name, default euclidean"},
                     "doc": "any base space with f replaced by f - a r"},
    "perturbed_sphere": {"params": {"n": "int >= 2", "H": "default 1",
                                    "eps": "default 0.05",
                                    "omega": "integer multiple of sqrt(H), default 3"},
                         "doc": "w = sn_H (1 + eps sin^2(omega r)); nonzero excess"},
    "custom": {"params": {"n": "int >= 2", "w": "profile spec", "f": "profile spec",
                          "r_max": "real > 0", "closed": "bool"},
               "doc": "profiles given as poly/fourier/table specs"},
}


def _sn_profile(H: float, r_max: float) -> RadialProfile:
    def jet(x, orders):  # one sn for both w and w'' = -H w
        w = _model.sn(H, x) if 0 in orders or 2 in orders else None
        return [w if k == 0 else _model.sn_prime(H, x) if k == 1 else -H * w
                for k in orders]

    return RadialProfile._of_jet(jet, r_max=r_max, name=f"sn_H={H}")


def _build_euclidean(n: int, r_max: float = 10.0) -> WarpedSMMS:
    def jet(x, orders):
        return [1.0 * x if k == 0 else 1.0 + 0.0 * x if k == 1 else 0.0 * x
                for k in orders]

    w = RadialProfile._of_jet(jet, r_max=r_max, name="r")
    return WarpedSMMS(n=n, w=w, f=_const_profile(0.0, r_max), r_max=r_max,
                      closed=False, name="euclidean",
                      params={"n": n, "r_max": r_max})


def _build_sphere(n: int, H: float = 1.0) -> WarpedSMMS:
    if H <= 0.0:
        raise ValueError(f"sphere requires H > 0, got {H}")
    r_max = math.pi / math.sqrt(H)
    return WarpedSMMS(n=n, w=_sn_profile(H, r_max), f=_const_profile(0.0, r_max),
                      r_max=r_max, closed=True, name="sphere",
                      params={"n": n, "H": H})


def _build_hyperbolic(n: int, H: float = -1.0, r_max: float | None = None) -> WarpedSMMS:
    if H >= 0.0:
        raise ValueError(f"hyperbolic requires H < 0, got {H}")
    r_max = float(r_max) if r_max is not None else 10.0 / math.sqrt(-H)
    return WarpedSMMS(n=n, w=_sn_profile(H, r_max), f=_const_profile(0.0, r_max),
                      r_max=r_max, closed=False, name="hyperbolic",
                      params={"n": n, "H": H, "r_max": r_max})


def _build_gaussian_soliton(n: int, c: float = 0.25, r_max: float = 10.0) -> WarpedSMMS:
    base = _build_euclidean(n, r_max)

    def jet(x, orders):
        return [c * (x * x) if k == 0 else 2.0 * c * x if k == 1
                else 2.0 * c if isinstance(x, float) else np.full_like(x, 2.0 * c)
                for k in orders]

    f = RadialProfile._of_jet(jet, r_max=r_max, name=f"{c}*r^2")
    return WarpedSMMS(n=n, w=base.w, f=f, r_max=r_max, closed=False,
                      name="gaussian_soliton", params={"n": n, "c": c, "r_max": r_max})


def _build_linear_drift(n: int, a: float = 0.5, base: str = "euclidean",
                        **base_params) -> WarpedSMMS:
    if a < 0.0:
        raise ValueError(f"linear_drift requires a >= 0, got {a}")
    if base == "linear_drift":
        raise ValueError("linear_drift cannot stack on itself")
    b = make_space(base, n=n, **base_params)
    f0 = b.f

    def jet(x, orders):
        return [v - a * x if k == 0 else v - a if k == 1 else v
                for k, v in zip(orders, f0.jet(x, orders))]

    f = RadialProfile._of_jet(jet, r_max=b.r_max, name=f"{f0.name}-{a}*r")
    return WarpedSMMS(n=n, w=b.w, f=f, r_max=b.r_max, closed=b.closed,
                      name="linear_drift",
                      params={"n": n, "a": a, "base": base, **base_params})


def _build_perturbed_sphere(n: int, H: float = 1.0, eps: float = 0.05,
                            omega: float = 3.0) -> WarpedSMMS:
    if H <= 0.0:
        raise ValueError(f"perturbed_sphere requires H > 0, got {H}")
    r_max = math.pi / math.sqrt(H)
    rt, e, om = math.sqrt(H), float(eps), float(omega)
    k1, k2 = 2.0 * e * om, 2.0 * e * om * om

    def jet(x, orders):
        """w = sn p, p = 1 + eps s^2, from s, c = sin, cos(omega r) and sin,
        cos(sqrt(H) r): p' = 2 eps omega s c and p'' = 2 eps omega^2 (1 - 2 s^2)."""
        lib = _lib(x)
        sn, s = lib.sin(rt * x) / rt, lib.sin(om * x)
        ss = s * s
        p = 1.0 + e * ss
        w = sn * p
        if not any(orders):
            return [w for _ in orders]
        sn1, p1 = lib.cos(rt * x), k1 * (s * lib.cos(om * x))
        out = []
        for k in orders:
            if k == 0:
                out.append(w)
            elif k == 1:
                out.append(sn1 * p + sn * p1)
            else:
                out.append(-H * w + 2.0 * sn1 * p1 + sn * (k2 - 2.0 * k2 * ss))
        return out

    w = RadialProfile._of_jet(jet, r_max=r_max, name=f"sn_{H}*(1+{eps}sin^2({omega}r))")
    return WarpedSMMS(n=n, w=w, f=_const_profile(0.0, r_max), r_max=r_max,
                      closed=True, name="perturbed_sphere",
                      params={"n": n, "H": H, "eps": eps, "omega": omega})


def _build_custom(n: int, w=None, f=None, r_max: float = None,
                  closed: bool = False) -> WarpedSMMS:
    if w is None or r_max is None:
        raise ValueError("custom space requires 'w' profile spec and 'r_max'")
    r_max = float(r_max)
    wp = w if isinstance(w, RadialProfile) else profile_from_spec(w, r_max)
    if f is None:
        fp = _const_profile(0.0, r_max)
    else:
        fp = f if isinstance(f, RadialProfile) else profile_from_spec(f, r_max)
    return WarpedSMMS(n=n, w=wp, f=fp, r_max=r_max, closed=bool(closed),
                      name="custom", params={"n": n, "r_max": r_max, "closed": closed})


_BUILDERS = {
    "euclidean": _build_euclidean,
    "sphere": _build_sphere,
    "hyperbolic": _build_hyperbolic,
    "gaussian_soliton": _build_gaussian_soliton,
    "linear_drift": _build_linear_drift,
    "perturbed_sphere": _build_perturbed_sphere,
    "custom": _build_custom,
}


def check_space_params(name: str, params: dict) -> None:
    """Raise ``ValueError`` naming a linear_drift base outside the catalog, else
    the first key of ``params`` (n aside) that ``name`` (and its base) does not take."""
    known = [p for p in CATALOG[name]["params"] if p != "n"]
    if name == "linear_drift":
        base = params.get("base", "euclidean")
        if base not in CATALOG:
            raise ValueError(f"space linear_drift: unknown space {base!r} as its base; "
                             f"catalog: {sorted(CATALOG)}")
        known += [p for p in CATALOG[base]["params"] if p != "n" and p not in known]
    for key in params:
        if key not in known:
            raise ValueError(f"space {name} has no parameter {key!r}; "
                             f"its parameters: {', '.join(known)}")


def make_space(name: str, **params) -> WarpedSMMS:
    """Build a catalog space; invariants are checked at construction."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown space {name!r}; catalog: {sorted(_BUILDERS)}")
    if "n" not in params:
        raise ValueError(f"space {name!r} requires parameter 'n'")
    n = int(params.pop("n"))
    check_space_params(name, params)
    return _BUILDERS[name](n, **params)


# ---------------------------------------------------------------------------
# Profile specs for the CLI: poly / fourier / table.
# ---------------------------------------------------------------------------

def _natural_spline(xs: np.ndarray, ys: np.ndarray):
    """Second derivatives of the natural cubic spline through (xs, ys)."""
    m = len(xs)
    h = np.diff(xs)
    A = np.zeros((m, m))
    b = np.zeros(m)
    A[0, 0] = A[-1, -1] = 1.0
    for i in range(1, m - 1):
        A[i, i - 1] = h[i - 1]
        A[i, i] = 2.0 * (h[i - 1] + h[i])
        A[i, i + 1] = h[i]
        b[i] = 6.0 * ((ys[i + 1] - ys[i]) / h[i] - (ys[i] - ys[i - 1]) / h[i - 1])
    return np.linalg.solve(A, b)


class _SplineProfile:
    def __init__(self, xs, ys):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.m2 = _natural_spline(self.xs, self.ys)

    def _locate(self, r):
        i = np.clip(np.searchsorted(self.xs, r, side="right") - 1, 0, len(self.xs) - 2)
        return i

    def _pieces(self, r):
        r = np.asarray(r, dtype=float)
        i = self._locate(r)
        h = self.xs[i + 1] - self.xs[i]
        t = r - self.xs[i]
        u = self.xs[i + 1] - r
        return i, h, t, u

    def jet(self, x, orders: tuple) -> list:
        """The values at ``orders`` from one ``_pieces`` lookup, in numpy (a
        float comes back a float)."""
        i, h, t, u = self._pieces(x)
        m0, m1 = self.m2[i], self.m2[i + 1]
        lin0, lin1 = self.ys[i] / h - m0 * h / 6, self.ys[i + 1] / h - m1 * h / 6
        out = [(m0 * u ** 3 + m1 * t ** 3) / (6 * h) + lin0 * u + lin1 * t if k == 0
               else (-m0 * u ** 2 + m1 * t ** 2) / (2 * h) - lin0 + lin1 if k == 1
               else (m0 * u + m1 * t) / h for k in orders]
        return [float(v) for v in out] if isinstance(x, float) else out


def _polyder(coeffs: list, k: int) -> list:
    """The coefficients of the k-th derivative of sum c_j r^j as numpy's
    ``polyder`` gives them: k passes of j c_j, or [c_0 * 0] (a zero signed
    like c_0) once k reaches the length."""
    if k >= len(coeffs):
        return [coeffs[0] * 0]
    for _ in range(k):
        coeffs = [j * coeffs[j] for j in range(1, len(coeffs))]
    return coeffs


def _horner_jet(coeffs: list):
    """The jet of sum c_j r^j over the float list ``coeffs``: Horner's rule
    on p, p' and p'' in ``polyval``'s own order (``r * 0.0`` included, which
    fixes the sign of a zero), one sweep per asked order in one call; on a
    float in plain floats (about 0.4 us a sweep instead of 8 us for a numpy
    ``Polynomial``, for the root searches) and on an array elementwise,
    with the same bits as ``Polynomial(coeffs)`` and its ``deriv``.
    """
    sweeps = []
    for k in range(3):
        c = _polyder(coeffs, k)
        sweeps.append((c[-1], c[-2::-1]))

    def jet(x, orders):
        out = []
        for k in orders:
            top, rest = sweeps[k]
            acc = top + x * 0.0
            for c in rest:
                acc = c + acc * x
            out.append(acc)
        return out

    return jet


def _fourier_jet(a0: float, terms: list):
    """The jet of a0 + sum a cos(w r) + b sin(w r) over ``terms`` (w, a, b):
    one cos and one sin per harmonic for every asked order."""
    def jet(x, orders):
        lib = _lib(x)
        out = [a0 if k == 0 else 0.0 for k in orders]
        if lib is np:
            out = [np.full_like(x, v) for v in out]
        for w, a, b in terms:
            c, s = lib.cos(w * x), lib.sin(w * x)
            for j, k in enumerate(orders):
                if k == 0:
                    out[j] = out[j] + a * c + b * s
                elif k == 1:
                    out[j] = out[j] + w * (-a * s + b * c)
                else:
                    out[j] = out[j] - w * w * (a * c + b * s)
        return out

    return jet


def profile_from_spec(spec: dict, r_max: float) -> RadialProfile:
    """Interpret a CLI profile spec.

    ``{"type": "poly", "coeffs": [c0, c1, ...]}`` gives sum c_i r^i;
    ``{"type": "fourier", "coeffs": [a0, a1, b1, a2, b2, ...]}`` a series in
    cos/sin(2 pi k r / r_max); ``{"type": "table", "nodes": [r0, v0, ...]}``
    a natural cubic spline through >= 8 strictly increasing nodes.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("profile spec must be a dict with a 'type' key")
    kind = spec["type"]
    if kind == "poly":
        coeffs = np.asarray(spec.get("coeffs", []), dtype=float)
        if coeffs.size == 0:
            raise ValueError("poly profile requires nonempty 'coeffs'")
        return RadialProfile._of_jet(_horner_jet(coeffs.tolist()), r_max=r_max, name="poly")
    if kind == "fourier":
        coeffs = np.asarray(spec.get("coeffs", []), dtype=float)
        if coeffs.size == 0:
            raise ValueError("fourier profile requires nonempty 'coeffs'")
        pairs = coeffs[1:]
        a_k = pairs[0::2]
        b_k = np.zeros_like(a_k)
        b_k[: len(pairs[1::2])] = pairs[1::2]
        base = 2.0 * math.pi / r_max
        terms = [(base * k, a, b) for k, a, b in
                 zip(range(1, len(a_k) + 1), a_k.tolist(), b_k.tolist())]
        return RadialProfile._of_jet(_fourier_jet(float(coeffs[0]), terms),
                                     r_max=r_max, name="fourier")
    if kind == "table":
        nodes = np.asarray(spec.get("nodes", []), dtype=float)
        if nodes.ndim == 2 and nodes.shape[1] == 2:
            xs, ys = nodes[:, 0], nodes[:, 1]
        else:
            if nodes.size % 2 != 0:
                raise ValueError("table nodes must be (r, value) pairs")
            xs, ys = nodes[0::2], nodes[1::2]
        if len(xs) < 8:
            raise ValueError(f"table profile requires >= 8 nodes, got {len(xs)}")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("table nodes must be strictly increasing in r")
        return RadialProfile._of_jet(_SplineProfile(xs, ys).jet, r_max=r_max, name="table")
    raise ValueError(f"unknown profile type {kind!r}")
