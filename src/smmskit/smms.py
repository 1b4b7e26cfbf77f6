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
|w'| - 1 its value delta at the pole plus the integral of w'' on a Gauss rule.

The excess integrals split their range at the sign changes of
g = (n-1)H - Ric_f (and, in full mode, at the kinks of the minimum of the
radial and tangential curvature), so each piece is smooth: one curvature
read on 257 samples finds the sign changes and a root search closes each.
They integrate rho on those breakpoints and the requested radii with
quad_grid at its 1e-10 budget: ``excess_integrator`` on every grid within
one range (a check's first pass and its refinement) from one breakpoint
search, and ``integral_rho`` at one radius.  A space classifies its poles
once, when it is built: a pole where rho ~ c/r, or a cone point in full
mode, makes l = +inf, and an excess integral reaching it raises that
pole's ``DivergentExcessError`` (an unmet hypothesis) before the scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import model as _model
from .numkit import (NonFiniteError, Tolerance, find_root_bracketed, gauss_jacobi,
                     quad_adaptive, quad_grid, sphere_area)

__all__ = [
    "RadialProfile",
    "WarpedSMMS",
    "PotentialBounds",
    "CATALOG",
    "make_space",
    "check_space_params",
    "profile_from_spec",
    "ricci_radial",
    "mean_curvature_f",
    "rho",
    "excess_integrator",
    "integral_rho",
    "DivergentExcessError",
    "potential_bounds",
    "weighted_area",
]

# No function here calls quad_adaptive; bench/tracing.py TARGETS looks it up.
_TRACED_NAMES = (quad_adaptive,)

RHO_MODES = ("radial", "full")


# ---------------------------------------------------------------------------
# Radial profiles.
# ---------------------------------------------------------------------------

class RadialProfile:
    """Scalar function of arc length with first and second derivatives.

    Its one read is ``jet(r, orders)``: the value (order 0) and derivatives
    at ``orders`` from one call, which computes their shared terms once and
    nothing that no asked order needs; ``eval``, ``d1`` and ``d2`` read one
    order of it.  A float (or a 0-d array) runs the jet on a numpy scalar,
    whose ufuncs round as they round an array's entries, and comes back as
    floats; an array gives arrays of its shape.  The catalog and spec
    profiles are built on such a jet, with each power a ufunc (``np.square``,
    ``np.power``): ``**`` on a numpy scalar calls C ``pow``, which rounds
    otherwise.  The callables form ``RadialProfile(fn, d1, d2, r_max=...)``
    takes the function and its exact first and second derivatives, each
    accepting a float array (a numpy scalar for a single radius), and its
    jet calls the ones asked for; a missing derivative is refused here,
    since every curvature is read from them.
    """

    def __init__(self, fn, d1, d2, *, r_max: float):
        fns = (fn, d1, d2)
        if not all(map(callable, fns)):
            raise TypeError("RadialProfile(fn, d1, d2, r_max=...) takes fn and its exact "
                            "derivatives d1 and d2 as callables")
        self._jet = lambda x, orders: [np.asarray(fns[k](x), dtype=float) for k in orders]
        self.r_max = float(r_max)

    @classmethod
    def _of_jet(cls, jet, *, r_max: float) -> "RadialProfile":
        """A profile read by ``jet(x, orders)``, x a float array (a numpy
        scalar for a single radius), which returns the values at ``orders``
        as a list of arrays (or numpy scalars) of x's shape."""
        p = cls.__new__(cls)
        p._jet, p.r_max = jet, float(r_max)
        return p

    def __call__(self, r):
        return self.eval(r)

    def jet(self, r, orders: tuple = (0, 1, 2)) -> list:
        """The value (order 0) and derivatives at ``orders``, in that order."""
        x = np.asarray(r, dtype=float)[()]
        out = self._jet(x, orders)
        return out if x.ndim else [float(v) for v in out]

    def eval(self, r):
        return self.jet(r, (0,))[0]

    def d1(self, r):
        return self.jet(r, (1,))[0]

    def d2(self, r):
        return self.jet(r, (2,))[0]


# ---------------------------------------------------------------------------
# The space.
# ---------------------------------------------------------------------------

_POLE_FRACTION = 1e-6
_POLE_RULE = math.sqrt(np.finfo(float).eps / 1e-10)  # see _one_minus_w1_squared
# delta = |w'| - 1 at a pole is exact in floats, but w' there comes from a jet
# whose terms round at eps = 2.2e-16.  A |delta| <= 4 eps is taken as that
# rounding, 0: kept, it would put 2(n-2) delta/r^2 ~ 2e-3 (n-2)/r_max^2 of noise
# into tangential Ric_f at the clamp radius 1e-6 r_max, the noise the pole rule
# removes; dropped, it moves that curvature at r_s by at most 2(n-2) 4 eps/r_s^2
# = 8(n-2) 1e-10/r_max^2, the order of the rule's own 1e-10 budget.  It is
# also the rounding allowed on the pole slope bounds |w'(0) - 1| <= 1e-6 and
# |w'(r_max) + 1| <= 1e-8, so a bound written as a float, 1 - 1e-6, holds.
_CONE_TOL = 4.0 * np.finfo(float).eps
# A pole coefficient c with c r_max below this is taken as error in the
# profile derivatives, which every profile gives exactly, so c is at
# rounding level on a smooth pole; the threshold is a margin above that,
# not a derived bound.  Such a pole adds about c ln(1/_POLE_FRACTION) = 14 c
# to the clamped l.
_POLE_TOL = 1e-9


@dataclass(frozen=True)
class _Pole:
    """A pole of a space, read once when it is built (``_pole``)."""

    delta: float  # |w'| - 1 there, 0.0 within _CONE_TOL
    divergent: dict  # rho mode -> DivergentExcessError text where l = +inf


def _pole(s: WarpedSMMS, r: float, w1: float, w2: float, f1: float) -> _Pole:
    """The pole at r (0, or r_max of a closed space) from w', w'', f' there.

    Near it, at distance x, rho ~ c/x with c = (n-1) w'' for the radial
    curvature and c = (2n-3) w'' - f' (pole r = 0) or (2n-3) w'' + f'
    (closed far pole r = r_max) for the tangential one; ``full`` mode takes
    the larger.  Smooth profiles give c = 0.  In ``full`` mode for n > 2, a
    cone point, delta > 0, gives rho ~ 2(n-2) delta/x^2.
    """
    delta = abs(w1) - 1.0
    delta = delta if abs(delta) > _CONE_TOL else 0.0
    where, dist, sign = (("the pole r=0", "r", -1.0) if r == 0.0 else
                         (f"the far pole r=r_max={s.r_max:.12g}", "(r_max - r)", 1.0))
    radial = (s.n - 1.0) * w2
    c = {"radial": radial, "full": max(radial, (2.0 * s.n - 3.0) * w2 + sign * f1)}
    divergent = {mode: f"excess integral diverges: rho ~ {c[mode]:.6g}/{dist} near {where} "
                       f"in {mode} mode" for mode in RHO_MODES if c[mode] * s.r_max > _POLE_TOL}
    if s.n > 2 and delta > 0.0:
        divergent["full"] = (
            f"excess integral diverges: |w'| = 1 + {delta:.6g} at {where} is a cone "
            f"point, rho ~ {2.0 * (s.n - 2.0) * delta:.6g}/{dist}^2 in full mode")
    return _Pole(delta, divergent)


@dataclass(frozen=True)
class WarpedSMMS:
    """Warped product with radial potential; immutable after construction."""

    n: int
    w: RadialProfile
    f: RadialProfile
    r_max: float
    closed: bool = False

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        if self.r_max <= 0.0:
            raise ValueError(f"r_max must be > 0, got {self.r_max}")
        scale = self.r_max
        w0, w1, w2 = self.w.jet(0.0)
        if abs(w0) > 1e-10 * scale:
            raise ValueError(f"warping must vanish at the pole, w(0)={w0}")
        if abs(w1 - 1.0) > 1e-6 + _CONE_TOL:
            raise ValueError(f"smooth pole requires w'(0)=1, got {w1}")
        poles = [(0.0, w1, w2)]
        interior = np.linspace(scale / 257, scale * (1 - 1 / 257), 257)
        wv = np.asarray(self.w.eval(interior))
        if (wv <= 0.0).any():
            bad = interior[np.argmax(wv <= 0.0)]
            raise ValueError(f"warping must be positive on (0, r_max); w({bad}) <= 0")
        if self.closed:
            w0, w1, w2 = self.w.jet(self.r_max)
            if abs(w0) > 1e-8 * max(1.0, scale):
                raise ValueError(f"closed space requires w(r_max)=0, got {w0}")
            if abs(w1 + 1.0) > 1e-8 + _CONE_TOL:
                raise ValueError(f"closed space requires w'(r_max)=-1, got {w1}")
            poles.append((self.r_max, w1, w2))
        # One record per pole; these jets and f' here are the only pole reads.
        object.__setattr__(self, "_poles", tuple(_pole(self, r, w1, w2, self.f.d1(r))
                                                 for r, w1, w2 in poles))

    @property
    def r_interior_lo(self) -> float:
        return _POLE_FRACTION * self.r_max

    @property
    def r_interior_hi(self) -> float:
        return self.r_max * (1.0 - _POLE_FRACTION) if self.closed else self.r_max


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
    if (r <= 0.0).any() or (r >= s.r_max).any():
        raise ValueError(f"{what} requires 0 < r < r_max={s.r_max}")


def _scalar(out):
    out = np.asarray(out)
    return out if out.ndim else float(out)


def ricci_radial(s: WarpedSMMS, r):
    """Ric(d_r, d_r) = -(n-1) w''/w."""
    _check_open_interval(s, r, "ricci_radial")
    return _scalar(_bakry_emery(s, r, "radial")[0])


def _one_minus_w1_squared(s: WarpedSMMS, rc, w1):
    """1 - w'^2 at clamped radii ``rc``, w1 = w'(rc), by the pole rule: within
    r_s = sqrt(eps/1e-10) r_max = 1.5e-3 r_max of a pole it is -I (I + 2),
    I = |w'| - 1 = delta + int_0^r w'' (delta + int_r^r_max w'' at a closed
    far pole), delta = |w'| - 1 at that pole (its ``_Pole`` record), so
    it meets 1 - w1^2 at r_s; the integral is on the 5-point Gauss-Legendre
    rule, whose error there is O((r_s/r_max)^10); elsewhere it is 1 - w1^2
    (module docstring).
    """
    r = np.asarray(rc, dtype=float)
    far = s.closed & (r > 0.5 * s.r_max)
    d = np.where(far, s.r_max - r, r)  # distance to the nearer pole
    near = d < _POLE_RULE * s.r_max
    out = np.array(1.0 - w1 * w1, dtype=float)
    if near.any():
        v, wq = gauss_jacobi(5, 0.0)
        dn = d[near][:, None]
        t = np.where(far[near][:, None], s.r_max - dn * v, dn * v)
        delta = np.where(far[near], s._poles[-1].delta, s._poles[0].delta)
        i = delta + dn[:, 0] * (s.w.d2(t.ravel()).reshape(t.shape) * wq).sum(axis=1)
        out[near] = -i * (i + 2.0)
    return out


def _bakry_emery(s: WarpedSMMS, r, mode: str):
    """The one read of a space's curvature, from one jet of w and one of f
    at ``r`` clamped to the interior (a float is read as a 0-d array):
    w, w'', f'' give Ric(d_r, d_r) = -(n-1) w''/w and radial
    Ric_f = Ric + f''; in full mode (else None) w' and f' too give
    tangential Ric_f = -w''/w + (n-2)(1 - w'^2)/w^2 + f' w'/w, whose pole
    rule reads w'' at its Gauss nodes as well."""
    lo, hi = s.r_interior_lo, s.r_interior_hi
    rc = np.minimum(np.maximum(np.asarray(r, dtype=float), lo), hi)
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
    return _excess_of(s, H, *_bakry_emery(s, r, mode)[1:])


def _excess_of(s: WarpedSMMS, H: float, radial, tangential):
    """g from the radial and tangential (None outside full mode) Ric_f."""
    lam = radial if tangential is None else np.minimum(radial, tangential)
    return (s.n - 1.0) * H - lam


def mean_curvature_f(s: WarpedSMMS, r):
    """Weighted mean curvature m_f = (n-1) w'/w - f' (no pole clamp).  A
    float ``r`` comes back as a float."""
    hi = s.r_max if not s.closed else s.r_max * (1.0 - 1e-12)
    r = np.asarray(r, dtype=float)
    if (r <= 0.0).any():
        raise ValueError("mean_curvature_f requires r > 0")
    if (r > hi).any():
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
    _check_mode(mode)
    return _scalar(np.maximum(0.0, _excess(s, H, r, mode)))


class DivergentExcessError(Exception):
    """The excess integral is +inf: rho grows like c/(distance to a pole), or
    like c/distance^2 at a cone point.

    An unmet hypothesis (the theorems need a finite l), not a numerical
    failure; the CLI reports it as NOT-APPLICABLE in its rho ``mode``."""

    def __init__(self, reason: str, mode: str):
        super().__init__(reason)
        self.mode = mode


def _check_mode(mode: str) -> None:
    if mode not in RHO_MODES:
        raise ValueError(f"unknown rho mode {mode!r}")


# The excess integrals: breakpoint sample count and root closing width.
_EXCESS_SAMPLES = 257
_ROOT_TOL = 1e-14


def _crossings(fn, x: np.ndarray, fx: np.ndarray, tiny: float, tol: Tolerance) -> list:
    """Roots of ``fn`` in the sample cells where it changes sign, skipping
    cells whose samples are both within ``tiny`` of zero."""
    pos = fx > 0.0
    cells = np.flatnonzero((pos[:-1] != pos[1:])
                           & (np.maximum(np.abs(fx[:-1]), np.abs(fx[1:])) > tiny))
    return [find_root_bracketed(fn, x[i], x[i + 1], tol, f_lo=fx[i], f_hi=fx[i + 1]).root
            for i in cells]


def _excess_breakpoints(s: WarpedSMMS, H: float, lo: float, hi: float,
                        mode: str) -> list:
    """Radii in [lo, hi] where rho may kink.

    g = ``_excess`` (rho before the positive part) is sampled on 257
    points, one curvature read; each sign change is closed by
    ``find_root_bracketed`` on g to 1e-14 relative from the two samples of
    its cell, reading g one radius at a time through the same array path
    (a 0-d read has an array read's bits), except where both samples are
    within rounding, 1e-12 max(|(n-1)H|, max|g|), of zero.  In full mode
    the sign changes of tangential - radial curvature, the kinks of their
    minimum, are closed the same way.  The clamp radii inside (lo, hi) are
    breakpoints too.
    """
    g = lambda t: _excess(s, H, t, mode)
    x = np.linspace(lo, hi, _EXCESS_SAMPLES)
    _, radial, tangential = _bakry_emery(s, x, mode)  # the one read of the samples
    gx = np.asarray(_excess_of(s, H, radial, tangential), dtype=float)
    if not np.isfinite(gx).all():
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
    the radii.  An unknown mode raises ``ValueError``, as ``rho`` does; an
    integral that is +inf at a pole in play, the pole at 0 when lo = 0 or
    the far pole of a closed space when hi reaches r_max, raises that
    pole's ``DivergentExcessError`` (``WarpedSMMS``'s pole records).
    """
    _check_mode(mode)
    if hi == lo:
        return lambda radii: np.zeros(len(radii))
    for pole, in_play in zip(s._poles, (lo == 0.0, hi >= s.r_max)):
        if in_play and mode in pole.divergent:
            raise DivergentExcessError(pole.divergent[mode], mode)
    breaks = np.asarray(_excess_breakpoints(s, H, lo, hi, mode), dtype=float)

    def cumulative(radii) -> np.ndarray:
        radii = np.asarray(radii, dtype=float)
        edges = np.sort(np.concatenate([[lo], radii, breaks[breaks < radii[-1]]]))
        segs, _ = quad_grid(lambda t: np.maximum(0.0, _excess(s, H, t, mode)), edges)
        cum = np.concatenate([[0.0], np.cumsum(segs)])
        return cum[np.searchsorted(edges, radii)]

    return cumulative


def integral_rho(s: WarpedSMMS, H: float, r: float, mode: str = "radial") -> float:
    """Excess integral l = int_0^r rho along the radial segment, truncated at
    r_max: ``excess_integrator`` on [0, r] at the one radius r, so it raises
    ``DivergentExcessError`` when l = +inf.
    """
    if r < 0.0:
        raise ValueError("integral_rho requires r >= 0")
    r = min(float(r), s.r_max)
    return float(excess_integrator(s, H, 0.0, r, mode)([r])[0])


# The bounds of the last few spaces.  A space is immutable, and the points
# of a sweep share theirs (the CLI builds each distinct point space once),
# so each space's bounds are computed once.
_BOUNDS_KEPT = 8


@lru_cache(maxsize=_BOUNDS_KEPT)
def potential_bounds(s: WarpedSMMS) -> PotentialBounds:
    """Sup-norms of f and f' over a refinement-controlled grid on [0, r_max]:
    257 points, doubled until k, a and grad change by at most 1e-9 relative,
    at most six times.  Kept for the last ``_BOUNDS_KEPT`` spaces."""
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
    if (r < 0.0).any() or (r > s.r_max * (1 + 1e-12)).any():
        raise ValueError(f"weighted_area requires 0 <= r <= r_max={s.r_max}")
    return _scalar(sphere_area(s.n) * np.power(s.w.eval(r), s.n - 1.0) * np.exp(-s.f.eval(r)))


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

    return RadialProfile._of_jet(jet, r_max=r_max)


def _build_euclidean(n: int, r_max: float = 10.0) -> WarpedSMMS:
    return WarpedSMMS(n=n, w=_poly_profile([0.0, 1.0], r_max),
                      f=_poly_profile([0.0], r_max), r_max=r_max)


def _build_sphere(n: int, H: float = 1.0) -> WarpedSMMS:
    if H <= 0.0:
        raise ValueError(f"sphere requires H > 0, got {H}")
    r_max = math.pi / math.sqrt(H)
    return WarpedSMMS(n=n, w=_sn_profile(H, r_max), f=_poly_profile([0.0], r_max),
                      r_max=r_max, closed=True)


def _build_hyperbolic(n: int, H: float = -1.0, r_max: float | None = None) -> WarpedSMMS:
    if H >= 0.0:
        raise ValueError(f"hyperbolic requires H < 0, got {H}")
    r_max = float(r_max) if r_max is not None else 10.0 / math.sqrt(-H)
    return WarpedSMMS(n=n, w=_sn_profile(H, r_max), f=_poly_profile([0.0], r_max),
                      r_max=r_max)


def _build_gaussian_soliton(n: int, c: float = 0.25, r_max: float = 10.0) -> WarpedSMMS:
    def jet(x, orders):  # c (r r): Horner's (c r) r differs from it in the last bit
        return [c * (x * x) if k == 0 else 2.0 * c * x if k == 1
                else np.full_like(x, 2.0 * c) for k in orders]

    return WarpedSMMS(n=n, w=_poly_profile([0.0, 1.0], r_max),
                      f=RadialProfile._of_jet(jet, r_max=r_max), r_max=r_max)


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

    return WarpedSMMS(n=n, w=b.w, f=RadialProfile._of_jet(jet, r_max=b.r_max),
                      r_max=b.r_max, closed=b.closed)


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
        sn, s = np.sin(rt * x) / rt, np.sin(om * x)
        ss = s * s
        p = 1.0 + e * ss
        w = sn * p
        if not any(orders):
            return [w for _ in orders]
        sn1, p1 = np.cos(rt * x), k1 * (s * np.cos(om * x))
        out = []
        for k in orders:
            if k == 0:
                out.append(w)
            elif k == 1:
                out.append(sn1 * p + sn * p1)
            else:
                out.append(-H * w + 2.0 * sn1 * p1 + sn * (k2 - 2.0 * k2 * ss))
        return out

    return WarpedSMMS(n=n, w=RadialProfile._of_jet(jet, r_max=r_max),
                      f=_poly_profile([0.0], r_max), r_max=r_max, closed=True)


def _build_custom(n: int, w=None, f=None, r_max: float = None,
                  closed: bool = False) -> WarpedSMMS:
    if w is None or r_max is None:
        raise ValueError("custom space requires 'w' profile spec and 'r_max'")
    r_max = float(r_max)
    wp = w if isinstance(w, RadialProfile) else profile_from_spec(w, r_max)
    if f is None:
        fp = _poly_profile([0.0], r_max)
    else:
        fp = f if isinstance(f, RadialProfile) else profile_from_spec(f, r_max)
    return WarpedSMMS(n=n, w=wp, f=fp, r_max=r_max, closed=bool(closed))


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

    def jet(self, x, orders: tuple) -> list:
        """The values at ``orders`` from one lookup of x's spline piece."""
        i = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        h = self.xs[i + 1] - self.xs[i]
        t = x - self.xs[i]
        u = self.xs[i + 1] - x
        m0, m1 = self.m2[i], self.m2[i + 1]
        lin0, lin1 = self.ys[i] / h - m0 * h / 6, self.ys[i + 1] / h - m1 * h / 6
        return [(m0 * np.power(u, 3) + m1 * np.power(t, 3)) / (6 * h) + lin0 * u + lin1 * t
                if k == 0
                else (-m0 * np.square(u) + m1 * np.square(t)) / (2 * h) - lin0 + lin1 if k == 1
                else (m0 * u + m1 * t) / h for k in orders]


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
    fixes the sign of a zero), one sweep per asked order in one call,
    elementwise on the array r, with the same bits as ``Polynomial(coeffs)``
    and its ``deriv``.
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


def _poly_profile(coeffs: list, r_max: float) -> RadialProfile:
    """The profile sum c_j r^j on ``_horner_jet``."""
    return RadialProfile._of_jet(_horner_jet(coeffs), r_max=r_max)


def _fourier_jet(a0: float, terms: list):
    """The jet of a0 + sum a cos(w r) + b sin(w r) over ``terms`` (w, a, b):
    one cos and one sin per harmonic for every asked order."""
    def jet(x, orders):
        out = [np.full_like(x, a0 if k == 0 else 0.0) for k in orders]
        for w, a, b in terms:
            c, s = np.cos(w * x), np.sin(w * x)
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
        return _poly_profile(coeffs.tolist(), r_max)
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
        return RadialProfile._of_jet(_fourier_jet(float(coeffs[0]), terms), r_max=r_max)
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
        if (np.diff(xs) <= 0.0).any():
            raise ValueError("table nodes must be strictly increasing in r")
        return RadialProfile._of_jet(_SplineProfile(xs, ys).jet, r_max=r_max)
    raise ValueError(f"unknown profile type {kind!r}")
