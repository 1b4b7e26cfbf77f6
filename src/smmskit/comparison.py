"""Grid-based verification of the comparison inequalities.

Each checker evaluates one inequality on a grid of radii inside its
admissible range and reports the margins rhs - lhs.  A check passes when
the minimum margin is above -max(1e-8, 1e-6 |rhs|); when the minimum
margin is within ten times that tolerance the grid is refined (x4) once to
separate genuine near-equality from discretization error.

Checks covered: the rough mean-curvature bound, the bounded-potential
bound m_f <= m_H^{n+4k} + int rho (inner range) and its pi/2 extension
with the 1/sin(2 sqrt(H) r) coefficient, the drift bound
m_f <= m_H^n + a + int rho, area and volume ratio comparisons against the
n+4k and drifted models with the exp((e^{clt}-1) A/V) correction, the
absolute-volume forms, doubling certificates e^{F(eps)} <= alpha, and the
hyperbolic absolute volume bound with the e^{cosh(2 sqrt(-H) t)} weight.

The correction E(r) = int_0^r (e^{clt}-1) A/V on the volume grids is one ODE
solve per check, built before the grid is evaluated; the refinement pass
reads the same trajectory.  The doubling threshold's F(sigma) = E(R) at
cl = c sigma is a dot product on the model's Gauss-Jacobi ``ratio_table``,
certified at epsilon against a table with twice the nodes.

Hypothesis constants are computed from the space itself: k and a from
``potential_bounds`` unless given, l from ``integral_rho`` up to the outer
radius of the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import (ModelSpace, area_model, c_const, mean_curvature_model,
                    ratio_table, sn, volume_model)
from .numkit import (KernelError, NonFiniteError, Tolerance, find_root_bracketed,
                     integrate_ode, quad_grid, sphere_area)
from .smms import (WarpedSMMS, _rho_clamped, integral_rho, mean_curvature_f,
                   potential_bounds, weighted_area)

__all__ = [
    "Report",
    "ComparisonReport",
    "DoublingCertificate",
    "admissible_R",
    "check_mc_rough",
    "check_mc_bounded_f",
    "check_mc_bounded_f_inner",
    "check_mc_bounded_f_pi2",
    "check_mc_drift",
    "check_area_comparison",
    "check_volume_comparison",
    "check_volume_absolute",
    "check_vol_r1",
    "doubling_epsilon",
    "check_doubling",
    "check_absolute_volume_negH",
    "volume_ratio_profile",
]

_UNITS = {
    "n": "dimensionless",
    "d": "dimensionless",
    "H": "1/length^2",
    "k": "dimensionless",
    "a": "1/length",
    "l": "1/length",
    "r": "length",
    "r0": "length",
    "R": "length",
    "alpha": "dimensionless",
    "epsilon": "1/length",
    "delta": "dimensionless",
    "c": "dimensionless",
    "lambda": "1/length^2",
    "lambda_ball": "1/length^2",
    "lambda_model": "1/length^2",
    "r_half": "length",
    "bounds": "length",
    "actual_diameter": "length",
}


class Report:
    """Verdict and the keys every check report shares.

    A report has ``theorem_id``, ``passed`` and ``min_margin`` (None or NaN
    when nothing was compared), may set ``not_applicable``, and builds its
    dict with ``_dict``.
    """

    not_applicable = False

    @property
    def verdict(self) -> str:
        if self.not_applicable:
            return "NOT-APPLICABLE"
        return "PASS" if self.passed else "FAIL"

    def _dict(self, params: dict, own: dict, unit_keys: tuple = ()) -> dict:
        """The shared keys plus ``own``; units cover the params and ``unit_keys``."""
        params = {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                  for k, v in params.items()}
        units = {key: _UNITS.get(key, "unknown") for key in [*params, *unit_keys]}
        margin = self.min_margin
        return {
            "theorem_id": self.theorem_id,
            "params": params,
            "units": units,
            "pass": bool(self.passed),
            "verdict": self.verdict,
            "min_margin": None if margin is None or math.isnan(margin) else float(margin),
            **own,
        }


@dataclass
class ComparisonReport(Report):
    """Outcome of one inequality check on a radius grid.

    ``grid`` has columns (r, lhs, rhs, margin); ``passed`` is equivalent to
    ``min_margin >= -tolerance``; ``equality_radii`` flags |margin| within
    tolerance for rigidity inspection.  A hypothesis-gated check carries
    ``not_applicable=True`` and an explanatory ``reason``.
    """

    theorem_id: str
    params: dict
    grid: np.ndarray
    min_margin: float
    tolerance: float
    passed: bool
    mode: str = "radial"
    equality_radii: list = field(default_factory=list)
    not_applicable: bool = False
    reason: str = ""

    def to_dict(self) -> dict:
        return self._dict(self.params, {
            "mode": self.mode,
            "tolerance": float(self.tolerance),
            "n_grid": int(self.grid.shape[0]),
            "n_equality": len(self.equality_radii),
            "equality_radii": [float(x) for x in self.equality_radii[:16]],
            "reason": self.reason,
        })

    def grid_csv(self) -> str:
        lines = ["r,lhs,rhs,margin"]
        for row in self.grid:
            lines.append(",".join(f"{x:.17g}" for x in row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DoublingCertificate:
    """Solution of e^{F(epsilon)} = alpha for the doubling threshold."""

    n: int
    H: float
    R: float
    alpha: float
    epsilon: float
    F_at_epsilon: float
    k: float | None = None
    a: float | None = None

    def __post_init__(self) -> None:
        if math.exp(self.F_at_epsilon) > self.alpha + 1e-10:
            raise KernelError(
                f"doubling certificate violated: exp(F)={math.exp(self.F_at_epsilon)}"
                f" > alpha={self.alpha}"
            )


# ---------------------------------------------------------------------------
# Range gates and shared grid machinery.
# ---------------------------------------------------------------------------

# Outer-radius cap pi/(q sqrt(H)) for H > 0, as q by theorem; other ids
# have no cap.
_RANGE_CAP = {
    "MC_BOUNDED_F_INNER": 4,
    "AREA_A": 4,
    "VOL_A": 4,
    "VOL_R1": 4,
    "MC_BOUNDED_F_PI2": 2,
    "MC_DRIFT": 2,
    "AREA_B": 2,
    "VOL_B": 2,
    "VOL_B_ABS": 2,
}


def admissible_R(theorem_id: str, H: float) -> float:
    """Largest admissible outer radius for a theorem at curvature H."""
    q = _RANGE_CAP.get(theorem_id)
    if H <= 0.0 or q is None:
        return math.inf
    return math.pi / (q * math.sqrt(H))


def _cap_text(theorem_id: str, H: float) -> str:
    return f"pi/({_RANGE_CAP[theorem_id]} sqrt(H)) = {admissible_R(theorem_id, H):.12g}"


def require_admissible(theorem_id: str, H: float, R: float) -> None:
    if R > admissible_R(theorem_id, H) + 1e-12:
        raise ValueError(f"R exceeds {_cap_text(theorem_id, H)} for {theorem_id}")


def _require_outer(s: WarpedSMMS, theorem_id: str, H: float, R: float) -> None:
    """Outer radius within the theorem's range cap and the space's interior."""
    require_admissible(theorem_id, H, R)
    if R > s.r_interior_hi:
        raise ValueError(f"R={R} beyond the interior range {s.r_interior_hi}")


def _cum_integral(fn, radii: np.ndarray, lo: float = 0.0) -> np.ndarray:
    """Cumulative integral of a vectorized integrand from ``lo`` to each
    grid radius."""
    edges = np.concatenate([[lo], np.asarray(radii, dtype=float)])
    segs, _ = quad_grid(fn, edges)
    return np.cumsum(segs)


def _volumes(s: WarpedSMMS, mspace: ModelSpace, radii: np.ndarray):
    """(V_f, V_model) at each grid radius."""
    return (_cum_integral(lambda t: weighted_area(s, t), radii),
            _cum_integral(lambda t: area_model(mspace, t), radii))


def _exp_correction(mspace: ModelSpace, cl: float, R: float):
    """E(r) = int_0^r (e^{cl t} - 1) A_model/V_model dt, as a function of an
    array of radii in (0, R].

    One joint ODE solve for (V_model, E) up to R, read by dense output; the
    integrand tends to cl * dim at the pole, so the solve starts from a
    series value at a tiny radius.
    """
    if cl == 0.0:
        return lambda radii: np.zeros(len(radii))
    R = float(R)
    t0 = 1e-8 * R
    v0 = volume_model(mspace, t0, Tolerance(abs_tol=1e-14, rel_tol=1e-12))
    e0 = cl * mspace.dim * t0

    omega_d = sphere_area(mspace.dim)
    H, a, dm1 = mspace.H, mspace.drift, mspace.dim - 1.0

    def rhs(t, y):
        A = omega_d * math.exp(a * t) * sn(H, t) ** dm1
        return np.array([A, (math.exp(cl * t) - 1.0) * A / y[0]])

    traj = integrate_ode(rhs, t0, np.array([v0, e0]), R,
                         Tolerance(abs_tol=1e-14, rel_tol=1e-12),
                         max_step=R / 64.0)

    def E(radii) -> np.ndarray:
        radii = np.asarray(radii, dtype=float)
        out = cl * mspace.dim * radii
        inside = radii > t0
        out[inside] = traj.at(radii[inside])[:, 1]
        return out

    return E


def _compare(theorem_id: str, eval_on, radii: np.ndarray):
    """(lhs, rhs, margin, argmin, tolerance) on ``radii``.

    Raises ``NonFiniteError`` when an lhs is not finite or a margin is NaN;
    an rhs of +inf (an overflowed exponential bound) holds trivially.
    """
    with np.errstate(all="ignore"):  # judged below, not warned about
        lhs, rhs = eval_on(radii)
        margin = rhs - lhs
    if not np.all(np.isfinite(lhs)) or np.any(np.isnan(margin)):
        raise NonFiniteError(f"{theorem_id}: a compared value is not finite on "
                             f"[{radii[0]:.6g}, {radii[-1]:.6g}]")
    imin = int(np.argmin(margin))
    return lhs, rhs, margin, imin, max(1e-8, 1e-6 * abs(rhs[imin]))


def _finalize(theorem_id: str, params: dict, mode: str, radii: np.ndarray,
              eval_on, refine: bool = True) -> ComparisonReport:
    lhs, rhs, margin, imin, tolv = _compare(theorem_id, eval_on, radii)
    if refine and abs(margin[imin]) < 10.0 * tolv and len(radii) >= 2:
        radii = np.linspace(radii[0], radii[-1], 4 * (len(radii) - 1) + 1)
        lhs, rhs, margin, imin, tolv = _compare(theorem_id, eval_on, radii)
    eq = radii[np.abs(margin) <= tolv]
    return ComparisonReport(
        theorem_id=theorem_id,
        params=params,
        grid=np.column_stack([radii, lhs, rhs, margin]),
        min_margin=float(margin[imin]),
        tolerance=float(tolv),
        passed=bool(margin[imin] >= -tolv),
        mode=mode,
        equality_radii=[float(x) for x in eq],
    )


def _not_applicable(theorem_id: str, params: dict, mode: str,
                    reason: str) -> ComparisonReport:
    return ComparisonReport(
        theorem_id=theorem_id, params=params,
        grid=np.empty((0, 4)), min_margin=math.nan, tolerance=1e-8,
        passed=False, mode=mode, not_applicable=True, reason=reason,
    )


# Hypothesis constant -> how the space's own bound reads in a diagnostic.
_BOUND_TEXT = {"k": "sup|f|=", "a": "drift bound "}


def _resolve(s: WarpedSMMS, name: str, value) -> float:
    """Constant ``name`` ('k' or 'a'): the space's own bound from
    ``potential_bounds``, or ``value`` when given and not below it."""
    actual = getattr(potential_bounds(s), name)
    if value is None:
        return actual
    if value < actual - 1e-9:
        raise ValueError(f"{name}={value} is below the space's "
                         f"{_BOUND_TEXT[name]}{actual}")
    return float(value)


def _interior_cap(s: WarpedSMMS) -> float:
    return min(s.r_interior_hi, s.r_max * (1.0 - 1e-9))


def _mc_grid(s: WarpedSMMS, hi_cap: float, n_grid: int, lo: float | None = None,
             drop_right: bool = False) -> np.ndarray:
    hi = min(_interior_cap(s), hi_cap)
    lo = hi / n_grid if lo is None else lo
    if not lo < hi:
        raise ValueError(f"empty admissible grid: [{lo}, {hi}]")
    if drop_right:
        return np.linspace(lo, hi, n_grid + 1)[:-1]
    return np.linspace(lo, hi, n_grid)


def _mc_radii(s: WarpedSMMS, theorem_id: str, H: float, grid,
              n_grid: int) -> np.ndarray:
    """``grid``, or ``n_grid`` radii up to the theorem's range cap; either
    must end within the cap."""
    cap = admissible_R(theorem_id, H)
    radii = np.asarray(grid, dtype=float) if grid is not None \
        else _mc_grid(s, cap, n_grid)
    if radii[-1] > cap + 1e-12:
        raise ValueError(f"grid exceeds {_cap_text(theorem_id, H)}")
    return radii


def _check_mc(theorem_id: str, s: WarpedSMMS, H: float, params: dict, bound,
              radii: np.ndarray, mode: str, refine: bool,
              lo: float = 0.0) -> ComparisonReport:
    """m_f(r) <= bound(r) + int_lo^r rho on ``radii``."""
    def eval_on(rs):
        lhs = np.asarray(mean_curvature_f(s, rs))
        cum = _cum_integral(lambda t: _rho_clamped(s, H, t, mode), rs, lo=lo)
        return lhs, bound(rs) + cum

    return _finalize(theorem_id, params, mode, radii, eval_on, refine)


# ---------------------------------------------------------------------------
# Mean curvature comparisons.
# ---------------------------------------------------------------------------

def check_mc_rough(s: WarpedSMMS, H: float, r0: float, grid=None,
                   mode: str = "radial", n_grid: int = 256,
                   refine: bool = True) -> ComparisonReport:
    """m_f(r) <= m_f(r0) - (n-1) H (r - r0) + int_{r0}^r rho."""
    cap = _interior_cap(s)
    if not 0.0 < r0 < cap:
        raise ValueError(f"r0={r0} outside (0, {cap})")
    radii = np.asarray(grid, dtype=float) if grid is not None \
        else np.linspace(r0, cap, n_grid)
    if radii[0] < r0 or radii[-1] >= s.r_max:
        raise ValueError("grid must lie in [r0, r_max)")
    base = float(mean_curvature_f(s, r0))
    return _check_mc("MC_ROUGH", s, H, {"n": s.n, "H": H, "r0": r0},
                     lambda rs: base - (s.n - 1.0) * H * (rs - r0),
                     radii, mode, refine, lo=r0)


def check_mc_bounded_f_inner(s: WarpedSMMS, H: float, k: float | None = None,
                             grid=None, mode: str = "radial", n_grid: int = 256,
                             refine: bool = True) -> ComparisonReport:
    """m_f(r) <= m_H^{n+4k}(r) + int_0^r rho, r <= pi/(4 sqrt(H)) if H > 0."""
    k = _resolve(s, "k", k)
    d = s.n + 4.0 * k
    radii = _mc_radii(s, "MC_BOUNDED_F_INNER", H, grid, n_grid)
    return _check_mc("MC_BOUNDED_F_INNER", s, H, {"n": s.n, "H": H, "k": k, "d": d},
                     lambda rs: np.asarray(mean_curvature_model(d, H, rs)),
                     radii, mode, refine)


def check_mc_bounded_f_pi2(s: WarpedSMMS, H: float, k: float | None = None,
                           grid=None, mode: str = "radial", n_grid: int = 256,
                           refine: bool = True) -> ComparisonReport:
    """The pi/2 extension for H > 0 on [pi/(4 sqrt H), pi/(2 sqrt H)):

    m_f(r) <= (1 + 4k/((n-1) sin(2 sqrt(H) r))) m_H^n(r) + int_0^r rho.

    The right endpoint is excluded (the coefficient diverges there).
    """
    if H <= 0.0:
        raise ValueError("the pi/2 range estimate requires H > 0")
    k = _resolve(s, "k", k)
    lo = math.pi / (4.0 * math.sqrt(H))
    cap = admissible_R("MC_BOUNDED_F_PI2", H)
    radii = np.asarray(grid, dtype=float) if grid is not None \
        else _mc_grid(s, cap, n_grid, lo=lo, drop_right=True)
    if radii[0] < lo - 1e-12 or radii[-1] >= cap:
        raise ValueError(f"grid must lie in [{lo:.12g}, {cap:.12g})")

    def bound(rs):
        coeff = 1.0 + 4.0 * k / ((s.n - 1.0) * np.sin(2.0 * math.sqrt(H) * rs))
        return coeff * np.asarray(mean_curvature_model(s.n, H, rs))

    return _check_mc("MC_BOUNDED_F_PI2", s, H, {"n": s.n, "H": H, "k": k}, bound,
                     radii, mode, refine)


def check_mc_bounded_f(s: WarpedSMMS, H: float, k: float | None = None,
                       mode: str = "radial", n_grid: int = 256,
                       refine: bool = True) -> list[ComparisonReport]:
    """Both ranges of the bounded-potential mean curvature comparison."""
    reports = [check_mc_bounded_f_inner(s, H, k, mode=mode, n_grid=n_grid,
                                        refine=refine)]
    if H > 0.0 and s.r_interior_hi > math.pi / (4.0 * math.sqrt(H)):
        reports.append(check_mc_bounded_f_pi2(s, H, k, mode=mode, n_grid=n_grid,
                                              refine=refine))
    return reports


def check_mc_drift(s: WarpedSMMS, H: float, a: float | None = None, grid=None,
                   mode: str = "radial", n_grid: int = 256,
                   refine: bool = True) -> ComparisonReport:
    """m_f(r) <= m_H^n(r) + a + int_0^r rho, r <= pi/(2 sqrt(H)) if H > 0."""
    a = _resolve(s, "a", a)
    radii = _mc_radii(s, "MC_DRIFT", H, grid, n_grid)
    return _check_mc("MC_DRIFT", s, H, {"n": s.n, "H": H, "a": a},
                     lambda rs: np.asarray(mean_curvature_model(s.n, H, rs)) + a,
                     radii, mode, refine)


# ---------------------------------------------------------------------------
# Area and volume comparisons.
# ---------------------------------------------------------------------------

def _model(n: int, H: float, k: float | None = None,
           a: float | None = None) -> tuple[ModelSpace, float]:
    """Model space and exp-rate multiplier c: the n+4k model with c(n, k)
    when k is given, the drifted n-model with c = 1 when a is."""
    if (k is None) == (a is None):
        raise ValueError("exactly one of k, a must be given")
    if k is not None:
        return ModelSpace(dim=n + 4.0 * k, H=H, drift=0.0), c_const(n, k)
    return ModelSpace(dim=float(n), H=H, drift=float(a)), 1.0


def _bound_model(s: WarpedSMMS, H: float, bound: str, const: float | None):
    """Model space, exp-rate multiplier and resolved constant for a bound
    mode ('k' or 'a')."""
    if bound not in _BOUND_TEXT:
        raise ValueError(f"bound must be 'k' or 'a', got {bound!r}")
    value = _resolve(s, bound, const)
    return (*_model(s.n, H, **{bound: value}), {bound: value})


def check_area_comparison(s: WarpedSMMS, H: float, r: float, R: float,
                          bound: str = "a", const: float | None = None,
                          mode: str = "radial", n_grid: int = 256,
                          refine: bool = True) -> ComparisonReport:
    """A_f(R')/A_model(R') <= e^{c R' l} A_f(r)/A_model(r) for r <= R' <= R."""
    tid = "AREA_A" if bound == "k" else "AREA_B"
    if not 0.0 < r <= R:
        raise ValueError(f"require 0 < r <= R, got r={r}, R={R}")
    _require_outer(s, tid, H, R)
    mspace, c, bparams = _bound_model(s, H, bound, const)
    l = integral_rho(s, H, R, mode)
    base = float(weighted_area(s, r)) / area_model(mspace, r)

    def eval_on(rs):
        lhs = np.asarray(weighted_area(s, rs)) / np.asarray(area_model(mspace, rs))
        return lhs, np.exp(c * l * rs) * base

    radii = np.linspace(r, R, n_grid)
    params = {"n": s.n, "H": H, "r": r, "R": R, "l": l, "c": c, **bparams}
    return _finalize(tid, params, mode, radii, eval_on, refine)


def check_volume_comparison(s: WarpedSMMS, H: float, r: float, R: float,
                            bound: str = "a", const: float | None = None,
                            mode: str = "radial", n_grid: int = 256,
                            refine: bool = True,
                            _tid: str | None = None) -> ComparisonReport:
    """V_f(R')/V_m(R') <= V_f(r)/V_m(r) exp{int_0^{R'} (e^{clt}-1) A_m/V_m}."""
    tid = _tid or ("VOL_A" if bound == "k" else "VOL_B")
    if r == 0.0:
        if bound == "k":
            raise ValueError("the n+4k volume ratio blows up as r -> 0; "
                             "use r > 0 (or the absolute drift form)")
        return check_volume_absolute(s, H, R, const=const, mode=mode,
                                     n_grid=n_grid, refine=refine)
    if not 0.0 < r <= R:
        raise ValueError(f"require 0 < r <= R, got r={r}, R={R}")
    _require_outer(s, tid, H, R)
    mspace, c, bparams = _bound_model(s, H, bound, const)
    l = integral_rho(s, H, R, mode)
    corr = _exp_correction(mspace, c * l, R)

    def eval_on(rs):
        vf, vm = _volumes(s, mspace, rs)
        ratio = vf / vm
        return ratio, ratio[0] * np.exp(corr(rs))

    radii = np.linspace(r, R, n_grid)
    params = {"n": s.n, "H": H, "r": r, "R": R, "l": l, "c": c, **bparams}
    return _finalize(tid, params, mode, radii, eval_on, refine)


def check_volume_absolute(s: WarpedSMMS, H: float, R: float,
                          const: float | None = None, mode: str = "radial",
                          n_grid: int = 256, refine: bool = True) -> ComparisonReport:
    """Absolute drift form: V_f(R') <= V^a_H(R') exp{-f(0) + int (e^{lt}-1) A/V}."""
    require_admissible("VOL_B_ABS", H, R)
    if not 0.0 < R <= s.r_interior_hi:
        raise ValueError(f"require 0 < R <= {s.r_interior_hi}, got {R}")
    mspace, _, bparams = _bound_model(s, H, "a", const)
    l = integral_rho(s, H, R, mode)
    f0 = float(s.f.eval(0.0))
    corr = _exp_correction(mspace, l, R)

    def eval_on(rs):
        vf, vm = _volumes(s, mspace, rs)
        return vf, vm * np.exp(-f0 + corr(rs))

    radii = np.linspace(R / n_grid, R, n_grid)
    params = {"n": s.n, "H": H, "R": R, "l": l, **bparams}
    return _finalize("VOL_B_ABS", params, mode, radii, eval_on, refine)


def check_vol_r1(s: WarpedSMMS, H: float, R: float, const: float | None = None,
                 mode: str = "radial", n_grid: int = 256,
                 refine: bool = True) -> ComparisonReport:
    """The R >= 1 absolute estimate: the bounded-f volume comparison at r = 1."""
    if R < 1.0:
        raise ValueError(f"the R >= 1 estimate requires R >= 1, got {R}")
    return check_volume_comparison(s, H, 1.0, R, bound="k", const=const,
                                   mode=mode, n_grid=n_grid, refine=refine,
                                   _tid="VOL_R1")


# ---------------------------------------------------------------------------
# Volume doubling.
# ---------------------------------------------------------------------------

# Legendre nodes of the threshold's A/V table; the certificate re-evaluates
# F(epsilon) on a table with twice the nodes and accepts a relative
# disagreement up to _TABLE_RTOL.
_TABLE_NODES = 64
_TABLE_RTOL = 1e-12


def _doubling_table(n: int, H: float, R: float, k: float | None, a: float | None,
                    nodes: int = _TABLE_NODES) -> tuple[np.ndarray, np.ndarray]:
    """(c t_i, W_i) with F(sigma) = sum_i W_i expm1(sigma c t_i)."""
    mspace, c = _model(n, H, k, a)
    t, W = ratio_table(mspace, R, nodes)
    return c * t, W


def _table_F(table: tuple[np.ndarray, np.ndarray], sigma: float) -> float:
    ct, W = table
    with np.errstate(over="ignore"):
        return float(W @ np.expm1(sigma * ct))


def _certify_table(table, fine, sigma: float) -> None:
    """Raise unless F(sigma) on ``table`` agrees with the finer table ``fine``."""
    F, F_fine = _table_F(table, sigma), _table_F(fine, sigma)
    if not abs(F - F_fine) <= _TABLE_RTOL * abs(F_fine):
        raise KernelError(f"doubling table unresolved at sigma={sigma:.17g}: "
                          f"F={F!r} against {F_fine!r} on twice the nodes")


def doubling_F(n: int, H: float, R: float, sigma: float,
               k: float | None = None, a: float | None = None) -> float:
    """F(sigma) = int_0^R (e^{c sigma t} - 1) A_model/V_model dt.

    Bounded-potential mode (k given) uses the n+4k model and c(n,k);
    drift mode (a given) uses the drifted n-model and c = 1.  F(0) = 0
    exactly.  A dot product on the model's ``ratio_table``.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    return _table_F(_doubling_table(n, H, R, k, a), sigma)


# Largest sigma the doubling threshold's bracket search tries.
_SIGMA_CAP = 1e9


@lru_cache(maxsize=256)
def doubling_epsilon(n: int, H: float, R: float, alpha: float,
                     k: float | None = None,
                     a: float | None = None) -> DoublingCertificate:
    """Threshold epsilon with e^{F(epsilon)} = alpha, by ``find_root_bracketed``
    on one A/V table.

    epsilon is the lower end of the closed bracket, so F(epsilon) < log alpha;
    F(epsilon) is certified against a table with twice the nodes.
    """
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"alpha must be a finite number > 1, got {alpha}")
    tid = "VOL_A" if k is not None else "VOL_B"
    require_admissible(tid, H, R)
    target = math.log(alpha)
    table = _doubling_table(n, H, R, k, a)
    root = find_root_bracketed(lambda sigma: _table_F(table, sigma) - target, 0.0, 1.0,
                               Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_steps=300),
                               f_lo=-target, cap=_SIGMA_CAP)
    _certify_table(table, _doubling_table(n, H, R, k, a, 2 * _TABLE_NODES), root.lo)
    return DoublingCertificate(n=n, H=H, R=R, alpha=alpha, epsilon=root.lo,
                               F_at_epsilon=root.f_lo + target, k=k, a=a)


def check_doubling(s: WarpedSMMS, H: float, alpha: float, R: float,
                   epsilon: float | None = None, bound: str = "a",
                   const: float | None = None, mode: str = "radial",
                   n_grid: int = 48, refine: bool = True) -> ComparisonReport:
    """V_f(r2)/V_f(r1) <= alpha V_model(r2)/V_model(r1) for 0 < r1 < r2 <= R.

    Gated on the excess hypothesis l <= epsilon; a space failing the gate
    yields a NOT-APPLICABLE report, not a failure.  Each grid row keys the
    outer radius r2 and stores the worst pair over r1 < r2.
    """
    _require_outer(s, "VOL_A" if bound == "k" else "VOL_B", H, R)
    mspace, _, bparams = _bound_model(s, H, bound, const)
    if epsilon is None:
        epsilon = doubling_epsilon(s.n, H, R, alpha,
                                   k=bparams.get("k"), a=bparams.get("a")).epsilon
    l = integral_rho(s, H, R, mode)
    params = {"n": s.n, "H": H, "R": R, "alpha": alpha, "epsilon": epsilon,
              "l": l, **bparams}
    if l > epsilon + 1e-12:
        return _not_applicable("DOUBLING", params, mode,
                               f"excess integral l={l:.6g} exceeds epsilon={epsilon:.6g}")

    # Fixed inner grid of r1 candidates; each report row keys an outer r2
    # and stores the worst genuine pair r1 < r2.
    inner = np.linspace(R / n_grid, R, n_grid)
    vf1, vm1 = _volumes(s, mspace, inner)

    def eval_on(rs):
        vf2, vm2 = _volumes(s, mspace, rs)
        lhs = np.empty(len(rs))
        rhs = np.empty(len(rs))
        for j, r2 in enumerate(rs):
            m = inner < r2 - 1e-12 * R
            ratios_f = vf2[j] / vf1[m]
            ratios_m = alpha * vm2[j] / vm1[m]
            i = int(np.argmin(ratios_m - ratios_f))
            lhs[j] = ratios_f[i]
            rhs[j] = ratios_m[i]
        return lhs, rhs

    radii = np.linspace(R / n_grid, R, n_grid)[1:]
    return _finalize("DOUBLING", params, mode, radii, eval_on, refine)


# ---------------------------------------------------------------------------
# Absolute volume comparison for H < 0.
# ---------------------------------------------------------------------------

def check_absolute_volume_negH(s: WarpedSMMS, H: float, k: float | None = None,
                               R_grid=None, mode: str = "radial",
                               refine: bool = True) -> ComparisonReport:
    """V_f(R)/area(S^{n-1}) <= e^{3k} int_0^R sn_H^{n-1} e^{cosh(2 sqrt(-H) t) + l t} dt.

    Both sides are compared per unit solid angle.  The default grid caps at
    3.5/sqrt(-H), beyond which the e^{cosh} weight overflows doubles.
    """
    if H >= 0.0:
        raise ValueError(f"this bound requires H < 0, got H={H}")
    k = _resolve(s, "k", k)
    sqh = math.sqrt(-H)
    if R_grid is None:
        hi = min(s.r_interior_hi, 3.5 / sqh)
        R_grid = np.linspace(hi / 64, hi, 64)
    radii = np.asarray(R_grid, dtype=float)
    if np.any(radii <= 0.0) or radii[-1] > s.r_interior_hi:
        raise ValueError("R grid must lie in (0, r_max)")
    l = integral_rho(s, H, float(radii[-1]), mode)
    omega = sphere_area(s.n)
    e3k = math.exp(3.0 * k)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return np.asarray(sn(H, t)) ** (s.n - 1) * np.exp(np.cosh(2.0 * sqh * t) + l * t)

    def eval_on(rs):
        lhs = _cum_integral(lambda t: weighted_area(s, t), rs) / omega
        rhs = e3k * _cum_integral(integrand, rs)
        return lhs, rhs

    params = {"n": s.n, "H": H, "k": k, "l": l, "R": float(radii[-1])}
    return _finalize("VOL_ABS_NEGH", params, mode, radii, eval_on, refine)


# ---------------------------------------------------------------------------
# The separated-variables monotone ratio (proof form of the volume bound).
# ---------------------------------------------------------------------------

def volume_ratio_profile(s: WarpedSMMS, H: float, radii, bound: str = "a",
                         const: float | None = None,
                         mode: str = "radial") -> np.ndarray:
    """D(r) = [V_f(r)/V_model(r)] exp{-int_0^r (e^{clt}-1) A_m/V_m dt}.

    Nonincreasing in r whenever the volume comparison holds; this is the
    differential statement the ratio inequality integrates.
    """
    radii = np.asarray(radii, dtype=float)
    if np.any(radii <= 0.0) or np.any(np.diff(radii) <= 0.0):
        raise ValueError("radii must be positive and strictly increasing")
    mspace, c, _ = _bound_model(s, H, bound, const)
    l = integral_rho(s, H, float(radii[-1]), mode)
    vf, vm = _volumes(s, mspace, radii)
    corr = _exp_correction(mspace, c * l, radii[-1])(radii)
    return vf / vm * np.exp(-corr)
