"""Grid-based verification of the comparison inequalities.

Each checker evaluates one inequality on ``n_grid`` evenly spaced radii
across its theorem's admissible range and reports the margins rhs - lhs.
A check passes when the minimum margin is above -max(1e-8, 1e-6 |rhs|).
When the minimum margin is within ten times that tolerance, the cells next
to each radius whose margin is that near get the x4 grid's interior radii,
in one more pass merged with the first, to separate genuine near-equality
from discretization error; an anchor radius (where the checker builds rhs
from lhs) and a model identity (every margin at rounding level) refine
nothing (``_finalize``).

Checks covered: the rough mean-curvature bound, the bounded-potential
bound m_f <= m_H^{n+4k} + int rho (inner range) and its pi/2 extension
with the 1/sin(2 sqrt(H) r) coefficient, the drift bound
m_f <= m_H^n + a + int rho, area and volume ratio comparisons against the
n+4k and drifted models with the exp((e^{clt}-1) A/V) correction, the
absolute-volume forms, doubling certificates e^{F(eps)} <= alpha, and the
hyperbolic absolute volume bound with the e^{cosh(2 sqrt(-H) t)} weight.

Every other integral over a grid is one ``quad_grid`` call with the grid
radii as edges, cumulated: the weighted volume, and on the mean-curvature
grids the excess int rho (``smms.excess_integrator``, whose edges add rho's
breakpoints, so no segment holds a kink of rho; a check's two passes share
one, so the breakpoints are closed once).

The model volume and the correction E(r) = int_0^r (e^{clt}-1) A/V on the
volume grids come from one pass of fixed rules on the grid's own radii
(``_model_volumes``), so the refinement pass sums its own radii and no check
solves an ODE.  V_model is its Jacobi form V_m(r) = r A_m(r) J/psi
(``model.jacobi_factor``) near the pole and a cumulative 5-point
Gauss-Legendre sum beyond.  E's pole piece E(radii[0]), like the doubling
threshold's F(sigma) = E(R) at cl = c sigma, is a dot product on the model's
Gauss-Jacobi ``ratio_table``; the threshold is certified at epsilon against
a table with twice the nodes.  All of it but the expm1(cl t) sums depends
on the model and the grid only, so the pass keeps node tables (V_model at
the radii, the nodes, A/V at the nodes and the ``ratio_table``, the A/V
part only for cl > 0), keyed on the ``ModelSpace`` and the float64 bytes
of the grid after the coarse-grid panel split, in ``lru_cache``s of two
grids (a point's own and its refinement's radii).  The points of a sweep over
the excess, which change only l, read the same tables; the arrays are
read-only.

Hypothesis constants are computed from the space itself: k and a from
``potential_bounds`` unless given, l from ``integral_rho`` up to the outer
radius of the check.  A space whose excess integral is +inf fails the
hypotheses: the checks raise ``smms.DivergentExcessError``, which the CLI
reports as NOT-APPLICABLE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import (ModelSpace, area_model, c_const, jacobi_factor,
                    mean_curvature_model, ratio_table, sn, volume_model)
from .numkit import (KernelError, NonFiniteError, Tolerance, find_root_bracketed,
                     gauss_jacobi, quad_grid, sphere_area)
from .smms import (WarpedSMMS, excess_integrator, integral_rho, mean_curvature_f,
                   potential_bounds, weighted_area)

__all__ = [
    "Report",
    "ComparisonReport",
    "DoublingCertificate",
    "MIN_GRID_POINTS",
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

# No check calls volume_model or solves an ODE.  Both names below are kept
# only because bench/tracing.py TARGETS looks them up in this module; the
# deleted ODE kernel's name is a None placeholder.  Stage A of ROADMAP item 1
# deletes both.
_TRACED_NAMES = (volume_model,)
integrate_ode = None

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


def require_admissible(theorem_id: str, H: float, R: float) -> None:
    cap = admissible_R(theorem_id, H)
    if R > cap + 1e-12:
        raise ValueError(f"R exceeds pi/({_RANGE_CAP[theorem_id]} sqrt(H)) = {cap:.12g} "
                         f"for {theorem_id}")


# How a diagnostic names a theorem's inner radius; the others take --r.
_INNER_NAME = {"MC_ROUGH": "r0", "MC_BOUNDED_F_PI2": "pi/(4 sqrt(H))"}
# Fewest radii a check's grid may have (the CLI's --grid floor too).
MIN_GRID_POINTS = 2


def _radii(s: WarpedSMMS, theorem_id: str, H: float, n_grid: int,
           lo: float | None = None, R: float | None = None,
           open_hi: bool = False) -> np.ndarray:
    """The one radius rule: ``n_grid`` evenly spaced radii from ``lo`` to R.

    ``n_grid`` is at least ``MIN_GRID_POINTS``.  A given R lies in (0, the
    theorem's cap] and in the space's interior; by default R is the cap or
    just short of r_max, whichever is nearer.  ``lo`` defaults to R/n_grid;
    a given one lies in (0, R], and lo = R repeats R.  With ``open_hi`` the
    radii are the first ``n_grid`` of ``n_grid + 1`` from ``lo`` to R.
    """
    if n_grid < MIN_GRID_POINTS:
        raise ValueError(f"n_grid: a check needs at least {MIN_GRID_POINTS} grid points,"
                         f" got {n_grid}")
    if R is None:
        R = min(admissible_R(theorem_id, H), s.r_interior_hi, s.r_max * (1.0 - 1e-9))
    else:
        require_admissible(theorem_id, H, R)
        if not 0.0 < R <= s.r_interior_hi:
            raise ValueError(f"require 0 < R <= {s.r_interior_hi}, got {R}")
    if lo is None:
        lo = R / n_grid
    elif not 0.0 < lo <= R:
        name = _INNER_NAME.get(theorem_id, "r")
        raise ValueError(f"require 0 < {name} <= R, got {name}={lo}, R={R}")
    return np.linspace(lo, R, n_grid + 1)[:-1] if open_hi else np.linspace(lo, R, n_grid)


def _cum_integral(fn, radii: np.ndarray) -> np.ndarray:
    """Cumulative integral of a vectorized integrand from 0 to each grid
    radius."""
    edges = np.concatenate([[0.0], np.asarray(radii, dtype=float)])
    segs, _ = quad_grid(fn, edges)
    return np.cumsum(segs)


def _pole_volume(mspace: ModelSpace, t) -> np.ndarray:
    """V_model at an array of radii t > 0 in its Jacobi form t A_m(t) J/psi."""
    t = np.asarray(t, dtype=float)
    return t * area_model(mspace, t) * jacobi_factor(mspace, t)


def _volumes(s: WarpedSMMS, mspace: ModelSpace, radii: np.ndarray, cl: float = 0.0):
    """(V_f, V_model, E) at each grid radius: V_f by one ``quad_grid`` call,
    V_model and E at rate ``cl`` (zero at cl = 0) by ``_model_volumes``."""
    vf = _cum_integral(lambda t: weighted_area(s, t), radii)
    return (vf, *_model_volumes(mspace, cl, radii))


def _model_volumes(mspace: ModelSpace, cl: float, radii: np.ndarray):
    """(V_model, E) at ascending radii > 0, E(r) = int_0^r (e^{cl t} - 1)
    A_model/V_model dt, in one pass of fixed rules.

    A coarse grid is first split into equal panels of at most half a unit of
    cl + sqrt|H| + drift + (dim - 1) sqrt(max(-H, 0)), which bounds the
    growth rates of expm1(cl t) and of A away from the pole.  Everything
    else but the expm1 sums depends on the model and the split grid only,
    and comes from the node tables (``_volume_nodes``, ``_ratio_nodes``): a
    sweep over the excess changes cl alone, so its points share them.  E
    is the table's dot product for E(radii[0]) plus a cumulative 5-point
    sum of expm1(cl t) A/V per interval; at cl = 0 it is zero, and no A/V
    table is built.  The returned V is read-only.
    """
    radii = np.asarray(radii, dtype=float)
    lo, h = radii[:-1], np.diff(radii)
    scale = (cl + math.sqrt(abs(mspace.H)) + mspace.drift
             + (mspace.dim - 1.0) * math.sqrt(max(-mspace.H, 0.0)))
    panels = math.ceil(2.0 * scale * h.max()) if len(h) else 1
    if panels > 1:
        fine = (lo[:, None] + h[:, None] * (np.arange(panels) / panels)).ravel()
        vm, E = _model_volumes(mspace, cl, np.append(fine, radii[-1]))
        return vm[::panels], E[::panels]
    grid = radii.tobytes()
    vm, nodes, _, _ = _volume_nodes(mspace, grid)
    if cl == 0.0:
        return vm, np.zeros(len(radii))
    ratio, t, W = _ratio_nodes(mspace, grid)
    _, w = gauss_jacobi(5, 0.0)
    steps = h * ((np.expm1(cl * nodes) * ratio) @ w)
    return vm, W @ np.expm1(cl * t) + np.concatenate([[0.0], np.cumsum(steps)])


# The node tables of the model-volume pass, keyed on the model and the
# float64 bytes of the split grid.  A sweep point reads at most two grids,
# its own and its refinement's radii (radii[0] and the refined cells'
# interior radii, which differ from point to point), so the caches keep two
# each, and the grid the points share stays cached.
_NODE_TABLES = 2


@lru_cache(maxsize=_NODE_TABLES)
def _volume_nodes(mspace: ModelSpace, grid: bytes):
    """(V_model at the radii, the 5-point nodes of each interval, the count
    p of intervals near the pole, A_model at the nodes beyond them), all
    read-only, for the radii whose float64 bytes are ``grid``.

    V is the Jacobi form (``_pole_volume``) up to the end of the last
    interval that starts within 2 (dim - 1) widths of the pole, where
    t^(dim-1) is far from a low-degree polynomial, and beyond it a
    cumulative 5-point Gauss-Legendre sum of A.
    """
    radii = np.frombuffer(grid)
    lo, h = radii[:-1], np.diff(radii)
    x, w = gauss_jacobi(5, 0.0)
    nodes = lo[:, None] + h[:, None] * x
    near = np.flatnonzero(lo < 2.0 * (mspace.dim - 1.0) * h)
    p = near[-1] + 1 if len(near) else 0
    a_nodes = area_model(mspace, nodes[p:])
    vm = _pole_volume(mspace, radii[:p + 1])
    vm = np.concatenate([vm, vm[-1] + np.cumsum(h[p:] * (a_nodes @ w))])
    for arr in (vm, nodes, a_nodes):
        arr.setflags(write=False)
    return vm, nodes, p, a_nodes


@lru_cache(maxsize=_NODE_TABLES)
def _ratio_nodes(mspace: ModelSpace, grid: bytes):
    """(A/V at the nodes of ``_volume_nodes``, the ``ratio_table`` on
    (0, radii[0])), all read-only.

    V at the nodes is the Jacobi form near the pole, and V at the
    interval's start plus a nested 5-point sum beyond.
    """
    radii = np.frombuffer(grid)
    lo, h = radii[:-1], np.diff(radii)
    vm, nodes, p, a_nodes = _volume_nodes(mspace, grid)
    x, w = gauss_jacobi(5, 0.0)
    sub = h[p:, None] * x
    ratio = np.empty_like(nodes)
    ratio[:p] = 1.0 / (nodes[:p] * jacobi_factor(mspace, nodes[:p].ravel())
                       .reshape(p, len(x)))
    nested = area_model(mspace, lo[p:, None, None] + sub[:, :, None] * x)
    ratio[p:] = a_nodes / (vm[p:-1, None] + sub * (nested @ w))
    t, W = ratio_table(mspace, radii[0], _TABLE_NODES)
    for arr in (ratio, t, W):
        arr.setflags(write=False)
    return ratio, t, W


def _evaluate(theorem_id: str, eval_on, radii: np.ndarray):
    """(lhs, rhs, margin) on ``radii``.

    Raises ``NonFiniteError`` when an lhs is not finite or a margin is NaN;
    an rhs of +inf (an overflowed exponential bound) holds trivially.
    """
    with np.errstate(all="ignore"):  # judged below, not warned about
        lhs, rhs = eval_on(radii)
        margin = rhs - lhs
    if not np.all(np.isfinite(lhs)) or np.any(np.isnan(margin)):
        raise NonFiniteError(f"{theorem_id}: a compared value is not finite on "
                             f"[{radii[0]:.6g}, {radii[-1]:.6g}]")
    return lhs, rhs, margin


def _tolerance(rhs):
    """The margin tolerance max(1e-8, 1e-6 |rhs|)."""
    return np.maximum(1e-8, 1e-6 * np.abs(rhs))


# The refinement rule.  A first-pass minimum margin within _NEAR tolerances
# of zero may hide a crossing between radii, so each cell next to a radius
# whose margin is within _NEAR of that tolerance gets the _SPLIT - 1 interior
# radii of the x4 grid, the radii the whole-range x4 pass put there; a cell
# whose two ends sit farther from the line keeps the first pass's reading.
# Two first passes refine nothing:
# - an anchor, radii[0] where the checker builds rhs from lhs (rhs = lhs
#   times a factor >= 1), has margin >= 0 by construction, so its margin
#   never triggers and its cells are not near;
# - a model identity, where every margin is within _IDENTITY of its own
#   tolerance, is rounding at every radius, which a finer grid only
#   repeats.  On the benchmark's checks the identities' margins read at
#   most 3.4e-9 of their tolerance and every other check's largest one at
#   least 4e5 tolerances, so the factor sits far from both.
_NEAR = 10.0
_IDENTITY = 1e-6
_SPLIT = 4


def _refined_cells(margin: np.ndarray, rhs: np.ndarray, anchored: bool) -> np.ndarray:
    """Indices i of the cells [radii[i], radii[i + 1]] the refinement splits
    (an anchored grid has at least ``MIN_GRID_POINTS`` radii)."""
    first = int(anchored)
    tol = _tolerance(rhs)
    i = first + int(np.argmin(margin[first:]))
    if not abs(margin[i]) < _NEAR * tol[i] or np.all(np.abs(margin) <= _IDENTITY * tol):
        return np.empty(0, dtype=int)
    near = first + np.flatnonzero(margin[first:] < _NEAR * tol[i])
    cells = np.union1d(near - 1, near)
    return cells[(cells >= 0) & (cells < len(margin) - 1)]


def _finalize(theorem_id: str, params: dict, mode: str, radii: np.ndarray,
              eval_on, anchored: bool = False) -> ComparisonReport:
    """The report of ``eval_on`` on ``radii``, refined where a margin is near
    zero (see ``_NEAR``).  ``anchored`` marks radii[0] as an anchor.

    The refined cells' new radii go through one more ``eval_on`` call, which
    starts at radii[0] (the volume forms normalize there) and whose row
    there is dropped, and are merged with the first pass's rows as they
    are.  Every ``eval_on`` therefore takes radii[0] followed by any
    ascending radii of the first pass's range.
    """
    lhs, rhs, margin = _evaluate(theorem_id, eval_on, radii)
    cells = _refined_cells(margin, rhs, anchored)
    if len(cells):
        fine = np.linspace(radii[0], radii[-1], _SPLIT * (len(radii) - 1) + 1)
        new = fine[(_SPLIT * cells[:, None] + np.arange(1, _SPLIT)).ravel()]
        rows = _evaluate(theorem_id, eval_on, np.concatenate([radii[:1], new]))
        at = np.repeat(cells + 1, _SPLIT - 1)
        radii = np.insert(radii, at, new)
        lhs, rhs, margin = (np.insert(old, at, fresh[1:])
                            for old, fresh in zip((lhs, rhs, margin), rows))
    imin = int(np.argmin(margin))
    tolv = float(_tolerance(rhs[imin]))
    eq = radii[np.abs(margin) <= tolv]
    return ComparisonReport(
        theorem_id=theorem_id,
        params=params,
        grid=np.column_stack([radii, lhs, rhs, margin]),
        min_margin=float(margin[imin]),
        tolerance=tolv,
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


def _check_mc(theorem_id: str, s: WarpedSMMS, H: float, params: dict, bound,
              radii: np.ndarray, mode: str, lo: float = 0.0,
              anchored: bool = False) -> ComparisonReport:
    """m_f(r) <= bound(r) + int_lo^r rho on ``radii``; raises
    ``DivergentExcessError`` when that integral is +inf.  The first pass
    closes rho's breakpoints on [lo, radii[-1]] (``excess_integrator``) and
    the refinement, whose radii lie in that range, integrates on them."""
    excess = None

    def eval_on(rs):
        nonlocal excess
        lhs = np.asarray(mean_curvature_f(s, rs))
        if excess is None:
            excess = excess_integrator(s, H, lo, float(rs[-1]), mode)
        return lhs, bound(rs) + excess(rs)

    return _finalize(theorem_id, params, mode, radii, eval_on, anchored)


# ---------------------------------------------------------------------------
# Mean curvature comparisons.
# ---------------------------------------------------------------------------

def check_mc_rough(s: WarpedSMMS, H: float, r0: float, mode: str = "radial",
                   n_grid: int = 256) -> ComparisonReport:
    """m_f(r) <= m_f(r0) - (n-1) H (r - r0) + int_{r0}^r rho; r0 is the
    anchor (rhs = m_f(r0) there)."""
    radii = _radii(s, "MC_ROUGH", H, n_grid, lo=r0)
    base = float(mean_curvature_f(s, r0))
    return _check_mc("MC_ROUGH", s, H, {"n": s.n, "H": H, "r0": r0},
                     lambda rs: base - (s.n - 1.0) * H * (rs - r0), radii, mode, lo=r0,
                     anchored=True)


def check_mc_bounded_f_inner(s: WarpedSMMS, H: float, k: float | None = None,
                             mode: str = "radial", n_grid: int = 256) -> ComparisonReport:
    """m_f(r) <= m_H^{n+4k}(r) + int_0^r rho, r <= pi/(4 sqrt(H)) if H > 0."""
    k = _resolve(s, "k", k)
    d = s.n + 4.0 * k
    return _check_mc("MC_BOUNDED_F_INNER", s, H, {"n": s.n, "H": H, "k": k, "d": d},
                     lambda rs: np.asarray(mean_curvature_model(d, H, rs)),
                     _radii(s, "MC_BOUNDED_F_INNER", H, n_grid), mode)


def check_mc_bounded_f_pi2(s: WarpedSMMS, H: float, k: float | None = None,
                           mode: str = "radial", n_grid: int = 256) -> ComparisonReport:
    """The pi/2 extension for H > 0 on [pi/(4 sqrt H), pi/(2 sqrt H)):

    m_f(r) <= (1 + 4k/((n-1) sin(2 sqrt(H) r))) m_H^n(r) + int_0^r rho.

    The right endpoint is excluded (the coefficient diverges there).
    """
    if H <= 0.0:
        raise ValueError("the pi/2 range estimate requires H > 0")
    k = _resolve(s, "k", k)
    # The coefficient diverges at the cap, which the radii leave out.
    radii = _radii(s, "MC_BOUNDED_F_PI2", H, n_grid, lo=math.pi / (4.0 * math.sqrt(H)),
                   open_hi=True)

    def bound(rs):
        coeff = 1.0 + 4.0 * k / ((s.n - 1.0) * np.sin(2.0 * math.sqrt(H) * rs))
        return coeff * np.asarray(mean_curvature_model(s.n, H, rs))

    return _check_mc("MC_BOUNDED_F_PI2", s, H, {"n": s.n, "H": H, "k": k}, bound,
                     radii, mode)


def check_mc_bounded_f(s: WarpedSMMS, H: float, k: float | None = None,
                       mode: str = "radial", n_grid: int = 256) -> list[ComparisonReport]:
    """Both ranges of the bounded-potential mean curvature comparison."""
    reports = [check_mc_bounded_f_inner(s, H, k, mode=mode, n_grid=n_grid)]
    if H > 0.0 and (_radii(s, "MC_BOUNDED_F_PI2", H, MIN_GRID_POINTS)[-1]
                    > math.pi / (4.0 * math.sqrt(H))):
        reports.append(check_mc_bounded_f_pi2(s, H, k, mode=mode, n_grid=n_grid))
    return reports


def check_mc_drift(s: WarpedSMMS, H: float, a: float | None = None,
                   mode: str = "radial", n_grid: int = 256) -> ComparisonReport:
    """m_f(r) <= m_H^n(r) + a + int_0^r rho, r <= pi/(2 sqrt(H)) if H > 0."""
    a = _resolve(s, "a", a)
    return _check_mc("MC_DRIFT", s, H, {"n": s.n, "H": H, "a": a},
                     lambda rs: np.asarray(mean_curvature_model(s.n, H, rs)) + a,
                     _radii(s, "MC_DRIFT", H, n_grid), mode)


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
                          mode: str = "radial", n_grid: int = 256) -> ComparisonReport:
    """A_f(R')/A_model(R') <= e^{c R' l} A_f(r)/A_model(r) for r <= R' <= R;
    r is the anchor."""
    tid = "AREA_A" if bound == "k" else "AREA_B"
    radii = _radii(s, tid, H, n_grid, lo=r, R=R)
    mspace, c, bparams = _bound_model(s, H, bound, const)
    l = integral_rho(s, H, R, mode)
    base = float(weighted_area(s, r)) / area_model(mspace, r)

    def eval_on(rs):
        lhs = np.asarray(weighted_area(s, rs)) / np.asarray(area_model(mspace, rs))
        return lhs, np.exp(c * l * rs) * base

    params = {"n": s.n, "H": H, "r": r, "R": R, "l": l, "c": c, **bparams}
    return _finalize(tid, params, mode, radii, eval_on, anchored=True)


def check_volume_comparison(s: WarpedSMMS, H: float, r: float, R: float,
                            bound: str = "a", const: float | None = None,
                            mode: str = "radial", n_grid: int = 256) -> ComparisonReport:
    """V_f(R')/V_m(R') <= V_f(r)/V_m(r) exp{int_0^{R'} (e^{clt}-1) A_m/V_m}."""
    if r == 0.0:
        if bound == "k":
            raise ValueError("the n+4k volume ratio blows up as r -> 0; "
                             "use r > 0 (or the absolute drift form)")
        return check_volume_absolute(s, H, R, const=const, mode=mode, n_grid=n_grid)
    return _check_volume("VOL_A" if bound == "k" else "VOL_B", s, H, r, R, bound,
                         const, mode, n_grid)


def _check_volume(tid: str, s: WarpedSMMS, H: float, r: float, R: float, bound: str,
                  const: float | None, mode: str, n_grid: int) -> ComparisonReport:
    """The volume ratio comparison on [r, R], reported as ``tid``; r is the
    anchor (rhs = lhs(r) e^{E(r)}, E >= 0)."""
    radii = _radii(s, tid, H, n_grid, lo=r, R=R)
    mspace, c, bparams = _bound_model(s, H, bound, const)
    l = integral_rho(s, H, R, mode)

    def eval_on(rs):
        vf, vm, E = _volumes(s, mspace, rs, c * l)
        ratio = vf / vm
        return ratio, ratio[0] * np.exp(E)

    params = {"n": s.n, "H": H, "r": r, "R": R, "l": l, "c": c, **bparams}
    return _finalize(tid, params, mode, radii, eval_on, anchored=True)


def check_volume_absolute(s: WarpedSMMS, H: float, R: float,
                          const: float | None = None, mode: str = "radial",
                          n_grid: int = 256) -> ComparisonReport:
    """Absolute drift form: V_f(R') <= V^a_H(R') exp{-f(0) + int (e^{lt}-1) A/V}."""
    radii = _radii(s, "VOL_B_ABS", H, n_grid, R=R)
    mspace, _, bparams = _bound_model(s, H, "a", const)
    l = integral_rho(s, H, R, mode)
    f0 = float(s.f.eval(0.0))

    def eval_on(rs):
        vf, vm, E = _volumes(s, mspace, rs, l)
        return vf, vm * np.exp(-f0 + E)

    params = {"n": s.n, "H": H, "R": R, "l": l, **bparams}
    return _finalize("VOL_B_ABS", params, mode, radii, eval_on)


def check_vol_r1(s: WarpedSMMS, H: float, R: float, const: float | None = None,
                 mode: str = "radial", n_grid: int = 256) -> ComparisonReport:
    """The R >= 1 absolute estimate: the bounded-f volume comparison at r = 1."""
    if R < 1.0:
        raise ValueError(f"the R >= 1 estimate requires R >= 1, got {R}")
    return _check_volume("VOL_R1", s, H, 1.0, R, "k", const, mode, n_grid)


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

    F(_SIGMA_CAP) is taken first.  When it is below log alpha the threshold
    lies beyond the cap and epsilon is the cap: F increases in sigma, so the
    cap is a lower bound on it.  Otherwise the bracket grows from [0, 1] up
    to the cap, so any threshold below it is found, and epsilon is the lower
    end of the closed bracket, so F(epsilon) <= log alpha.  F(epsilon) is
    certified against a table with twice the nodes.
    """
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"alpha must be a finite number > 1, got {alpha}")
    require_admissible("VOL_A" if k is not None else "VOL_B", H, R)
    target = math.log(alpha)
    table = _doubling_table(n, H, R, k, a)
    epsilon, F_eps = _SIGMA_CAP, _table_F(table, _SIGMA_CAP)
    if not F_eps < target:
        root = find_root_bracketed(lambda sigma: _table_F(table, sigma) - target, 0.0, 1.0,
                                   Tolerance(abs_tol=1e-13, rel_tol=1e-13, max_steps=300),
                                   f_lo=-target, cap=_SIGMA_CAP)
        epsilon, F_eps = root.lo, root.f_lo + target
    _certify_table(table, _doubling_table(n, H, R, k, a, 2 * _TABLE_NODES), epsilon)
    return DoublingCertificate(n=n, H=H, R=R, alpha=alpha, epsilon=epsilon,
                               F_at_epsilon=F_eps, k=k, a=a)


def check_doubling(s: WarpedSMMS, H: float, alpha: float, R: float,
                   epsilon: float | None = None, bound: str = "a",
                   const: float | None = None, mode: str = "radial",
                   n_grid: int = 48) -> ComparisonReport:
    """V_f(r2)/V_f(r1) <= alpha V_model(r2)/V_model(r1) for 0 < r1 < r2 <= R.

    Gated on the excess hypothesis l <= epsilon; a space failing the gate
    yields a NOT-APPLICABLE report, not a failure.  Each grid row keys the
    outer radius r2 and stores the worst pair over r1 < r2.
    """
    inner = _radii(s, "VOL_A" if bound == "k" else "VOL_B", H, n_grid, R=R)
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
    # and stores the worst genuine pair r1 < r2.  The report radii are the
    # inner grid less its first radius, so that pass reads the volumes just
    # integrated; only a refinement pass integrates its own radii.
    vf1, vm1, _ = _volumes(s, mspace, inner)
    radii = inner[1:]

    def eval_on(rs):
        vf2, vm2 = (vf1[1:], vm1[1:]) if rs is radii else _volumes(s, mspace, rs)[:2]
        # Table (r2, r1) of both ratios; pairs with r1 >= r2 never win.
        ratios_f = vf2[:, None] / vf1
        ratios_m = alpha * vm2[:, None] / vm1
        gap = np.where(inner < rs[:, None] - 1e-12 * R, ratios_m - ratios_f, np.inf)
        rows, i = np.arange(len(rs)), np.argmin(gap, axis=1)
        return ratios_f[rows, i], ratios_m[rows, i]

    return _finalize("DOUBLING", params, mode, radii, eval_on)


# ---------------------------------------------------------------------------
# Absolute volume comparison for H < 0.
# ---------------------------------------------------------------------------

def check_absolute_volume_negH(s: WarpedSMMS, H: float, k: float | None = None,
                               R: float | None = None, mode: str = "radial",
                               n_grid: int = 64) -> ComparisonReport:
    """V_f(R)/area(S^{n-1}) <= e^{3k} int_0^R sn_H^{n-1} e^{cosh(2 sqrt(-H) t) + l t} dt.

    Both sides are compared per unit solid angle.  The outer radius R
    defaults to 3.5/sqrt(-H), beyond which the e^{cosh} weight overflows
    doubles, or the interior's end if nearer.
    """
    if H >= 0.0:
        raise ValueError(f"this bound requires H < 0, got H={H}")
    k = _resolve(s, "k", k)
    sqh = math.sqrt(-H)
    R = min(s.r_interior_hi, 3.5 / sqh) if R is None else float(R)
    radii = _radii(s, "VOL_ABS_NEGH", H, n_grid, R=R)
    l = integral_rho(s, H, R, mode)
    omega = sphere_area(s.n)
    e3k = math.exp(3.0 * k)

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return np.asarray(sn(H, t)) ** (s.n - 1) * np.exp(np.cosh(2.0 * sqh * t) + l * t)

    def eval_on(rs):
        lhs = _cum_integral(lambda t: weighted_area(s, t), rs) / omega
        rhs = e3k * _cum_integral(integrand, rs)
        return lhs, rhs

    params = {"n": s.n, "H": H, "k": k, "l": l, "R": R}
    return _finalize("VOL_ABS_NEGH", params, mode, radii, eval_on)


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
    vf, vm, E = _volumes(s, mspace, radii, c * l)
    return vf / vm * np.exp(-E)
