"""Independent output checks for the benchmark.

Everything here is computed from the benchmark's own closed forms and numpy
quadrature; nothing imports smmskit.  Each ``check_*`` function takes an
operation (see ``workloads.Op``) and what the CLI wrote, and returns a list
of violations: an empty list means the output is correct.

Tolerances are fixed here, never read back from the report under test,
except the per-check ``tolerance`` field that a comparison report defines as
its own pass threshold.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Space",
    "THEOREM_PARAMS",
    "CLI_EIGEN_TOL_REL",
    "J01",
    "profile",
    "excess_integral",
    "potential_constants",
    "eigen_closed_form",
    "rayleigh_quotient",
    "doubling_F",
    "doubling_threshold",
    "c_const",
    "myers_bounds",
    "check_check_report",
    "check_cheng_report",
    "check_sweep_csv",
]

J01 = 2.404825557695773  # first zero of the Bessel function J_0

# Relative bisection tolerance `smmskit check` runs EIGEN/CHENG at when no
# --tol-rel is given.  Reports do not state it, so it is fixed here.
CLI_EIGEN_TOL_REL = 1e-6

# Flags `smmskit sweep` treats as theorem parameters; any other swept name
# is a space parameter.
THEOREM_PARAMS = frozenset({"H", "k", "a", "r", "R", "r0", "alpha", "delta", "epsilon"})

_EXCESS_POINTS = 200_000
_GRID_INTERVALS = 100_000
# Dense grids are evaluated in blocks of this many points, so the oracles'
# temporaries stay well below the program's own arrays and do not set the
# process's peak memory (rss_peak_mb).
_BLOCK = 8192
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)


@dataclass(frozen=True)
class Space:
    """A space as the benchmark knows it: catalog kind plus parameters.

    ``kind`` is a catalog name or ``poly`` (a ``--custom`` file with
    polynomial ``w`` and ``f``).  ``params`` holds the catalog parameters,
    or ``w``/``f`` coefficient tuples and ``r_max`` for ``poly``.
    """

    kind: str
    n: int
    params: dict = field(default_factory=dict)

    @property
    def H(self) -> float:
        return float(self.params.get("H", 0.0))

    @property
    def r_max(self) -> float:
        p = self.params
        if self.kind in ("sphere", "perturbed_sphere"):
            return math.pi / math.sqrt(self.H)
        if self.kind == "hyperbolic":
            return float(p.get("r_max", 10.0 / math.sqrt(-self.H)))
        return float(p.get("r_max", 10.0))

    @property
    def is_model(self) -> bool:
        """Constant curvature, up to a linear drift: no excess at H = H_space."""
        p = self.params
        return self.kind in ("sphere", "euclidean", "hyperbolic", "linear_drift") \
            or (self.kind == "perturbed_sphere" and p.get("eps") == 0.0) \
            or (self.kind == "poly" and list(p["w"]) == [0.0, 1.0] and len(p["f"]) <= 2)


def _blocks(count: int):
    """Index arrays 0..count-1 in consecutive blocks of at most _BLOCK."""
    for start in range(0, count, _BLOCK):
        yield np.arange(start, min(start + _BLOCK, count), dtype=float)


def _sn(H: float, r):
    if H > 0.0:
        s = math.sqrt(H)
        return np.sin(s * r) / s, np.cos(s * r)
    if H < 0.0:
        s = math.sqrt(-H)
        return np.sinh(s * r) / s, np.cosh(s * r)
    return np.asarray(r, dtype=float), np.ones_like(r)


def profile(space: Space, r):
    """(w, w', w'', f, f', f'') of ``space`` at the radii ``r``."""
    r = np.asarray(r, dtype=float)
    zero = np.zeros_like(r)
    p = space.params
    kind = space.kind
    if kind in ("sphere", "hyperbolic"):
        H = space.H
        sn, cs = _sn(H, r)
        return sn, cs, -H * sn, zero, zero, zero
    if kind in ("euclidean", "gaussian_soliton", "linear_drift"):
        one = np.ones_like(r)
        if kind == "gaussian_soliton":
            c = float(p.get("c", 0.25))
            return r, one, zero, c * r * r, 2.0 * c * r, np.full_like(r, 2.0 * c)
        if kind == "linear_drift":
            a = float(p.get("a", 0.5))
            return r, one, zero, -a * r, np.full_like(r, -a), zero
        return r, one, zero, zero, zero, zero
    if kind == "perturbed_sphere":
        H = space.H
        eps = float(p.get("eps", 0.05))
        om = float(p.get("omega", 3.0))
        sn, cs = _sn(H, r)
        q = 1.0 + eps * np.sin(om * r) ** 2
        q1 = eps * om * np.sin(2.0 * om * r)
        q2 = 2.0 * eps * om * om * np.cos(2.0 * om * r)
        return (sn * q, cs * q + sn * q1, -H * sn * q + 2.0 * cs * q1 + sn * q2,
                zero, zero, zero)
    if kind == "poly":
        P = np.polynomial.polynomial
        wc, fc = np.asarray(p["w"], float), np.asarray(p["f"], float)
        return (P.polyval(r, wc), P.polyval(r, P.polyder(wc)),
                P.polyval(r, P.polyder(wc, 2)), P.polyval(r, fc),
                P.polyval(r, P.polyder(fc)), P.polyval(r, P.polyder(fc, 2)))
    raise ValueError(f"unknown space kind {kind!r}")


def excess_integral(space: Space, H: float, upper: float,
                    points: int = _EXCESS_POINTS) -> float:
    """int_0^upper [(n-1) H - Ric_f(d_r, d_r)]_+ dr by the midpoint rule on
    a dense grid (the positive part has kinks, so no high-order rule)."""
    upper = min(float(upper), space.r_max)
    h = upper / points
    total = 0.0
    for idx in _blocks(points):
        r = (idx + 0.5) * h
        w, _, w2, _, _, f2 = profile(space, r)
        ric_f = -(space.n - 1.0) * w2 / w + f2
        total += float(np.maximum(0.0, (space.n - 1.0) * H - ric_f).sum())
    return total * h


def potential_constants(space: Space) -> tuple[float, float]:
    """(k, a) = (sup |f|, max(0, -inf f')) over [0, r_max], in closed form
    where one exists and on a dense grid plus critical points otherwise."""
    p = space.params
    if space.kind == "gaussian_soliton":
        return float(p.get("c", 0.25)) * space.r_max ** 2, 0.0
    if space.kind == "linear_drift":
        a = float(p.get("a", 0.5))
        return a * space.r_max, a
    if space.kind != "poly":
        return 0.0, 0.0
    P = np.polynomial.polynomial
    fc = np.asarray(p["f"], float)
    d1 = P.polyder(fc)
    step = space.r_max / _GRID_INTERVALS
    k, d1_min = 0.0, math.inf
    for idx in _blocks(_GRID_INTERVALS + 1):
        grid = idx * step
        k = max(k, float(np.max(np.abs(P.polyval(grid, fc)))))
        d1_min = min(d1_min, float(np.min(P.polyval(grid, d1))))
    crit = [x.real for x in P.polyroots(P.polyder(fc)) if len(fc) > 2
            and abs(x.imag) < 1e-14 and 0.0 <= x.real <= space.r_max] \
        if len(fc) > 2 else []
    if crit:
        k = max(k, float(np.max(np.abs(P.polyval(np.asarray(crit), fc)))))
    crit1 = [x.real for x in P.polyroots(P.polyder(d1)) if len(d1) > 2
             and abs(x.imag) < 1e-14 and 0.0 <= x.real <= space.r_max] \
        if len(d1) > 2 else []
    if crit1:
        d1_min = min(d1_min, float(np.min(P.polyval(np.asarray(crit1), d1))))
    return k, max(0.0, -d1_min)


def eigen_closed_form(space: Space, R: float) -> float | None:
    """First Dirichlet eigenvalue of B(pole, R) where a closed form exists:
    pi^2/R^2 - H for n = 3 constant curvature, j_{0,1}^2/R^2 for the flat
    disk; None otherwise."""
    if space.kind in ("sphere", "euclidean", "hyperbolic") and space.n == 3:
        return math.pi ** 2 / R ** 2 - space.H
    if space.kind == "euclidean" and space.n == 2:
        return J01 ** 2 / R ** 2
    return None


def _gauss_nodes(a: float, b: float, panels: int):
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    wts = (half[:, None] * _GL_W[None, :]).ravel()
    return x, wts


def rayleigh_quotient(space: Space, R: float, H: float, panels: int = 32) -> float:
    """Smallest Rayleigh quotient int phi'^2 A_f / int phi^2 A_f over two
    Dirichlet trial functions on B(pole, R), A_f = w^{n-1} e^{-f}:
    cos(pi r / 2R) and sin(pi r / R) / sn_H(r).  Gauss-Legendre quadrature.
    By min-max each quotient bounds the first eigenvalue from above."""
    r, wts = _gauss_nodes(0.0, R, panels)
    w, _, _, f, _, _ = profile(space, r)
    area = w ** (space.n - 1) * np.exp(-f)
    best = math.inf
    k = math.pi / (2.0 * R)
    trials = [(np.cos(k * r), -k * np.sin(k * r))]
    sn, cs = _sn(H, r)
    k2 = math.pi / R
    s, c = np.sin(k2 * r), np.cos(k2 * r)
    trials.append((s / sn, (k2 * c * sn - s * cs) / (sn * sn)))
    for phi, dphi in trials:
        q = float(np.sum(wts * dphi * dphi * area) / np.sum(wts * phi * phi * area))
        best = min(best, q)
    return best


def _sphere_area(d: float) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def c_const(n: int, k: float) -> float:
    """area(S^{n+4k-1}) / area(S^{n-1})."""
    return _sphere_area(n + 4.0 * k) / _sphere_area(n)


def doubling_F(n: int, H: float, R: float, sigma: float, k: float | None = None,
               a: float | None = None, panels: int = 16) -> float:
    """F(sigma) = int_0^R (e^{c sigma t} - 1) A_m(t) / V_m(t) dt.

    With S(t) = sn_H(t)/t and V_m(t) = omega t^d J(t),
    J(t) = int_0^1 u^{d-1} S(tu)^{d-1} e^{a t u} du, the integrand is
    expm1(c sigma t)/t * S(t)^{d-1} e^{a t} / J(t): the pole singularity
    cancels in closed form (expm1(x)/x -> 1), so plain Gauss-Legendre on
    [0, R] and on [0, 1] converges without a series start.
    """
    if (k is None) == (a is None):
        raise ValueError("exactly one of k, a")
    if sigma == 0.0:
        return 0.0
    d = n + 4.0 * k if k is not None else float(n)
    drift = 0.0 if a is None else float(a)
    c = c_const(n, k) if k is not None else 1.0
    t, wt = _gauss_nodes(0.0, R, panels)
    u, wu = _gauss_nodes(0.0, 1.0, 4)

    def S(x):
        sn, _ = _sn(H, x)
        return sn / x

    tu = t[:, None] * u[None, :]
    J = (wu[None, :] * u[None, :] ** (d - 1.0) * S(tu) ** (d - 1.0)
         * np.exp(drift * tu)).sum(axis=1)
    g = np.expm1(c * sigma * t) / t * S(t) ** (d - 1.0) * np.exp(drift * t) / J
    return float(np.sum(wt * g))


def myers_bounds(n: int, H: float, k: float, a: float, l: float) -> dict:
    """The three diameter bounds in closed form."""
    sq = math.sqrt(H)
    inner = 1.0 + 8.0 * k / ((n - 1) * math.pi) + l * l / ((n - 1) ** 2 * H * math.pi ** 2)
    return {
        "MYERS_F": math.pi / sq + (4.0 * k * sq + 2.0 * l) / ((n - 1) * H),
        "MYERS_GRAD": math.pi / sq + (2.0 * a + 2.0 * l) / ((n - 1) * H),
        "MYERS_INDEX": 2.0 * math.pi / sq * math.sqrt(inner) + 2.0 * l / ((n - 1) * H),
    }


# ---------------------------------------------------------------------------
# Report checks.
# ---------------------------------------------------------------------------

_L_REL = 1e-6      # excess integral: program quad_grid vs dense midpoint
L_ZERO = 1e-12    # "l = 0" on model spaces, up to rounding of w''/w
_CONST_REL = 1e-6  # k and a against closed forms


def _close(x: float, y: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(x - y) <= abs_ + rel * max(abs(x), abs(y))


def _check_excess(op, l: float, upper: float, errs: list) -> None:
    if op.space.is_model and op.H == op.space.H:
        if abs(l) > L_ZERO:
            errs.append(f"l={l!r} on a model space, expected 0")
        return
    own = excess_integral(op.space, op.H, upper)
    if not _close(l, own, _L_REL, 1e-9):
        errs.append(f"l={l!r} but dense quadrature gives {own!r}")


def _check_constants(op, params: dict, errs: list) -> None:
    k, a = potential_constants(op.space)
    for name, want in (("k", k), ("a", a)):
        if name in params and name not in op.theorem_args:
            if not _close(params[name], want, _CONST_REL, 1e-12):
                errs.append(f"{name}={params[name]!r}, closed form {want!r}")


def check_check_report(op, code: int, report: dict) -> list[str]:
    """A `smmskit check` comparison or MYERS report from the checks workload."""
    errs: list[str] = []
    if code != 0 or report.get("verdict") != "PASS":
        return [f"exit {code}, verdict {report.get('verdict')!r}, expected PASS"]
    checks = report.get("checks", [])
    if len(checks) != 1:
        return [f"{len(checks)} checks in the report, expected 1"]
    c = checks[0]
    params = c.get("params", {})
    if c.get("theorem_id") != op.theorem or c.get("verdict") != "PASS" or not c.get("pass"):
        errs.append(f"check {c.get('theorem_id')} verdict {c.get('verdict')}")
    for name, val in op.theorem_args.items():
        if name in params and params[name] != val:
            errs.append(f"param {name}={params[name]!r} does not echo {val!r}")
    if op.theorem == "MYERS":
        _check_myers(op, c, errs)
        return errs
    mm, tol = c.get("min_margin"), c.get("tolerance")
    if mm is None or not mm >= -tol:
        errs.append(f"min_margin={mm!r} below -tolerance={tol!r}")
    if op.equality and not abs(mm) <= tol:
        errs.append(f"|min_margin|={abs(mm)!r} exceeds tolerance {tol!r} "
                    "on an equality case")
    _check_constants(op, params, errs)
    if "l" in params:
        _check_excess(op, params["l"], float(params.get("R", op.space.r_max)), errs)
    return errs


def _check_myers(op, c: dict, errs: list) -> None:
    bounds, actual = c.get("bounds", {}), c.get("actual_diameter")
    if not _close(actual, op.space.r_max, 1e-12):
        errs.append(f"actual_diameter={actual!r}, expected r_max={op.space.r_max!r}")
    l = c["params"]["l"]
    _check_excess(op, l, op.space.r_max, errs)
    k, a = potential_constants(op.space)
    l_own = 0.0 if op.space.is_model and op.H == op.space.H \
        else excess_integral(op.space, op.H, op.space.r_max)
    want = myers_bounds(op.space.n, op.H, k, a, l_own)
    if op.space.kind == "sphere" and op.H == op.space.H:
        pi_h = math.pi / math.sqrt(op.H)
        want = {"MYERS_F": pi_h, "MYERS_GRAD": pi_h, "MYERS_INDEX": 2.0 * pi_h}
    for name, value in want.items():
        got = bounds.get(name)
        if got is None or not _close(got, value, 1e-6, 1e-12):
            errs.append(f"{name}={got!r}, closed form {value!r}")
        elif not actual <= got + 1e-9:
            errs.append(f"actual diameter {actual!r} exceeds {name}={got!r}")
    mm = c.get("min_margin")
    if not errs and (mm is None or not _close(mm, min(want.values()) - actual, 1e-6, 1e-9)):
        errs.append(f"min_margin={mm!r} is not the smallest bound minus the diameter")


def check_cheng_report(op, code: int, report: dict) -> list[str]:
    """A `smmskit check --theorem CHENG` report from the eigen workload."""
    checks = report.get("checks", [])
    if len(checks) != 1 or checks[0].get("theorem_id") != "CHENG":
        return ["expected one CHENG check"]
    c = checks[0]
    p = c["params"]
    lam_ball, lam_model = p["lambda_ball"], p["lambda_model"]
    l, eps, delta = p["l"], p["epsilon"], p["delta"]
    R = op.theorem_args["R"]
    errs: list[str] = []
    gated = l > eps + 1e-12
    want_verdict = "NOT-APPLICABLE" if gated else "PASS"
    if c.get("verdict") != want_verdict or code != (3 if gated else 0):
        errs.append(f"exit {code}, verdict {c.get('verdict')!r}, "
                    f"expected {want_verdict} (l={l!r}, epsilon={eps!r})")
    if op.expect_gated is not None and gated != op.expect_gated:
        errs.append(f"gate {'fired' if gated else 'did not fire'} against the "
                    "input design")
    if delta != op.theorem_args["delta"]:
        errs.append(f"delta={delta!r} does not echo the input")
    _check_excess(op, l, op.space.r_max, errs)
    exact = eigen_closed_form(op.space, R) if op.H == op.space.H else None
    tol = CLI_EIGEN_TOL_REL
    if exact is not None:
        for name, lam in (("lambda_ball", lam_ball), ("lambda_model", lam_model)):
            if not _close(lam, exact, tol):
                errs.append(f"{name}={lam!r}, closed form {exact!r}")
    else:
        q = rayleigh_quotient(op.space, R, op.H)
        if not lam_ball <= q * (1.0 + tol):
            errs.append(f"lambda_ball={lam_ball!r} above the trial Rayleigh quotient {q!r}")
        model = Space("hyperbolic" if op.H < 0 else "sphere" if op.H > 0 else "euclidean",
                      op.space.n, {"H": op.H} if op.H else {})
        exact_model = eigen_closed_form(model, R)
        if exact_model is not None and not _close(lam_model, exact_model, tol):
            errs.append(f"lambda_model={lam_model!r}, closed form {exact_model!r}")
    if not _close(c.get("ratio", math.nan), lam_ball / lam_model, 1e-12):
        errs.append("ratio is not lambda_ball / lambda_model")
    if not gated and not lam_ball / lam_model <= 1.0 + delta + 1e-8:
        errs.append(f"PASS with ratio {lam_ball / lam_model!r} > 1 + delta")
    eps_d = doubling_threshold(op.space.n, op.H, R, 4.0,
                               a=potential_constants(op.space)[1])
    if not eps <= eps_d * (1.0 + 1e-6):
        errs.append(f"epsilon={eps!r} exceeds the alpha=4 doubling threshold {eps_d!r}")
    return errs


def doubling_threshold(n: int, H: float, R: float, alpha: float,
                       k: float | None = None, a: float | None = None) -> float:
    """sigma with F(sigma) = log(alpha), by bisection on the own F."""
    target = math.log(alpha)
    lo, hi = 0.0, 1.0
    while doubling_F(n, H, R, hi, k=k, a=a) < target:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if doubling_F(n, H, R, mid, k=k, a=a) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def check_sweep_csv(op, code: int, text: str) -> list[str]:
    """A `smmskit sweep` CSV from the sweep workload."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return ["empty sweep output"]
    header, body = rows[0], rows[1:]
    want_header = [op.sweep_param, "min_margin", "verdict"]
    if op.theorem == "DOUBLING":
        want_header.append("epsilon")
    if header != want_header:
        return [f"header {header}, expected {want_header}"]
    values = np.linspace(op.sweep_start, op.sweep_stop, op.points)
    if len(body) != op.points:
        return [f"{len(body)} rows, expected {op.points}"]
    errs: list[str] = []
    verdicts = [row[2] for row in body]
    want_code = 1 if "FAIL" in verdicts else 3 if set(verdicts) == {"NOT-APPLICABLE"} else 0
    if code != want_code:
        errs.append(f"exit {code} does not match the verdicts (expected {want_code})")
    if op.theorem == "DOUBLING" and op.sweep_param not in THEOREM_PARAMS:
        if len({row[3] for row in body}) != 1:
            errs.append("epsilon differs between the points of one sweep")
    for value, row in zip(values, body):
        point, mm, verdict = float(row[0]), float(row[1]), row[2]
        if point != float(f"{value:.17g}"):
            errs.append(f"point {row[0]} does not match the requested range")
            continue
        space, args = op.at_point(point)
        if op.theorem == "VOL_B":
            if verdict != "PASS" or not mm >= -1e-8:
                errs.append(f"VOL_B point {point}: {verdict} margin {mm!r}")
            elif space.is_model and not abs(mm) <= 1e-6:
                errs.append(f"VOL_B point {point} on the round sphere: margin {mm!r}")
            continue
        eps = float(row[3])
        alpha, R = args["alpha"], args["R"]
        F = doubling_F(space.n, args["H"], R, eps, k=args.get("k"), a=args.get("a"))
        if not abs(math.exp(F) / alpha - 1.0) <= 1e-6:
            errs.append(f"point {point}: e^F(eps)={math.exp(F)!r} != alpha={alpha!r}")
        l = excess_integral(space, args["H"], R)
        if abs(l - eps) > 1e-6 * eps:
            gated = verdict == "NOT-APPLICABLE"
            if gated != (l > eps):
                errs.append(f"point {point}: verdict {verdict} with l={l!r}, eps={eps!r}")
            if not gated and (verdict != "PASS" or not math.isfinite(mm)):
                errs.append(f"point {point}: verdict {verdict} margin {mm!r}")
    return errs
