"""First Dirichlet eigenvalues by shooting, and the constructive Cheng check.

The model eigenproblem is phi'' + (m_H + a) phi' + lambda phi = 0 with
phi(0) = 1 and phi(R) = 0; the same solver handles a radial ball in a
warped space with coefficient m_f.  The pole is a regular singular point,
so integration starts at r0 = 1e-6 R from the series
phi(r0) = 1 - lambda r0^2 / (2n), phi'(r0) = -lambda r0 / n.

Shoots run in the scaled state (phi, R phi'), whose components are of order
one at any R, and follow the Pruefer angle theta, phi = rho sin(theta) and
R phi' = rho cos(theta), which obeys the first-order equation
theta' = cos^2 theta / R + m_f sin theta cos theta + lambda R sin^2 theta.
theta(R; lambda) is continuous and increasing in lambda and passes each
multiple of pi only upward, at a zero of phi, so the first eigenvalue is the
root of theta(R; lambda) = pi (Pryce, Numerical Solution of Sturm-Liouville
Problems, 1993).  The lowest Rayleigh-Ritz value lambda_R on a polynomial
basis, taken on Gauss-Jacobi nodes, seeds the search with a bracket one
closing width wide around it.  One solve shoots theta at its two ends and,
when that bracket is narrow enough to close at once, the linear
(phi, R phi') at lambda_R: four components that share the coefficient m_f.
The search falls back to growing a bracket from [0, pi^2/R^2] when the Ritz
value does not bracket the root.  Secant steps safeguarded inside a kept
bracket find it, until the bracket is narrower than
max(abs_tol, rel_tol * lambda_hi).  Every shoot runs at an ODE tolerance
at least two orders tighter than rel_tol (down to rel_tol 1e-12), so the
theta(R) values are more accurate than the bracket they close.  The
eigenfunction samples, r_half and the residual |phi(R)| come from the
seeded solve's (phi, R phi') when the final bracket still holds lambda_R,
so at the CLI tolerance a seeded eigenvalue takes one solve; otherwise one
(phi, R phi') shoot at the root gives them.  The report passes only when
the bracket meets that width, theta(R) at its upper end lies in [pi, 2 pi)
(phi has exactly one zero, so the eigenvalue is the first) and the
residual is within the bound the bracket and the shoot's error estimates
allow.  The Ritz value only places
the bracket and the eigenfunction; the shoots decide the verdict.

The Cheng threshold makes the proof constant explicit:
C = 4 (V^a_H(R)/V^a_H(r_half))^{1/2} with r_half the first radius where the
model eigenfunction reaches 1/2, and epsilon is the smaller of the largest
value for which Q <= lambda + C eps sqrt(Q) still forces Q <= (1 + delta)
lambda, and the doubling threshold at alpha = 4 in drift mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .comparison import Report, _resolve, doubling_epsilon, require_admissible
from .model import ModelSpace, log_psi, mean_curvature_model, volume_model
from .numkit import (OdeTrajectory, RootBracket, Tolerance, bracket_width,
                     find_root_bracketed, gauss_jacobi, integrate_ode, quad_adaptive)
from .smms import (WarpedSMMS, integral_rho, mean_curvature_f,
                   potential_bounds, weighted_area)

__all__ = [
    "EigenResult",
    "ChengReport",
    "model_eigenvalue",
    "smms_radial_eigenvalue",
    "rayleigh_quotient_transplant",
    "cheng_constants",
    "cheng_epsilon",
    "check_cheng_estimate",
]

# check_cheng_estimate reads the space's bounds through comparison._resolve;
# bench/tracing.py still looks this name up in this module (ROADMAP item 1).
_TRACED_NAMES = (potential_bounds,)

EIGEN_TOL = Tolerance(abs_tol=1e-10, rel_tol=1e-10, max_steps=100_000)
_ODE_TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-11, max_steps=200_000)
_ODE_REL_FLOOR = 1e-14


def _shoot_tol(tol: Tolerance) -> Tolerance:
    """ODE tolerance of the shoots for the eigenvalue tolerance ``tol``.

    A theta(R) error moves the root by that error over d theta(R) / d lam,
    so the shoots run two orders tighter than the bracket: rel_tol is
    tol.rel_tol / 100 and abs_tol a tenth of it.  rel_tol is at most
    _ODE_TOL's 1e-11, so the CLI tolerance (rel_tol 1e-6) shoots at
    _ODE_TOL, and at least _ODE_REL_FLOOR, which tol.rel_tol 1e-12 reaches;
    tighter shoots would chase the rounding of theta.  At rel_tol 1e-10,
    _ODE_TOL left lam up to 1.6e-10 relative off.
    """
    rel = max(_ODE_REL_FLOOR, tol.rel_tol / 100.0)
    if rel >= _ODE_TOL.rel_tol:
        return _ODE_TOL
    return Tolerance(abs_tol=rel / 10.0, rel_tol=rel, max_steps=_ODE_TOL.max_steps)


@dataclass(frozen=True)
class EigenResult(Report):
    """Converged first Dirichlet eigenvalue of a radial ball.

    ``lam`` is the secant point of ``bracket``, the final root bracket, and
    ``theta_hi`` the Pruefer angle theta(R) at its upper end.  ``samples``
    holds (r, phi) rows with phi(0) = 1, ``residual`` is |phi(R)| and
    ``r_half`` the first radius with phi = 1/2, all from one (phi, R phi')
    shoot at a lambda inside the bracket: the Ritz value when the bracket
    still holds it, else ``lam``.  ``residual_bound`` is what the bracket
    allows, rho(R) max |theta(R) - pi| over its ends, plus the summed local
    error estimates of that shoot.  ``lam_ritz`` is the Rayleigh-Ritz value
    that seeded the search (NaN when the Ritz solve failed) and ``shoots``
    the number of ODE solves the eigenvalue and eigenfunction took: one
    solve shoots both ends of the seeded bracket, and (phi, R phi') at the
    Ritz value too when that bracket is narrow enough to close at once, so
    a seeded eigenvalue at the CLI tolerance takes one in all.
    ``traj`` is the solve the eigenfunction came from, its last two
    components (phi, R phi'), kept so the eigenfunction is read without
    another solve.  The search is restricted to radial eigenfunctions (the
    first eigenfunction is radial for radial data).
    """

    lam: float
    residual: float
    residual_bound: float
    samples: np.ndarray
    bracket: tuple
    theta_hi: float
    r_half: float
    tol: Tolerance
    lam_ritz: float
    shoots: int
    traj: OdeTrajectory = field(repr=False, compare=False)

    theorem_id = "EIGEN"
    radial_only = True

    @property
    def reason(self) -> str:
        """Why the solve does not certify the eigenvalue; empty when it does."""
        lo, hi = self.bracket
        width = bracket_width(self.tol, hi)
        if not hi - lo <= width:
            return (f"bracket width {hi - lo:.6g} exceeds max(abs_tol, rel_tol *"
                    f" lambda_hi) = {width:.6g}")
        if not math.pi <= self.theta_hi < 2.0 * math.pi:
            return (f"theta(R) = {self.theta_hi:.6g} at lambda_hi is outside"
                    " [pi, 2 pi): the root is not the first eigenvalue")
        if not self.residual <= self.residual_bound:
            return (f"residual {self.residual:.6g} exceeds its bound"
                    f" {self.residual_bound:.6g}")
        return ""

    @property
    def passed(self) -> bool:
        return not self.reason

    @property
    def min_margin(self) -> float:
        return self.residual

    def to_dict(self) -> dict:
        return self._dict({"lambda": self.lam, "r_half": self.r_half}, {
            "residual": float(self.residual),
            "residual_bound": float(self.residual_bound),
            "bracket": [float(self.bracket[0]), float(self.bracket[1])],
            "theta_hi": float(self.theta_hi),
            "radial_only": self.radial_only,
            "reason": self.reason,
            "tol_abs": self.tol.abs_tol,
            "tol_rel": self.tol.rel_tol,
            "lambda_ritz": self.lam_ritz if math.isfinite(self.lam_ritz) else None,
            "shoots": self.shoots,
        })

    def samples_csv(self) -> str:
        lines = ["r,phi"]
        for r, phi in self.samples:
            lines.append(f"{r:.17g},{phi:.17g}")
        return "\n".join(lines) + "\n"


def _pole_start(n: int, lam: float, r0: float, R: float):
    """(phi, R phi') at r0 from the regular-singular pole series."""
    return 1.0 - lam * r0 * r0 / (2.0 * n), -lam * r0 * R / n


def _prufer_angles(coeff, n: int, lams, R: float, ode_tol: Tolerance,
                   lam_phi: float | None = None):
    """Pruefer angles theta(R; lam) for each lam of ``lams``, with
    phi = rho sin(theta) and R phi' = rho cos(theta), in one solve at
    ``ode_tol``.

    theta' = cos^2/R + m_f sin cos + lam R sin^2 starts near pi/2 and
    crosses each multiple of pi upward exactly once, at a zero of phi.  Each
    lam is one component of the solve, and all share each stage's m_f(t);
    with one lam the solve is the scalar one.  With ``lam_phi`` the solve
    also carries the linear (phi, R phi') at lam_phi as its last two
    components, and returns the angles and its trajectory; with no lams
    it is the (phi, R phi') shoot alone.
    """
    r0, lrs = 1e-6 * R, [lam * R for lam in lams]
    y0 = [math.atan2(*_pole_start(n, lam, r0, R)) for lam in lams]
    if lam_phi is not None:
        y0 += _pole_start(n, lam_phi, r0, R)
        k, lr_phi = len(lrs), lam_phi * R

    def rhs(t, y):
        c = coeff(t)
        out = []
        for theta, lr in zip(y, lrs):
            sin, cos = math.sin(theta), math.cos(theta)
            out.append(cos * cos / R + c * sin * cos + lr * sin * sin)
        if lam_phi is not None:
            phi, dphi = y[k], y[k + 1]
            out += (dphi / R, -c * dphi - lr_phi * phi)
        return out

    traj = integrate_ode(rhs, r0, y0, R, ode_tol)
    angles = traj.terminal()[:len(lrs)].tolist()
    return angles if lam_phi is None else (angles, traj)


# Rayleigh-Ritz seed: basis (1 - v) P_k(2v - 1), k < _RITZ_BASIS, on the
# _RITZ_NODES-point Gauss-Jacobi rule; mass-matrix directions below
# _MASS_CUT of its largest eigenvalue are projected out.
_RITZ_BASIS = 24
_RITZ_NODES = 64
_MASS_CUT = 1e-13


@lru_cache(maxsize=None)
def _ritz_basis(n: int):
    """Nodes v and weights of the Gauss-Jacobi rule for v^(n-1) dv on (0, 1),
    and the basis and its v-derivative at the nodes, as read-only arrays."""
    v, wq = gauss_jacobi(_RITZ_NODES, n - 1.0)
    legendre = np.polynomial.legendre
    P = legendre.legvander(2.0 * v - 1.0, _RITZ_BASIS - 1)
    dP = legendre.legval(2.0 * v - 1.0, legendre.legder(np.eye(_RITZ_BASIS))).T
    basis = (1.0 - v)[:, None] * P
    dbasis = 2.0 * (1.0 - v)[:, None] * dP - P
    for arr in (basis, dbasis):  # v and wq come read-only from the rule cache
        arr.setflags(write=False)
    return v, wq, basis, dbasis


def _ritz_value(log_weight, n: int, R: float) -> float:
    """Lowest Ritz value of -(A phi')' = lambda A phi, phi(R) = 0, on B(0, R).

    ``log_weight(r)`` is log(A(r)/r^(n-1)) up to a constant, for an array of
    r in (0, R).  With v = r/R the Rayleigh quotient is
    int phi_v^2 g v^(n-1) dv / (R^2 int phi^2 g v^(n-1) dv), g(v) = A(Rv)/(Rv)^(n-1),
    taken on the Gauss-Jacobi rule for v^(n-1).  By min-max the value bounds
    the first eigenvalue from above, up to quadrature error.  Raises
    ``numpy.linalg.LinAlgError`` when the small eigenproblem does.
    """
    v, wq, basis, dbasis = _ritz_basis(n)
    log_g = np.asarray(log_weight(R * v), dtype=float)
    root_w = np.sqrt(wq * np.exp(log_g - log_g.max()))
    phi, dphi = basis * root_w[:, None], dbasis * root_w[:, None]
    mass_eig, mass_vec = np.linalg.eigh(phi.T @ phi)
    keep = mass_eig > _MASS_CUT * mass_eig[-1]
    T = mass_vec[:, keep] / np.sqrt(mass_eig[keep])
    dT = dphi @ T
    return float(np.linalg.eigvalsh(dT.T @ dT)[0]) / (R * R)


def _first_eigenvalue(coeff, log_weight, n: int, R: float, tol: Tolerance):
    """Root of theta(R; lam) = pi by ``find_root_bracketed``, and the
    eigenfunction from one (phi, R phi') shoot.

    The Ritz value lam_R seeds the search: the bracket is
    [lam_R - max(0.4 w, 1e-8 lam_R), lam_R + 0.4 w] with w the closing width
    at lam_R, and one solve shoots theta at both of its ends.  At
    rel_tol = 1e-6 the bracket is narrower than its closing width, so that
    solve also shoots (phi, R phi') at lam_R, and it closes the search.  At
    rel_tol = 1e-10 it is wider, and the secant needs one to five more
    shoots of theta alone.  (phi, R phi') is not carried then: its steps
    would move theta at the ends by up to the shoots' own error against the
    one-angle shoots, and cost the secant more shoots than it saves.  Every
    solve runs at ``_shoot_tol(tol)``.  The one search
    starts from that bracket when theta(R) < pi at its lower end; from
    [0, its lower end] when theta(R) >= pi there already (a Ritz value too
    high to bracket the root); and from [0, pi^2/R^2] otherwise, as when
    lam_R is not finite or the Ritz solve fails (lam = 0 gives phi = 1 and
    theta = pi/2 with no shoot).  The upper end may grow up to
    2^40 pi^2/R^2, which is tried before the search gives up.  Each trial
    lam is shot once, and every trial but the seeded ends by a solve of its
    own.  The eigenfunction is the seeded solve's (phi, R phi') when it has
    one and the final bracket still holds lam_R, and otherwise a
    (phi, R phi') shoot at the secant point of that bracket; lam is the
    secant point either way.
    """
    ode_tol = _shoot_tol(tol)
    shots = {}
    solves = 0

    def record(lams, angles) -> None:
        nonlocal solves
        solves += 1
        for lam, theta in zip(lams, angles):
            shots[lam] = theta - math.pi

    def g(lam: float) -> float:
        if lam not in shots:
            record((lam,), _prufer_angles(coeff, n, (lam,), R, ode_tol))
        return shots[lam]

    lo, hi, f_lo = 0.0, math.pi ** 2 / R ** 2, -0.5 * math.pi
    cap = hi * 2.0 ** 40
    seeded = None
    try:
        lam_ritz = _ritz_value(log_weight, n, R)
    except np.linalg.LinAlgError:
        lam_ritz = math.nan
    if math.isfinite(lam_ritz):
        width = bracket_width(tol, lam_ritz)
        seed_lo = lam_ritz - max(0.4 * width, 1e-8 * lam_ritz)
        seed_hi = lam_ritz + 0.4 * width
        if seed_hi - seed_lo <= bracket_width(tol, seed_hi):
            angles, seeded = _prufer_angles(coeff, n, (seed_lo, seed_hi), R, ode_tol,
                                            lam_ritz)
        else:  # too wide to close at once: the secant's one-angle shoots follow
            angles = _prufer_angles(coeff, n, (seed_lo, seed_hi), R, ode_tol)
        record((seed_lo, seed_hi), angles)
        if g(seed_lo) < 0.0:
            lo, hi, f_lo = seed_lo, seed_hi, g(seed_lo)
        elif seed_lo > 0.0:
            hi = seed_lo
    root = find_root_bracketed(g, lo, hi, tol, f_lo=f_lo, cap=cap)
    traj = seeded
    if seeded is None or not root.lo <= lam_ritz <= root.hi:
        traj = _prufer_angles(coeff, n, (), R, ode_tol, root.root)[1]
        solves += 1
    return _sample_result(root, traj, R, tol, ode_tol, lam_ritz, solves)


def _sample_result(root: RootBracket, traj, R: float, tol: Tolerance,
                   ode_tol: Tolerance, lam_ritz: float, shoots: int) -> EigenResult:
    """The eigenfunction at 129 radii, r_half and the residual bound.

    ``traj``'s last two components are (phi, R phi') at a lam inside the
    root bracket.  theta(R) rises with lam, so |phi(R)| = rho(R) |sin theta(R)|
    is at most rho(R) max |theta(R) - pi| over the bracket ends.  To that the
    bound adds each step's local error in phi.  ``errors`` holds DOP853's
    blended estimate of each step: the RMS over the d components of the
    scaled 5th-order error estimate e5, shrunk by
    |e5| / sqrt(|e5|^2 + 0.01 |e3|^2) with e3 the 3rd-order one.  So each
    component's estimated error is at most sqrt(d) errors times its scale,
    abs_tol + rel_tol max |y| over the step's two ends, at ``ode_tol``, the
    tolerance ``traj`` was solved at.
    """
    rs = np.linspace(0.0, R, 129)
    phis = _eigenfunction(traj, R, rs)[:, 0]
    phi_R, dphi_R = traj.terminal()[-2:]
    size = np.abs(traj.ys[:, -2:]).max(axis=1)
    scale = ode_tol.abs_tol + ode_tol.rel_tol * np.maximum(size[:-1], size[1:])
    local_errors = math.sqrt(traj.ys.shape[1]) * traj.errors[1:] * scale
    residual_bound = (math.hypot(phi_R, dphi_R) * max(abs(root.f_lo), abs(root.f_hi))
                      + float(local_errors.sum()))

    # First radius with phi = 1/2 (phi decreases from 1 toward 0).
    below = np.flatnonzero(phis <= 0.5)
    r_half = R
    if len(below):  # phis[0] = 1; closed near the resolution of doubles
        i = below[0]
        r_half = find_root_bracketed(
            lambda r: _eigenfunction(traj, R, np.array([r]))[0, 0] - 0.5, rs[i - 1], rs[i],
            Tolerance(1e-15, 1e-15), f_lo=phis[i - 1] - 0.5).root

    return EigenResult(lam=root.root, residual=abs(float(phi_R)),
                       residual_bound=residual_bound,
                       samples=np.column_stack([rs, phis]),
                       bracket=(root.lo, root.hi),
                       theta_hi=root.f_hi + math.pi,
                       r_half=r_half, tol=tol, lam_ritz=lam_ritz, shoots=shoots,
                       traj=traj)


def _eigenfunction(traj: OdeTrajectory, R: float, r: np.ndarray) -> np.ndarray:
    """Rows (phi, phi') at the radii ``r`` from ``traj``, whose last two
    components are (phi, R phi'); below its start phi = 1 and phi' = 0."""
    rows = np.tile([1.0, 0.0], (len(r), 1))
    inside = r > traj.t0
    rows[inside] = traj.at(r[inside])[:, -2:] / [1.0, R]
    return rows


# Pure and deterministic, so memoization only removes repeated solves
# (parameter sweeps re-ask for the same model eigenvalue constantly).
@lru_cache(maxsize=256)
def model_eigenvalue(n: int, a: float, H: float, R: float,
                     tol: Tolerance = EIGEN_TOL) -> EigenResult:
    """First Dirichlet eigenvalue of the drifted model ball B(O, R)."""
    if R <= 0.0:
        raise ValueError(f"R must be > 0, got {R}")
    if a < 0.0:
        raise ValueError(f"drift a must be >= 0, got {a}")
    require_admissible("VOL_B", H, R)

    mspace = ModelSpace(dim=float(n), H=H, drift=a)

    def coeff(t: float) -> float:
        return mean_curvature_model(float(n), H, t) + a

    return _first_eigenvalue(coeff, partial(log_psi, mspace), n, R, tol)


def smms_radial_eigenvalue(s: WarpedSMMS, R: float,
                           tol: Tolerance = EIGEN_TOL) -> EigenResult:
    """First Dirichlet eigenvalue of the weighted Laplacian on B(pole, R),
    within the radial class (equal to the true first eigenvalue for radial
    potentials)."""
    if not 0.0 < R < s.r_max:
        raise ValueError(f"require 0 < R < r_max={s.r_max}, got {R}")

    def coeff(t: float) -> float:
        return mean_curvature_f(s, t)

    def log_weight(r: np.ndarray) -> np.ndarray:
        return (s.n - 1.0) * np.log(s.w.eval(r) / r) - s.f.eval(r)

    return _first_eigenvalue(coeff, log_weight, s.n, R, tol)


def rayleigh_quotient_transplant(s: WarpedSMMS, n: int, a: float, H: float,
                                 R: float) -> float:
    """Rayleigh quotient on ``s`` of the transplanted model eigenfunction.

    Q = int phi'^2 A_f dr / int phi^2 A_f dr with phi the model
    eigenfunction of B(O, R) in the drifted model; by min-max Q bounds the
    radial ball eigenvalue of ``s`` from above.
    """
    if R >= s.r_max:
        raise ValueError(f"require R < r_max={s.r_max}, got {R}")
    traj = model_eigenvalue(n, a, H, R, EIGEN_TOL).traj

    def weighted(t: np.ndarray, col: int) -> np.ndarray:
        """phi^2 A_f (``col`` 0) or phi'^2 A_f (``col`` 1) at the radii ``t``."""
        return _eigenfunction(traj, R, t)[:, col] ** 2 * weighted_area(s, t)

    qtol = Tolerance(abs_tol=1e-11, rel_tol=1e-10)
    num, _ = quad_adaptive(lambda t: weighted(t, 1), 0.0, R, qtol)
    den, _ = quad_adaptive(lambda t: weighted(t, 0), 0.0, R, qtol)
    return num / den


@dataclass(frozen=True)
class ChengConstants:
    """Ingredients of the constructive eigenvalue threshold."""

    lam_model: float
    r_half: float
    C: float
    eps_quadratic: float
    eps_doubling: float
    epsilon: float


def cheng_constants(n: int, a: float, H: float, R: float, delta: float,
                    tol: Tolerance = EIGEN_TOL) -> ChengConstants:
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    res = model_eigenvalue(n, a, H, R, tol)
    mspace = ModelSpace(dim=float(n), H=H, drift=a)
    vol_R = volume_model(mspace, R)
    vol_half = volume_model(mspace, res.r_half)
    C = 4.0 * math.sqrt(vol_R / vol_half)
    eps_quadratic = delta * math.sqrt(res.lam) / (C * math.sqrt(1.0 + delta))
    eps_doubling = doubling_epsilon(n, H, R, alpha=4.0, a=a).epsilon
    return ChengConstants(lam_model=res.lam, r_half=res.r_half, C=C,
                          eps_quadratic=eps_quadratic,
                          eps_doubling=eps_doubling,
                          epsilon=min(eps_quadratic, eps_doubling))


def cheng_epsilon(n: int, a: float, H: float, R: float, delta: float,
                  tol: Tolerance = EIGEN_TOL) -> float:
    """Excess threshold below which the ball eigenvalue is (1+delta)-close
    to the model eigenvalue."""
    return cheng_constants(n, a, H, R, delta, tol).epsilon


# Slack on the ratio lambda_ball / lambda_model when it is compared with 1 + delta.
_SLACK = 1e-8


@dataclass(frozen=True)
class ChengReport(Report):
    """Outcome of the eigenvalue closeness check."""

    lam_ball: float
    lam_model: float
    delta: float
    epsilon: float
    l: float
    ratio: float
    passed: bool
    not_applicable: bool = False
    reason: str = ""
    mode: str = "radial"
    tol: Tolerance = EIGEN_TOL

    theorem_id = "CHENG"

    @property
    def min_margin(self) -> float:
        return (1.0 + self.delta) - self.ratio

    def to_dict(self) -> dict:
        return self._dict({"lambda_ball": self.lam_ball, "lambda_model": self.lam_model,
                           "delta": self.delta, "epsilon": self.epsilon, "l": self.l}, {
            "ratio": float(self.ratio),
            "mode": self.mode,
            "reason": self.reason,
            "tol_abs": self.tol.abs_tol,
            "tol_rel": self.tol.rel_tol,
            "tolerance": _SLACK,
        })


def check_cheng_estimate(s: WarpedSMMS, H: float, a: float | None, R: float,
                         delta: float, mode: str = "radial",
                         tol: Tolerance = EIGEN_TOL) -> ChengReport:
    """lambda(B(pole, R)) <= (1 + delta) lambda_model, gated on l <= epsilon.

    Fails, gated or not, when either eigenvalue solve fails its own verdict:
    epsilon is built from the model solve.
    """
    a = _resolve(s, "a", a)
    eps = cheng_epsilon(s.n, a, H, R, delta, tol)
    l = integral_rho(s, H, s.r_max, mode)
    model = model_eigenvalue(s.n, a, H, R, tol)
    ball = smms_radial_eigenvalue(s, R, tol)
    ratio = ball.lam / model.lam
    report = partial(ChengReport, lam_ball=ball.lam, lam_model=model.lam, delta=delta,
                     epsilon=eps, l=l, ratio=ratio, mode=mode, tol=tol)
    for name, res in (("model", model), ("ball", ball)):
        if not res.passed:
            return report(passed=False, reason=f"{name} eigenvalue solve: {res.reason}")
    if l > eps + 1e-12:
        return report(passed=False, not_applicable=True,
                      reason=f"excess integral l={l:.6g} exceeds epsilon={eps:.6g}")
    return report(passed=ratio <= 1.0 + delta + _SLACK)
