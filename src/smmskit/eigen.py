"""First Dirichlet eigenvalues by shooting, and the constructive Cheng check.

The model eigenproblem is phi'' + (m_H + a) phi' + lambda phi = 0 with
phi(0) = 1 and phi(R) = 0; the same solver handles a radial ball in a
warped space with coefficient m_f.  The pole is a regular singular point,
so integration starts at r0 = 1e-6 R from the series
phi(r0) = 1 - lambda r0^2 / (2n), phi'(r0) = -lambda r0 / n.

Shoots follow the Pruefer angle theta, phi = rho sin(theta) and
phi' = rho cos(theta), which obeys the first-order equation
theta' = cos^2 theta + m_f sin theta cos theta + lambda sin^2 theta.
theta(R; lambda) is continuous and increasing in lambda and passes each
multiple of pi only upward, at a zero of phi, so the first eigenvalue is the
root of theta(R; lambda) = pi (Pryce, Numerical Solution of Sturm-Liouville
Problems, 1993).  Secant steps safeguarded inside a kept bracket find it,
until the bracket is narrower than max(abs_tol, rel_tol * lambda_hi); one
(phi, phi') shoot at the root then gives the eigenfunction samples, r_half
and the residual |phi(R)|.  The report passes only when the bracket meets that
width, theta(R) at its upper end lies in [pi, 2 pi) (phi has exactly one
zero, so the eigenvalue is the first) and the residual is within the bound
the bracket and the shoot's error estimates allow.

The Cheng threshold makes the proof constant explicit:
C = 4 (V^a_H(R)/V^a_H(r_half))^{1/2} with r_half the first radius where the
model eigenfunction reaches 1/2, and epsilon is the smaller of the largest
value for which Q <= lambda + C eps sqrt(Q) still forces Q <= (1 + delta)
lambda, and the doubling threshold at alpha = 4 in drift mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .comparison import Report, doubling_epsilon, require_admissible
from .model import ModelSpace, mean_curvature_model, volume_model
from .numkit import (RootBracket, Tolerance, bracket_width, find_root_bracketed,
                     integrate_ode, quad_adaptive)
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

EIGEN_TOL = Tolerance(abs_tol=1e-10, rel_tol=1e-10, max_steps=100_000)
_ODE_TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-11, max_steps=200_000)


@dataclass(frozen=True)
class EigenResult(Report):
    """Converged first Dirichlet eigenvalue of a radial ball.

    ``samples`` holds (r, phi) rows with phi(0) = 1; ``residual`` is
    |phi(R)| at the converged eigenvalue, ``bracket`` the final root
    bracket, ``theta_hi`` the Pruefer angle theta(R) at its upper end and
    ``r_half`` the first radius with phi = 1/2.  ``residual_bound`` is what
    the bracket allows, rho(R) max |theta(R) - pi| over its ends, plus the
    summed local error estimates of the shoot.  The search is restricted to
    radial eigenfunctions (the first eigenfunction is radial for radial
    data).
    """

    lam: float
    residual: float
    residual_bound: float
    samples: np.ndarray
    bracket: tuple
    theta_hi: float
    r_half: float
    tol: Tolerance
    radial_only: bool = True

    theorem_id = "EIGEN"

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
        })

    def samples_csv(self) -> str:
        lines = ["r,phi"]
        for r, phi in self.samples:
            lines.append(f"{r:.17g},{phi:.17g}")
        return "\n".join(lines) + "\n"


def _pole_start(n: int, lam: float, R: float):
    """Start radius and (phi, phi') there from the regular-singular pole series."""
    r0 = 1e-6 * R
    return r0, 1.0 - lam * r0 * r0 / (2.0 * n), -lam * r0 / n


def _shoot(coeff, n: int, lam: float, R: float, ode_tol: Tolerance):
    """Integrate the radial eigenfunction ODE at trial eigenvalue ``lam``."""
    r0, phi0, dphi0 = _pole_start(n, lam, R)

    def rhs(t, y):
        return (y[1], -coeff(t) * y[1] - lam * y[0])

    return integrate_ode(rhs, r0, np.array([phi0, dphi0]), R, ode_tol,
                         max_step=R / 32.0)


def _prufer_angle(coeff, n: int, lam: float, R: float) -> float:
    """Pruefer angle theta(R; lam), with phi = rho sin(theta), phi' = rho cos(theta).

    theta' = cos^2 + m_f sin cos + lam sin^2 starts near pi/2 and crosses
    each multiple of pi upward exactly once, at a zero of phi.
    """
    r0, phi0, dphi0 = _pole_start(n, lam, R)

    def rhs(t, y):
        sin, cos = math.sin(y[0]), math.cos(y[0])
        return (cos * cos + coeff(t) * sin * cos + lam * sin * sin,)

    traj = integrate_ode(rhs, r0, (math.atan2(phi0, dphi0),), R, _ODE_TOL,
                         max_step=R / 32.0)
    return float(traj.terminal()[0])


def _first_eigenvalue(coeff, n: int, R: float, tol: Tolerance):
    """Root of theta(R; lam) = pi by ``find_root_bracketed``, then one shoot.

    lam = 0 gives phi = 1 and theta = pi/2 with no shoot.  The upper end
    starts at pi^2/R^2 and may grow up to 2^40 times that.  Returns the
    result of the (phi, phi') shoot at the secant point of the final bracket.
    """
    def g(lam: float) -> float:
        return _prufer_angle(coeff, n, lam, R) - math.pi

    hi = math.pi ** 2 / R ** 2
    root = find_root_bracketed(g, 0.0, hi, tol, f_lo=-0.5 * math.pi,
                               cap=hi * 2.0 ** 40)
    traj = _shoot(coeff, n, root.root, R, _ODE_TOL)
    return _sample_result(root, traj, R, tol)


def _sample_result(root: RootBracket, traj, R: float, tol: Tolerance) -> EigenResult:
    """The eigenfunction at 129 radii, r_half and the residual bound."""
    def phi(r: float) -> float:
        return 1.0 if r <= traj.t0 else float(traj.at(r)[0])

    rs = np.linspace(0.0, R, 129)
    phis = np.ones(len(rs))
    inside = rs > traj.t0
    phis[inside] = traj.at(rs[inside])[:, 0]
    phi_R, dphi_R = traj.terminal()
    local_errors = traj.errors * (_ODE_TOL.abs_tol
                                  + _ODE_TOL.rel_tol * np.abs(traj.ys).max(axis=1))
    residual_bound = (math.hypot(phi_R, dphi_R) * max(abs(root.f_lo), abs(root.f_hi))
                      + float(local_errors.sum()))

    # First radius with phi = 1/2 (phi decreases from 1 toward 0).
    below = np.flatnonzero(phis <= 0.5)
    r_half = R
    if len(below):  # phis[0] = 1; closed near the resolution of doubles
        i = below[0]
        r_half = find_root_bracketed(lambda r: phi(r) - 0.5, rs[i - 1], rs[i],
                                     Tolerance(1e-15, 1e-15), f_lo=phis[i - 1] - 0.5).root

    return EigenResult(lam=root.root, residual=abs(float(phi_R)),
                       residual_bound=residual_bound,
                       samples=np.column_stack([rs, phis]),
                       bracket=(root.lo, root.hi),
                       theta_hi=root.f_hi + math.pi,
                       r_half=r_half, tol=tol)


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

    def coeff(t: float) -> float:
        return mean_curvature_model(float(n), H, t) + a

    return _first_eigenvalue(coeff, n, R, tol)


def smms_radial_eigenvalue(s: WarpedSMMS, R: float,
                           tol: Tolerance = EIGEN_TOL) -> EigenResult:
    """First Dirichlet eigenvalue of the weighted Laplacian on B(pole, R),
    within the radial class (equal to the true first eigenvalue for radial
    potentials)."""
    if not 0.0 < R < s.r_max:
        raise ValueError(f"require 0 < R < r_max={s.r_max}, got {R}")

    def coeff(t: float) -> float:
        return float(mean_curvature_f(s, t))

    return _first_eigenvalue(coeff, s.n, R, tol)


def rayleigh_quotient_transplant(s: WarpedSMMS, n: int, a: float, H: float,
                                 R: float) -> float:
    """Rayleigh quotient on ``s`` of the transplanted model eigenfunction.

    Q = int phi'^2 A_f dr / int phi^2 A_f dr with phi the model
    eigenfunction of B(O, R) in the drifted model; by min-max Q bounds the
    radial ball eigenvalue of ``s`` from above.
    """
    if R >= s.r_max:
        raise ValueError(f"require R < r_max={s.r_max}, got {R}")
    res = model_eigenvalue(n, a, H, R, EIGEN_TOL)
    traj = _shoot(lambda t: mean_curvature_model(float(n), H, t) + a,
                  n, res.lam, R, _ODE_TOL)
    t0 = traj.t0

    def phi(t: float) -> float:
        return 1.0 if t <= t0 else float(traj.at(t)[0])

    def dphi(t: float) -> float:
        return 0.0 if t <= t0 else float(traj.at(t)[1])

    qtol = Tolerance(abs_tol=1e-11, rel_tol=1e-10)
    num, _ = quad_adaptive(lambda t: dphi(t) ** 2 * float(weighted_area(s, t)),
                           0.0, R, qtol)
    den, _ = quad_adaptive(lambda t: phi(t) ** 2 * float(weighted_area(s, t)),
                           0.0, R, qtol)
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
    pb = potential_bounds(s)
    if a is None:
        a = pb.a
    elif a < pb.a - 1e-9:
        raise ValueError(f"a={a} is below the space's drift bound {pb.a}")
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
