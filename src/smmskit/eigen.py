"""First Dirichlet eigenvalues by shooting on fixed Magnus panels, and the
constructive Cheng check.

The model eigenproblem is phi'' + (m_H + a) phi' + lambda phi = 0 with
phi(0) = 1 and phi(R) = 0; the same solver handles a radial ball in a
warped space with coefficient m_f.  The pole is a regular singular point,
so shoots start at r0 = 1e-6 R from the series
phi(r0) = 1 - lambda r0^2 / (2n), phi'(r0) = -lambda r0 / n.

A shoot carries the linear state y = (phi, R phi'), whose components are
of order one at any R, across fixed panels: y' = A(r) y with
A = [[0, 1/R], [-lambda R, -m(r)]].  The panels are geometric from r0 to
R/20 and uniform beyond, 64 and 128 of them at level 0; level k splits
each into 2^k.  A geometric panel steps in x = log r, where the pole's
m ~ (n-1)/r makes r A nearly constant, and a uniform one in x = r.  m does
not depend on lambda, so a solve reads it once per level, in one array call
at the panels' 3-point Gauss nodes and edges.  Each panel's propagator is
the sixth-order Magnus exponential exp(Omega) of dy/dx = (dr/dx) A y in the
Blanes-Casas-Ros commutator form (Iserles & Norsett, Phil. Trans. R. Soc.
A 357, 1999; Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009).  Lambda
enters A only as w = -lambda R^2 v in its off-diagonal pair, so Omega is a
closed form, linear or quadratic in lambda, whose coefficients a level
keeps; the 2x2 exponential is e^tau (C I + S (Omega - tau I)) with
C = cos w, S = sin(w)/w, or their hyperbolic forms.  One pass multiplies
the propagators along the edges for every lambda it carries, and a point
between edges is one partial Magnus step from the edge on its left.

The Pruefer angle theta, phi = rho sin(theta) and R phi' = rho cos(theta),
obeys theta' = cos^2 theta / R + m sin theta cos theta + lambda R sin^2 theta,
so theta(R; lambda) is continuous and increasing in lambda and passes each
multiple of pi only upward, at a zero of phi: the first eigenvalue is the
root of theta(R; lambda) = pi (Pryce, Numerical Solution of Sturm-Liouville
Problems, 1993).  theta(R) is the atan2 of the edge states, unwrapped.
Unwrapping needs every panel to turn the angle by less than pi.  The angle
of the balanced state (phi, R phi'/s), s = max(1, R sqrt(lambda)), which
has the same multiples of pi, turns by at most
h (max(1/R, sqrt(lambda)) + |m|/2) on a panel of length h; a shoot runs on
the lowest level at which that is below pi/2 on every panel, with |m| the
largest of its level-0 panel's node and edge values, and raises
``SubdivisionLimitError`` when that level would pass 2^16 panels.

The lowest Rayleigh-Ritz value lambda_R on a polynomial basis, taken on
Gauss-Jacobi nodes, seeds the search with a bracket one closing width wide
around it.  One pass shoots both of its ends and, when that bracket is
narrow enough to close at once, lambda_R too.  The search falls back to
growing a bracket from [0, pi^2/R^2] when the Ritz value does not bracket
the root.  Secant steps safeguarded inside a kept bracket find it, until
the bracket is narrower than max(abs_tol, rel_tol * lambda_hi).  The
eigenfunction is the shoot at lambda_R when the final bracket still holds
it, and otherwise the shoot at the root.  A shoot at the same lambda with
twice the panels sets the level.  Compared with it, the root (theta(R)
over the slope of theta(R) across the bracket) and phi at the shared
edges must move by at most 1/100 of the closing width relative to
lambda_hi (at least 1e-14, where theta's rounding sets in); otherwise the
search runs again from the final bracket, on the level the sixth order
predicts.  The report passes only when the bracket meets that width,
theta(R) at its upper end lies in [pi, 2 pi) (phi has exactly one zero, so
the eigenvalue is the first) and the residual |phi(R)| is within the bound
the bracket and the two levels allow.  The Ritz value only places the
bracket and the eigenfunction; the shoots decide the verdict.  ``shoots``
in the report counts the passes, and ``panels`` the panels of the
eigenfunction's shoot.

The Cheng threshold makes the proof constant explicit:
C = 4 (V^a_H(R)/V^a_H(r_half))^{1/2} with r_half the first radius where the
model eigenfunction reaches 1/2, and epsilon is the smaller of the largest
value for which Q <= lambda + C eps sqrt(Q) still forces Q <= (1 + delta)
lambda, and the doubling threshold at alpha = 4 in drift mode.  The check
reads l after its inputs and before any solve, and gates it on epsilon
with ``comparison._excess_gate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from .comparison import Report, _excess_gate, _resolve, doubling_epsilon, require_admissible
from .model import ModelSpace, log_psi, mean_curvature_model, volume_model
from .numkit import (NonFiniteError, RootBracket, SubdivisionLimitError, Tolerance,
                     bracket_width, find_root_bracketed, gauss_jacobi, quad_adaptive)
from .smms import (WarpedSMMS, integral_rho, mean_curvature_f,
                   potential_bounds, weighted_area)

__all__ = [
    "EigenResult",
    "MagnusShoot",
    "ChengReport",
    "model_eigenvalue",
    "smms_radial_eigenvalue",
    "rayleigh_quotient_transplant",
    "cheng_constants",
    "check_cheng_estimate",
]

# check_cheng_estimate reads the space's bounds through comparison._resolve,
# and every shoot runs on Magnus panels.  Both names below are kept only
# because bench/tracing.py TARGETS looks them up in this module; the deleted
# ODE kernel's name is a None placeholder.  Stage A of ROADMAP item 1 deletes
# both.
_TRACED_NAMES = (potential_bounds,)
integrate_ode = None

EIGEN_TOL = Tolerance(abs_tol=1e-10, rel_tol=1e-10, max_steps=100_000)

# Level-0 panels: _GEOM_PANELS geometric ones from _R0 R to _R_GEOM R and
# _UNIFORM_PANELS uniform ones to R; a shoot may use at most _MAX_PANELS.
_R0 = 1e-6
_R_GEOM = 0.05
_GEOM_PANELS = 64
_UNIFORM_PANELS = 128
_MAX_PANELS = 1 << 16
_GAUSS3 = 0.5 + math.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
# The level rule asks for no more relative accuracy than this over 100.
_ROUNDING_REL = 1e-12


def _gauss_nodes(left: np.ndarray, right: np.ndarray, log: np.ndarray) -> tuple:
    """Panel lengths h in x, the 3-point Gauss nodes in r and dr/dx at them,
    for panels from ``left`` to ``right`` in x = log r where ``log`` holds
    and in x = r elsewhere."""
    h = np.where(log, np.log(right / left), right - left)
    step, left = h[:, None] * _GAUSS3, left[:, None]
    nodes = np.where(log[:, None], left * np.exp(step), left + step)
    return h, nodes, np.where(log[:, None], nodes, 1.0)


def _panel_terms(h: np.ndarray, jac: np.ndarray, m: np.ndarray, R: float) -> tuple:
    """The lambda-free parts of the Magnus exponent on panels of lengths
    ``h`` in x, with dr/dx (``jac``) and m at their three Gauss nodes (rows).

    dy/dx = B y with B = (dr/dx) A.  In traceless coordinates
    (u, v, w) = [[u, v], [w, -u]] and L = lambda R^2, B has
    u = (dr/dx) m/2, v = (dr/dx)/R and w = -L v, and so do its Gauss terms
    alpha1 = h B2, alpha2 = sqrt(15) h (B3 - B1)/3 and
    alpha3 = 10 h (B3 - 2 B2 + B1)/3.  The commutator form
    Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240,
    C1 = [alpha1, alpha2] and C2 = -[alpha1, 2 alpha3 + C1]/60, then has
    u = P0 + L P1, v = Q0 + L Q1, w = L (S0 + L S1) and trace -2 P0.
    Returns (P0, P1, Q0, Q1, S0, S1, e^-P0).
    """
    k2, k3 = math.sqrt(15.0) / 3.0 * h, 10.0 / 3.0 * h

    def gauss(x):
        return h * x[:, 1], k2 * (x[:, 2] - x[:, 0]), k3 * (x[:, 2] - 2.0 * x[:, 1] + x[:, 0])

    u1, u2, u3 = gauss(0.5 * jac * m)
    v1, v2, v3 = gauss(jac / R)
    D, E = u1 * v2 - u2 * v1, u1 * v3 - u3 * v1
    Xu, Xv, Xw = -20.0 * u1 - u3, 2.0 * D - 20.0 * v1 - v3, 2.0 * D + 20.0 * v1 + v3
    Yv, Yw = v2 - (E + u1 * D) / 15.0, (u1 * D - E) / 15.0 - v2
    P0 = u1 + u3 / 12.0
    return (P0, (Xv * Yw - Yv * Xw) / 240.0,
            v1 + v3 / 12.0 + (Xu * Yv - u2 * Xv) / 120.0, v1 * D * Xv / 1800.0,
            (u2 * Xw - Xu * Yw) / 120.0 - v1 - v3 / 12.0, -v1 * D * Xw / 1800.0,
            np.exp(-P0))


def _propagators(terms: tuple, lam, R: float) -> tuple:
    """Entries (a, b, c, d) of exp(Omega) = [[a, b], [c, d]] for each lam of
    ``lam`` (an array of shape (K, 1), or a float) on each panel."""
    P0, P1, Q0, Q1, S0, S1, decay = terms
    L = lam * (R * R)
    u = P0 + L * P1
    v = Q0 + L * Q1
    w = L * (S0 + L * S1)
    q = u * u + v * w  # Omega - tau I squares to q I
    arg = np.sqrt(np.abs(q))
    osc = q < 0.0
    cos = np.where(osc, np.cos(arg), np.cosh(arg))
    sinc = np.where(arg > 0.0, np.where(osc, np.sin(arg), np.sinh(arg))
                    / np.where(arg > 0.0, arg, 1.0), 1.0)
    sinc = sinc * decay
    cos = cos * decay
    return cos + sinc * u, sinc * v, sinc * w, cos - sinc * u


def _pole_start(n: int, lam: float, r: float, R: float):
    """(phi, R phi') at r from the regular-singular pole series."""
    return 1.0 - lam * r * r / (2.0 * n), -lam * r * R / n


@dataclass(frozen=True, eq=False)
class MagnusShoot:
    """One shoot at ``lam``: (phi, R phi') at the panel ``edges`` (rows of
    ``ys``), and phi between them by one Magnus step from the nearest edge
    on the left, in log r on the first ``geom`` panels and in r beyond;
    ``coeff`` is the shoot's m, read at that step's nodes."""

    lam: float
    n: int
    R: float
    edges: np.ndarray
    geom: int
    ys: np.ndarray
    coeff: object = field(repr=False)

    def at(self, r) -> np.ndarray:
        """Rows (phi, phi') at the radii ``r``; the pole series below the
        first edge."""
        r = np.asarray(r, dtype=float)
        edges = self.edges
        i = np.searchsorted(edges, r, side="right") - 1
        pole = i < 0
        i = np.clip(i, 0, len(edges) - 1)
        h, nodes, jac = _gauss_nodes(edges[i], np.where(pole, edges[0], r), i < self.geom)
        m = np.asarray(self.coeff(nodes.ravel())).reshape(nodes.shape)
        a, b, c, d = _propagators(_panel_terms(h, jac, m, self.R), self.lam, self.R)
        phi, dphi = self.ys[i, 0], self.ys[i, 1]
        series = _pole_start(self.n, self.lam, r, 1.0)
        return np.column_stack([np.where(pole, series[0], a * phi + b * dphi),
                                np.where(pole, series[1], (c * phi + d * dphi) / self.R)])


class _Panels:
    """The panel levels of one solve: edges, node values of m and the
    Magnus terms per level, built on first use, and the shoots made."""

    def __init__(self, coeff, n: int, R: float) -> None:
        self.coeff, self.n, self.R = coeff, n, R
        self.levels: dict = {}
        self.passes = 0

    def level(self, k: int) -> tuple:
        """Edges, Magnus terms, panel lengths and largest |m| per panel of
        level ``k``; its first ``_GEOM_PANELS << k`` panels step in log r."""
        if k not in self.levels:
            R = self.R
            geom = _GEOM_PANELS << k
            edges = np.concatenate([
                _R0 * R * (_R_GEOM / _R0) ** (np.arange(geom) / geom),
                np.linspace(_R_GEOM * R, R, (_UNIFORM_PANELS << k) + 1)])
            h, nodes, jac = _gauss_nodes(edges[:-1], edges[1:],
                                         np.arange(len(edges) - 1) < geom)
            m = np.asarray(self.coeff(np.concatenate([nodes.ravel(), edges])))
            m_nodes, m_edges = m[:nodes.size].reshape(nodes.shape), np.abs(m[nodes.size:])
            m_max = np.maximum(np.abs(m_nodes).max(axis=1),
                               np.maximum(m_edges[:-1], m_edges[1:]))
            self.levels[k] = (edges, _panel_terms(h, jac, m_nodes, R),
                              np.diff(edges), m_max)
        return self.levels[k]

    def turn_level(self, lam: float) -> int:
        """Lowest level whose panels each turn the balanced angle by less
        than pi/2 at ``lam``, bounded from the level-0 panels."""
        _, _, length, m_max = self.level(0)
        rate = max(1.0 / self.R, math.sqrt(max(lam, 0.0)))
        turn = float(np.max(length * (rate + 0.5 * m_max))) / (0.5 * math.pi)
        return max(0, math.frexp(turn)[1]) if turn >= 1.0 else 0

    def shoot(self, lams, level: int) -> tuple:
        """theta(R) for each lam of ``lams`` in one pass, on ``level`` or the
        turn level of the largest lam if that is higher.  Returns the angles,
        the edge states (one (edges, 2) array per lam) and the level used."""
        level = max(level, self.turn_level(max(lams)))
        if (_GEOM_PANELS + _UNIFORM_PANELS) << level > _MAX_PANELS:
            raise SubdivisionLimitError(
                f"a shoot at lambda={max(lams):.6g} needs"
                f" {(_GEOM_PANELS + _UNIFORM_PANELS) << level} panels, more than {_MAX_PANELS}")
        edges, terms = self.level(level)[:2]
        n, R, r0 = self.n, self.R, edges[0]
        lam_col = np.array(lams, dtype=float)[:, None]
        mats = [x.tolist() for x in _propagators(terms, lam_col, R)]
        self.passes += 1
        ys = np.empty((len(lams), 2, len(edges)))
        for k, lam in enumerate(lams):
            p, q = _pole_start(n, lam, r0, R)
            ps, qs = [p], [q]
            for a, b, c, d in zip(mats[0][k], mats[1][k], mats[2][k], mats[3][k]):
                p, q = a * p + b * q, c * p + d * q
                ps.append(p)
                qs.append(q)
            ys[k, 0], ys[k, 1] = ps, qs
        phi = ys[:, 0]
        scale = np.maximum(1.0, R * np.sqrt(np.maximum(lam_col, 0.0)))
        x = ys[:, 1] / scale
        turns = np.arctan2(x[:, :-1] * phi[:, 1:] - phi[:, :-1] * x[:, 1:],
                           x[:, :-1] * x[:, 1:] + phi[:, :-1] * phi[:, 1:])
        pR, qR, s = phi[:, -1], ys[:, 1, -1], scale[:, 0]
        thetas = (np.arctan2(phi[:, 0], x[:, 0]) + turns.sum(axis=1)
                  + np.arctan2(pR * qR * (1.0 / s - 1.0), qR * qR / s + pR * pR))
        if not np.isfinite(thetas).all():
            raise NonFiniteError(f"a shoot at lambda in {list(lams)} left the doubles")
        return thetas.tolist(), ys.transpose(0, 2, 1), level


@dataclass(frozen=True)
class EigenResult(Report):
    """Converged first Dirichlet eigenvalue of a radial ball.

    ``lam`` is the secant point of ``bracket``, the final root bracket, and
    ``theta_hi`` the Pruefer angle theta(R) at its upper end.  ``samples``
    holds (r, phi) rows with phi(0) = 1, ``residual`` is |phi(R)| and
    ``r_half`` the first radius with phi = 1/2, all from ``traj``, one shoot
    at a lambda inside the bracket: the Ritz value, or the root of a search
    on fewer panels, when the bracket still holds it, else ``lam``.  The
    samples and ``r_half`` are read from ``traj`` on first use, both in one
    call (``_sample_eigenfunction``).  ``residual_bound`` is what the
    bracket allows, rho(R) max |theta(R) - pi| over its ends, plus |phi(R)|
    minus phi(R) of a shoot at the same lambda with twice the panels.
    ``lam_ritz`` is the Rayleigh-Ritz value that seeded the search (NaN
    when the Ritz solve failed), ``shoots`` the number of passes over the
    panels the eigenvalue and eigenfunction took (one pass shoots every
    lambda it carries, so both ends of the seeded bracket, and the Ritz
    value too when that bracket closes at once, take one; the shoot with
    twice the panels is one more), and ``panels`` how many panels ``traj``
    crossed.  ``traj`` reads the eigenfunction without another shoot.  The
    search is restricted to radial eigenfunctions (the first eigenfunction
    is radial for radial data).
    """

    lam: float
    residual: float
    residual_bound: float
    bracket: tuple
    theta_hi: float
    tol: Tolerance
    lam_ritz: float
    shoots: int
    panels: int
    traj: MagnusShoot = field(repr=False, compare=False)

    theorem_id = "EIGEN"
    radial_only = True

    @cached_property
    def _eigenfunction(self) -> tuple:
        return _sample_eigenfunction(self.traj)

    @property
    def samples(self) -> np.ndarray:
        return self._eigenfunction[0]

    @property
    def r_half(self) -> float:
        return self._eigenfunction[1]

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
            "panels": self.panels,
        })

    def to_csv(self) -> str:
        lines = ["r,phi"]
        for r, phi in self.samples:
            lines.append(f"{r:.17g},{phi:.17g}")
        return "\n".join(lines) + "\n"


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


def _search(panels: _Panels, level: int, tol: Tolerance, seed_lo: float,
            seed_hi: float, seed: float):
    """Root of theta(R; lam) = pi on ``level`` by ``find_root_bracketed``,
    and the eigenfunction's (lam, theta(R), edge states, level).

    A finite seed bracket [seed_lo, seed_hi] is shot in one pass, with
    ``seed`` too when the bracket closes at once.  The search starts from
    that bracket when theta(R) < pi at its lower end; from [0, its lower
    end] when theta(R) >= pi there already (a seed too high to bracket the
    root); and from [0, pi^2/R^2] otherwise (lam = 0 gives phi = 1 and
    theta = pi/2 with no shoot).  The upper end may grow up to
    2^40 pi^2/R^2, which is tried before the search gives up.  Each trial
    lam is shot once.  The eigenfunction is the seed's shoot when the final
    bracket holds it, and otherwise the shoot at the secant point of that
    bracket, which is lam either way.
    """
    shots, states = {}, {}

    def g(lam: float) -> float:
        if lam not in shots:
            thetas, ys, used = panels.shoot((lam,), level)
            shots[lam], states[lam] = thetas[0] - math.pi, (lam, thetas[0], ys[0], used)
        return shots[lam]

    lo, hi, f_lo = 0.0, math.pi ** 2 / panels.R ** 2, -0.5 * math.pi
    cap = hi * 2.0 ** 40
    eig = None
    if math.isfinite(seed):
        lams = (seed_lo, seed_hi)
        if seed_hi - seed_lo <= bracket_width(tol, seed_hi):
            lams += (seed,)
        thetas, ys, used = panels.shoot(lams, level)
        shots[seed_lo], shots[seed_hi] = thetas[0] - math.pi, thetas[1] - math.pi
        if len(lams) == 3:
            eig = (seed, thetas[2], ys[2], used)
        if shots[seed_lo] < 0.0:
            lo, hi, f_lo = seed_lo, seed_hi, shots[seed_lo]
        elif seed_lo > 0.0:
            hi = seed_lo
    root = find_root_bracketed(g, lo, hi, tol, f_lo=f_lo, cap=cap)
    if eig is None or not root.lo <= eig[0] <= root.hi:
        g(root.root)  # a trial point when f vanished there
        eig = states[root.root]
    return root, eig


def _first_eigenvalue(coeff, log_weight, n: int, R: float, tol: Tolerance):
    """Root of theta(R; lam) = pi on the lowest panel level that meets the
    level rule, and the eigenfunction from one shoot.

    ``coeff`` is m on an array of radii.  The Ritz value lam_R seeds the
    level-0 search with the bracket [lam_R - max(0.4 w, 1e-8 lam_R),
    lam_R + 0.4 w], w the closing width at lam_R (lam_R bounds the root from
    above, up to quadrature error).  At rel_tol = 1e-6 that bracket closes
    at once, so one pass shoots its ends and lam_R and ends the search; at
    rel_tol = 1e-10 it is wider, and the secant shoots one lam a pass.  A
    shoot at the eigenfunction's lam, which lies in the final bracket, on
    the level above checks the level against the relative accuracy
    max(w / lam_hi, 1e-12) / 100: the root that its theta(R) gives, over
    the slope of theta(R) across the bracket, and phi at the edges the two
    levels share must each move by no more.  Otherwise the search runs
    again on the level that the sixth order (2^6 per level) predicts, from
    the final bracket widened on each side by twice the root's move (and
    by at least 1/1000 of the closing width), with the eigenfunction's lam
    as its seed.
    """
    panels = _Panels(coeff, n, R)
    try:
        lam_ritz = _ritz_value(log_weight, n, R)
    except np.linalg.LinAlgError:
        lam_ritz = math.nan
    width = bracket_width(tol, lam_ritz)
    seed = (lam_ritz - max(0.4 * width, 1e-8 * lam_ritz), lam_ritz + 0.4 * width, lam_ritz)
    level = 0
    while True:
        root, (lam, theta, ys, used) = _search(panels, level, tol, *seed)
        thetas, fine, _ = panels.shoot((lam,), used + 1)
        width = bracket_width(tol, root.hi)
        if root.hi > root.lo:
            slope = (root.f_hi - root.f_lo) / (root.hi - root.lo)
        else:  # an exact zero: the slope from a shoot one closing width up
            slope = (panels.shoot((lam + width,), used)[0][0] - theta) / width
        shift = abs(thetas[0] - theta) / slope
        accuracy = max(width / root.hi, _ROUNDING_REL) / 100.0
        moved = max(shift / root.hi, float(np.max(np.abs(ys[:, 0] - fine[0][::2, 0]))))
        if moved <= accuracy:
            break
        level = used + math.ceil(math.log(moved / accuracy, 64.0))
        pad = max(2.0 * shift, 1e-3 * width)
        seed = (root.lo - pad, root.hi + pad, lam)
    traj = MagnusShoot(lam, n, R, panels.level(used)[0], _GEOM_PANELS << used, ys, coeff)
    return _sample_result(root, traj, fine[0][-1, 0], tol, lam_ritz, panels.passes)


# r_half is closed on phi's interpolant at the 16 Chebyshev points of the
# first kind on (-1, 1); by their discrete orthogonality _HALF_FIT maps the
# values there to the interpolant's Chebyshev coefficients.
_HALF_X = np.polynomial.chebyshev.chebpts1(16)
_HALF_FIT = np.polynomial.chebyshev.chebvander(_HALF_X, 15).T / 8.0
_HALF_FIT[0] /= 2.0


def _sample_result(root: RootBracket, traj: MagnusShoot, phi_fine: float,
                   tol: Tolerance, lam_ritz: float, shoots: int) -> EigenResult:
    """The result with its residual bound.

    ``traj`` is a shoot at a lam inside the root bracket and ``phi_fine``
    phi(R) of a shoot at that lam with twice the panels.  theta(R) rises
    with lam, so |phi(R)| = rho(R) |sin theta(R)| is at most
    rho(R) max |theta(R) - pi| over the bracket ends; to that the bound adds
    |phi(R) - phi_fine|, the panel error of phi(R).
    """
    phi_R, dphi_R = traj.ys[-1]
    residual_bound = (math.hypot(phi_R, dphi_R) * max(abs(root.f_lo), abs(root.f_hi))
                      + abs(phi_R - phi_fine))
    return EigenResult(lam=root.root, residual=abs(float(phi_R)),
                       residual_bound=residual_bound, bracket=(root.lo, root.hi),
                       theta_hi=root.f_hi + math.pi, tol=tol, lam_ritz=lam_ritz,
                       shoots=shoots, panels=len(traj.edges) - 1, traj=traj)


def _sample_eigenfunction(traj: MagnusShoot) -> tuple:
    """The eigenfunction's (r, phi) rows at 129 radii, and r_half.

    r_half, the first radius with phi = 1/2 (phi falls from 1 toward 0),
    lies in the panel whose right edge is the first with phi <= 1/2; the
    samples and phi at that panel's Chebyshev points are read in one call,
    and the root is closed near the resolution of doubles on the
    interpolant.
    """
    R, edges = traj.R, traj.edges
    rs = np.linspace(0.0, R, 129)
    below = np.flatnonzero(traj.ys[:, 0] <= 0.5)  # the first edge's phi is ~1
    lo, hi = (edges[below[0] - 1], edges[below[0]]) if len(below) else (R, R)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    phis = traj.at(np.concatenate([rs, mid + half * _HALF_X]))[:, 0]
    r_half = R
    if len(below):
        coef = _HALF_FIT @ (phis[len(rs):] - 0.5)
        r_half = find_root_bracketed(
            lambda r: np.polynomial.chebyshev.chebval((r - mid) / half, coef), lo, hi,
            Tolerance(1e-15, 1e-15), f_lo=traj.ys[below[0] - 1, 0] - 0.5).root
    return np.column_stack([rs, phis[:len(rs)]]), r_half


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

    def coeff(t: np.ndarray) -> np.ndarray:
        return mean_curvature_model(float(n), H, t) + a

    return _first_eigenvalue(coeff, partial(log_psi, mspace), n, R, tol)


def smms_radial_eigenvalue(s: WarpedSMMS, R: float,
                           tol: Tolerance = EIGEN_TOL) -> EigenResult:
    """First Dirichlet eigenvalue of the weighted Laplacian on B(pole, R),
    within the radial class (equal to the true first eigenvalue for radial
    potentials)."""
    if not 0.0 < R < s.r_max:
        raise ValueError(f"require 0 < R < r_max={s.r_max}, got {R}")

    def coeff(t: np.ndarray) -> np.ndarray:
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
        return traj.at(t)[:, col] ** 2 * weighted_area(s, t)

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
    # The solves' own input checks, in their order, so bad input fails before l.
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if R <= 0.0:
        raise ValueError(f"R must be > 0, got {R}")
    require_admissible("VOL_B", H, R)
    if not R < s.r_max:
        raise ValueError(f"require 0 < R < r_max={s.r_max}, got {R}")
    l = integral_rho(s, H, s.r_max, mode)
    eps = cheng_constants(s.n, a, H, R, delta, tol).epsilon
    model = model_eigenvalue(s.n, a, H, R, tol)
    ball = smms_radial_eigenvalue(s, R, tol)
    ratio = ball.lam / model.lam
    report = partial(ChengReport, lam_ball=ball.lam, lam_model=model.lam, delta=delta,
                     epsilon=eps, l=l, ratio=ratio, mode=mode, tol=tol)
    for name, res in (("model", model), ("ball", ball)):
        if not res.passed:
            return report(passed=False, reason=f"{name} eigenvalue solve: {res.reason}")
    if reason := _excess_gate(l, eps):
        return report(passed=False, not_applicable=True, reason=reason)
    return report(passed=ratio <= 1.0 + delta + _SLACK)
