"""Deterministic numerical kernels.

Dormand-Prince 8(5,3) integration (DOP853) with its 7th-order dense
output, one quadrature rule (composite Gauss-Legendre by panel doubling,
``quad_grid``, with ``quad_adaptive`` its one-interval form), Gauss-Jacobi
rules on (0, 1) by Golub-Welsch, safeguarded-secant root finding with
bracket growth, and unit-sphere areas.  Every routine is a pure function
of its inputs, so results are reproducible and safe to evaluate
concurrently; Gauss-Jacobi rules are cached and come back read-only.

The unit of cost is a call of the function a kernel is given.  An ODE
right-hand side is called on plain floats, stage by stage.  A quadrature
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
    """A panel cap was hit: adaptive quadrature's panel doubling with its
    tolerance unmet, or the Magnus panels an eigenvalue shoot needs."""


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
# ODE integration: the Dormand-Prince 8(5,3) pair, DOP853 (Prince & Dormand,
# J. Comput. Appl. Math. 7, 1981; Hairer, Norsett & Wanner, Solving ODEs I,
# II.5-6), with its 7th-order dense output.
#
# Every caller integrates up to four components, where a numpy call costs far
# more than the arithmetic it does.  So the stages are plain Python floats, one
# comprehension over the d components per stage, and the tableau is float
# constants.  The right-hand side gets each stage as that list of floats and
# returns d numbers, so it computes in plain floats too, and no stage builds
# an array.  An accepted step evaluates the right-hand side 15 times: 11
# stages, the end point (the next step's first stage) and 3 dense-output
# stages.  With the trivial right-hand side y' = y on [0, 4] at 1e-12, a
# step costs 31.5, 40.2 and 50.5 us (d = 1, 2, 4) against 9.8, 11.7 and
# 13.9 us for the Fehlberg 4(5) pair this replaced, which needed 283 steps
# where DOP853 takes 22: a solve costs a quarter as much (best of 450
# solves, shared 2-vCPU Xeon, Python 3.11).
# ---------------------------------------------------------------------------

# Nodes c_i: stages 1-11 of a step, stage 12 at its end (c = 1, the next
# step's first stage) and the dense-output stages 13-15.
_C1 = 0.526001519587677318785587544488e-1
_C2 = 0.789002279381515978178381316732e-1
_C3 = 0.118350341907227396726757197510
_C4 = 0.281649658092772603273242802490
_C5 = 0.333333333333333333333333333333
_C6 = 0.25
_C7 = 0.307692307692307692307692307692
_C8 = 0.651282051282051282051282051282
_C9 = 0.6
_C10 = 0.857142857142857142857142857142
_C11 = 1.0
_C13 = 0.1
_C14 = 0.2
_C15 = 0.777777777777777777777777777778

# Stage coefficients a_ij, named _Ai_j; the entries not named are zero.
_A1_0 = 5.26001519587677318785587544488e-2
_A2_0 = 1.97250569845378994544595329183e-2
_A2_1 = 5.91751709536136983633785987549e-2
_A3_0 = 2.95875854768068491816892993775e-2
_A3_2 = 8.87627564304205475450678981324e-2
_A4_0 = 2.41365134159266685502369798665e-1
_A4_2 = -8.84549479328286085344864962717e-1
_A4_3 = 9.24834003261792003115737966543e-1
_A5_0 = 3.7037037037037037037037037037e-2
_A5_3 = 1.70828608729473871279604482173e-1
_A5_4 = 1.25467687566822425016691814123e-1
_A6_0 = 3.7109375e-2
_A6_3 = 1.70252211019544039314978060272e-1
_A6_4 = 6.02165389804559606850219397283e-2
_A6_5 = -1.7578125e-2
_A7_0 = 3.70920001185047927108779319836e-2
_A7_3 = 1.70383925712239993810214054705e-1
_A7_4 = 1.07262030446373284651809199168e-1
_A7_5 = -1.53194377486244017527936158236e-2
_A7_6 = 8.27378916381402288758473766002e-3
_A8_0 = 6.24110958716075717114429577812e-1
_A8_3 = -3.36089262944694129406857109825
_A8_4 = -8.68219346841726006818189891453e-1
_A8_5 = 2.75920996994467083049415600797e1
_A8_6 = 2.01540675504778934086186788979e1
_A8_7 = -4.34898841810699588477366255144e1
_A9_0 = 4.77662536438264365890433908527e-1
_A9_3 = -2.48811461997166764192642586468
_A9_4 = -5.90290826836842996371446475743e-1
_A9_5 = 2.12300514481811942347288949897e1
_A9_6 = 1.52792336328824235832596922938e1
_A9_7 = -3.32882109689848629194453265587e1
_A9_8 = -2.03312017085086261358222928593e-2
_A10_0 = -9.3714243008598732571704021658e-1
_A10_3 = 5.18637242884406370830023853209
_A10_4 = 1.09143734899672957818500254654
_A10_5 = -8.14978701074692612513997267357
_A10_6 = -1.85200656599969598641566180701e1
_A10_7 = 2.27394870993505042818970056734e1
_A10_8 = 2.49360555267965238987089396762
_A10_9 = -3.0467644718982195003823669022
_A11_0 = 2.27331014751653820792359768449
_A11_3 = -1.05344954667372501984066689879e1
_A11_4 = -2.00087205822486249909675718444
_A11_5 = -1.79589318631187989172765950534e1
_A11_6 = 2.79488845294199600508499808837e1
_A11_7 = -2.85899827713502369474065508674
_A11_8 = -8.87285693353062954433549289258
_A11_9 = 1.23605671757943030647266201528e1
_A11_10 = 6.43392746015763530355970484046e-1
_A13_0 = 5.61675022830479523392909219681e-2
_A13_6 = 2.53500210216624811088794765333e-1
_A13_7 = -2.46239037470802489917441475441e-1
_A13_8 = -1.24191423263816360469010140626e-1
_A13_9 = 1.5329179827876569731206322685e-1
_A13_10 = 8.20105229563468988491666602057e-3
_A13_11 = 7.56789766054569976138603589584e-3
_A13_12 = -8.298e-3
_A14_0 = 3.18346481635021405060768473261e-2
_A14_5 = 2.83009096723667755288322961402e-2
_A14_6 = 5.35419883074385676223797384372e-2
_A14_7 = -5.49237485713909884646569340306e-2
_A14_10 = -1.08347328697249322858509316994e-4
_A14_11 = 3.82571090835658412954920192323e-4
_A14_12 = -3.40465008687404560802977114492e-4
_A14_13 = 1.41312443674632500278074618366e-1
_A15_0 = -4.28896301583791923408573538692e-1
_A15_5 = -4.69762141536116384314449447206
_A15_6 = 7.68342119606259904184240953878
_A15_7 = 4.06898981839711007970213554331
_A15_8 = 3.56727187455281109270669543021e-1
_A15_12 = -1.39902416515901462129418009734e-3
_A15_13 = 2.9475147891527723389556272149
_A15_14 = -9.15095847217987001081870187138

# Weights b_j of the propagated 8th-order solution (row 12 of the stages).
_B0 = 5.42937341165687622380535766363e-2
_B5 = 4.45031289275240888144113950566
_B6 = 1.89151789931450038304281599044
_B7 = -5.8012039600105847814672114227
_B8 = 3.1116436695781989440891606237e-1
_B9 = -1.52160949662516078556178806805e-1
_B10 = 2.01365400804030348374776537501e-1
_B11 = 4.47106157277725905176885569043e-2

# Error weights of the embedded 5th-order estimate, and the weights of the
# embedded 3rd-order solution: its error weights are b minus these.
_E5_0 = 0.1312004499419488073250102996e-1
_E5_5 = -0.1225156446376204440720569753e1
_E5_6 = -0.4957589496572501915214079952
_E5_7 = 0.1664377182454986536961530415e1
_E5_8 = -0.3503288487499736816886487290
_E5_9 = 0.3341791187130174790297318841
_E5_10 = 0.8192320648511571246570742613e-1
_E5_11 = -0.2235530786388629525884427845e-1
_B3_0 = 0.244094488188976377952755905512
_B3_8 = 0.733846688281611857341361741547
_B3_11 = 0.220588235294117647058823529412e-1

# Dense-output rows 3-6, named _Di_j for stage j; rows 0-2 follow from the
# step's ends (see integrate_ode).
_D3_0 = -0.84289382761090128651353491142e1
_D3_5 = 0.56671495351937776962531783590
_D3_6 = -0.30689499459498916912797304727e1
_D3_7 = 0.23846676565120698287728149680e1
_D3_8 = 0.21170345824450282767155149946e1
_D3_9 = -0.87139158377797299206789907490
_D3_10 = 0.22404374302607882758541771650e1
_D3_11 = 0.63157877876946881815570249290
_D3_12 = -0.88990336451333310820698117400e-1
_D3_13 = 0.18148505520854727256656404962e2
_D3_14 = -0.91946323924783554000451984436e1
_D3_15 = -0.44360363875948939664310572000e1
_D4_0 = 0.10427508642579134603413151009e2
_D4_5 = 0.24228349177525818288430175319e3
_D4_6 = 0.16520045171727028198505394887e3
_D4_7 = -0.37454675472269020279518312152e3
_D4_8 = -0.22113666853125306036270938578e2
_D4_9 = 0.77334326684722638389603898808e1
_D4_10 = -0.30674084731089398182061213626e2
_D4_11 = -0.93321305264302278729567221706e1
_D4_12 = 0.15697238121770843886131091075e2
_D4_13 = -0.31139403219565177677282850411e2
_D4_14 = -0.93529243588444783865713862664e1
_D4_15 = 0.35816841486394083752465898540e2
_D5_0 = 0.19985053242002433820987653617e2
_D5_5 = -0.38703730874935176555105901742e3
_D5_6 = -0.18917813819516756882830838328e3
_D5_7 = 0.52780815920542364900561016686e3
_D5_8 = -0.11573902539959630126141871134e2
_D5_9 = 0.68812326946963000169666922661e1
_D5_10 = -0.10006050966910838403183860980e1
_D5_11 = 0.77771377980534432092869265740
_D5_12 = -0.27782057523535084065932004339e1
_D5_13 = -0.60196695231264120758267380846e2
_D5_14 = 0.84320405506677161018159903784e2
_D5_15 = 0.11992291136182789328035130030e2
_D6_0 = -0.25693933462703749003312586129e2
_D6_5 = -0.15418974869023643374053993627e3
_D6_6 = -0.23152937917604549567536039109e3
_D6_7 = 0.35763911791061412378285349910e3
_D6_8 = 0.93405324183624310003907691704e2
_D6_9 = -0.37458323136451633156875139351e2
_D6_10 = 0.10409964950896230045147246184e3
_D6_11 = 0.29840293426660503123344363579e2
_D6_12 = -0.43533456590011143754432175058e2
_D6_13 = 0.96324553959188282948394950600e2
_D6_14 = -0.39177261675615439165231486172e2
_D6_15 = -0.14972683625798562581422125276e3


@dataclass(frozen=True)
class OdeTrajectory:
    """Accepted nodes of an adaptive integration, with dense evaluation.

    ``ts``/``ys`` hold node times and states and ``errors`` the scaled
    local error estimate of each accepted step (0 at the first node).
    ``dense[i]`` holds the seven coefficient rows of DOP853's continuous
    extension on step i, from ``ts[i]`` to ``ts[i + 1]``: with
    x = (t - ts[i]) / h and rows F0..F6,
    y(t) = ys[i] + x (F0 + (1 - x) (F1 + x (F2 + (1 - x) (F3 + ...)))),
    seventh-order accurate on the step.
    """

    ts: np.ndarray
    ys: np.ndarray
    dense: np.ndarray
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
        x = ((flat - self.ts[i]) / (self.ts[i + 1] - self.ts[i]))[:, None]
        coeffs = self.dense[i]
        rows = np.zeros((len(flat), self.ys.shape[1]))
        for j in range(6, -1, -1):
            rows += coeffs[:, j]
            rows *= x if j % 2 == 0 else 1.0 - x
        rows += self.ys[i]
        return rows if times.ndim else rows[0]

    def terminal(self) -> np.ndarray:
        return self.ys[-1]


def _eval_rhs(rhs, t: float, y: list, d: int) -> list:
    """``rhs`` at (t, y) as a list of d floats.

    y goes in as the kernel's own list of d Python floats, not a copy.  An
    ndarray result is read by ``tolist``, any other sequence element by
    element through ``float``; a result that is not d numbers raises
    ``ValueError``, a non-finite one ``NonFiniteError`` at this stage's t.
    """
    f = rhs(t, y)
    try:
        f = f.tolist() if isinstance(f, np.ndarray) else [float(v) for v in f]
        count_ok = len(f) == d
        finite = all(map(math.isfinite, f))
    except TypeError:  # a scalar, or nested sequences
        count_ok = False
    if not count_ok:
        raise ValueError(f"right-hand side must return {d} numbers, got {f!r}")
    if not finite:
        raise NonFiniteError(f"right-hand side is not finite at t={t}")
    return f


def integrate_ode(rhs, t0: float, y0, t1: float,
                  tol: Tolerance = DEFAULT_TOL) -> OdeTrajectory:
    """Integrate ``y' = rhs(t, y)`` from ``t0`` to ``t1 > t0`` by DOP853.

    ``rhs(t, y)`` gets y as a list of d Python floats, the integrator's own
    state, which it must not modify, and returns d numbers (a tuple, list or
    1-d array).  A right-hand side written for arrays (``-y``) must index
    the components instead (``(-y[0],)``).  The eighth-order solution is
    propagated.  A step passes when its error estimate is at most 1: with
    the embedded 5th- and 3rd-order differences e5, e3 scaled by
    abs_tol + rel_tol * max(|y|, |y_new|) per component, the estimate is
    h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) d).  The first step is a 64th
    of the interval; each step then scales h by 0.9 estimate^(-1/8), kept
    in [0.2, 10] and at most 1 right after a rejection.  Dense output
    between the nodes is the method's 7th-order continuous extension.
    """
    t0, t1 = float(t0), float(t1)
    if t1 <= t0:
        raise ValueError(f"require t1 > t0, got [{t0}, {t1}]")
    y = np.atleast_1d(np.asarray(y0, dtype=float)).tolist()
    d = len(y)
    span = t1 - t0
    h = span / 64
    hmin = 1e-14 * span
    abs_tol, rel_tol = tol.abs_tol, tol.rel_tol

    ts = [t0]
    ys = [y]
    dense = []
    errs = [0.0]
    k0 = _eval_rhs(rhs, t0, y, d)

    t = t0
    nsteps = 0
    rejected = False
    while t < t1 - 1e-14 * span:
        if nsteps >= tol.max_steps:
            raise StepLimitError(f"step budget {tol.max_steps} exhausted at t={t}")
        nsteps += 1
        h = min(h, t1 - t)

        k1 = _eval_rhs(rhs, t + _C1 * h, [
            x + h * (_A1_0 * p0) for x, p0 in zip(y, k0)], d)
        k2 = _eval_rhs(rhs, t + _C2 * h, [
            x + h * (_A2_0 * p0 + _A2_1 * p1) for x, p0, p1 in zip(y, k0, k1)], d)
        k3 = _eval_rhs(rhs, t + _C3 * h, [
            x + h * (_A3_0 * p0 + _A3_2 * p2) for x, p0, p2 in zip(y, k0, k2)], d)
        k4 = _eval_rhs(rhs, t + _C4 * h, [
            x + h * (_A4_0 * p0 + _A4_2 * p2 + _A4_3 * p3)
            for x, p0, p2, p3 in zip(y, k0, k2, k3)], d)
        k5 = _eval_rhs(rhs, t + _C5 * h, [
            x + h * (_A5_0 * p0 + _A5_3 * p3 + _A5_4 * p4)
            for x, p0, p3, p4 in zip(y, k0, k3, k4)], d)
        k6 = _eval_rhs(rhs, t + _C6 * h, [
            x + h * (_A6_0 * p0 + _A6_3 * p3 + _A6_4 * p4 + _A6_5 * p5)
            for x, p0, p3, p4, p5 in zip(y, k0, k3, k4, k5)], d)
        k7 = _eval_rhs(rhs, t + _C7 * h, [
            x + h * (_A7_0 * p0 + _A7_3 * p3 + _A7_4 * p4 + _A7_5 * p5 + _A7_6 * p6)
            for x, p0, p3, p4, p5, p6 in zip(y, k0, k3, k4, k5, k6)], d)
        k8 = _eval_rhs(rhs, t + _C8 * h, [
            x + h * (_A8_0 * p0 + _A8_3 * p3 + _A8_4 * p4 + _A8_5 * p5 + _A8_6 * p6
                     + _A8_7 * p7)
            for x, p0, p3, p4, p5, p6, p7 in zip(y, k0, k3, k4, k5, k6, k7)], d)
        k9 = _eval_rhs(rhs, t + _C9 * h, [
            x + h * (_A9_0 * p0 + _A9_3 * p3 + _A9_4 * p4 + _A9_5 * p5 + _A9_6 * p6
                     + _A9_7 * p7 + _A9_8 * p8)
            for x, p0, p3, p4, p5, p6, p7, p8 in zip(y, k0, k3, k4, k5, k6, k7, k8)], d)
        k10 = _eval_rhs(rhs, t + _C10 * h, [
            x + h * (_A10_0 * p0 + _A10_3 * p3 + _A10_4 * p4 + _A10_5 * p5
                     + _A10_6 * p6 + _A10_7 * p7 + _A10_8 * p8 + _A10_9 * p9)
            for x, p0, p3, p4, p5, p6, p7, p8, p9
            in zip(y, k0, k3, k4, k5, k6, k7, k8, k9)], d)
        k11 = _eval_rhs(rhs, t + _C11 * h, [
            x + h * (_A11_0 * p0 + _A11_3 * p3 + _A11_4 * p4 + _A11_5 * p5
                     + _A11_6 * p6 + _A11_7 * p7 + _A11_8 * p8 + _A11_9 * p9
                     + _A11_10 * p10)
            for x, p0, p3, p4, p5, p6, p7, p8, p9, p10
            in zip(y, k0, k3, k4, k5, k6, k7, k8, k9, k10)], d)

        # The new state and the two error sums over the components, each
        # component scaled by abs_tol + rel_tol * max(|y|, |y_new|).
        y_new = []
        sq5 = sq3 = 0.0
        for x, p0, p5, p6, p7, p8, p9, p10, p11 in zip(y, k0, k5, k6, k7, k8, k9,
                                                        k10, k11):
            b = (_B0 * p0 + _B5 * p5 + _B6 * p6 + _B7 * p7 + _B8 * p8 + _B9 * p9
                 + _B10 * p10 + _B11 * p11)
            x_new = x + h * b
            y_new.append(x_new)
            scale = abs_tol + rel_tol * max(abs(x), abs(x_new))
            e5 = (_E5_0 * p0 + _E5_5 * p5 + _E5_6 * p6 + _E5_7 * p7 + _E5_8 * p8
                  + _E5_9 * p9 + _E5_10 * p10 + _E5_11 * p11) / scale
            e3 = (b - _B3_0 * p0 - _B3_8 * p8 - _B3_11 * p11) / scale
            sq5 += e5 * e5
            sq3 += e3 * e3
        err = h * sq5 / math.sqrt((sq5 + 0.01 * sq3) * d) if sq5 else 0.0

        if err > 1.0:
            h *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
            if h < hmin:
                raise StepLimitError(f"step size underflow at t={t}")
            continue

        k12 = _eval_rhs(rhs, t + h, y_new, d)
        k13 = _eval_rhs(rhs, t + _C13 * h, [
            x + h * (_A13_0 * p0 + _A13_6 * p6 + _A13_7 * p7 + _A13_8 * p8
                     + _A13_9 * p9 + _A13_10 * p10 + _A13_11 * p11 + _A13_12 * p12)
            for x, p0, p6, p7, p8, p9, p10, p11, p12
            in zip(y, k0, k6, k7, k8, k9, k10, k11, k12)], d)
        k14 = _eval_rhs(rhs, t + _C14 * h, [
            x + h * (_A14_0 * p0 + _A14_5 * p5 + _A14_6 * p6 + _A14_7 * p7
                     + _A14_10 * p10 + _A14_11 * p11 + _A14_12 * p12 + _A14_13 * p13)
            for x, p0, p5, p6, p7, p10, p11, p12, p13
            in zip(y, k0, k5, k6, k7, k10, k11, k12, k13)], d)
        k15 = _eval_rhs(rhs, t + _C15 * h, [
            x + h * (_A15_0 * p0 + _A15_5 * p5 + _A15_6 * p6 + _A15_7 * p7
                     + _A15_8 * p8 + _A15_12 * p12 + _A15_13 * p13 + _A15_14 * p14)
            for x, p0, p5, p6, p7, p8, p12, p13, p14
            in zip(y, k0, k5, k6, k7, k8, k12, k13, k14)], d)
        ks = (k0, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15)
        dy = [x_new - x for x, x_new in zip(y, y_new)]
        dense.append((
            dy,
            [h * p0 - e for e, p0 in zip(dy, k0)],
            [2.0 * e - h * (p12 + p0) for e, p0, p12 in zip(dy, k0, k12)],
            [h * (_D3_0 * p0 + _D3_5 * p5 + _D3_6 * p6 + _D3_7 * p7 + _D3_8 * p8
                  + _D3_9 * p9 + _D3_10 * p10 + _D3_11 * p11 + _D3_12 * p12
                  + _D3_13 * p13 + _D3_14 * p14 + _D3_15 * p15)
             for p0, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15 in zip(*ks)],
            [h * (_D4_0 * p0 + _D4_5 * p5 + _D4_6 * p6 + _D4_7 * p7 + _D4_8 * p8
                  + _D4_9 * p9 + _D4_10 * p10 + _D4_11 * p11 + _D4_12 * p12
                  + _D4_13 * p13 + _D4_14 * p14 + _D4_15 * p15)
             for p0, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15 in zip(*ks)],
            [h * (_D5_0 * p0 + _D5_5 * p5 + _D5_6 * p6 + _D5_7 * p7 + _D5_8 * p8
                  + _D5_9 * p9 + _D5_10 * p10 + _D5_11 * p11 + _D5_12 * p12
                  + _D5_13 * p13 + _D5_14 * p14 + _D5_15 * p15)
             for p0, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15 in zip(*ks)],
            [h * (_D6_0 * p0 + _D6_5 * p5 + _D6_6 * p6 + _D6_7 * p7 + _D6_8 * p8
                  + _D6_9 * p9 + _D6_10 * p10 + _D6_11 * p11 + _D6_12 * p12
                  + _D6_13 * p13 + _D6_14 * p14 + _D6_15 * p15)
             for p0, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15 in zip(*ks)]))
        t = t + h
        y, k0 = y_new, k12
        ts.append(t)
        ys.append(y)
        errs.append(err)
        grow = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
        h *= min(1.0, grow) if rejected else grow
        rejected = False

    return OdeTrajectory(np.array(ts), np.array(ys), np.array(dense), np.array(errs))


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
    if not np.all(np.isfinite(y)):
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
    if np.any(np.diff(edges) < 0.0):
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
    (m, beta) and cached (the doubling table asks for the same four on every
    threshold); both arrays are read-only.
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
                        f_lo: float | None = None,
                        cap: float | None = None) -> RootBracket:
    """Root of ``f`` above ``lo``, closed to ``bracket_width(tol, hi)``.

    ``f_lo`` may be passed when f(lo) is known; f may rise or fall.  While
    f(hi) has the sign of f(lo), lo takes hi and hi grows by twice the secant
    extrapolation, and by at least half of its distance from the first lo,
    up to ``cap`` (default: no growth), which it tries before it raises
    ``BracketError``.  Inside the bracket each point is the
    secant point of the last two, safeguarded as in Brent's method: it
    becomes the midpoint when it leaves the bracket or moves more than half
    the step before last, it is pushed a guard width (a quarter of the
    closing width) past the root estimate once it would move less than that,
    so that the bracket closes, and it stays a guard width inside the ends.
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
    f_hi = float(f(hi))
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
