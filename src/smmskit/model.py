"""Constant-curvature model spaces and their drifted variants.

All comparison checks are phrased against these closed forms: the
generalized sine ``sn``, model mean curvature, the (possibly drifted)
areas and volumes of geodesic spheres and balls, the volume's Jacobi form
V = t A J/psi (``jacobi_factor``), and a Gauss-Jacobi table of the
area/volume ratio for integrals against A/V.  Curvature ``H`` is a raw
real everywhere; the sign branch lives inside ``sn``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import (DEFAULT_TOL, NonFiniteError, Tolerance, gauss_jacobi,
                     quad_adaptive, sphere_area)

__all__ = [
    "ModelSpace",
    "sn",
    "sn_prime",
    "conjugate_radius",
    "mean_curvature_model",
    "area_model",
    "volume_model",
    "log_psi",
    "jacobi_factor",
    "ratio_table",
    "c_const",
]

_CONJ_PAD = 1e-12


@dataclass(frozen=True)
class ModelSpace:
    """Weighted simply connected space of constant curvature.

    ``dim`` is the effective dimension (real: comparison against bounded
    potentials uses n + 4k), ``H`` the sectional curvature and ``drift``
    the radial measure slope a >= 0, i.e. weight e^(a r) relative to the
    unweighted model.
    """

    dim: float
    H: float
    drift: float = 0.0

    def __post_init__(self) -> None:
        if self.dim < 1.0:
            raise ValueError(f"model dimension must be >= 1, got {self.dim}")
        if self.drift < 0.0:
            raise ValueError(f"drift must be >= 0, got {self.drift}")

    @property
    def conjugate_radius(self) -> float:
        return conjugate_radius(self.H)


def conjugate_radius(H: float) -> float:
    """pi / sqrt(H) for H > 0, +inf otherwise."""
    return math.pi / math.sqrt(H) if H > 0.0 else math.inf


def sn(H: float, r):
    """Generalized sine: solution of sn'' + H sn = 0, sn(0)=0, sn'(0)=1."""
    if isinstance(r, (float, int)):
        r = float(r)
        if r < 0.0:
            raise ValueError("sn requires r >= 0")
        if H > 0.0:
            s = math.sqrt(H)
            return math.sin(s * r) / s
        if H < 0.0:
            s = math.sqrt(-H)
            return math.sinh(s * r) / s
        return r
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("sn requires r >= 0")
    if H > 0.0:
        s = math.sqrt(H)
        out = np.sin(s * r) / s
    elif H < 0.0:
        s = math.sqrt(-H)
        out = np.sinh(s * r) / s
    else:
        out = r
    return out if out.ndim else float(out)


def sn_prime(H: float, r):
    """Derivative of ``sn`` in r."""
    if isinstance(r, (float, int)):
        r = float(r)
        if H > 0.0:
            return math.cos(math.sqrt(H) * r)
        if H < 0.0:
            return math.cosh(math.sqrt(-H) * r)
        return 1.0
    r = np.asarray(r, dtype=float)
    if H > 0.0:
        out = np.cos(math.sqrt(H) * r)
    elif H < 0.0:
        out = np.cosh(math.sqrt(-H) * r)
    else:
        out = np.ones_like(r)
    return out if out.ndim else float(out)


def _check_inside(H: float, r, what: str) -> None:
    if H > 0.0 and np.any(np.asarray(r) >= conjugate_radius(H) - _CONJ_PAD):
        raise ValueError(
            f"{what}: r reaches the conjugate radius pi/sqrt(H)="
            f"{conjugate_radius(H):.12g}"
        )


def mean_curvature_model(d: float, H: float, r):
    """Model mean curvature (d-1) sn'(r) / sn(r), the cot/coth form at
    every r > 0: sn(r) > 0 there, so there is no 0/0, and down to sqrt|H| r
    = 1e-12 the form is within 1e-15 relative of 40-digit arithmetic.  For
    H > 0 the conjugate radius is rejected.  A float comes back as a float.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("mean_curvature_model requires r > 0")
    _check_inside(H, r, "mean_curvature_model")
    out = (d - 1.0) * sn_prime(H, r) / sn(H, r)
    return out if np.ndim(out) else float(out)


def area_model(m: ModelSpace, r):
    """Weighted area of the geodesic r-sphere: area(S^{d-1}) e^{a r} sn^{d-1}."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("area_model requires r >= 0")
    if m.H > 0.0 and np.any(r > conjugate_radius(m.H) + _CONJ_PAD):
        raise ValueError("area_model: r beyond the conjugate radius")
    out = sphere_area(m.dim) * np.exp(m.drift * r) * sn(m.H, r) ** (m.dim - 1.0)
    return out if out.ndim else float(out)


def volume_model(m: ModelSpace, R: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Weighted volume of the geodesic R-ball (quadrature of ``area_model``)."""
    R = float(R)
    if R < 0.0:
        raise ValueError("volume_model requires R >= 0")
    if m.H > 0.0 and R > conjugate_radius(m.H) + _CONJ_PAD:
        raise ValueError("volume_model: R beyond the conjugate radius")
    if R == 0.0:
        return 0.0
    value, _ = quad_adaptive(lambda t: area_model(m, t), 0.0, R, tol)
    return value


def log_psi(m: ModelSpace, r) -> np.ndarray:
    """Log of the model weight psi(r) = e^{a r} (sn(r)/r)^{d-1} = A_m(r) /
    (area(S^{d-1}) r^{d-1}) at an array of radii r > 0."""
    return m.drift * r + (m.dim - 1.0) * np.log(sn(m.H, r) / r)


def jacobi_factor(m: ModelSpace, t, nodes: int = 48) -> np.ndarray:
    """J(t)/psi(t) = V_m(t) / (t A_m(t)) at an array of radii t > 0.

    With psi(x) = e^{a x} (sn(x)/x)^{d-1}, A_m(t) = area(S^{d-1}) t^{d-1}
    psi(t) and V_m(t) = area(S^{d-1}) t^d J(t), J(t) = int_0^1 psi(t v)
    v^{d-1} dv, taken on the cached ``nodes``-point Gauss-Jacobi rule for
    v^{d-1} (any real d >= 1), so the pole power is exact.  psi enters only
    in ratios, in logarithms (``log_psi``), so no factor overflows before
    sinh does.
    """
    v, wv = gauss_jacobi(nodes, m.dim - 1.0)
    rel = np.exp(log_psi(m, np.outer(t, v)) - log_psi(m, t)[:, None])
    return rel @ wv


def ratio_table(m: ModelSpace, R: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t_i on (0, R) and weights W_i with

        int_0^R g(t) A_m(t)/V_m(t) dt ~= sum_i W_i g(t_i)

    for g(0) = 0 and g(t)/t smooth.  A_m/V_m = q(t)/t for the analytic
    q = psi/J (``jacobi_factor``), so the pole sits in g(t)/t, W_i = w_i
    q(t_i)/t_i on ``nodes`` Gauss-Legendre points, and J is taken on 3/4
    as many Gauss-Jacobi points.
    """
    R = float(R)
    if not R > 0.0:
        raise ValueError(f"ratio_table requires R > 0, got {R}")
    _check_inside(m.H, R, "ratio_table")
    x, w = gauss_jacobi(nodes, 0.0)
    t = R * x
    W = w / x / jacobi_factor(m, t, 3 * nodes // 4)
    if not np.all(np.isfinite(W)):
        raise NonFiniteError(f"area/volume table is not finite on (0, {R}]")
    return t, W


def c_const(n: int, k: float) -> float:
    """Sphere-area ratio area(S^{n+4k-1}) / area(S^{n-1}); 1 exactly at k=0."""
    if n < 2:
        raise ValueError(f"c_const requires n >= 2, got {n}")
    if k < 0.0:
        raise ValueError(f"c_const requires k >= 0, got {k}")
    return sphere_area(n + 4.0 * k) / sphere_area(n)
