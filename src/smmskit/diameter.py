"""Myers-type diameter bounds and index-form checks for closed spaces.

Three bounds are evaluated for H > 0: the bounded-potential excess bound
pi/sqrt(H) + (4k sqrt(H) + 2l)/((n-1)H), the gradient bound
pi/sqrt(H) + (2a + 2l)/((n-1)H), and the index-form bound
(2 pi/sqrt(H)) sqrt(1 + 8k/((n-1)pi) + l^2/((n-1)^2 H pi^2)) + 2l/((n-1)H).

For a rotationally symmetric closed space the pole-to-pole distance r_max
realizes the diameter; the excess hypothesis is verified from the pole
(and, for reflection-symmetric profiles, from the antipode by symmetry),
which the report records as the verification scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comparison import Report
from .numkit import Tolerance, quad_adaptive
from .smms import WarpedSMMS, integral_rho, potential_bounds, ricci_radial

__all__ = [
    "DiameterReport",
    "myers_bound_bounded_f",
    "myers_bound_gradient",
    "myers_bound_indexform",
    "actual_diameter",
    "index_form_total",
    "check_myers",
]


# Slack on the diameter when it is compared with each bound.
_SLACK = 1e-9


@dataclass(frozen=True)
class DiameterReport(Report):
    """Diameter bounds next to the actual diameter of a closed space.

    ``reason`` names the bounds the diameter exceeds by more than the slack;
    it is empty on PASS.
    """

    bounds: dict
    actual_diameter: float | None
    hypothesis: dict
    passed: bool
    mode: str = "radial"
    verification_scope: str = "pole"
    chord_caveat: bool = False
    reason: str = ""

    theorem_id = "MYERS"

    @property
    def min_margin(self) -> float | None:
        if self.actual_diameter is None:
            return None
        return min(b - self.actual_diameter for b in self.bounds.values())

    def to_dict(self) -> dict:
        return self._dict(self.hypothesis, {
            "bounds": {k: float(v) for k, v in self.bounds.items()},
            "actual_diameter": None if self.actual_diameter is None
            else float(self.actual_diameter),
            "mode": self.mode,
            "verification_scope": self.verification_scope,
            "chord_caveat": bool(self.chord_caveat),
            "tolerance": _SLACK,
            "reason": self.reason,
        }, unit_keys=("bounds", "actual_diameter"))


def _require_positive_H(H: float) -> None:
    if H <= 0.0:
        raise ValueError(f"Myers bounds require H > 0, got {H}")


def myers_bound_bounded_f(n: int, H: float, k: float, l: float) -> float:
    """pi/sqrt(H) + (4 k sqrt(H) + 2 l) / ((n-1) H)."""
    _require_positive_H(H)
    return math.pi / math.sqrt(H) + (4.0 * k * math.sqrt(H) + 2.0 * l) / ((n - 1) * H)


def myers_bound_gradient(n: int, H: float, a: float, l: float) -> float:
    """pi/sqrt(H) + (2 a + 2 l) / ((n-1) H)."""
    _require_positive_H(H)
    return math.pi / math.sqrt(H) + (2.0 * a + 2.0 * l) / ((n - 1) * H)


def myers_bound_indexform(n: int, H: float, k: float, l: float) -> float:
    """(2 pi/sqrt H) sqrt(1 + 8k/((n-1)pi) + l^2/((n-1)^2 H pi^2)) + 2l/((n-1)H)."""
    _require_positive_H(H)
    inner = 1.0 + 8.0 * k / ((n - 1) * math.pi) \
        + l * l / ((n - 1) ** 2 * H * math.pi ** 2)
    return 2.0 * math.pi / math.sqrt(H) * math.sqrt(inner) + 2.0 * l / ((n - 1) * H)


def _chord_caveat(s: WarpedSMMS) -> bool:
    """True when some sphere-fiber route bound exceeds the pole distance.

    For any pair of points one of the two pole routes has length at most
    r_max, so the flag is conservative; it marks strongly bumped profiles
    for inspection rather than certifying a larger diameter.  Checked at 256
    interior radii.
    """
    rs = np.linspace(s.r_max / 256, s.r_max * (1 - 1.0 / 256), 256)
    w = np.asarray(s.w.eval(rs))
    route = np.minimum(np.minimum(2 * rs, 2 * (s.r_max - rs)), math.pi * w)
    return bool(np.any(route > s.r_max + 1e-9))


def actual_diameter(s: WarpedSMMS) -> float:
    """Pole-to-pole distance of a closed space (realizes the diameter)."""
    if not s.closed:
        raise ValueError("actual_diameter requires a closed space")
    return s.r_max


def index_form_total(s: WarpedSMMS, L: float) -> float:
    """Second-variation index sum along a radial geodesic of length L.

    int_0^L [(n-1) phi'^2 - phi^2 Ric(d_r, d_r)] dt with phi = sin(pi t / L);
    nonnegative whenever the segment is minimizing.
    """
    L = float(L)
    if not 0.0 < L <= s.r_max:
        raise ValueError(f"require 0 < L <= r_max={s.r_max}, got {L}")
    w = math.pi / L

    def integrand(t: np.ndarray) -> np.ndarray:
        phi = np.sin(w * t)
        dphi = w * np.cos(w * t)
        return (s.n - 1.0) * dphi * dphi - phi * phi * ricci_radial(s, t)

    value, _ = quad_adaptive(integrand, 0.0, L,
                             Tolerance(abs_tol=1e-10, rel_tol=1e-10))
    return value


def check_myers(s: WarpedSMMS, H: float, mode: str = "radial") -> DiameterReport:
    """Evaluate all applicable diameter bounds against the actual diameter.

    Hypothesis constants come from the space: k and the gradient bound a
    from ``potential_bounds``, l from the excess integral over the longest
    minimal segment [0, r_max].
    """
    _require_positive_H(H)
    if not s.closed:
        raise ValueError("check_myers requires a closed space")
    pb = potential_bounds(s)
    l = integral_rho(s, H, s.r_max, mode)
    if not math.isfinite(l):
        raise ValueError("excess integral not finite on the grid")
    bounds = {
        "MYERS_F": myers_bound_bounded_f(s.n, H, pb.k, l),
        "MYERS_GRAD": myers_bound_gradient(s.n, H, pb.grad, l),
        "MYERS_INDEX": myers_bound_indexform(s.n, H, pb.k, l),
    }
    actual = actual_diameter(s)
    failed = [f"{name} = {b:.12g}" for name, b in bounds.items()
              if not actual <= b + _SLACK]

    rs = np.linspace(s.r_max / 128, s.r_max * 127 / 128, 127)
    refl = np.max(np.abs(np.asarray(s.w.eval(rs))
                         - np.asarray(s.w.eval(s.r_max - rs))))
    scope = "pole+antipode" if refl <= 1e-9 * max(1.0, s.r_max) else "pole"

    return DiameterReport(
        bounds=bounds,
        actual_diameter=actual,
        hypothesis={"k": pb.k, "a": pb.grad, "l": l, "H": H},
        passed=not failed,
        mode=mode,
        verification_scope=scope,
        chord_caveat=_chord_caveat(s),
        reason=f"actual diameter {actual:.12g} exceeds {', '.join(failed)}"
        if failed else "",
    )
