"""Shared fixtures and space builders for the test suite."""

import math
import sys
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from smmskit.smms import RadialProfile, WarpedSMMS, make_space  # noqa: E402


def perturbed_euclidean(n, eps, omega, amp=0.0, nu=1.0, r_max=3.0):
    """Flat space with warped wiggle w = r (1 + eps sin^2(omega r)) and
    potential f = amp sin(nu r); analytic derivatives throughout."""

    def w_fn(r):
        r = np.asarray(r, dtype=float)
        return r * (1.0 + eps * np.sin(omega * r) ** 2)

    def w_d1(r):
        r = np.asarray(r, dtype=float)
        return (1.0 + eps * np.sin(omega * r) ** 2) \
            + r * eps * omega * np.sin(2.0 * omega * r)

    def w_d2(r):
        r = np.asarray(r, dtype=float)
        return 2.0 * eps * omega * np.sin(2.0 * omega * r) \
            + 2.0 * r * eps * omega * omega * np.cos(2.0 * omega * r)

    w = RadialProfile(w_fn, d1=w_d1, d2=w_d2, r_max=r_max)
    f = RadialProfile(
        lambda r: amp * np.sin(nu * np.asarray(r, dtype=float)),
        d1=lambda r: amp * nu * np.cos(nu * np.asarray(r, dtype=float)),
        d2=lambda r: -amp * nu * nu * np.sin(nu * np.asarray(r, dtype=float)),
        r_max=r_max)
    return WarpedSMMS(n=n, w=w, f=f, r_max=r_max, closed=False)


def plateau_space(n=3, h_plateau=0.75, r_max=4.0):
    """w ramps from r to a constant plateau on [1, r_max] (quintic ramp on
    [0.5, 1]); on the plateau m_f = 0 and the radial curvature vanishes,
    realizing equality in the rough mean-curvature bound for f = 0."""
    r_lo, r_hi = 0.5, 1.0
    span = r_hi - r_lo

    def smooth(u):
        return 10 * u ** 3 - 15 * u ** 4 + 6 * u ** 5

    def smooth_d(u):
        return 30 * u ** 2 - 60 * u ** 3 + 30 * u ** 4

    def smooth_int(u):
        return 2.5 * u ** 4 - 3 * u ** 5 + u ** 6

    def w_fn(r):
        r = np.asarray(r, dtype=float)
        u = np.clip((r - r_lo) / span, 0.0, 1.0)
        ramp = r_lo + span * (u - smooth_int(u))
        return np.where(r <= r_lo, r, np.where(r >= r_hi, h_plateau, ramp))

    def w_d1(r):
        r = np.asarray(r, dtype=float)
        u = np.clip((r - r_lo) / span, 0.0, 1.0)
        return np.where(r <= r_lo, 1.0, np.where(r >= r_hi, 0.0, 1.0 - smooth(u)))

    def w_d2(r):
        r = np.asarray(r, dtype=float)
        u = np.clip((r - r_lo) / span, 0.0, 1.0)
        inside = (r > r_lo) & (r < r_hi)
        return np.where(inside, -smooth_d(u) / span, 0.0)

    w = RadialProfile(w_fn, d1=w_d1, d2=w_d2, r_max=r_max)
    f = RadialProfile(lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                      d1=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                      d2=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                      r_max=r_max)
    return WarpedSMMS(n=n, w=w, f=f, r_max=r_max, closed=False)


def random_perturbed_suite(n_spaces=50, seed=20260808):
    """Randomized perturbed spheres and perturbed flat spaces with computed
    hypothesis constants; returns (space, H) pairs."""
    rng = np.random.default_rng(seed)
    suite = []
    for i in range(n_spaces):
        n = int(rng.integers(2, 6))
        if i % 2 == 0:
            H = float(rng.choice([1.0, 4.0]))
            m_max = 5 if H == 1.0 else 2
            m = int(rng.integers(1, m_max + 1))
            eps = float(rng.uniform(0.01, 0.1))
            s = make_space("perturbed_sphere", n=n, H=H, eps=eps,
                           omega=m * math.sqrt(H))
            suite.append((s, H))
        else:
            eps = float(rng.uniform(0.005, 0.1))
            omega = float(rng.uniform(1.0, 5.0))
            amp = float(rng.uniform(0.0, 0.15))
            nu = float(rng.uniform(0.5, 3.0))
            suite.append((perturbed_euclidean(n, eps, omega, amp, nu), 0.0))
    return suite
