"""Seeded operation lists for the three workloads.

A workload is an endless sequence of rounds.  Every round holds the same
slots in the same order (one slot = one theorem on one family of spaces);
the seed only draws each slot's parameters from a narrow range, so a round
costs about the same whatever the seed, while no two operations of a run
share theorem-level inputs.  That matters because ``doubling_epsilon`` and
``model_eigenvalue`` sit behind process-wide ``lru_cache``s: a repeated
input would be served from the cache, which a CLI user, who pays a fresh
process per call, never sees.  ``rounds`` refuses to emit a repeated
theorem-level key.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from oracles import THEOREM_PARAMS, Space

__all__ = ["Op", "WORKLOADS", "round_count", "rounds"]

WORKLOADS = ("checks", "eigen", "sweep")

# Nominal cost of one round on the reference machine (2-core KVM guest).
_ROUND_SECONDS = {"checks": 1.0, "eigen": 13.0, "sweep": 5.0}


def round_count(workload: str, seconds: float) -> int:
    """Rounds a run of nominally ``seconds`` executes.  The count depends on
    the requested length only, never on how fast the machine happens to be,
    so every run of a workload and length executes the same operations."""
    return max(1, round(seconds / _ROUND_SECONDS[workload]))


@dataclass
class Op:
    """One CLI call and what the oracles need to know about its inputs."""

    slot: str
    command: str                 # "check" or "sweep"
    theorem: str
    space: Space
    H: float
    theorem_args: dict           # theorem-level flags, echoed by reports
    equality: bool = False       # model case where the bound is attained
    expect_gated: bool | None = None
    points: int = 1              # checks the operation performs
    sweep_param: str = ""
    sweep_start: float = 0.0
    sweep_stop: float = 0.0
    custom_path: str = ""
    argv: list = field(default_factory=list)

    def at_point(self, value: float):
        """(space, theorem args incl. H) at one sweep point."""
        args = {"H": self.H, **self.theorem_args}
        if self.sweep_param in THEOREM_PARAMS:
            args[self.sweep_param] = value
            return self.space, args
        return replace(self.space, params={**self.space.params,
                                           self.sweep_param: value}), args


def _space_argv(space: Space, custom_path: str) -> list[str]:
    if space.kind == "poly":
        return ["--custom", custom_path]
    argv = ["--space", space.kind, "--n", str(space.n)]
    for key, val in space.params.items():
        argv += ["--param", f"{key}={val!r}"]
    return argv


def _finish(op: Op, workdir: Path, index: int) -> Op:
    """Write the custom space file, if any, and build the CLI argv."""
    if op.space.kind == "poly":
        path = workdir / f"space{index}.json"
        p = op.space.params
        path.write_text(json.dumps({"n": op.space.n, "custom": {
            "w": {"type": "poly", "coeffs": list(p["w"])},
            "f": {"type": "poly", "coeffs": list(p["f"])},
            "r_max": p["r_max"], "closed": False}}))
        op.custom_path = str(path)
    argv = [op.command] + _space_argv(op.space, op.custom_path)
    argv += ["--theorem", op.theorem, "--H", repr(op.H)]
    for key, val in op.theorem_args.items():
        argv += [f"--{key}", repr(val)]
    if op.command == "sweep":
        argv += ["--range", f"{op.sweep_param}={op.sweep_start!r}:"
                 f"{op.sweep_stop!r}:{op.points}"]
    op.argv = argv
    return op


def _sphere_like(rng, kind: str, omega_mult: float = 3.0, eps=(0.03, 0.06)) -> Space:
    H = rng.uniform(0.9, 1.1)
    params = {"H": H}
    if kind == "perturbed_sphere":
        params.update(eps=rng.uniform(*eps), omega=omega_mult * math.sqrt(H))
    return Space(kind, 3, params)


def _bumped(rng, b3=(0.01, 0.03), f1=0.0, f2=(0.02, 0.05), r_max=(2.6, 3.2)) -> Space:
    """Open space w = r + b3 r^3 (negative radial curvature, so excess for
    H >= 0) with potential f = f1 r + f2 r^2, as a --custom poly file."""
    c1 = -rng.uniform(*f1) if isinstance(f1, tuple) else f1
    return Space("poly", 3, {"w": (0.0, 1.0, 0.0, rng.uniform(*b3)),
                             "f": (0.0, c1, rng.uniform(*f2)),
                             "r_max": rng.uniform(*r_max)})


def _checks_round(rng) -> list[Op]:
    half_pi = lambda H: math.pi / (2.0 * math.sqrt(H))
    quarter_pi = lambda H: math.pi / (4.0 * math.sqrt(H))
    ops = []

    # Excess l > 0: perturbed spheres and bumped custom spaces.
    s = _sphere_like(rng, "perturbed_sphere")
    ops.append(Op("MC_ROUGH/perturbed", "check", "MC_ROUGH", s, s.H,
                  {"r0": rng.uniform(0.2, 0.4) * s.r_max}))
    s = _bumped(rng)
    ops.append(Op("MC_BOUNDED_F_INNER/poly", "check", "MC_BOUNDED_F_INNER", s,
                  rng.uniform(0.5, 1.0), {}))
    s = _sphere_like(rng, "perturbed_sphere")
    ops.append(Op("MC_BOUNDED_F_PI2/perturbed", "check", "MC_BOUNDED_F_PI2", s,
                  s.H, {}))
    s = _bumped(rng, f1=(0.1, 0.3))
    ops.append(Op("MC_DRIFT/poly", "check", "MC_DRIFT", s, rng.uniform(0.3, 0.8), {}))
    s = _bumped(rng)
    ops.append(Op("AREA_A/poly", "check", "AREA_A", s, 0.0,
                  {"r": rng.uniform(0.2, 0.5), "R": rng.uniform(1.5, 2.4)}))
    s = _sphere_like(rng, "perturbed_sphere")
    ops.append(Op("AREA_B/perturbed", "check", "AREA_B", s, s.H,
                  {"r": rng.uniform(0.15, 0.35),
                   "R": rng.uniform(0.8, 0.95) * half_pi(s.H)}))
    s = _sphere_like(rng, "perturbed_sphere")
    ops.append(Op("VOL_A/perturbed", "check", "VOL_A", s, s.H,
                  {"r": rng.uniform(0.15, 0.3),
                   "R": rng.uniform(0.85, 0.95) * quarter_pi(s.H)}))
    s = _bumped(rng)
    H = rng.uniform(0.05, 0.15)
    ops.append(Op("VOL_A/poly", "check", "VOL_A", s, H,
                  {"r": rng.uniform(0.2, 0.5),
                   "R": rng.uniform(1.5, min(2.4, 0.95 * quarter_pi(H)))}))
    s = _bumped(rng, f1=(0.1, 0.3))
    ops.append(Op("VOL_B/poly", "check", "VOL_B", s, rng.uniform(0.05, 0.3),
                  {"r": rng.uniform(0.2, 0.5), "R": rng.uniform(1.5, 2.4)}))
    s = _sphere_like(rng, "perturbed_sphere")
    ops.append(Op("VOL_B_ABS/perturbed", "check", "VOL_B_ABS", s, s.H,
                  {"R": rng.uniform(0.8, 0.95) * half_pi(s.H)}))
    s = _bumped(rng)
    H = rng.uniform(0.2, 0.45)
    ops.append(Op("VOL_R1/poly", "check", "VOL_R1", s, H,
                  {"R": rng.uniform(1.05, min(0.95 * quarter_pi(H), 2.4))}))
    s = _bumped(rng, b3=(0.25, 0.35))
    H = -rng.uniform(0.5, 0.8)
    ops.append(Op("VOL_ABS_NEGH/poly", "check", "VOL_ABS_NEGH", s, H,
                  {"R": rng.uniform(0.7, 0.9) * min(s.r_max, 3.0 / math.sqrt(-H))}))
    s = _sphere_like(rng, "perturbed_sphere")
    ops.append(Op("MYERS/perturbed", "check", "MYERS", s, s.H, {}))

    # Model spaces: no excess; most attain their bound.
    s = _sphere_like(rng, "sphere")
    ops.append(Op("MC_DRIFT/sphere", "check", "MC_DRIFT", s, s.H, {"a": 0.0},
                  equality=True))
    s = Space("hyperbolic", 3, {"H": -rng.uniform(0.8, 1.2)})
    ops.append(Op("MC_BOUNDED_F_INNER/hyperbolic", "check", "MC_BOUNDED_F_INNER",
                  s, s.H, {}, equality=True))
    s = Space("linear_drift", 3, {"a": rng.uniform(0.1, 0.4)})
    ops.append(Op("VOL_B/linear_drift", "check", "VOL_B", s, 0.0,
                  {"r": rng.uniform(0.3, 0.6), "R": rng.uniform(2.0, 4.0)},
                  equality=True))
    s = Space("linear_drift", 3, {"a": rng.uniform(0.1, 0.4)})
    ops.append(Op("AREA_B/linear_drift", "check", "AREA_B", s, 0.0,
                  {"r": rng.uniform(0.3, 0.6), "R": rng.uniform(2.0, 4.0)},
                  equality=True))
    s = Space("euclidean", 3, {"r_max": rng.uniform(5.0, 8.0)})
    ops.append(Op("AREA_A/euclidean", "check", "AREA_A", s, 0.0,
                  {"r": rng.uniform(0.3, 0.6), "R": rng.uniform(2.0, 4.0)},
                  equality=True))
    s = Space("gaussian_soliton", 3, {"c": rng.uniform(0.1, 0.3),
                                      "r_max": rng.uniform(3.0, 5.0)})
    ops.append(Op("AREA_A/gaussian_soliton", "check", "AREA_A", s, 0.0,
                  {"r": rng.uniform(0.3, 0.6), "R": rng.uniform(1.5, 2.5)}))
    s = _sphere_like(rng, "sphere")
    ops.append(Op("MYERS/sphere", "check", "MYERS", s, s.H, {}, equality=True))
    s = Space("poly", 3, {"w": (0.0, 1.0), "f": (0.0, -rng.uniform(0.1, 0.4)),
                          "r_max": rng.uniform(3.0, 4.0)})
    ops.append(Op("VOL_B_ABS/poly_drift", "check", "VOL_B_ABS", s, 0.0,
                  {"R": rng.uniform(1.5, 2.5)}, equality=True))
    return ops


def _eigen_round(rng) -> list[Op]:
    ops = []

    def cheng(slot, space, H, R, gated):
        ops.append(Op(slot, "check", "CHENG", space, H,
                      {"R": R, "delta": rng.uniform(0.3, 0.6)},
                      expect_gated=gated))

    s = _sphere_like(rng, "sphere")
    cheng("CHENG/sphere", s, s.H, rng.uniform(0.95, 1.05), False)
    cheng("CHENG/euclidean2", Space("euclidean", 2, {}), 0.0,
          rng.uniform(1.05, 1.15), False)
    s = Space("hyperbolic", 3, {"H": -rng.uniform(0.6, 0.8)})
    cheng("CHENG/hyperbolic", s, s.H, rng.uniform(1.25, 1.35), False)
    s = _sphere_like(rng, "perturbed_sphere", omega_mult=2.0, eps=(5e-4, 1.5e-3))
    cheng("CHENG/perturbed_small", s, s.H, rng.uniform(1.0, 1.1), False)
    s = _sphere_like(rng, "perturbed_sphere", eps=(0.02, 0.04))
    cheng("CHENG/perturbed_gated", s, s.H, rng.uniform(0.9, 1.0), True)
    s = _bumped(rng, b3=(1.5e-3, 2.5e-3), f2=(0.009, 0.011), r_max=(2.9, 3.1))
    cheng("CHENG/poly_small", s, 0.0, rng.uniform(1.45, 1.55), False)
    return ops


def _sweep_round(rng) -> list[Op]:
    ops = []
    half_pi = lambda H: math.pi / (2.0 * math.sqrt(H))
    for n in (2, 3):
        s = replace(_sphere_like(rng, "perturbed_sphere"), n=n)
        ops.append(Op(f"DOUBLING/eps/drift/n{n}", "sweep", "DOUBLING", s, s.H,
                      {"alpha": rng.uniform(3.5, 4.5), "R": rng.uniform(1.1, 1.25),
                       "a": rng.uniform(0.1, 0.2)},
                      points=12, sweep_param="eps", sweep_start=5e-4,
                      sweep_stop=rng.uniform(0.015, 0.025)))
    for n in (2, 3):
        s = replace(_sphere_like(rng, "perturbed_sphere"), n=n)
        ops.append(Op(f"VOL_B/eps/n{n}", "sweep", "VOL_B", s, s.H,
                      {"r": rng.uniform(0.2, 0.4),
                       "R": rng.uniform(0.8, 0.95) * half_pi(s.H)},
                      points=12, sweep_param="eps", sweep_start=0.0,
                      sweep_stop=rng.uniform(0.04, 0.06)))
    s = _sphere_like(rng, "perturbed_sphere")
    lo = rng.uniform(0.6, 0.7) * half_pi(s.H)
    ops.append(Op("VOL_B/R", "sweep", "VOL_B", s, s.H, {"r": rng.uniform(0.2, 0.4)},
                  points=12, sweep_param="R", sweep_start=lo,
                  sweep_stop=rng.uniform(0.85, 0.95) * half_pi(s.H)))
    s = _sphere_like(rng, "perturbed_sphere")
    ops.append(Op("DOUBLING/eps/bounded_f", "sweep", "DOUBLING", s, s.H,
                  {"alpha": rng.uniform(3.5, 4.5),
                   "R": rng.uniform(0.85, 0.92) * math.pi / (4.0 * math.sqrt(s.H)),
                   "k": rng.uniform(0.08, 0.14)},
                  points=10, sweep_param="eps", sweep_start=5e-4,
                  sweep_stop=rng.uniform(0.01, 0.02)))
    return ops


_ROUND = {"checks": _checks_round, "eigen": _eigen_round, "sweep": _sweep_round}


def _cache_keys(op: Op):
    """Theorem-level inputs that key the program's caches, per point."""
    if op.command == "check":
        yield (op.slot, op.H, tuple(sorted(op.theorem_args.items())))
        return
    for i in range(op.points):
        value = op.sweep_start + (op.sweep_stop - op.sweep_start) * i / max(op.points - 1, 1)
        _, args = op.at_point(value)
        yield (op.theorem, args["H"], args.get("R"), args.get("alpha"),
               args.get("k"), args.get("a"))


def rounds(workload: str, seed: int, workdir: Path):
    """Yield the workload's rounds (lists of ready-to-run ``Op``s) forever.

    Custom space files are written into ``workdir``.
    """
    if workload not in _ROUND:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    make = _ROUND[workload]
    seen: set = set()
    index = 0
    while True:
        ops = make(rng)
        for op in ops:
            keys = set(_cache_keys(op))
            if any(k in seen for k in keys):
                raise RuntimeError(f"repeated theorem-level input in slot {op.slot}")
            seen.update(keys)
            _finish(op, workdir, index)
            index += 1
        yield ops
