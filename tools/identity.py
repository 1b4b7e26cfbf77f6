"""CLI identity harness: run a fixed list of `smmskit` invocations on a base
revision and on the working tree, and report every difference.

    python3 tools/identity.py                # base: HEAD
    python3 tools/identity.py --base HEAD~1

The base revision's `src/` is exported with `git archive` into a temporary
directory, so the repository's own `.git` is left as it is.  Each run gets a
fresh working directory; the harness compares exit code, stdout, stderr and
every file the run writes there.  `wall_time_ms` is the only value masked.

Numbers are compared, not masked: every number that differs is printed with
its absolute and relative size, keyed by JSON path, CSV column or line.  Any
other difference (exit code, verdict, message text, structure) is printed as
text.  The exit status is 0 when every run is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_FLAT = ["--space", "euclidean", "--n", "3"]
_SPHERE = ["--space", "sphere", "--n", "3", "--param", "H=1"]
_PSPHERE = ["--space", "perturbed_sphere", "--n", "3", "--param", "H=1"]
_HYP = ["--space", "hyperbolic", "--n", "3", "--param", "H=-1"]
_SOLITON = ["--space", "gaussian_soliton", "--n", "3"]
_DRIFT = ["--space", "linear_drift", "--n", "3"]
_CUSTOM = ["--custom", "space.json"]
CUSTOM_SPEC = {"n": 3,
               "custom": {"w": {"type": "poly", "coeffs": [0.0, 1.0]},
                          "f": {"type": "poly", "coeffs": [0.0, 0.0, 0.05]},
                          "r_max": 3.0, "closed": False}}
# Spec files written into every run directory: the custom space, the same
# space with a spline (`table`) warping w = r + 0.02 r^3, the benchmark's
# `poly_small` family with a cubic warping w = r + 0.002 r^3 (`bumped`),
# that warping with a `fourier` potential of two harmonics (`fourier`),
# two copies with a non-finite number (JSON allows NaN and Infinity), and
# three with a top level other than n and custom: a catalog name and its
# parameters, parameters alone, and a dimension that is not an integer.
SPEC_FILES = {
    "space.json": CUSTOM_SPEC,
    "table.json": {**CUSTOM_SPEC, "custom": {**CUSTOM_SPEC["custom"], "w": {
        "type": "table", "nodes": [[i / 10, i / 10 + 0.02 * (i / 10) ** 3]
                                   for i in range(31)]}}},
    "bumped.json": {**CUSTOM_SPEC, "custom": {
        "w": {"type": "poly", "coeffs": [0.0, 1.0, 0.0, 0.002]},
        "f": {"type": "poly", "coeffs": [0.0, 0.0, 0.01]}, "r_max": 3.0, "closed": False}},
    "fourier.json": {**CUSTOM_SPEC, "custom": {
        "w": {"type": "poly", "coeffs": [0.0, 1.0, 0.0, 0.002]},
        "f": {"type": "fourier", "coeffs": [0.05, 0.02, -0.01, 0.005, 0.01]},
        "r_max": 3.0, "closed": False}},
    "nan.json": {**CUSTOM_SPEC, "custom": {**CUSTOM_SPEC["custom"],
                                           "f": {"type": "poly",
                                                 "coeffs": [0.0, 0.0, math.nan]}}},
    "inf.json": {**CUSTOM_SPEC, "custom": {**CUSTOM_SPEC["custom"], "r_max": math.inf}},
    "named.json": {"name": "sphere", "params": {"H": 4}, **CUSTOM_SPEC},
    "params.json": {**CUSTOM_SPEC, "params": {"H": 4}},
    "n37.json": {**CUSTOM_SPEC, "n": 3.7},
}

# Per theorem id: flags for a cheap valid run.
_IDS = {
    "MC_ROUGH": _FLAT + ["--grid", "32"],
    "MC_BOUNDED_F_INNER": _FLAT + ["--grid", "32"],
    "MC_BOUNDED_F_PI2": _SPHERE + ["--H", "1", "--grid", "32"],
    "MC_DRIFT": _FLAT + ["--grid", "32"],
    "AREA_A": _FLAT + ["--H", "1", "--r", "0.25", "--R", "0.5", "--grid", "32"],
    "AREA_B": _FLAT + ["--H", "1", "--r", "0.25", "--R", "0.5", "--grid", "32"],
    "VOL_A": _FLAT + ["--H", "1", "--r", "0.25", "--R", "0.5", "--grid", "32"],
    "VOL_B": _FLAT + ["--H", "1", "--r", "0.25", "--R", "0.5", "--grid", "32"],
    "VOL_B_ABS": _FLAT + ["--R", "0.5", "--grid", "32"],
    "VOL_ABS_NEGH": _HYP + ["--H", "-1", "--grid", "24"],
    "DOUBLING": _FLAT + ["--H", "1", "--alpha", "2", "--R", "0.7", "--grid", "16"],
    "VOL_R1": _FLAT + ["--R", "1.5", "--grid", "32"],
    "MYERS": _SPHERE,
    "CHENG": _FLAT + ["--R", "1", "--delta", "0.1"],
    "EIGEN": _FLAT + ["--R", "1"],
}


def cases() -> list[tuple[str, list[str]]]:
    """(name, argv) for every run; argv may name the files in `SPEC_FILES`."""
    out = [(f"id/{tid}", ["check", *argv, "--theorem", tid]) for tid, argv in _IDS.items()]
    spaces = {"psphere": _PSPHERE, "hyp": _HYP, "soliton": _SOLITON, "drift": _DRIFT}
    for label, space in spaces.items():
        H = "1" if label == "psphere" else "-1" if label == "hyp" else "0"
        R = "1.2" if label == "psphere" else "1.5"
        for tid, extra in (("MC_DRIFT", []), ("MC_BOUNDED_F_INNER", []),
                           ("AREA_B", ["--r", "0.3", "--R", R]),
                           ("VOL_B", ["--r", "0.3", "--R", R]),
                           ("VOL_B_ABS", ["--R", R]),
                           ("DOUBLING", ["--alpha", "4", "--R", R]),
                           ("DOUBLING", ["--alpha", "3", "--R", "0.7", "--k", "0.3"]),
                           ("CHENG", ["--R", R, "--delta", "0.4"]),
                           ("EIGEN", ["--R", R])):
            name = f"{label}/{tid}" + ("/k" if "--k" in extra else "")
            out.append((name, ["check", *space, "--H", H, "--theorem", tid, *extra]))
    out += [
        ("hyp/VOL_ABS_NEGH", ["check", *_HYP, "--H", "-1", "--theorem", "VOL_ABS_NEGH"]),
        ("psphere/MYERS", ["check", *_PSPHERE, "--H", "1", "--theorem", "MYERS"]),
        ("psphere/MC_ROUGH", ["check", *_PSPHERE, "--H", "1", "--theorem", "MC_ROUGH"]),
        ("psphere/MC_DRIFT/full", ["check", *_PSPHERE, "--H", "1", "--theorem", "MC_DRIFT",
                                   "--mode", "full"]),
        ("psphere/VOL_B/full", ["check", *_PSPHERE, "--H", "1", "--theorem", "VOL_B",
                                "--r", "0.3", "--R", "1.2", "--mode", "full"]),
        ("psphere/VOL_B_ABS/full", ["check", *_PSPHERE, "--H", "1", "--theorem", "VOL_B_ABS",
                                    "--R", "1.2", "--mode", "full"]),
        ("psphere/VOL_A", ["check", *_PSPHERE, "--H", "1", "--theorem", "VOL_A",
                           "--r", "0.2", "--R", "0.7"]),
        ("psphere/DOUBLING/pi2", ["check", *_PSPHERE, "--H", "1", "--theorem", "DOUBLING",
                                  "--alpha", "1.5", "--R", "1.5"]),
        ("hyp/DOUBLING/H-4", ["check", *_HYP, "--H", "-4", "--theorem", "DOUBLING",
                              "--alpha", "10", "--R", "2"]),
        ("flat/DOUBLING/alpha1.01", ["check", *_FLAT, "--theorem", "DOUBLING",
                                     "--alpha", "1.01", "--R", "1"]),
        ("flat/DOUBLING/given-eps", ["check", *_FLAT, "--theorem", "DOUBLING",
                                     "--alpha", "2", "--R", "1", "--epsilon", "0.1"]),
        # The threshold lies beyond the 1e9 cap of its bracket search.
        ("soliton/DOUBLING/k25", ["check", *_SOLITON, "--theorem", "DOUBLING", "--alpha",
                                  "4", "--R", "1.5", "--k", "25", "--grid", "16"]),
        # The threshold, 5.2e8, lies between the last growth step and the cap.
        ("flat/DOUBLING/k10.75", ["check", *_FLAT, "--theorem", "DOUBLING", "--alpha", "4",
                                  "--R", "1.5", "--k", "10.75", "--grid", "16"]),
        # Margins within ten tolerances, so a refinement pass integrates its
        # own radii (n_grid 51: 12 of the 14 cells); the other DOUBLING runs
        # report the first pass, which reads its volumes from the inner grid.
        ("psphere/DOUBLING/refined", ["check", *_PSPHERE, "--param", "eps=1e-8", "--H", "1",
                                      "--theorem", "DOUBLING", "--alpha", "1.000005",
                                      "--R", "1.2", "--grid", "16"]),
        ("flat/CHENG/tight", ["check", *_FLAT, "--theorem", "CHENG", "--R", "2",
                              "--delta", "0.05", "--tol-abs", "1e-10", "--tol-rel", "1e-10"]),
        ("custom/MC_DRIFT", ["check", *_CUSTOM, "--theorem", "MC_DRIFT", "--grid", "32"]),
        ("custom/VOL_B", ["check", *_CUSTOM, "--theorem", "VOL_B", "--r", "0.3",
                          "--R", "1.5", "--grid", "32"]),
        ("custom/DOUBLING", ["check", *_CUSTOM, "--theorem", "DOUBLING", "--alpha", "4",
                             "--R", "1.5", "--grid", "16"]),
        ("custom/CHENG", ["check", *_CUSTOM, "--theorem", "CHENG", "--R", "1.5",
                          "--delta", "0.5"]),
        ("table/EIGEN", ["check", "--custom", "table.json", "--theorem", "EIGEN",
                         "--R", "1.5"]),
        ("bumped/CHENG", ["check", "--custom", "bumped.json", "--theorem", "CHENG",
                          "--R", "1.5", "--delta", "0.4"]),
        ("bumped/EIGEN/tight", ["check", "--custom", "bumped.json", "--theorem", "EIGEN",
                                "--R", "1.5", "--tol-abs", "1e-10", "--tol-rel", "1e-10"]),
        ("flat/EIGEN/R1e-9", ["check", *_FLAT, "--theorem", "EIGEN", "--R", "1e-9"]),
        ("drift/EIGEN/a20", ["check", *_DRIFT, "--param", "a=20", "--theorem", "EIGEN",
                             "--R", "4"]),
        # A steep weight on which the Ritz seed misses, a tight tolerance on
        # a curved space, and a disk (n = 2, whose pole series is the shortest).
        ("hyp9/EIGEN/H-25", ["check", "--space", "hyperbolic", "--n", "9", "--param", "H=-25",
                             "--param", "r_max=5", "--theorem", "EIGEN", "--R", "4"]),
        ("psphere/EIGEN/tight", ["check", *_PSPHERE, "--theorem", "EIGEN", "--R", "1.2",
                                 "--tol-abs", "1e-10", "--tol-rel", "1e-10"]),
        ("flat2/EIGEN", ["check", "--space", "euclidean", "--n", "2", "--theorem", "EIGEN",
                         "--R", "1"]),
        ("out/json", ["check", *_FLAT, "--theorem", "VOL_B", "--H", "0", "--r", "0.3",
                      "--R", "1", "--grid", "24", "--out", "report.json"]),
        ("out/csv", ["check", *_PSPHERE, "--theorem", "DOUBLING", "--H", "1", "--alpha", "4",
                     "--R", "1.2", "--grid", "16", "--format", "csv", "--out", "grid.csv"]),
        ("out/csv-stdout", ["check", *_FLAT, "--theorem", "EIGEN", "--R", "1",
                            "--format", "csv"]),
        ("out/csv-none", ["check", *_SPHERE, "--theorem", "MYERS", "--format", "csv",
                          "--out", "grid.csv"]),
        ("list", ["list-spaces"]),
        ("list/json", ["list-spaces", "--json"]),
        ("sweep/DOUBLING/eps", ["sweep", *_PSPHERE, "--param", "omega=1", "--theorem",
                                "DOUBLING", "--alpha", "4", "--R", "1.5", "--grid", "16",
                                "--range", "eps=0.001:0.02:4"]),
        ("sweep/DOUBLING/R", ["sweep", *_FLAT, "--theorem", "DOUBLING", "--alpha", "2",
                              "--grid", "16", "--range", "R=0.5:1.5:4", "--out", "sweep.csv"]),
        ("sweep/DOUBLING/alpha", ["sweep", *_HYP, "--H", "-1", "--theorem", "DOUBLING",
                                  "--R", "1.2", "--grid", "16", "--k", "0.1",
                                  "--range", "alpha=1.5:6:4"]),
        ("sweep/VOL_B/H", ["sweep", *_FLAT, "--theorem", "VOL_B", "--r", "0.3", "--R", "0.9",
                           "--grid", "24", "--range", "H=-1:1:3"]),
        ("sweep/VOL_B/R", ["sweep", *_PSPHERE, "--H", "1", "--theorem", "VOL_B", "--r", "0.3",
                           "--grid", "64", "--range", "R=0.6:1.5:4"]),
        # An excess sweep changes only cl, so its points share the model
        # volume's node tables; the eps = 0 point (l = 0) is a model identity
        # and does not refine.
        ("sweep/VOL_B/eps", ["sweep", *_PSPHERE, "--H", "1", "--theorem", "VOL_B", "--r", "0.3",
                             "--R", "1.2", "--grid", "32", "--range", "eps=0:0.05:4"]),
        ("sweep/CHENG/delta", ["sweep", *_FLAT, "--theorem", "CHENG", "--R", "1",
                               "--range", "delta=0.1:0.5:3"]),
        ("sweep/MC_DRIFT/a", ["sweep", *_DRIFT, "--theorem", "MC_DRIFT", "--grid", "32",
                              "--range", "a=0:1:3"]),
        # Excess-integral traps: g = (n-1)H - Ric_f at rounding level (eps = 0,
        # and hyperbolic with its radial and tangential curvature equal), the
        # closed far pole in full mode (n = 3, and n = 4, where the
        # tangential term (n-2)(1-w'^2)/w^2 has n-2 = 2), and the divergent
        # pole of a drift f = -a r in full mode (l = +inf).
        ("hyp/VOL_B/full", ["check", *_HYP, "--H", "-1", "--theorem", "VOL_B", "--r", "0.3",
                            "--R", "1.5", "--mode", "full"]),
        ("psphere/VOL_B/eps0", ["check", *_PSPHERE, "--param", "eps=0", "--H", "1",
                                "--theorem", "VOL_B", "--r", "0.3", "--R", "1.2"]),
        ("psphere/CHENG/full", ["check", *_PSPHERE, "--H", "1", "--theorem", "CHENG",
                                "--R", "1.2", "--delta", "0.4", "--mode", "full"]),
        ("psphere/MYERS/full", ["check", *_PSPHERE, "--H", "1", "--theorem", "MYERS",
                                "--mode", "full"]),
        ("psphere4/MYERS/full", ["check", "--space", "perturbed_sphere", "--n", "4",
                                 "--param", "H=1", "--param", "eps=0.03", "--H", "1",
                                 "--theorem", "MYERS", "--mode", "full"]),
        ("drift/VOL_B/full", ["check", *_DRIFT, "--param", "a=0.5", "--theorem", "VOL_B",
                              "--H", "0.2", "--r", "0.3", "--R", "1.5", "--mode", "full"]),
        ("drift/MC_DRIFT/full", ["check", *_DRIFT, "--param", "a=0.5", "--theorem",
                                 "MC_DRIFT", "--H", "0.2", "--mode", "full"]),
        # Quadrature-heavy paths: rho on the MC grids (the pi/2 range, full
        # mode, and a cubic warping whose tangential curvature is rounding
        # noise near the pole) and the hyperbolic absolute volume bound.
        ("psphere/MC_BOUNDED_F_PI2", ["check", *_PSPHERE, "--H", "1", "--theorem",
                                      "MC_BOUNDED_F_PI2"]),
        ("psphere/MC_ROUGH/full", ["check", *_PSPHERE, "--H", "1", "--theorem", "MC_ROUGH",
                                   "--mode", "full"]),
        ("bumped/MC_DRIFT/full", ["check", "--custom", "bumped.json", "--theorem", "MC_DRIFT",
                                  "--mode", "full"]),
        # A fourier potential: its jet on the excess, drift bound, volume
        # and eigenvalue paths.
        ("fourier/MC_DRIFT/full", ["check", "--custom", "fourier.json", "--theorem",
                                   "MC_DRIFT", "--H", "0.1", "--mode", "full"]),
        ("fourier/VOL_B", ["check", "--custom", "fourier.json", "--theorem", "VOL_B",
                           "--H", "0.1", "--r", "0.3", "--R", "1.5", "--grid", "32"]),
        ("fourier/EIGEN", ["check", "--custom", "fourier.json", "--theorem", "EIGEN",
                           "--R", "1.5"]),
        ("hyp4/VOL_ABS_NEGH", ["check", "--space", "hyperbolic", "--n", "4", "--param", "H=-2",
                               "--H", "-2", "--theorem", "VOL_ABS_NEGH", "--grid", "24"]),
        # The benchmark's eigen form: a slightly perturbed sphere at the CLI
        # tolerance, where the seeded solve gives the eigenfunction.
        ("psphere/CHENG/small", ["check", *_PSPHERE, "--param", "eps=0.001", "--param",
                                 "omega=2", "--H", "1", "--theorem", "CHENG", "--R", "1.05",
                                 "--delta", "0.45"]),
        # The benchmark's form: an explicit outer radius and grid.
        ("bumped/VOL_ABS_NEGH/R", ["check", "--custom", "bumped.json", "--H", "-0.6",
                                   "--theorem", "VOL_ABS_NEGH", "--R", "2.2", "--grid", "48"]),
        # The E(r) solve of the volume comparisons: a small excess (small cl)
        # on a slightly perturbed sphere, and the benchmark's VOL_R1 form.
        ("psphere/VOL_B/eps1e-3", ["check", *_PSPHERE, "--param", "eps=0.001", "--H", "1",
                                   "--theorem", "VOL_B", "--r", "0.3", "--R", "1.2"]),
        ("bumped/VOL_R1", ["check", "--custom", "bumped.json", "--H", "0.25",
                           "--theorem", "VOL_R1", "--R", "1.45"]),
        # E(r) at a large non-integer model dimension (n + 4k = 12.2) from
        # near the pole, where V at the rule's nodes is the Jacobi form, and
        # on a local refinement (64 -> 67 radii, the first cell), which sums
        # its own radii.
        ("bumped/VOL_A/k2.3", ["check", "--custom", "bumped.json", "--H", "0.25",
                               "--theorem", "VOL_A", "--k", "2.3", "--r", "0.02",
                               "--R", "1.2"]),
        ("psphere4/VOL_B_ABS/refined", ["check", "--space", "perturbed_sphere", "--n", "4",
                                        "--param", "H=1", "--param", "eps=0.03", "--H", "1",
                                        "--theorem", "VOL_B_ABS", "--R", "1.2",
                                        "--grid", "64"]),
        # The refinement rule at the default grid: an anchor (MC_ROUGH's r0)
        # and a near-pole VOL_B_ABS margin on perturbed spheres, in the
        # benchmark's forms, and two model identities, which refine nothing.
        ("psphere/MC_ROUGH/r0", ["check", *_PSPHERE, "--H", "1", "--theorem", "MC_ROUGH",
                                 "--r0", "0.9"]),
        ("psphere/VOL_B_ABS/R1.4", ["check", *_PSPHERE, "--param", "eps=0.05", "--H", "1",
                                    "--theorem", "VOL_B_ABS", "--R", "1.4"]),
        ("sphere/MC_DRIFT/a0", ["check", *_SPHERE, "--H", "1", "--theorem", "MC_DRIFT",
                                "--a", "0"]),
        ("drift/VOL_B/a0.3", ["check", *_DRIFT, "--param", "a=0.3", "--H", "0", "--theorem",
                              "VOL_B", "--r", "0.4", "--R", "3"]),
        # Coarse grids, on which the model-volume pass splits each interval
        # into panels before its fixed rules, and a k-mode doubling at model
        # dimension 46 on hyperbolic space, whose V_model is split too.
        ("psphere/VOL_B/grid3", ["check", *_PSPHERE, "--H", "1", "--theorem", "VOL_B",
                                 "--r", "0.3", "--R", "1.2", "--grid", "3"]),
        ("drift/VOL_B_ABS/grid2", ["check", *_DRIFT, "--param", "a=0.5", "--H", "0.2",
                                   "--theorem", "VOL_B_ABS", "--R", "1.5", "--grid", "2"]),
        ("hyp/DOUBLING/k10.75/grid4", ["check", *_HYP, "--H", "-1", "--theorem", "DOUBLING",
                                       "--alpha", "4", "--R", "1.5", "--k", "10.75",
                                       "--grid", "4"]),
        # Space parameter names: one the space does not take, on a check and
        # as a bare sweep range, the dimension given as a parameter, and a
        # linear_drift range over its base's r_max.
        ("param/check-unknown", ["check", *_SPHERE, "--param", "Hx=7", "--param", "r_max=99",
                                 "--theorem", "MC_DRIFT", "--a", "0"]),
        ("param/sweep-unknown", ["sweep", "--space", "sphere", "--n", "3", "--theorem",
                                 "MC_DRIFT", "--a", "0", "--range", "Hx=1:2:2"]),
        ("param/n", ["check", "--space", "sphere", "--n", "3", "--param", "n=4",
                     "--theorem", "MC_DRIFT", "--a", "0"]),
        ("param/drift-base-range", ["sweep", *_DRIFT, "--theorem", "MC_DRIFT",
                                    "--range", "param.r_max=4:5:2"]),
    ]
    bad = [
        ["check", *_FLAT, "--theorem", "BROUWER"],
        ["check", *_FLAT, "--param", "Hone", "--theorem", "MC_DRIFT"],
        ["check", *_FLAT, "--theorem", "VOL_B", "--H", "0"],
        ["check", *_FLAT, "--theorem", "DOUBLING", "--alpha", "nan", "--R", "1"],
        ["check", *_FLAT, "--theorem", "DOUBLING", "--alpha", "inf", "--R", "1"],
        ["check", *_FLAT, "--theorem", "DOUBLING", "--alpha", "1", "--R", "1"],
        ["check", *_FLAT, "--theorem", "CHENG", "--delta", "nan", "--R", "1"],
        ["check", "--space", "sphere", "--n", "3", "--param", "H=inf", "--theorem", "MC_DRIFT"],
        ["check", *_FLAT, "--theorem", "VOL_A", "--H", "1", "--r", "0.2", "--R", "2"],
        ["check", *_FLAT, "--theorem", "MC_DRIFT", "--tol-abs", "0.1"],
        ["check", *_CUSTOM, "--param", "H=1", "--theorem", "MC_DRIFT"],
        ["sweep", *_FLAT, "--theorem", "DOUBLING", "--R", "1", "--range", "alpha=2:nan:3"],
        ["sweep", *_FLAT, "--theorem", "MC_DRIFT", "--range", "a=0:1"],
        ["check", *_FLAT, "--theorem", "MC_DRIFT", "--grid", "0"],
        ["check", *_FLAT, "--theorem", "MC_DRIFT", "--grid", "-5"],
        ["check", *_HYP, "--theorem", "VOL_ABS_NEGH", "--H", "-1", "--R", "1", "--grid", "0"],
        ["check", *_FLAT, "--theorem", "VOL_B", "--r", "0.3", "--R", "1", "--grid", "1"],
        ["sweep", *_FLAT, "--theorem", "MC_DRIFT", "--grid", "0", "--range", "H=0:1:2"],
        ["check", "--custom", "nan.json", "--theorem", "MC_DRIFT", "--grid", "32"],
        ["check", "--custom", "inf.json", "--theorem", "MC_DRIFT", "--grid", "32"],
        ["check", *_FLAT, "--theorem", "AREA_A", "--r", "0.1", "--R", "0.5", "--k", "50",
         "--grid", "16"],
        ["check", *_FLAT, "--theorem", "DOUBLING", "--alpha", "2", "--R", "0.5", "--k", "100"],
        [],
        ["sweep", *_FLAT, "--theorem", "AREA_A", "--r", "0.1", "--R", "0.5", "--grid", "16",
         "--range", "k=1:50:3"],
    ]
    out += [(f"bad/{i}", argv) for i, argv in enumerate(bad)]
    # The radius rule's diagnostics: an outer radius R <= 0 on every theorem
    # that takes --R, an inner radius beyond it, r0 outside its range, and
    # the pi/2 range on a space that ends before it starts.
    for tid in ("AREA_A", "AREA_B", "VOL_A", "VOL_B", "VOL_B_ABS", "VOL_ABS_NEGH",
                "DOUBLING", "VOL_R1", "CHENG", "EIGEN"):
        for R in ("0", "-1"):
            out.append((f"radius/{tid}/R{R}", ["check", *_IDS[tid], "--theorem", tid,
                                               "--R", R]))
    for tid in ("AREA_A", "VOL_B"):
        out.append((f"radius/{tid}/r>R", ["check", *_IDS[tid], "--theorem", tid,
                                          "--r", "0.6"]))
    for tid in ("VOL_A", "DOUBLING"):
        out.append((f"radius/{tid}/R>r_max", ["check", *_IDS[tid], "--theorem", tid,
                                              "--H", "0", "--R", "11"]))
    for r0 in ("0", "-1", "10", "20"):
        out.append((f"radius/MC_ROUGH/r0={r0}", ["check", *_FLAT, "--theorem", "MC_ROUGH",
                                                 "--r0", r0, "--grid", "32"]))
    out.append(("radius/MC_BOUNDED_F_PI2/short", [
        "check", *_FLAT, "--param", "r_max=0.5", "--H", "1", "--theorem",
        "MC_BOUNDED_F_PI2", "--grid", "32"]))
    # Space specs: ranges over a linear_drift base's parameters, an unknown
    # base next to a base parameter, and the custom files' top level.
    drift_sphere = [*_DRIFT, "--param", "base=sphere", "--param", "H=1", "--theorem",
                    "MC_DRIFT", "--grid", "16"]
    out += [
        ("spec/drift-sphere-range-H", ["sweep", *drift_sphere, "--range", "param.H=0.5:1:2"]),
        ("spec/drift-sphere-range-r_max", ["sweep", *drift_sphere,
                                           "--range", "param.r_max=3:4:2"]),
        ("spec/drift-unknown-base", ["check", *_DRIFT, "--param", "base=nosuch", "--param",
                                     "H=1", "--theorem", "MC_DRIFT"]),
        ("spec/drift-range-base", ["sweep", *_DRIFT, "--theorem", "MC_DRIFT",
                                   "--range", "param.base=0.5:1:2"]),
        ("spec/unknown-param-with-range", ["sweep", *_SPHERE, "--param", "Hx=1", "--theorem",
                                           "MC_DRIFT", "--range", "param.H=0.5:1:2"]),
        ("spec/unknown-param-with-flag-range", ["sweep", *_SPHERE, "--param", "Hx=1",
                                                "--theorem", "MC_DRIFT", "--grid", "16",
                                                "--range", "a=0:1:2"]),
        ("spec/custom-named", ["check", "--custom", "named.json", "--theorem", "MYERS"]),
        ("spec/custom-params", ["check", "--custom", "params.json", "--theorem", "MC_DRIFT",
                                "--grid", "16"]),
        ("spec/custom-n3.7", ["check", "--custom", "n37.json", "--theorem", "MC_DRIFT",
                              "--grid", "16"]),
    ]
    return out


def run_case(src: Path, argv: list[str], workdir: Path) -> dict:
    workdir.mkdir(parents=True)
    for name, spec in SPEC_FILES.items():
        (workdir / name).write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, "-m", "smmskit", *argv], cwd=workdir,
                          capture_output=True, text=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": str(src)})
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())
             if p.name not in SPEC_FILES}
    return {"exit": str(proc.returncode), "stdout": proc.stdout,
            "stderr": proc.stderr, **{f"file:{k}": v for k, v in files.items()}}


# -- comparison ---------------------------------------------------------------

_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?![\w.])")


def _number_diff(key: str, a: float, b: float, numeric: list) -> None:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return
    diff = abs(a - b)
    scale = max(abs(a), abs(b))
    numeric.append((key, a, b, diff, diff / scale if scale else math.inf))


def _json_diff(key: str, a, b, numeric: list, other: list) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k == "wall_time_ms":
                continue
            if k not in a or k not in b:
                other.append(f"{key}.{k}: only in {'base' if k in a else 'work'}")
            else:
                _json_diff(f"{key}.{k}", a[k], b[k], numeric, other)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _json_diff(f"{key}[{i}]", x, y, numeric, other)
    elif (isinstance(a, (int, float)) and isinstance(b, (int, float))
          and not isinstance(a, bool) and not isinstance(b, bool)):
        _number_diff(key, float(a), float(b), numeric)
    elif a != b:
        other.append(f"{key}: {a!r} -> {b!r}")


def _text_diff(key: str, a: str, b: str, numeric: list, other: list) -> None:
    """Line by line; CSV cells by column name, other lines by number index."""
    la, lb = a.splitlines(), b.splitlines()
    if len(la) != len(lb):
        other.append(f"{key}: {len(la)} lines -> {len(lb)} lines")
        return
    header = la[0].split(",") if la and "," in la[0] and " " not in la[0] else None
    for i, (x, y) in enumerate(zip(la, lb)):
        if x == y:
            continue
        if header and len(x.split(",")) == len(y.split(",")) == len(header):
            pairs = [(f"{key} line {i + 1} {col}", p, q)
                     for col, p, q in zip(header, x.split(","), y.split(","))]
        elif _NUMBER.sub("#", x) == _NUMBER.sub("#", y):
            pairs = [(f"{key} line {i + 1} #{j}", p, q) for j, (p, q)
                     in enumerate(zip(_NUMBER.findall(x), _NUMBER.findall(y)))]
        else:
            other.append(f"{key} line {i + 1}: {x!r} -> {y!r}")
            continue
        for cell, p, q in pairs:
            if _NUMBER.fullmatch(p) and _NUMBER.fullmatch(q):
                _number_diff(cell, float(p), float(q), numeric)
            elif p != q:
                other.append(f"{cell}: {p!r} -> {q!r}")


def compare(base: dict, work: dict) -> tuple[list, list]:
    numeric, other = [], []
    for key in sorted(set(base) | set(work)):
        if key not in base or key not in work:
            other.append(f"{key}: only in {'base' if key in base else 'work'}")
            continue
        a, b = base[key], work[key]
        if key == "exit":
            if a != b:
                other.append(f"exit code: {a} -> {b}")
            continue
        try:
            ja, jb = json.loads(a), json.loads(b)
        except (json.JSONDecodeError, ValueError):
            _text_diff(key, a, b, numeric, other)
        else:
            _json_diff(key, ja, jb, numeric, other)
    return numeric, other


def export_src(rev: str, dest: Path) -> Path:
    data = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=REPO,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    args = parser.parse_args()

    identical, numeric_only, changed = 0, 0, 0
    sizes: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory(prefix="smmskit-identity-") as tmp:
        tmp = Path(tmp)
        base_src = export_src(args.base, tmp / "base")
        todo = cases()
        for i, (name, argv) in enumerate(todo):
            base = run_case(base_src, argv, tmp / "runs" / f"{i}-base")
            work = run_case(REPO / "src", argv, tmp / "runs" / f"{i}-work")
            numeric, other = compare(base, work)
            if not numeric and not other:
                identical += 1
                continue
            if other:
                changed += 1
            else:
                numeric_only += 1
            print(f"{name}: smmskit {' '.join(argv)}")
            for line in other:
                print(f"  changed  {line}")
            for key, a, b, diff, rel in numeric:
                print(f"  number   {key}: {a!r} -> {b!r}  abs {diff:.3g}  rel {rel:.3g}")
                field = re.sub(r"\[\d+\]|line \d+ ", "", key)
                sizes.setdefault(field, []).append(rel)
            sys.stdout.flush()
    total = identical + numeric_only + changed
    print(f"\n{total} runs against {args.base}: {identical} identical, "
          f"{numeric_only} differ in numbers only, {changed} differ otherwise")
    for field, rels in sorted(sizes.items()):
        print(f"  {field}: {len(rels)} values, max rel {max(rels):.3g}")
    return 0 if identical == total else 1


if __name__ == "__main__":
    sys.exit(main())
