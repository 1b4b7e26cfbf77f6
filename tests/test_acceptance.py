"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every criterion is desk-scale (< 30 s on one core).
"""

import json
import math

import numpy as np
import pytest

from conftest import perturbed_euclidean, random_perturbed_suite
from smmskit.cli import main as cli_main
from smmskit.comparison import (check_absolute_volume_negH, check_area_comparison,
                                check_mc_bounded_f_inner, check_mc_bounded_f_pi2,
                                check_mc_drift, check_mc_rough,
                                check_volume_absolute, check_volume_comparison,
                                doubling_F, doubling_epsilon,
                                volume_ratio_profile)
from smmskit.diameter import check_myers, index_form_total
from smmskit.eigen import (cheng_constants, model_eigenvalue,
                           rayleigh_quotient_transplant, smms_radial_eigenvalue)
from smmskit.model import ModelSpace, area_model, c_const, mean_curvature_model, sn, volume_model
from smmskit.numkit import Tolerance, sphere_area
from smmskit.smms import (RadialProfile, WarpedSMMS, integral_rho,
                          make_space)
from test_model import ball_integral_exact, mc_exact, sn_exact

J01 = 2.404825557695773


def report_line(num, desc, ok):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def suite3():
    return random_perturbed_suite(50, seed=20260808)


def run_comparison_suite(s, H, n_grid=48):
    """Every comparison checker on its admissible range, constants computed
    from the space."""
    hi = min(s.r_interior_hi, s.r_max * (1 - 1e-9))
    quarter = math.pi / (4 * math.sqrt(H)) if H > 0 else math.inf
    half = math.pi / (2 * math.sqrt(H)) if H > 0 else math.inf
    R_k = min(0.95 * hi, 0.999 * quarter)
    R_a = min(0.95 * hi, 0.999 * half)
    reports = [
        check_mc_rough(s, H, 0.25 * hi, n_grid=n_grid),
        check_mc_bounded_f_inner(s, H, n_grid=n_grid),
        check_mc_drift(s, H, n_grid=n_grid),
        check_area_comparison(s, H, R_k / 4, R_k, bound="k", n_grid=n_grid),
        check_area_comparison(s, H, R_a / 4, R_a, bound="a", n_grid=n_grid),
        check_volume_comparison(s, H, R_k / 4, R_k, bound="k", n_grid=n_grid),
        check_volume_comparison(s, H, R_a / 4, R_a, bound="a", n_grid=n_grid),
        check_volume_absolute(s, H, R_a, n_grid=n_grid),
    ]
    if H > 0 and hi > quarter:
        reports.append(check_mc_bounded_f_pi2(s, H, n_grid=n_grid))
    return reports


def test_criterion_1_model_oracles():
    grid = np.linspace(0.05, 3.0, 64)
    worst = 0.0
    for H in (-1.0, 0.0, 1.0):
        for d in (2, 3, 4, 5):
            m = ModelSpace(float(d), H)
            for r in grid:
                rel = lambda got, want: abs(got - want) / (1.0 + abs(want))
                worst = max(worst, rel(sn(H, r), sn_exact(H, r)))
                worst = max(worst, rel(mean_curvature_model(d, H, r),
                                       mc_exact(d, H, r)))
                worst = max(worst, rel(area_model(m, r),
                                       sphere_area(d) * sn_exact(H, r) ** (d - 1)))
            for R in grid[::8]:
                want = sphere_area(d) * ball_integral_exact(d, H, R)
                got = volume_model(m, R, Tolerance(1e-12, 1e-12))
                worst = max(worst, rel(got, want))
    ratio_ok = abs(c_const(3, 0.5) - 2 * math.pi / 3) < 1e-10
    report_line(1, f"model closed forms, worst rel err {worst:.2e}; "
                   f"V(S^4)/V(S^2) = 2 pi/3", worst < 1e-9 and ratio_ok)


def test_criterion_2_equality_suite():
    cases = []
    for name, H, kwargs in (("euclidean", 0.0, {}), ("sphere", 1.0, {"H": 1.0}),
                            ("hyperbolic", -1.0, {"H": -1.0})):
        cases.append((make_space(name, n=3, **kwargs), H, 0.0))
        drift_kwargs = {"a": 0.4, "base": name, **kwargs}
        cases.append((make_space("linear_drift", n=3, **drift_kwargs), H, 0.4))
    worst = 0.0
    for s, H, a in cases:
        hi = min(s.r_interior_hi, s.r_max * (1 - 1e-9))
        quarter = math.pi / (4 * math.sqrt(H)) if H > 0 else math.inf
        half = math.pi / (2 * math.sqrt(H)) if H > 0 else math.inf
        R_k = min(0.9 * hi, 0.999 * quarter)
        R_a = min(0.9 * hi, 0.999 * half)
        reports = [check_mc_rough(s, H, hi / 4, n_grid=64),
                   check_mc_drift(s, H, a, n_grid=64),
                   check_area_comparison(s, H, R_a / 4, R_a, bound="a", n_grid=64),
                   check_volume_comparison(s, H, R_a / 4, R_a, bound="a", n_grid=64)]
        if a == 0.0:
            reports += [check_mc_bounded_f_inner(s, H, n_grid=64),
                        check_area_comparison(s, H, R_k / 4, R_k, bound="k", n_grid=64),
                        check_volume_comparison(s, H, R_k / 4, R_k, bound="k", n_grid=64)]
        worst = max(worst, max(abs(rep.min_margin) for rep in reports))
    report_line(2, f"equality cases, worst |min_margin| {worst:.2e}", worst <= 1e-8)


def test_criterion_3_inequality_suite(suite3):
    worst = math.inf
    count = 0
    for s, H in suite3:
        for rep in run_comparison_suite(s, H):
            count += 1
            worst = min(worst, rep.min_margin)
    report_line(3, f"{count} checks on 50 randomized spaces, "
                   f"worst margin {worst:.2e}", worst >= -1e-7)


def test_criterion_4_eigenvalue_oracles():
    r1 = model_eigenvalue(3, 0.0, 0.0, 1.0)
    ok1 = abs(r1.lam - math.pi ** 2) <= 1e-6 * math.pi ** 2
    r2 = model_eigenvalue(2, 0.0, 0.0, 1.0)
    ok2 = abs(r2.lam - J01 ** 2) <= 1e-6 * J01 ** 2
    r3 = model_eigenvalue(3, 0.0, 1.0, math.pi / 2)
    ok3 = abs(r3.lam - 3.0) <= 1e-6 * 3.0
    samples = r3.samples[::2][:64]  # 64 eigenfunction samples
    sup = float(np.max(np.abs(samples[:, 1] - np.cos(samples[:, 0]))))
    ok4 = sup < 1e-6
    report_line(4, f"pi^2 / Bessel / cosine eigenvalues; "
                   f"cos residual sup {sup:.2e}", ok1 and ok2 and ok3 and ok4)


def test_criterion_5_cheng_end_to_end():
    eps = cheng_constants(3, 0.0, 0.0, 1.0, 0.1).epsilon
    s = perturbed_euclidean(3, 5e-4, 3.0)
    l = integral_rho(s, 0.0, s.r_max)
    lam_model = model_eigenvalue(3, 0.0, 0.0, 1.0).lam
    lam_ball = smms_radial_eigenvalue(s, 1.0).lam
    Q = rayleigh_quotient_transplant(s, 3, 0.0, 0.0, 1.0)
    ok = (l <= eps) and (lam_ball / lam_model <= 1.1) and (Q >= lam_ball - 1e-8)
    report_line(5, f"eps={eps:.4f}, l={l:.2e}, ratio={lam_ball / lam_model:.6f}, "
                   f"Q-lam_B={Q - lam_ball:.2e}", ok)


def test_criterion_6_myers_suite():
    sphere = make_space("sphere", n=3, H=1.0)
    rep = check_myers(sphere, 1.0)
    ok = (abs(rep.bounds["MYERS_F"] - math.pi) < 1e-12
          and abs(rep.bounds["MYERS_GRAD"] - math.pi) < 1e-12
          and rep.actual_diameter <= rep.bounds["MYERS_INDEX"] + 1e-12
          and abs(rep.bounds["MYERS_INDEX"] - 2 * math.pi) < 1e-12)
    ok = ok and abs(index_form_total(sphere, math.pi)) <= 1e-8
    rng = np.random.default_rng(99)
    n_checked = 0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        H = float(rng.choice([1.0, 4.0]))
        m = int(rng.integers(1, 6 if H == 1.0 else 3))
        eps = float(rng.uniform(0.01, 0.1))
        s = make_space("perturbed_sphere", n=n, H=H, eps=eps,
                       omega=m * math.sqrt(H))
        drep = check_myers(s, H)
        ok = ok and drep.passed and drep.actual_diameter <= min(drep.bounds.values()) + 1e-9
        n_checked += 1
    report_line(6, f"sharp round sphere + {n_checked} perturbed closed spaces", ok)


def test_criterion_7_doubling_certificate():
    cert = doubling_epsilon(3, 0.0, 1.0, 4.0, a=0.5)
    ok1 = abs(math.exp(cert.F_at_epsilon) - 4.0) <= 1e-10
    ok2 = doubling_F(3, 0.0, 1.0, 0.0, a=0.5) == 0.0
    eps = [doubling_epsilon(3, 0.0, 1.0, al, a=0.5).epsilon
           for al in (1.5, 2.0, 4.0, 8.0)]
    ok3 = bool(np.all(np.diff(eps) > 0.0))
    report_line(7, f"exp(F(eps))={math.exp(cert.F_at_epsilon):.12f}, F(0)=0, "
                   f"eps monotone over alpha", ok1 and ok2 and ok3)


def test_criterion_8_ratio_monotonicity(suite3):
    worst = -math.inf
    for s, H in suite3:
        hi = min(s.r_interior_hi, s.r_max * (1 - 1e-9))
        for bound, frac in (("a", 2.0), ("k", 4.0)):
            cap = math.pi / (frac * math.sqrt(H)) if H > 0 else math.inf
            R = min(0.9 * hi, 0.999 * cap)
            radii = np.linspace(R / 24, R, 24)
            D = volume_ratio_profile(s, H, radii, bound=bound)
            worst = max(worst, float(np.max(np.diff(D))))
    report_line(8, f"normalized volume ratio nonincreasing, "
                   f"max successive difference {worst:.2e}", worst <= 1e-7)


def test_criterion_9_absolute_volume_hyperbolic():
    r_max = 5.0
    from smmskit.model import sn as model_sn, sn_prime as model_sn_prime
    w = RadialProfile(lambda r: model_sn(-1.0, r),
                      d1=lambda r: model_sn_prime(-1.0, r),
                      d2=lambda r: np.asarray(model_sn(-1.0, r), dtype=float),
                      r_max=r_max)
    f = RadialProfile(lambda r: 0.1 * np.sin(np.asarray(r, dtype=float)),
                      d1=lambda r: 0.1 * np.cos(np.asarray(r, dtype=float)),
                      d2=lambda r: -0.1 * np.sin(np.asarray(r, dtype=float)),
                      r_max=r_max)
    s = WarpedSMMS(n=3, w=w, f=f, r_max=r_max, closed=False)
    margins = []
    for R in (0.5, 1.0, 2.0):
        rep = check_absolute_volume_negH(s, -1.0, R=R, n_grid=24)
        margins.append(rep.min_margin)
    ok = all(m > 0.0 for m in margins)
    report_line(9, f"hyperbolic absolute volume margins {['%.3e' % m for m in margins]}", ok)


def test_criterion_10_cli_conformance(capsys, tmp_path):
    code1 = cli_main(["check", "--space", "sphere", "--n", "3", "--param",
                      "H=1", "--theorem", "MC_DRIFT", "--a", "0"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["check", "--space", "euclidean", "--n", "3", "--theorem",
                      "VOL_B", "--H", "1", "--r", "0.25", "--R", "0.5"])
    capsys.readouterr()
    code3 = cli_main(["check", "--space", "sphere", "--theorem", "VOL_A",
                      "--H", "1", "--R", "1.0"])
    err3 = capsys.readouterr().err
    codes_ok = (code1, code2, code3) == (0, 0, 2)
    diag_ok = "R exceeds pi/(4 sqrt(H))" in err3

    report = json.loads(out1)
    schema_ok = {"tool_version", "spec", "checks", "verdict"} <= set(report)
    for check in report["checks"]:
        schema_ok = schema_ok and {"theorem_id", "params", "min_margin",
                                   "pass"} <= set(check)

    csv_path = tmp_path / "grid.csv"
    cli_main(["check", "--space", "euclidean", "--n", "3", "--theorem",
              "MC_DRIFT", "--grid", "16", "--format", "csv",
              "--out", str(csv_path)])
    capsys.readouterr()
    header_ok = csv_path.read_text().splitlines()[0] == "r,lhs,rhs,margin"

    report_line(10, f"exit codes {(code1, code2, code3)}, schema and CSV header",
                codes_ok and diag_ok and schema_ok and header_ok)
