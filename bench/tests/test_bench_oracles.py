"""The benchmark's oracles: each reproduces a known value and rejects a
deliberately perturbed report.  Run with

    python3 -m pytest -q bench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import Space  # noqa: E402
from workloads import Op  # noqa: E402


def ein(x, terms=80):
    """Ein(x) = int_0^x (e^t - 1)/t dt = sum x^k / (k k!)."""
    return sum(x ** k / (k * math.factorial(k)) for k in range(1, terms))


# ---------------------------------------------------------------------------
# Known values.
# ---------------------------------------------------------------------------

def test_excess_integral_closed_form():
    # w = r + b r^3, f = 0, H = 0: rho = 12 b / (1 + b r^2) for n = 3.
    b, U = 0.02, 2.5
    space = Space("poly", 3, {"w": (0.0, 1.0, 0.0, b), "f": (0.0,), "r_max": 3.0})
    want = 12.0 * math.sqrt(b) * math.atan(math.sqrt(b) * U)
    assert oracles.excess_integral(space, 0.0, U) == pytest.approx(want, rel=1e-9)


def test_excess_integral_vanishes_on_models():
    for space in (Space("sphere", 3, {"H": 1.1}), Space("hyperbolic", 3, {"H": -0.7})):
        assert abs(oracles.excess_integral(space, space.H, 1.2)) < 1e-10


def test_rayleigh_quotient_is_exact_on_model_balls():
    R = 1.1
    assert oracles.rayleigh_quotient(Space("euclidean", 3), R, 0.0) == \
        pytest.approx(math.pi ** 2 / R ** 2, rel=1e-10)
    sphere = Space("sphere", 3, {"H": 0.9})
    assert oracles.rayleigh_quotient(sphere, R, 0.9) == \
        pytest.approx(math.pi ** 2 / R ** 2 - 0.9, rel=1e-10)


def test_rayleigh_quotient_bounds_the_disk_eigenvalue():
    R = 1.3
    q = oracles.rayleigh_quotient(Space("euclidean", 2), R, 0.0)
    assert oracles.J01 ** 2 / R ** 2 < q < 1.1 * oracles.J01 ** 2 / R ** 2


def test_doubling_F_flat_series():
    # H = 0, no drift: A/V = d/t, so F(sigma) = d Ein(c sigma R).
    R, sigma = 1.2, 0.7
    assert oracles.doubling_F(3, 0.0, R, sigma, a=0.0) == \
        pytest.approx(3.0 * ein(sigma * R), rel=1e-12)
    k = 0.15
    c = oracles.c_const(3, k)
    assert oracles.doubling_F(3, 0.0, R, sigma, k=k) == \
        pytest.approx((3.0 + 4.0 * k) * ein(c * sigma * R), rel=1e-12)


def test_doubling_threshold_inverts_F():
    eps = oracles.doubling_threshold(3, 1.0, 1.2, 4.0, a=0.1)
    assert math.exp(oracles.doubling_F(3, 1.0, 1.2, eps, a=0.1)) == pytest.approx(4.0, rel=1e-12)


def test_potential_constants():
    assert oracles.potential_constants(
        Space("gaussian_soliton", 3, {"c": 0.2, "r_max": 4.0})) == pytest.approx((3.2, 0.0))
    poly = Space("poly", 3, {"w": (0.0, 1.0), "f": (0.0, -0.2, 0.05), "r_max": 3.0})
    assert oracles.potential_constants(poly) == pytest.approx((0.2, 0.2), rel=1e-12)


def test_sphere_myers_bounds():
    b = oracles.myers_bounds(3, 4.0, 0.0, 0.0, 0.0)
    assert b["MYERS_F"] == b["MYERS_GRAD"] == pytest.approx(math.pi / 2.0)
    assert b["MYERS_INDEX"] == pytest.approx(math.pi)


# ---------------------------------------------------------------------------
# Accept correct reports, reject perturbed ones.
# ---------------------------------------------------------------------------

def _check_report(tid, params, min_margin, tolerance, **extra):
    check = {"theorem_id": tid, "params": params, "min_margin": min_margin,
             "tolerance": tolerance, "pass": True, "verdict": "PASS", **extra}
    return {"verdict": "PASS", "checks": [check]}


def test_equality_case_rejects_a_margin_beyond_tolerance():
    op = Op("MC_DRIFT/sphere", "check", "MC_DRIFT", Space("sphere", 3, {"H": 1.0}),
            1.0, {"a": 0.0}, equality=True)
    good = _check_report("MC_DRIFT", {"n": 3.0, "H": 1.0, "a": 0.0}, 0.0, 3e-4)
    assert oracles.check_check_report(op, 0, good) == []
    bad = _check_report("MC_DRIFT", {"n": 3.0, "H": 1.0, "a": 0.0}, 1e-3, 3e-4)
    assert oracles.check_check_report(op, 0, bad)


def test_excess_and_constants_are_checked():
    space = Space("poly", 3, {"w": (0.0, 1.0, 0.0, 0.02), "f": (0.0, -0.2, 0.03),
                              "r_max": 3.0})
    op = Op("VOL_B/poly", "check", "VOL_B", space, 0.2, {"r": 0.3, "R": 2.0})
    l = oracles.excess_integral(space, 0.2, 2.0)
    _, a = oracles.potential_constants(space)
    params = {"n": 3.0, "H": 0.2, "r": 0.3, "R": 2.0, "l": l, "c": 1.0, "a": a}
    assert oracles.check_check_report(op, 0, _check_report("VOL_B", params, 0.5, 1e-6)) == []
    for key, factor in (("l", 1.001), ("a", 0.99)):
        bad = dict(params, **{key: params[key] * factor})
        assert oracles.check_check_report(op, 0, _check_report("VOL_B", bad, 0.5, 1e-6))
    assert oracles.check_check_report(op, 1, _check_report("VOL_B", params, 0.5, 1e-6))


def test_myers_rejects_a_wrong_bound():
    op = Op("MYERS/sphere", "check", "MYERS", Space("sphere", 3, {"H": 1.0}), 1.0, {},
            equality=True)
    bounds = {"MYERS_F": math.pi, "MYERS_GRAD": math.pi, "MYERS_INDEX": 2 * math.pi}
    params = {"k": 0.0, "a": 0.0, "l": 0.0, "H": 1.0}
    good = _check_report("MYERS", params, 0.0, None, bounds=bounds,
                         actual_diameter=math.pi)
    assert oracles.check_check_report(op, 0, good) == []
    bad = _check_report("MYERS", params, 0.0, None, bounds={**bounds, "MYERS_F": 3.2},
                        actual_diameter=math.pi)
    assert oracles.check_check_report(op, 0, bad)


def _cheng(lam_ball, lam_model, l, eps, verdict, delta=0.5):
    return {"checks": [{"theorem_id": "CHENG", "verdict": verdict, "ratio": lam_ball / lam_model,
                        "params": {"lambda_ball": lam_ball, "lambda_model": lam_model,
                                   "delta": delta, "epsilon": eps, "l": l}}]}


def test_cheng_closed_forms_and_gate():
    R = 1.2
    op = Op("CHENG/euclidean3", "check", "CHENG", Space("euclidean", 3), 0.0,
            {"R": R, "delta": 0.5}, expect_gated=False)
    lam = math.pi ** 2 / R ** 2
    eps = 0.5 * oracles.doubling_threshold(3, 0.0, R, 4.0, a=0.0)
    assert oracles.check_cheng_report(op, 0, _cheng(lam, lam, 0.0, eps, "PASS")) == []
    assert oracles.check_cheng_report(op, 0, _cheng(lam * (1 + 1e-5), lam, 0.0, eps, "PASS"))
    assert oracles.check_cheng_report(op, 0, _cheng(lam, lam, 0.0, 3.0 * eps, "PASS"))
    assert oracles.check_cheng_report(op, 3, _cheng(lam, lam, 0.0, eps, "NOT-APPLICABLE"))


def test_cheng_rayleigh_bound_on_perturbed_space():
    space = Space("perturbed_sphere", 3, {"H": 1.0, "eps": 0.03, "omega": 3.0})
    R = 0.95
    op = Op("CHENG/perturbed_gated", "check", "CHENG", space, 1.0, {"R": R, "delta": 0.5},
            expect_gated=True)
    q = oracles.rayleigh_quotient(space, R, 1.0)
    l = oracles.excess_integral(space, 1.0, space.r_max)
    lam_model = math.pi ** 2 / R ** 2 - 1.0
    eps = 0.1
    good = _cheng(0.999 * q, lam_model, l, eps, "NOT-APPLICABLE")
    assert oracles.check_cheng_report(op, 3, good) == []
    assert oracles.check_cheng_report(op, 3, _cheng(1.001 * q, lam_model, l, eps,
                                                    "NOT-APPLICABLE"))
    assert oracles.check_cheng_report(op, 0, _cheng(0.999 * q, lam_model, l, eps, "PASS"))


def _doubling_sweep_csv(op, eps, perturb_row=None):
    lines = ["eps,min_margin,verdict,epsilon"]
    for i in range(op.points):
        value = op.sweep_start + (op.sweep_stop - op.sweep_start) * i / (op.points - 1)
        e = eps * (1 + 1e-3) if i == perturb_row else eps
        lines.append(f"{value:.17g},0.5,PASS,{e:.17g}")
    return "\n".join(lines) + "\n"


def test_sweep_threshold_oracle():
    space = Space("perturbed_sphere", 3, {"H": 1.0, "eps": 1e-4, "omega": 3.0})
    op = Op("DOUBLING/eps/drift", "sweep", "DOUBLING", space, 1.0,
            {"alpha": 4.0, "R": 1.2, "a": 0.1}, points=3, sweep_param="eps",
            sweep_start=1e-4, sweep_stop=2e-4)
    eps = oracles.doubling_threshold(3, 1.0, 1.2, 4.0, a=0.1)
    assert oracles.check_sweep_csv(op, 0, _doubling_sweep_csv(op, eps)) == []
    assert oracles.check_sweep_csv(op, 0, _doubling_sweep_csv(op, eps * (1 + 1e-5)))
    assert oracles.check_sweep_csv(op, 0, _doubling_sweep_csv(op, eps, perturb_row=1))
    assert oracles.check_sweep_csv(op, 3, _doubling_sweep_csv(op, eps))


# ---------------------------------------------------------------------------
# Real reports from the CLI, and the input generator.
# ---------------------------------------------------------------------------

def test_oracles_accept_real_cli_reports(tmp_path):
    cli = pytest.importorskip("smmskit.cli")
    rounds = workloads.rounds("checks", 5, tmp_path)
    ops = [op for op in next(rounds) if op.slot in ("MC_DRIFT/sphere", "MYERS/sphere",
                                                    "VOL_B_ABS/poly_drift")]
    assert len(ops) == 3
    for op in ops:
        out = tmp_path / "out.json"
        code = cli.main(op.argv + ["--out", str(out)])
        report = json.loads(out.read_text())
        assert oracles.check_check_report(op, code, report) == []
        report["checks"][0]["min_margin"] = 1.0
        assert oracles.check_check_report(op, code, report)


def test_rounds_are_seeded_and_never_repeat_inputs(tmp_path):
    def argvs(seed, n):
        gen = workloads.rounds("sweep", seed, tmp_path)
        return [[a for a in op.argv if not a.endswith(".json")]
                for _ in range(n) for op in next(gen)]

    first = argvs(7, 3)
    assert first == argvs(7, 3)
    assert first != argvs(8, 3)
    assert len({tuple(a) for a in first}) == len(first)


# ---------------------------------------------------------------------------
# Runner mechanics the metrics rest on.
# ---------------------------------------------------------------------------

def test_run_length_depends_on_seconds_only():
    assert [workloads.round_count(w, 25) for w in workloads.WORKLOADS] == [25, 2, 5]
    assert workloads.round_count("eigen", 1) == 1


def test_reference_seconds_use_the_nearby_kernel_timings():
    import run

    timed = run.Run(cli=None, workdir=BENCH)
    ref = run.REFERENCE_KERNEL_S
    # Three timings before the operation (indices 0-2), three after (3-5),
    # and a far one that must not count.
    timed.kernel_s = [ref, 2 * ref, 2 * ref, 2 * ref, 9 * ref, 2 * ref, 50 * ref]
    assert run.reference_seconds(timed, {"s": 2.0, "kernel": 2}) == pytest.approx(1.0)
    timed.kernel_s = [ref, 3 * ref]
    assert run.reference_seconds(timed, {"s": 2.0, "kernel": 0}) == pytest.approx(1.0)


def test_clearing_program_caches_empties_them():
    smmskit = pytest.importorskip("smmskit")
    import run
    from smmskit import comparison

    comparison.doubling_epsilon(3, 1.0, 0.5, 4.0, a=0.1)
    assert comparison.doubling_epsilon.cache_info().currsize >= 1
    run.clear_program_caches(smmskit)
    assert comparison.doubling_epsilon.cache_info().currsize == 0
