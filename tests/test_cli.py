"""CLI conformance: exit codes, report schema, CSV grids, sweeps."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smmskit
from smmskit import comparison, eigen
from smmskit.cli import CHECK_IDS, main
from smmskit.numkit import BracketError

REQUIRED_TOP = {"tool_version", "spec", "checks", "verdict"}
REQUIRED_CHECK = {"theorem_id", "params", "min_margin", "pass"}
SHARED_CHECK = {"theorem_id", "params", "units", "pass", "verdict", "min_margin",
                "wall_time_ms"}

_FLAT = ["--space", "euclidean", "--n", "3"]
_SPHERE = ["--space", "sphere", "--n", "3", "--param", "H=1"]
# One cheap, valid invocation per theorem id.
CHECK_ARGV = {
    "MC_ROUGH": _FLAT + ["--grid", "32"],
    "MC_BOUNDED_F_INNER": _FLAT + ["--grid", "32"],
    "MC_BOUNDED_F_PI2": _SPHERE + ["--H", "1", "--grid", "32"],
    "MC_DRIFT": _FLAT + ["--grid", "32"],
    "AREA_A": _FLAT + ["--H", "1", "--r", "0.25", "--R", "0.5", "--grid", "32"],
    "AREA_B": _FLAT + ["--H", "1", "--r", "0.25", "--R", "0.5", "--grid", "32"],
    "VOL_A": _FLAT + ["--H", "1", "--r", "0.25", "--R", "0.5", "--grid", "32"],
    "VOL_B": _FLAT + ["--H", "1", "--r", "0.25", "--R", "0.5", "--grid", "32"],
    "VOL_B_ABS": _FLAT + ["--R", "0.5", "--grid", "32"],
    "VOL_ABS_NEGH": ["--space", "hyperbolic", "--n", "3", "--param", "H=-1",
                     "--H", "-1", "--grid", "24"],
    "DOUBLING": _FLAT + ["--H", "1", "--alpha", "2", "--R", "0.7", "--grid", "16"],
    "VOL_R1": _FLAT + ["--R", "1.5", "--grid", "32"],
    "MYERS": _SPHERE,
    "CHENG": _FLAT + ["--R", "1", "--delta", "0.1"],
    "EIGEN": _FLAT + ["--R", "1"],
}


def run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestConformance:
    def test_model_equality_drift_check(self, capsys):
        code, report = run_json(
            ["check", "--space", "sphere", "--n", "3", "--param", "H=1",
             "--theorem", "MC_DRIFT", "--a", "0"], capsys)
        assert code == 0
        assert report["verdict"] == "PASS"

    def test_volume_drift_check(self, capsys):
        code, report = run_json(
            ["check", "--space", "euclidean", "--n", "3", "--theorem", "VOL_B",
             "--H", "1", "--r", "0.25", "--R", "0.5"], capsys)
        assert code == 0
        assert report["checks"][0]["min_margin"] > 0.0

    def test_range_gate_diagnostic(self, capsys):
        code = main(["check", "--space", "sphere", "--theorem", "VOL_A",
                     "--H", "1", "--R", "1.0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "R exceeds pi/(4 sqrt(H))" in err

    def test_gated_check_exits_three(self, capsys):
        code, report = run_json(
            ["check", "--space", "euclidean", "--n", "3", "--theorem",
             "DOUBLING", "--H", "1", "--alpha", "2", "--R", "0.7",
             "--epsilon", "0.01", "--grid", "16"], capsys)
        assert code == 3
        assert report["verdict"] == "NOT-APPLICABLE"

    @pytest.mark.parametrize("theorem", ["VOL_B", "MC_DRIFT"])
    def test_divergent_excess_is_not_applicable(self, theorem, capsys):
        # f = -a r has f'(0) = -a, so in full mode rho ~ a/r at the pole
        # and l = +inf: an unmet hypothesis, not a numerical failure.
        code, report = run_json(
            ["check", "--space", "linear_drift", "--n", "3", "--param", "a=0.5",
             "--theorem", theorem, "--H", "0.2", "--r", "0.3", "--R", "1.5",
             "--mode", "full"], capsys)
        assert code == 3
        assert report["verdict"] == "NOT-APPLICABLE"
        check = report["checks"][0]
        assert check["theorem_id"] == theorem and check["min_margin"] is None
        assert "0.5/r near the pole r=0" in check["reason"]

    def test_verdict_aggregation(self):
        # The true theorems cannot be made to fail on valid inputs, so the
        # FAIL exit path is wired through the aggregator directly.
        from smmskit.cli import _overall
        assert _overall(["PASS", "FAIL"]) == ("FAIL", 1)
        assert _overall(["NOT-APPLICABLE", "NOT-APPLICABLE"]) == ("NOT-APPLICABLE", 3)
        assert _overall(["PASS", "NOT-APPLICABLE"]) == ("PASS", 0)


class TestListSpaces:
    def test_text_listing(self, capsys):
        assert main(["list-spaces"]) == 0
        out = capsys.readouterr().out
        for name in ("euclidean", "sphere", "hyperbolic", "gaussian_soliton",
                     "linear_drift", "perturbed_sphere", "custom"):
            assert name in out

    def test_json_listing(self, capsys):
        assert main(["list-spaces", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload} >= {"euclidean", "sphere"}

    def test_unknown_flag(self, capsys):
        assert main(["list-spaces", "--frobnicate"]) == 2


class TestReportSchema:
    def test_required_fields(self, capsys):
        code, report = run_json(
            ["check", "--space", "euclidean", "--n", "3", "--theorem",
             "MC_DRIFT", "--grid", "32"], capsys)
        assert code == 0
        assert REQUIRED_TOP <= set(report)
        for check in report["checks"]:
            assert REQUIRED_CHECK <= set(check)
            assert "wall_time_ms" in check
            assert check["verdict"] in ("PASS", "FAIL", "NOT-APPLICABLE")

    @pytest.mark.parametrize("tid", CHECK_IDS)
    def test_every_theorem_shares_the_report_shape(self, capsys, tid):
        code, report = run_json(["check", "--theorem", tid, *CHECK_ARGV[tid]], capsys)
        assert code in (0, 3)
        assert REQUIRED_TOP <= set(report)
        [check] = report["checks"]
        assert SHARED_CHECK <= set(check)
        assert check["theorem_id"] == tid
        assert "unknown" not in check["units"].values()
        assert set(check["params"]) <= set(check["units"])

    def test_units_tagged(self, capsys):
        _, report = run_json(
            ["check", "--space", "euclidean", "--n", "3", "--theorem",
             "MC_DRIFT", "--grid", "32"], capsys)
        units = report["checks"][0]["units"]
        assert units["H"] == "1/length^2"
        assert units["a"] == "1/length"

    def test_spec_echo_roundtrip(self, capsys, tmp_path):
        args = ["check", "--space", "perturbed_sphere", "--n", "3",
                "--param", "H=1", "--param", "eps=0.05", "--param", "omega=3",
                "--theorem", "MC_DRIFT", "--grid", "48"]
        code1, rep1 = run_json(args, capsys)
        spec = rep1["spec"]
        args2 = ["check", "--space", spec["name"], "--n", str(spec["n"]),
                 "--theorem", "MC_DRIFT", "--grid", "48"]
        for key, val in spec["params"].items():
            if key != "n":
                args2 += ["--param", f"{key}={val!r}".replace("'", "")]
        code2, rep2 = run_json(args2, capsys)
        assert code1 == code2 == 0
        assert rep1["checks"][0]["min_margin"] == rep2["checks"][0]["min_margin"]

    def test_drift_base_from_the_command_line(self, capsys):
        # --param read every value as a number, so base=sphere exited 2.
        code, report = run_json(["check", "--space", "linear_drift", "--n", "3", "--param",
                                 "base=sphere", "--param", "H=1", "--theorem", "MC_DRIFT",
                                 "--H", "1", "--grid", "32"], capsys)
        assert code == 0
        assert report["spec"]["params"] == {"base": "sphere", "H": 1.0}
        s = smmskit.smms.make_space("linear_drift", n=3, base="sphere", H=1.0)
        want = comparison.check_mc_drift(s, 1.0, n_grid=32)
        assert report["checks"][0]["min_margin"] == want.min_margin

    def test_deterministic_reruns(self, capsys):
        args = ["check", "--space", "perturbed_sphere", "--n", "3",
                "--param", "H=1", "--theorem", "AREA_B",
                "--r", "0.3", "--R", "1.2", "--grid", "48"]
        _, rep1 = run_json(args, capsys)
        _, rep2 = run_json(args, capsys)
        c1, c2 = rep1["checks"][0], rep2["checks"][0]
        c1.pop("wall_time_ms"), c2.pop("wall_time_ms")
        assert c1 == c2


class TestCsvExport:
    def test_grid_header_bit_exact(self, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["check", "--space", "euclidean", "--n", "3", "--theorem",
                     "MC_DRIFT", "--grid", "24", "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0] == "r,lhs,rhs,margin"
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert all(len(row) == 4 for row in rows)
        capsys.readouterr()

    @pytest.mark.parametrize("tid", ["MYERS", "CHENG"])
    def test_report_without_grid_refuses_csv(self, capsys, tmp_path, tid):
        out = tmp_path / "grid.csv"
        code = main(["check", "--theorem", tid, *CHECK_ARGV[tid],
                     "--format", "csv", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "--format" in captured.err and tid in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("tid, header", [("MC_DRIFT", "r,lhs,rhs,margin"),
                                             ("EIGEN", "r,phi")])
    def test_csv_without_out_goes_to_stdout(self, capsys, tid, header):
        code = main(["check", "--theorem", tid, *CHECK_ARGV[tid], "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == header
        assert len(lines) > 2 and all(len(line.split(",")) == len(header.split(","))
                                      for line in lines[1:])

    @pytest.mark.parametrize("tid", ["MYERS", "CHENG"])
    def test_report_without_grid_refuses_csv_to_stdout(self, capsys, tid):
        code = main(["check", "--theorem", tid, *CHECK_ARGV[tid], "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--format" in captured.err and captured.out == ""

    @pytest.mark.parametrize("read_bytes", [0, 16])
    def test_closed_stdout_exits_quietly_with_the_check_code(self, read_bytes):
        # Well over a pipe buffer of CSV, so the writer meets the closed pipe;
        # read_bytes = 0 closes the pipe before the first write.
        argv = [sys.executable, "-m", "smmskit", "check", "--theorem", "MC_DRIFT",
                *_FLAT, "--grid", "4000", "--format", "csv"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(smmskit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        r, w = os.pipe()
        if not read_bytes:
            os.close(r)
        proc = subprocess.Popen(argv, stdout=w, stderr=subprocess.PIPE, env=env)
        os.close(w)
        if read_bytes:
            assert os.read(r, read_bytes).startswith(b"r,lhs,rhs,margin")
            os.close(r)
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
        assert err == b""

    def test_json_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check", "--space", "euclidean", "--n", "3", "--theorem",
                     "MC_DRIFT", "--grid", "24", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "PASS"
        capsys.readouterr()


CUSTOM_SPEC = {"n": 3,
               "custom": {"w": {"type": "poly", "coeffs": [0.0, 1.0]},
                          "f": {"type": "poly", "coeffs": [0.0, 0.0, 0.05]},
                          "r_max": 3.0, "closed": False}}


class TestCustomSpace:
    def test_custom_profile_file(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(CUSTOM_SPEC))
        code, report = run_json(
            ["check", "--custom", str(path), "--theorem", "MC_DRIFT",
             "--grid", "32"], capsys)
        assert code == 0
        assert report["spec"]["name"] == "custom"

    @pytest.mark.parametrize("payload", [[1, 2], {"n": 3, "custom": [1, 2]}],
                             ids=["list", "list-block"])
    def test_spec_that_is_not_an_object(self, capsys, tmp_path, payload):
        # Both ended in a traceback (AttributeError, TypeError), exit 1.
        path = tmp_path / "space.json"
        path.write_text(json.dumps(payload))
        assert main(["check", "--custom", str(path), "--theorem", "MC_DRIFT"]) == 2
        assert capsys.readouterr().err == ("error: --custom: the spec must be a JSON object "
                                           "whose 'custom' block is an object\n")

    def test_missing_file(self, capsys):
        assert main(["check", "--custom", "/nonexistent.json",
                     "--theorem", "MC_DRIFT"]) == 2
        assert "custom" in capsys.readouterr().err

    def test_space_parameter_rejected(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(CUSTOM_SPEC))
        assert main(["check", "--custom", str(path), "--theorem", "MC_DRIFT",
                     "--param", "r_max=2", "--grid", "32"]) == 2
        captured = capsys.readouterr()
        assert "--param" in captured.err and captured.out == ""

    @pytest.mark.parametrize("spec, err", [
        ({**CUSTOM_SPEC, "custom": {**CUSTOM_SPEC["custom"], "n": 4.0}},
         "error: --custom: custom.n: the dimension is the file's top-level n\n"),
        ({**CUSTOM_SPEC, "custom": {**CUSTOM_SPEC["custom"], "H": 4.0}},
         "error: space custom has no parameter 'H'; its parameters: w, f, r_max, closed\n"),
        ({"name": "sphere", "params": {"H": 4.0}, **CUSTOM_SPEC},
         "error: --custom: name: the top level holds only n and custom\n"),
        ({**CUSTOM_SPEC, "params": {"H": 4.0}},
         "error: --custom: params: the top level holds only n and custom\n"),
        ({**CUSTOM_SPEC, "n": 3.7},
         "error: --custom: n: the dimension must be an integer, got 3.7\n"),
    ], ids=["dimension", "unknown", "name", "params", "real-dimension"])
    def test_parameter_the_space_does_not_take(self, capsys, tmp_path, spec, err):
        # All ran before: custom.n ended in a TypeError traceback, custom.H
        # was dropped, a top-level name and params ran that catalog space or
        # set the comparison curvature, and n = 3.7 ran as n = 3.
        path = tmp_path / "space.json"
        path.write_text(json.dumps(spec))
        assert main(["check", "--custom", str(path), "--theorem", "MC_DRIFT",
                     "--grid", "32"]) == 2
        captured = capsys.readouterr()
        assert captured.err == err and captured.out == ""

    def test_space_parameter_range_rejected(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(CUSTOM_SPEC))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--custom", str(path), "--theorem", "MC_DRIFT",
                     "--range", "r_max=2:3:3", "--grid", "32",
                     "--out", str(out)]) == 2
        assert "--range r_max" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_over_H_matches_single_checks(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(CUSTOM_SPEC))
        common = ["--custom", str(path), "--theorem", "MC_DRIFT", "--grid", "32"]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *common, "--range", "H=0:0.5:3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "H,min_margin,verdict"
        for line in lines[1:]:
            H, margin, verdict = line.split(",")
            _, report = run_json(["check", *common, "--H", H], capsys)
            assert f"{report['checks'][0]['min_margin']:.17g}" == margin
            assert report["verdict"] == verdict


class TestOtherTheorems:
    def test_myers_dispatch(self, capsys):
        code, report = run_json(
            ["check", "--space", "sphere", "--n", "3", "--param", "H=1",
             "--theorem", "MYERS"], capsys)
        assert code == 0
        assert report["checks"][0]["theorem_id"] == "MYERS"

    def test_cheng_dispatch(self, capsys):
        code, report = run_json(
            ["check", "--space", "euclidean", "--n", "3", "--theorem", "CHENG",
             "--R", "1", "--delta", "0.1"], capsys)
        assert code == 0
        assert report["checks"][0]["params"]["epsilon"] > 0.0

    def test_hyperbolic_absolute_dispatch(self, capsys):
        code, report = run_json(
            ["check", "--space", "hyperbolic", "--n", "3", "--param", "H=-1",
             "--theorem", "VOL_ABS_NEGH", "--H", "-1", "--grid", "24"], capsys)
        assert code == 0
        assert report["checks"][0]["min_margin"] > 0.0

    @pytest.mark.parametrize("grid", [24, 256])
    def test_negh_grid_follows_grid_flag_without_R(self, capsys, grid):
        code, report = run_json(
            ["check", "--space", "hyperbolic", "--n", "3", "--param", "H=-1",
             "--theorem", "VOL_ABS_NEGH", "--H", "-1", "--grid", str(grid)], capsys)
        check = report["checks"][0]
        assert code == 0
        assert check["n_grid"] == grid  # every margin is far from the line: no refinement
        assert check["params"]["R"] == 3.5  # 3.5/sqrt(-H), inside r_max

    def test_negh_requires_negative_curvature(self, capsys):
        assert main(["check", "--space", "euclidean", "--n", "3",
                     "--theorem", "VOL_ABS_NEGH", "--H", "1"]) == 2
        capsys.readouterr()

    def test_eigen_dispatch_with_samples_csv(self, capsys, tmp_path):
        out = tmp_path / "phi.csv"
        code = main(["check", "--space", "euclidean", "--n", "3",
                     "--theorem", "EIGEN", "--R", "1.0",
                     "--format", "csv", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert out.read_text().splitlines()[0] == "r,phi"


class TestBadInput:
    def test_unknown_theorem(self, capsys):
        assert main(["check", "--space", "euclidean", "--n", "3",
                     "--theorem", "BROUWER"]) == 2
        assert "theorem" in capsys.readouterr().err

    def test_malformed_param(self, capsys):
        assert main(["check", "--space", "euclidean", "--n", "3",
                     "--param", "Hone", "--theorem", "MC_DRIFT"]) == 2
        assert "--param" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, err", [
        (["check", *_SPHERE, "--param", "Hx=7", "--param", "r_max=99",
          "--theorem", "MC_DRIFT", "--a", "0"],
         "error: space sphere has no parameter 'Hx'; its parameters: H\n"),
        (["sweep", "--space", "sphere", "--n", "3", "--theorem", "MC_DRIFT", "--a", "0",
          "--range", "Hx=1:2:2"],
         "error: --range Hx: space sphere has no parameter 'Hx'; its parameters: H\n"),
        (["sweep", "--space", "sphere", "--n", "3", "--param", "Hx=7", "--theorem",
          "MC_DRIFT", "--grid", "16", "--range", "a=0:1:2"],
         "error: space sphere has no parameter 'Hx'; its parameters: H\n"),
        (["check", "--space", "sphere", "--n", "3", "--param", "n=4",
          "--theorem", "MC_DRIFT", "--a", "0"],
         "error: --param n: the dimension is not a space parameter; set it with --n\n"),
        (["check", "--space", "linear_drift", "--n", "3", "--param", "base=nosuch",
          "--param", "H=1", "--theorem", "MC_DRIFT"],
         "error: space linear_drift: unknown space 'nosuch' as its base; catalog: "
         "['custom', 'euclidean', 'gaussian_soliton', 'hyperbolic', 'linear_drift', "
         "'perturbed_sphere', 'sphere']\n"),
    ], ids=["check", "sweep", "sweep-param", "dimension", "base"])
    def test_parameter_the_space_does_not_take(self, capsys, argv, err):
        # The builders took any name: the first two ran the H = 1 sphere,
        # and n=4 ended in a TypeError traceback (exit 1, the FAIL code).
        # An unknown base was not named: the diagnostic blamed H.  A bad
        # --param next to a theorem-flag range failed at the first point.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == err and captured.out == ""

    @pytest.mark.parametrize("base, says", [("nosuch", "unknown space 'nosuch'"),
                                            ("linear_drift", "cannot stack on itself")])
    def test_drift_base_that_is_no_catalog_base(self, capsys, base, says):
        assert main(["check", "--space", "linear_drift", "--n", "3", "--param",
                     f"base={base}", "--theorem", "MC_DRIFT", "--grid", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and says in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("R", ["0", "-1"])
    @pytest.mark.parametrize("tid", ["AREA_A", "AREA_B", "VOL_A", "VOL_B", "VOL_B_ABS",
                                     "VOL_ABS_NEGH", "DOUBLING", "VOL_R1"])
    def test_outer_radius_not_positive(self, capsys, tid, R):
        # DOUBLING said "ratio_table requires R > 0", naming no flag, and
        # AREA and VOL put r first: "require 0 < r <= R".
        H = "-1" if tid == "VOL_ABS_NEGH" else "0"
        assert main(["check", *_FLAT, "--theorem", tid, "--H", H, "--r", "0.25",
                     "--alpha", "2", "--R", R]) == 2
        captured = capsys.readouterr()
        want = ("the R >= 1 estimate requires R >= 1" if tid == "VOL_R1"
                else "require 0 < R <= 10.0")
        assert captured.err == f"error: {want}, got {float(R)}\n" and captured.out == ""

    def test_numeric_param_still_needs_a_number(self, capsys):
        assert main(["check", "--space", "linear_drift", "--n", "3", "--param", "base=sphere",
                     "--param", "H=abc", "--theorem", "MC_DRIFT"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --param H: not a real number: 'abc'\n"

    def test_missing_required_radius(self, capsys):
        assert main(["check", "--space", "euclidean", "--n", "3",
                     "--theorem", "VOL_B", "--H", "0"]) == 2
        assert "--r" in capsys.readouterr().err

    def test_no_command(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_numerical_failure_is_not_reported_as_malformed_input(self, capsys,
                                                                  monkeypatch):
        def no_bracket(*args, **kwargs):
            raise BracketError("f(lo) and f(hi) have the same sign")

        monkeypatch.setattr(comparison, "find_root_bracketed", no_bracket)
        # An alpha no other test asks for: doubling_epsilon is memoized.
        code = main(["check", *_FLAT, "--theorem", "DOUBLING", "--H", "1",
                     "--alpha", "2.71828", "--R", "0.7", "--grid", "16"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("numerical failure:") and "same sign" in err


    @pytest.mark.parametrize("argv", [
        ["check", *_FLAT, "--theorem", "MC_DRIFT", "--grid", "0"],
        ["check", *_FLAT, "--theorem", "MC_DRIFT", "--grid", "-5"],
        ["check", *_FLAT, "--theorem", "VOL_B", "--r", "0.3", "--R", "1", "--grid", "1"],
        ["check", "--space", "hyperbolic", "--n", "3", "--param", "H=-1",
         "--theorem", "VOL_ABS_NEGH", "--H", "-1", "--R", "1", "--grid", "0"],
        ["sweep", *_FLAT, "--theorem", "MC_DRIFT", "--grid", "0", "--range", "H=0:1:2"],
    ])
    def test_grid_below_two(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --grid: ")
        assert captured.out == ""

    # Warnings become errors: the failure is the only thing reported.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, what", [
        # A_model of dimension 203 underflows, so the area ratio overflows.
        (["--theorem", "AREA_A", "--r", "0.1", "--R", "0.5", "--k", "50", "--grid", "16"],
         "AREA_A: a compared value is not finite"),
        # Gamma(201.5) overflows in c(n, k).
        (["--theorem", "DOUBLING", "--alpha", "2", "--R", "0.5", "--k", "100"],
         "sphere_area: Gamma(d/2) overflows"),
    ])
    def test_non_finite_comparison_is_a_numerical_failure(self, argv, what, capsys):
        assert main(["check", *_FLAT, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"numerical failure: {what}")
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv, flag", [
        (["--theorem", "DOUBLING", "--alpha", "nan", "--R", "1"], "--alpha"),
        (["--theorem", "DOUBLING", "--alpha", "inf", "--R", "1"], "--alpha"),
        (["--theorem", "CHENG", "--delta", "nan", "--R", "1"], "--delta"),
        (["--theorem", "MC_DRIFT", "--H=-inf"], "--H"),
    ])
    def test_theorem_flag(self, argv, flag, capsys):
        assert main(["check", *_FLAT, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag}: not a finite number")
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_param(self, value, capsys):
        assert main(["check", "--space", "sphere", "--n", "3", "--param", f"H={value}",
                     "--theorem", "MC_DRIFT"]) == 2
        assert capsys.readouterr().err.startswith("error: --param H: not a finite number")

    @pytest.mark.parametrize("body", ["2:nan:3", "inf:4:3"])
    def test_range(self, body, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *_FLAT, "--theorem", "DOUBLING", "--R", "1",
                     "--range", f"alpha={body}", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --range alpha: not a finite number")
        assert not out.exists()

    def test_theorem_flag_in_sweep(self, capsys):
        assert main(["sweep", *_FLAT, "--theorem", "DOUBLING", "--alpha", "nan",
                     "--range", "R=0.5:1:2"]) == 2
        assert capsys.readouterr().err.startswith("error: --alpha: not a finite number")

    @pytest.mark.parametrize("field, block", [
        ("custom.f.coeffs[2]", {"f": {"type": "poly", "coeffs": [0.0, 0.0, float("nan")]}}),
        ("custom.r_max", {"r_max": float("inf")}),
    ])
    def test_custom_file(self, field, block, capsys, tmp_path):
        spec = {**CUSTOM_SPEC, "custom": {**CUSTOM_SPEC["custom"], **block}}
        path = tmp_path / "space.json"
        path.write_text(json.dumps(spec))
        assert main(["check", "--custom", str(path), "--theorem", "MC_DRIFT"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: --custom: {field}: not a finite number")
        assert captured.out == ""


class TestSweep:
    def test_doubling_sweep_monotone_margin(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--space", "perturbed_sphere", "--n", "3",
                     "--param", "H=1", "--param", "omega=1",
                     "--theorem", "DOUBLING", "--alpha", "4", "--R", "1.5",
                     "--grid", "16", "--range", "eps=0.001:0.02:4",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("eps,min_margin,verdict")
        margins = [float(row.split(",")[1]) for row in lines[1:]]
        assert np.all(np.diff(margins) <= 1e-9)
        capsys.readouterr()

    def test_cheng_sweep_epsilon_monotone(self, capsys, tmp_path):
        out = tmp_path / "cheng.csv"
        code = main(["sweep", "--space", "euclidean", "--n", "3",
                     "--theorem", "CHENG", "--R", "1.0",
                     "--range", "delta=0.05:0.5:4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["delta", "min_margin", "verdict"]
        eps_col = header.index("epsilon")
        eps = [float(row.split(",")[eps_col]) for row in lines[1:]]
        assert np.all(np.diff(eps) >= -1e-15)
        capsys.readouterr()

    def test_param_range_sets_the_space_parameter(self, capsys):
        drift = ["--space", "linear_drift", "--n", "3", "--theorem", "MC_DRIFT",
                 "--grid", "32"]
        assert main(["sweep", *drift, "--range", "param.a=0.5:1:3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "param.a,min_margin,verdict"
        assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "0.75", "1"]

        def margins(*argv):
            assert main(["sweep", *drift, *argv]) == 0
            rows = capsys.readouterr().out.splitlines()[1:]
            return [float(row.split(",")[1]) for row in rows]

        # m_f = m_H + a_space on linear_drift, so the margin is a - a_space.
        assert np.allclose(margins("--a", "1", "--range", "param.a=0:1:3"),
                           [1.0, 0.5, 0.0], rtol=0.0, atol=1e-12)
        # A bare a sets the theorem flag, against the space's default a = 0.5.
        assert np.allclose(margins("--range", "a=1:2:3"), [0.5, 1.0, 1.5],
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("space, rng, err", [
        (["--space", "linear_drift", "--n", "3"], "param.slope=0:1:3",
         "error: --range param.slope: space linear_drift has no parameter 'slope'"),
        (["--space", "sphere", "--n", "3"], "param.n=2:3:2",
         "error: --range param.n: space sphere has no parameter 'n'"),
        (["--custom", "space.json"], "param.r_max=2:3:2",
         "error: --range param.r_max: a --custom space takes no space parameters"),
        # It passed this check against the euclidean base, then failed at
        # its first point.
        (["--space", "linear_drift", "--n", "3", "--param", "base=sphere", "--param", "H=1"],
         "param.r_max=3:4:2",
         "error: --range param.r_max: space linear_drift has no parameter 'r_max'"),
    ], ids=["unknown", "dimension", "custom", "drift-base"])
    def test_param_range_rejected(self, capsys, tmp_path, monkeypatch, space, rng, err):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "space.json").write_text(json.dumps(CUSTOM_SPEC))
        assert main(["sweep", *space, "--theorem", "MC_DRIFT", "--grid", "32",
                     "--range", rng]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(err) and captured.out == ""

    def test_linear_drift_range_sets_its_base_parameter(self, capsys):
        # --param r_max reached the euclidean base, but --range
        # param.r_max was rejected (exit 2).
        argv = ["sweep", "--space", "linear_drift", "--n", "3", "--theorem", "MC_DRIFT",
                "--grid", "32", "--range", "param.r_max=4:5:2"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "param.r_max,min_margin,verdict" and len(rows) == 3

    def test_linear_drift_range_over_its_base_parameter(self, capsys):
        # It exited 2: the range was checked against the euclidean base.
        drift = ["--space", "linear_drift", "--n", "3", "--param", "base=sphere",
                 "--theorem", "MC_DRIFT", "--grid", "16"]
        assert main(["sweep", *drift, "--param", "H=1", "--range", "param.H=0.5:1:2"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "param.H,min_margin,verdict" and len(rows) == 3
        for row in rows[1:]:
            H, margin, verdict = row.split(",")
            _, report = run_json(["check", *drift, "--param", f"H={H}"], capsys)
            assert f"{report['checks'][0]['min_margin']:.17g}" == margin
            assert report["verdict"] == verdict

    @pytest.mark.parametrize("argv, err", [
        (_FLAT + ["--theorem", "AREA_A", "--r", "0.1", "--R", "0.5", "--grid", "16",
                  "--range", "k=1:50:3"],
         "numerical failure: at k=50: AREA_A: a compared value is not finite"),
        (_SPHERE + ["--H", "1", "--theorem", "VOL_B", "--r", "0.1", "--grid", "16",
                    "--range", "R=0.5:2:3"],
         "error: at R=2: R exceeds pi/(2 sqrt(H))"),
    ], ids=["numerical", "range"])
    def test_failing_point_is_named(self, capsys, tmp_path, argv, err):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(err)
        assert captured.out == "" and not out.exists()

    def test_empty_range_rejected(self, capsys):
        assert main(["sweep", "--space", "euclidean", "--n", "3",
                     "--theorem", "MC_DRIFT", "--range", "eps=0:1:0"]) == 2
        capsys.readouterr()

    def test_missing_range_rejected(self, capsys):
        assert main(["sweep", "--space", "euclidean", "--n", "3",
                     "--theorem", "MC_DRIFT"]) == 2
        capsys.readouterr()


class TestEigenReports:
    def test_eigen_and_cheng_state_the_tolerances_used(self, capsys):
        for argv in (["--theorem", "EIGEN", "--R", "1"],
                     ["--theorem", "CHENG", "--R", "1", "--delta", "0.1"]):
            code, report = run_json(["check", "--space", "euclidean", "--n", "3",
                                     *argv], capsys)
            assert code == 0
            check = report["checks"][0]
            assert (check["tol_abs"], check["tol_rel"]) == (1e-8, 1e-6)

    def test_eigen_report_states_the_ritz_seed_and_the_shoots(self, capsys):
        code, report = run_json(["check", *_FLAT, "--theorem", "EIGEN", "--R", "1"],
                                capsys)
        assert code == 0
        check = report["checks"][0]
        assert abs(check["lambda_ritz"] - np.pi ** 2) <= 1e-12 * np.pi ** 2
        assert check["shoots"] == 2 and check["panels"] == 192

    def test_eigen_residual_beyond_its_bound_exits_one(self, capsys, monkeypatch):
        solve = eigen.smms_radial_eigenvalue

        def off_bound(space, R, tol):
            res = solve(space, R, tol)
            return dataclasses.replace(res, residual=2.0 * res.residual_bound)

        monkeypatch.setattr(eigen, "smms_radial_eigenvalue", off_bound)
        code, report = run_json(["check", "--space", "euclidean", "--n", "3",
                                 "--theorem", "EIGEN", "--R", "1"], capsys)
        assert code == 1 and report["verdict"] == "FAIL"
        check = report["checks"][0]
        assert check["pass"] is False and "residual" in check["reason"]

    @pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
    @pytest.mark.parametrize("tid", ["MC_DRIFT", "DOUBLING", "MYERS"])
    def test_tolerance_flags_rejected_where_nothing_reads_them(self, capsys, flag, tid):
        code = main(["check", "--theorem", tid, *CHECK_ARGV[tid], flag, "1e-3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"error: {flag}:") and tid in captured.err
        assert captured.out == ""

    def test_tolerance_flags_accepted_by_eigen_and_cheng(self, capsys):
        for tid in ("EIGEN", "CHENG"):
            code, report = run_json(["check", "--theorem", tid, *CHECK_ARGV[tid],
                                     "--tol-abs", "1e-7", "--tol-rel", "1e-5"], capsys)
            assert code == 0
            check = report["checks"][0]
            assert (check["tol_abs"], check["tol_rel"]) == (1e-7, 1e-5)

    def test_tol_abs_reaches_the_eigen_bracket(self, capsys):
        widths = []
        for tol_abs in ("1e-9", "1e-3"):
            code, report = run_json(["check", *_FLAT, "--theorem", "EIGEN", "--R", "1",
                                     "--tol-abs", tol_abs], capsys)
            assert code == 0
            lo, hi = report["checks"][0]["bracket"]
            widths.append(hi - lo)
        assert widths[1] > widths[0]
        assert widths[1] <= 1e-3

    def test_cheng_fails_when_its_ball_solve_fails(self, capsys, monkeypatch):
        solve = eigen.smms_radial_eigenvalue

        def off_bound(space, R, tol):
            res = solve(space, R, tol)
            return dataclasses.replace(res, residual=2.0 * res.residual_bound)

        monkeypatch.setattr(eigen, "smms_radial_eigenvalue", off_bound)
        code, report = run_json(["check", *_FLAT, "--theorem", "CHENG", "--R", "1",
                                 "--delta", "0.1"], capsys)
        assert code == 1 and report["verdict"] == "FAIL"
        check = report["checks"][0]
        assert check["pass"] is False
        assert check["reason"].startswith("ball eigenvalue solve: residual")
