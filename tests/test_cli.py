"""CLI conformance: exit codes, report schema, CSV grids, sweeps."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smmskit
from smmskit import cli, comparison, eigen
from smmskit.cli import CHECK_IDS, main
from smmskit.numkit import BracketError
from smmskit.smms import make_space

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
    "DOUBLING": _FLAT + ["--H", "0", "--alpha", "2", "--R", "0.7", "--grid", "16"],
    "VOL_R1": _FLAT + ["--R", "1.5", "--grid", "32"],
    "MYERS": _SPHERE,
    "CHENG": _FLAT + ["--R", "1", "--delta", "0.1"],
    "EIGEN": _FLAT + ["--R", "1"],
}

# The flags each theorem reads; every comparison check reads --H, --grid and --mode.
_COMPARISON = {"H", "grid", "mode"}
READS = {
    "MC_ROUGH": {"r0"} | _COMPARISON,
    "MC_BOUNDED_F_INNER": {"k"} | _COMPARISON,
    "MC_BOUNDED_F_PI2": {"k"} | _COMPARISON,
    "MC_DRIFT": {"a"} | _COMPARISON,
    "AREA_A": {"r", "R", "k"} | _COMPARISON,
    "AREA_B": {"r", "R", "a"} | _COMPARISON,
    "VOL_A": {"r", "R", "k"} | _COMPARISON,
    "VOL_B": {"r", "R", "a"} | _COMPARISON,
    "VOL_B_ABS": {"R", "a"} | _COMPARISON,
    "VOL_ABS_NEGH": {"R", "k"} | _COMPARISON,
    "DOUBLING": {"alpha", "R", "epsilon", "k", "a"} | _COMPARISON,
    "VOL_R1": {"R", "k"} | _COMPARISON,
    "MYERS": {"H", "mode"},
    "CHENG": {"H", "R", "delta", "a", "mode", "tol-abs", "tol-rel"},
    "EIGEN": {"R", "tol-abs", "tol-rel"},
}
# A value of each flag that every CHECK_ARGV run reading it accepts.
FLAG_VALUE = {"H": "0.2", "k": "0.1", "a": "0.1", "delta": "0.2", "alpha": "3",
              "epsilon": "1", "r": "0.3", "R": "0.5", "r0": "0.5", "grid": "7",
              "mode": "full", "tol-abs": "1e-7", "tol-rel": "1e-5"}
# The checkers' own defaults of --grid and --mode; DOUBLING's grid is 64.
CHECKER_DEFAULT = {"grid": "256", "mode": "radial"}

NOT_APPLICABLE_CHECK = SHARED_CHECK | {"mode", "reason"}
# A drift f = -a r; in full mode rho ~ a/r at the pole, so l = +inf.
_DRIFT = ["--space", "linear_drift", "--n", "3", "--param", "a=0.5"]
_DIVERGENT = [*_DRIFT, "--mode", "full"]
# That drift on the unit sphere, and CHENG's range cap there.
_ON_SPHERE = ["--param", "base=sphere", "--param", "H=1"]
_CHENG_CAP = "R exceeds pi/(2 sqrt(H)) = 1.57079632679 for CHENG"
# Flags for each theorem that reads l from the pole, on that space.
DIVERGENT_ARGV = {
    "MC_BOUNDED_F_INNER": ["--H", "0.2"],
    "MC_BOUNDED_F_PI2": ["--H", "1"],
    "MC_DRIFT": ["--H", "0.2"],
    **{tid: ["--H", "0.2", "--r", "0.3", "--R", "1.5"]
       for tid in ("AREA_A", "AREA_B", "VOL_A", "VOL_B")},
    "VOL_B_ABS": ["--H", "0.2", "--R", "1.5"],
    "VOL_ABS_NEGH": ["--H", "-1"],
    "DOUBLING": ["--H", "0.2", "--alpha", "2", "--R", "1.5"],
    "VOL_R1": ["--H", "0.2", "--R", "1.5"],
    "MYERS": ["--param", "base=sphere", "--param", "H=1", "--H", "1"],
    "CHENG": ["--H", "0.2", "--R", "1", "--delta", "0.3"],
}


def run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestConformance:
    def test_identity_harness_runs_every_theorem(self):
        # tools/identity.py runs each id in its _IDS once, and the radius
        # diagnostics reuse those flags: a new theorem id must be added there.
        path = Path(__file__).resolve().parent.parent / "tools" / "identity.py"
        spec = importlib.util.spec_from_file_location("identity", path)
        harness = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(harness)
        assert set(CHECK_IDS) <= set(harness._IDS)
        names = [name for name, _ in harness.cases()]
        assert all(f"id/{tid}" in names for tid in CHECK_IDS)

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

    @pytest.mark.parametrize("theorem, flags, q, cap", [
        ("CHENG", ["--delta", "0.3"], 2, "1.57079632679"),
        ("DOUBLING", ["--alpha", "2"], 2, "1.57079632679"),
        ("DOUBLING", ["--alpha", "2", "--k", "0.1"], 4, "0.785398163397"),
    ], ids=["CHENG", "DOUBLING", "DOUBLING-k"])
    def test_borrowed_range_cap_names_the_theorem_asked_for(self, capsys, theorem, flags,
                                                            q, cap):
        # DOUBLING borrows VOL_B's cap, or VOL_A's given k, and the
        # diagnostic named the lender; CHENG has its own, pi/(2 sqrt(H)).
        assert main(["check", *_SPHERE, "--H", "1", "--R", "1.6", "--theorem", theorem,
                     *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: R exceeds pi/({q} sqrt(H)) = {cap} for {theorem}\n"
        assert captured.out == ""

    def test_vol_r1_range_cap(self, capsys):
        # VOL_R1 holds on (0, pi/(4 sqrt(H))], pi/2 at H = 1/4.
        argv = ["check", "--space", "sphere", "--n", "3", "--param", "H=0.25",
                "--theorem", "VOL_R1", "--grid", "16"]
        assert main([*argv, "--R", "2.0"]) == 2
        assert "R exceeds pi/(4 sqrt(H))" in capsys.readouterr().err
        code, report = run_json([*argv, "--R", "1.5"], capsys)
        assert code == 0 and report["checks"][0]["params"]["R"] == 1.5

    def test_gated_check_exits_three(self, capsys):
        code, report = run_json(
            ["check", "--space", "euclidean", "--n", "3", "--theorem",
             "DOUBLING", "--H", "1", "--alpha", "2", "--R", "0.7",
             "--epsilon", "0.01", "--grid", "16"], capsys)
        assert code == 3
        assert report["verdict"] == "NOT-APPLICABLE"
        assert set(report["checks"][0]) == NOT_APPLICABLE_CHECK

    @pytest.mark.parametrize("theorem", sorted(DIVERGENT_ARGV))
    def test_divergent_excess_is_not_applicable(self, theorem, capsys):
        # f = -a r has f'(0) = -a, so in full mode rho ~ a/r at the pole
        # and l = +inf: an unmet hypothesis, not a numerical failure.  Every
        # check that reads l from the pole reads it before its other work
        # and reports the shared keys, mode and reason: no grid keys (a
        # comparison report had tolerance 1e-08, n_grid 0, n_equality and
        # equality_radii) and no eigenvalues (CHENG solves none).
        code, report = run_json(["check", *_DIVERGENT, *DIVERGENT_ARGV[theorem],
                                 "--theorem", theorem], capsys)
        assert code == 3
        assert report["verdict"] == "NOT-APPLICABLE"
        check = report["checks"][0]
        assert check["theorem_id"] == theorem and check["min_margin"] is None
        assert set(check) == NOT_APPLICABLE_CHECK and check["mode"] == "full"
        assert "0.5/r near the pole r=0" in check["reason"]

    def test_every_pole_excess_check_is_tried_divergent(self):
        # MC_ROUGH reads l from r0, and EIGEN reads none.
        assert set(DIVERGENT_ARGV) == set(CHECK_IDS) - {"MC_ROUGH", "EIGEN"}

    def test_cone_point_is_not_applicable(self, capsys, tmp_path):
        # w'(0) = 1 + 1e-7 is a cone point: in full mode l = +inf.  It exited 2
        # with "quad_grid: 16 panel doublings did not meet tolerance".
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"n": 3, "custom": {
            "w": {"type": "poly", "coeffs": [0.0, 1.0 + 1e-7, 0.0, 0.02]}, "r_max": 3.0}}))
        argv = ["check", "--custom", str(path), "--theorem", "MC_DRIFT", "--H", "0.5"]
        code, report = run_json([*argv, "--mode", "full"], capsys)
        assert code == 3
        assert report["verdict"] == "NOT-APPLICABLE"
        assert "|w'| = 1 + 1e-07 at the pole r=0 is a cone point" in report["checks"][0]["reason"]
        assert run_json(argv, capsys)[0] == 0

    @pytest.mark.parametrize("tid, argv, call", [
        ("MC_ROUGH", ["--space", "perturbed_sphere", "--n", "3", "--param", "H=1", "--H", "1"],
         lambda: comparison.check_mc_rough(make_space("perturbed_sphere", n=3, H=1.0), 1.0)),
        ("DOUBLING", [*_FLAT, "--alpha", "2", "--R", "0.7"],
         lambda: comparison.check_doubling(make_space("euclidean", n=3), 0.0, 2.0, 0.7)),
        ("VOL_ABS_NEGH", ["--space", "hyperbolic", "--n", "3", "--param", "H=-1"],
         lambda: comparison.check_absolute_volume_negH(make_space("hyperbolic", n=3, H=-1.0),
                                                       -1.0)),
    ], ids=["MC_ROUGH", "DOUBLING", "VOL_ABS_NEGH"])
    def test_library_defaults_run_the_cli_check(self, capsys, tid, argv, call):
        # The CLI chose MC_ROUGH's r0, which the library required, and ran
        # grids of its own size; now each checker owns its default (64 radii
        # for DOUBLING, 256 for VOL_ABS_NEGH), and the CLI states none.
        code, report = run_json(["check", "--theorem", tid, *argv], capsys)
        check = report["checks"][0]
        del check["wall_time_ms"]
        assert code == 0 and check == json.loads(json.dumps(call().to_dict()))

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
        # The keys one writer gives every kind: mode where the id reads one
        # (EIGEN reads none), and a tolerance wherever a margin was compared.
        gated = check["verdict"] == "NOT-APPLICABLE"
        assert ("mode" in check) == (tid != "EIGEN")
        assert ("tolerance" in check) == (not gated)
        assert {"reason"} | SHARED_CHECK <= set(check)
        assert check["pass"] == (check["verdict"] == "PASS")
        if gated:
            assert check["min_margin"] is None and code == 3
        elif not check["reason"]:
            assert check["pass"] == (check["min_margin"] >= -check["tolerance"])
        if tid == "CHENG":
            # H = 2 on the unit sphere: l is far above epsilon, so the gate
            # fires after both solves.  It has the one NOT-APPLICABLE shape
            # and keeps the eigenvalues and their ratio.
            code, report = run_json(["check", *_SPHERE, "--H", "2", "--theorem", "CHENG",
                                     "--R", "1", "--delta", "0.1"], capsys)
            [check] = report["checks"]
            assert code == 3 and check["verdict"] == "NOT-APPLICABLE"
            assert set(check) == NOT_APPLICABLE_CHECK | {"ratio", "tol_abs", "tol_rel"}
            assert check["min_margin"] is None and check["pass"] is False
            p = check["params"]
            assert check["ratio"] == p["lambda_ball"] / p["lambda_model"]

    @pytest.mark.parametrize("tid", CHECK_IDS)
    def test_each_id_keeps_its_tolerance_rule(self, capsys, tmp_path, tid):
        # The rule each id's margin is judged with: comparisons take
        # max(1e-8, 1e-6 |rhs|) at the minimum margin, MYERS 1e-9, CHENG 1e-8
        # and EIGEN 0, with min_margin the residual bound minus the residual.
        argv = ["check", "--theorem", tid, *CHECK_ARGV[tid]]
        if tid in cli._NO_CSV:
            code, report = run_json(argv, capsys)
        else:
            code, report = run_json([*argv, "--format", "csv", "--out",
                                     str(tmp_path / "rows.csv")], capsys)
        [check] = report["checks"]
        assert code == 0
        if tid == "MYERS":
            assert check["tolerance"] == 1e-9
            want = min(check["bounds"].values()) - check["actual_diameter"]
        elif tid == "CHENG":
            assert check["tolerance"] == 1e-8
            want = 1.0 + check["params"]["delta"] - check["ratio"]
        elif tid == "EIGEN":
            assert check["tolerance"] == 0.0
            want = check["residual_bound"] - check["residual"]
        else:
            rows = np.loadtxt(tmp_path / "rows.csv", delimiter=",", skiprows=1, ndmin=2)
            r, lhs, rhs, margin = rows[np.argmin(rows[:, 3])]
            assert check["tolerance"] == max(1e-8, 1e-6 * abs(rhs))
            want = margin
        assert check["min_margin"] == want

    def test_comparison_tolerance_floor(self, capsys):
        # A small ball's volume is below 1e-2, so the floor 1e-8 holds.
        code, report = run_json(["check", *_FLAT, "--theorem", "VOL_B_ABS", "--R", "0.1",
                                 "--grid", "32"], capsys)
        assert code == 0 and report["checks"][0]["tolerance"] == 1e-8

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

    @pytest.mark.parametrize("tid, argv", [
        *[pytest.param(tid, CHECK_ARGV[tid], id=tid) for tid in ("MYERS", "CHENG")],
        *[pytest.param(tid, [*_DIVERGENT, *DIVERGENT_ARGV[tid]], id=f"{tid}-divergent")
          for tid in ("MYERS", "CHENG")],
    ])
    def test_report_without_grid_refuses_csv(self, capsys, tmp_path, monkeypatch, tid, argv):
        # Refused before the space is built: a divergent l made a header-only
        # CSV and exit 3, and radial CHENG exited 2 only after both solves.
        def unbuilt(spec):
            raise AssertionError("the space was built")

        monkeypatch.setattr(cli.SpaceSpec, "build", unbuilt)
        out = tmp_path / "grid.csv"
        code = main(["check", "--theorem", tid, *argv,
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
        inner = [arg for name in ("r", "alpha") if name in READS[tid]
                 for arg in (f"--{name}", FLAG_VALUE[name])]
        assert main(["check", *_FLAT, "--theorem", tid, "--H", H, *inner, "--R", R]) == 2
        captured = capsys.readouterr()
        want = ("the R >= 1 estimate requires R >= 1" if tid == "VOL_R1"
                else "require 0 < R <= 10.0")
        assert captured.err == f"error: {want}, got {float(R)}\n" and captured.out == ""

    @pytest.mark.parametrize("flags, err", [
        (["--alpha", "0.5", "--epsilon", "10"], "alpha must be a finite number > 1, got 0.5"),
        (["--alpha", "1", "--epsilon", "10"], "alpha must be a finite number > 1, got 1.0"),
        (["--alpha", "0.5"], "alpha must be a finite number > 1, got 0.5"),
        (["--alpha", "2", "--epsilon", "-1"],
         "epsilon must be a finite number >= 0, got -1.0"),
        (["--alpha", "2", "--k", "0.1", "--a", "0.3"],
         "the doubling check takes k or a, not both: got k=0.1, a=0.3"),
    ], ids=["alpha-with-epsilon", "alpha1-with-epsilon", "alpha", "epsilon", "k-and-a"])
    def test_doubling_checks_alpha_and_epsilon(self, capsys, flags, err):
        # With --epsilon given, alpha was never checked: alpha 0.5 and 1
        # reported FAIL (exit 1), and epsilon -1 NOT-APPLICABLE (exit 3).
        # With --k given, --a was dropped.
        assert main(["check", *_FLAT, "--theorem", "DOUBLING", "--H", "1", "--R", "0.7",
                     "--grid", "16", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {err}\n" and captured.out == ""

    @pytest.mark.parametrize("mode", ["radial", "full"])
    @pytest.mark.parametrize("flags, err", [
        (["--R", "20", "--delta", "0.1"], "require 0 < R < r_max=10.0, got 20.0"),
        (["--R", "1", "--delta", "0"], "delta must be > 0, got 0.0"),
        ([*_ON_SPHERE, "--R", "0", "--delta", "0.1"], "R must be > 0, got 0.0"),
        ([*_ON_SPHERE, "--H", "1", "--R", "1.6", "--delta", "0.1"], _CHENG_CAP),
        ([*_ON_SPHERE, "--R", "1.6", "--delta", "0"], _CHENG_CAP),
    ], ids=["R", "delta", "sphere-R0", "sphere-cap", "sphere-cap-delta0"])
    def test_cheng_checks_its_inputs_before_the_excess(self, capsys, mode, flags, err):
        # In full mode this space's l = +inf (on either base); an R beyond
        # r_max reported that (exit 3) instead of the malformed R.  The CLI
        # checks the range cap first, so an R past it and delta = 0 name
        # the cap (they named delta).
        assert main(["check", *_DRIFT, "--mode", mode, "--theorem", "CHENG", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {err}\n" and captured.out == ""

    @pytest.mark.parametrize("tid, name", [(tid, name) for tid in CHECK_IDS
                                           for name in ("k", "a") if name in READS[tid]])
    def test_a_negative_constant_is_malformed(self, capsys, tid, name):
        # The bound's 1e-9 slack let k or a in [-1e-9, 0) through: MC_DRIFT
        # passed at a < 0, MC_BOUNDED_F_INNER compared against d < n, and
        # others exited 2 from the model with a message naming no flag.
        assert main(["check", *CHECK_ARGV[tid], "--theorem", tid, f"--{name}=-1e-10"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {name}=-1e-10 is below 0\n" and captured.out == ""

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

    def test_format_is_a_check_flag(self, capsys, tmp_path):
        # A sweep writes one CSV; it took --format json and printed the CSV.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *_FLAT, "--theorem", "MC_DRIFT", "--grid", "16",
                     "--range", "a=0:1:2", "--format", "json", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --format json" in captured.err
        assert captured.out == "" and not out.exists()


_PSPHERE = ["--space", "perturbed_sphere", "--n", "3", "--param", "H=1", "--H", "1"]


class TestSweepReuse:
    """A sweep builds each distinct point space once and computes its
    potential bounds once; every row is still its point's single check."""

    @staticmethod
    def sweep_counted(monkeypatch, capsys, argv):
        """(CSV lines, cli.make_space calls, potential-bounds computations)."""
        counts = {"make_space": 0, "bounds": 0}
        make, bounds = cli.make_space, smmskit.smms.PotentialBounds

        def counted_make(*args, **kwargs):
            counts["make_space"] += 1
            return make(*args, **kwargs)

        def counted_bounds(**kwargs):
            counts["bounds"] += 1
            return bounds(**kwargs)

        monkeypatch.setattr(cli, "make_space", counted_make)
        monkeypatch.setattr(smmskit.smms, "PotentialBounds", counted_bounds)
        main(["sweep", *argv])
        lines = capsys.readouterr().out.splitlines()
        monkeypatch.undo()
        return lines, counts["make_space"], counts["bounds"]

    @staticmethod
    def assert_rows_are_checks(capsys, argv, lines):
        """Each row's min_margin (bit for bit), verdict and epsilon are those
        of the check at its point; a range name sets --<flag> or --param."""
        header = lines[0].split(",")
        names = header[:header.index("min_margin")]
        for line in lines[1:]:
            cells = dict(zip(header, line.split(",")))
            point = []
            for name in names:
                point += ([f"--{name}", cells[name]] if name in cli._THEOREM_FLAGS
                          else ["--param", f"{name}={cells[name]}"])
            _, report = run_json(["check", *argv, *point], capsys)
            check = report["checks"][0]
            margin = check["min_margin"]
            assert cells["min_margin"] == ("nan" if margin is None else f"{margin:.17g}")
            assert cells["verdict"] == report["verdict"]
            if "epsilon" in cells:
                assert cells["epsilon"] == f"{check['params']['epsilon']:.17g}"

    @pytest.mark.parametrize("argv, rng", [
        ([*_PSPHERE, "--param", "eps=0.05", "--param", "omega=3", "--theorem", "VOL_B",
          "--r", "0.3", "--grid", "64"], "R=0.95:1.45:3"),
        ([*_PSPHERE, "--param", "eps=0.005", "--theorem", "DOUBLING", "--R", "1.2",
          "--grid", "16"], "alpha=1.5:6:4"),
        ([*_PSPHERE, "--theorem", "MC_DRIFT", "--grid", "32"], "a=0:1:3"),
    ], ids=["VOL_B-R", "DOUBLING-alpha", "MC_DRIFT-a"])
    def test_theorem_flag_sweep_builds_one_space(self, monkeypatch, capsys, argv, rng):
        # Every point rebuilt the space and recomputed its bounds.
        lines, built, bounds = self.sweep_counted(monkeypatch, capsys,
                                                  [*argv, "--range", rng])
        assert len(lines) > 3
        assert (built, bounds) == (1, 1)
        self.assert_rows_are_checks(capsys, argv, lines)

    def test_mesh_builds_one_space_per_distinct_space(self, monkeypatch, capsys):
        # With eps outer a space's points are consecutive, with R outer they
        # alternate; either order builds two spaces for six points.
        argv = [*_PSPHERE, "--theorem", "VOL_B", "--r", "0.3", "--grid", "32"]
        for ranges in (["eps=0.01:0.05:2", "R=1:1.4:3"], ["R=1:1.4:3", "eps=0.01:0.05:2"]):
            lines, built, bounds = self.sweep_counted(
                monkeypatch, capsys, [*argv, *(arg for r in ranges for arg in ("--range", r))])
            assert len(lines) == 7
            assert (built, bounds) == (2, 2)
        self.assert_rows_are_checks(capsys, argv, lines)


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

    @pytest.mark.parametrize("tid, flag", [(tid, f"--{flag}") for tid in READS
                                           for flag in FLAG_VALUE if flag not in READS[tid]])
    def test_tolerance_flags_rejected_where_nothing_reads_them(self, capsys, flag, tid):
        # Theorem flags too: all but the tolerances were dropped, so MYERS
        # --k 5 passed on the space's own k = 0 and MC_DRIFT --R 0.5 ran to the
        # cap.  --grid and --mode had defaults and were open to every id, so
        # EIGEN --mode full ran radial, and EIGEN --H was dropped too.
        code = main(["check", "--theorem", tid, *CHECK_ARGV[tid], flag, FLAG_VALUE[flag[2:]]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: {flag}: theorem {tid} does not read it\n"
        assert captured.out == ""

    @pytest.mark.parametrize("tid, flag", [(tid, flag) for tid in READS
                                           for flag in sorted(READS[tid])])
    def test_flags_accepted_where_the_theorem_reads_them(self, capsys, tid, flag):
        argv = CHECK_ARGV[tid]
        if f"--{flag}" not in argv:  # a required flag is in the run already
            argv = [*argv, f"--{flag}", FLAG_VALUE[flag]]
        code, report = run_json(["check", "--theorem", tid, *argv], capsys)
        # Every run is graded but CHENG's at --H 0.2: l > epsilon on flat space.
        assert code == (3 if (tid, flag) == ("CHENG", "H") else 0)
        assert report["checks"][0]["theorem_id"] == tid

    @pytest.mark.parametrize("tid", CHECK_IDS)
    def test_typed_checker_defaults_change_nothing(self, capsys, tid):
        # No optional flag, then the checkers' defaults of --grid and --mode
        # typed where the id reads them: the CLI adds no default of its own.
        argv = list(CHECK_ARGV[tid])
        if "--grid" in argv:
            del argv[argv.index("--grid"):argv.index("--grid") + 2]
        defaults = {**CHECKER_DEFAULT, **({"grid": "64"} if tid == "DOUBLING" else {})}
        typed = [arg for flag, value in defaults.items() if flag in READS[tid]
                 for arg in (f"--{flag}", value)]
        checks = []
        for extra in ([], typed):
            code, report = run_json(["check", "--theorem", tid, *argv, *extra], capsys)
            del report["checks"][0]["wall_time_ms"]
            checks.append((code, report))
        assert checks[0] == checks[1] and checks[0][0] in (0, 3)

    def test_sweep_over_a_flag_the_theorem_does_not_read(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *_FLAT, "--theorem", "MC_DRIFT", "--range", "k=0:0.2:3",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --range k: theorem MC_DRIFT does not read it\n"
        assert captured.out == "" and not out.exists()

    def test_tolerance_flags_accepted_by_eigen_and_cheng(self, capsys):
        for tid in ("EIGEN", "CHENG"):
            code, report = run_json(["check", "--theorem", tid, *CHECK_ARGV[tid],
                                     "--tol-abs", "1e-7", "--tol-rel", "1e-5"], capsys)
            assert code == 0
            check = report["checks"][0]
            assert (check["tol_abs"], check["tol_rel"]) == (1e-7, 1e-5)

    @pytest.mark.parametrize("flag, value", [
        ("--tol-rel", "-1"), ("--tol-rel", "0"), ("--tol-rel", "1"), ("--tol-rel", "2"),
        ("--tol-abs", "-1"), ("--tol-abs", "0"), ("--tol-abs", "1"),
    ])
    def test_tol_rel_not_positive_is_refused(self, capsys, flag, value):
        # A --tol-rel <= 0 was raised to the 1e-12 floor, so the run passed
        # with tol_rel 1e-12; the others' diagnostics named no flag
        # ("abs_tol must be in (0, 1), got -1.0").
        code = main(["check", *_FLAT, "--theorem", "EIGEN", "--R", "1", flag, value])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {flag}: ")

    def test_tol_rel_below_the_floor_is_raised_to_it(self, capsys):
        code, report = run_json(["check", *_FLAT, "--theorem", "EIGEN", "--R", "1",
                                 "--tol-rel", "1e-14"], capsys)
        assert code == 0 and report["checks"][0]["tol_rel"] == 1e-12

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
