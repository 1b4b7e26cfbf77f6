"""The benchmark's tracer patches program names by lookup; they must exist."""

import importlib.util
from pathlib import Path

import smmskit
import smmskit.cli

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_checks(tmp_path):
    tracer = _load_tracing().Tracer()
    main = smmskit.cli.main
    tracer.install(smmskit)
    try:
        # The tracer wraps the integrate_ode placeholders like any target.
        assert callable(smmskit.comparison.integrate_ode)
        assert callable(smmskit.eigen.integrate_ode)
        for argv in (["--space", "perturbed_sphere", "--n", "3", "--param", "H=1",
                      "--theorem", "VOL_B", "--r", "0.3", "--R", "1.2", "--grid", "32"],
                     ["--space", "sphere", "--n", "3", "--param", "H=1",
                      "--theorem", "MYERS"],
                     # CHENG's model volumes call quad_adaptive; no VOL
                     # check does.
                     ["--space", "euclidean", "--n", "3", "--theorem", "CHENG",
                      "--R", "1", "--delta", "0.1"]):
            out = tmp_path / "report.json"
            assert smmskit.cli.main(["check", *argv, "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    assert smmskit.cli.main is main
    # uninstall puts the placeholders back.
    assert smmskit.comparison.integrate_ode is None
    assert smmskit.eigen.integrate_ode is None
    counts = tracer.counts
    assert counts["cli.main.calls"] == 3
    assert counts["smms.make_space.calls"] == 3
    # No check solves an ODE: VOL_B's volumes come from fixed rules and
    # CHENG shoots on Magnus panels, so neither placeholder is called.
    assert counts["comparison.integrate_ode.calls"] == 0
    assert counts["eigen.integrate_ode.calls"] == 0
    assert counts["smms.potential_bounds.calls"] > 0
    assert counts["smms.integral_rho.calls"] == 3
    # Both quadrature entry points stay imported where the tracer looks.
    assert counts["numkit.quad_grid.points"] > 0
    assert counts["numkit.quad_adaptive.calls"] > 0
