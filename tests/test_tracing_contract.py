"""The benchmark's tracer patches program names by lookup; they must exist."""

import ast
import importlib.util
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("theorem, flags", [
    ("CHENG", ["--R", "1", "--delta", "0.3"]),
    ("DOUBLING", ["--alpha", "2", "--R", "1.5"]),
    ("MYERS", ["--param", "base=sphere", "--param", "H=1", "--H", "1"]),
])
def test_a_divergent_excess_fails_before_the_work(theorem, flags, tmp_path):
    # A drift f = -a r in full mode has l = +inf.  Each check reads l after
    # its inputs and before its costly work, so the trace shows one excess
    # read and no eigen solve, no threshold search and (MYERS) no potential
    # bounds.  The memoized solves start empty, so a skipped one shows.
    smmskit.eigen.model_eigenvalue.cache_clear()
    smmskit.comparison.doubling_epsilon.cache_clear()
    tracer = _load_tracing().Tracer()
    tracer.install(smmskit)
    try:
        code = smmskit.cli.main(["check", "--space", "linear_drift", "--n", "3", "--param",
                                 "a=0.5", *flags, "--theorem", theorem, "--mode", "full",
                                 "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code == 3
    counts = tracer.counts
    assert counts["smms.integral_rho.calls"] == 1
    assert counts["eigen.first_eigenvalue.calls"] == 0
    assert counts["comparison.doubling_epsilon.calls"] == 0
    if theorem == "MYERS":
        assert counts["smms.potential_bounds.calls"] == 0


def test_every_tracer_shim_is_a_name_the_tracer_looks_up():
    # A module keeps a name only for bench/tracing.py (a _TRACED_NAMES
    # entry, or a None placeholder for a deleted kernel) while TARGETS looks
    # it up there; once the tracer stops, this fails on the stale shim.
    tracing = _load_tracing()
    looked_up = {}
    for name, modules, _ in tracing.TARGETS:
        attr = tracing._ATTR_OVERRIDE.get(name, name.rsplit(".", 1)[1])
        for mod in modules:
            looked_up.setdefault(mod, set()).add(attr)
    stale = {}
    for path in sorted(Path(smmskit.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)):
                continue
            if node.targets[0].id == "_TRACED_NAMES":
                shims = {e.id for e in node.value.elts}
            elif isinstance(node.value, ast.Constant) and node.value.value is None:
                shims = {node.targets[0].id}
            else:
                continue
            shims -= looked_up.get(path.stem, set())
            if shims:
                stale.setdefault(path.stem, set()).update(shims)
    assert not stale, f"shims bench/tracing.py TARGETS does not look up: {stale}"
