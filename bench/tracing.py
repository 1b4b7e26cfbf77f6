"""Spans and counters recorded from outside the program.

smmskit imports its kernels by name (``from .numkit import integrate_ode``),
so a call is intercepted by replacing the attribute in the module that
looks it up: ``comparison.integrate_ode`` and ``eigen.integrate_ode`` are
separate spans.  Callables passed into a kernel (ODE right-hand sides,
integrands, root functions) are wrapped to count their evaluations.

Spans are appended to flat arrays (name id, parent index, start, end) and
written out once the run ends; self time is derived from them afterwards.
Nothing is wrapped unless ``Tracer.install`` is called, so an untraced run
executes the program unmodified.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

__all__ = ["Tracer", "TARGETS"]

# (span name, modules that look the function up, what to count)
#   rhs    -- wrap argument 0 (an ODE right-hand side), count its calls, and
#             count the accepted steps of the returned OdeTrajectory
#   points -- wrap argument 0 (a vectorized integrand), count the abscissae
#   evals  -- wrap argument 0 (a scalar function), count its calls
TARGETS = [
    ("cli.main", ("cli",), None),
    ("smms.make_space", ("cli",), None),
    ("smms.potential_bounds", ("comparison", "diameter", "eigen"), None),
    ("smms.integral_rho", ("comparison", "diameter", "eigen"), None),
    ("numkit.quad_grid", ("comparison", "smms"), "points"),
    ("comparison.integrate_ode", ("comparison",), "rhs"),
    ("model.volume_model", ("comparison", "eigen"), None),
    ("numkit.quad_adaptive", ("model", "smms", "diameter", "eigen"), "evals"),
    ("comparison.doubling_epsilon", ("comparison", "eigen"), None),
    ("numkit.find_root_bracketed", ("comparison",), "evals"),
    ("eigen.integrate_ode", ("eigen",), "rhs"),
    ("eigen.first_eigenvalue", ("eigen",), None),
    ("smms.mean_curvature_f", ("comparison", "eigen"), None),
    ("model.mean_curvature_model", ("comparison", "eigen"), None),
]

_ATTR_OVERRIDE = {"eigen.first_eigenvalue": "_first_eigenvalue"}


class Tracer:
    """In-memory span and counter store with module patching."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = [-1]
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str, count: str | None):
        nid = self._id(name)
        counts = self.counts
        stack = self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        perf = time.perf_counter
        key_calls = f"{name}.calls"
        key_extra = {"rhs": f"{name}.rhs_evals", "points": f"{name}.points",
                     "evals": f"{name}.evals"}.get(count)

        def counted(inner):
            if count == "points":
                def f(x, *a, **k):
                    counts[key_extra] += np.size(x)
                    return inner(x, *a, **k)
            else:
                def f(*a, **k):
                    counts[key_extra] += 1
                    return inner(*a, **k)
            return f

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None and args:
                args = (counted(args[0]),) + args[1:]
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                counts[key_calls] += 1
            if count == "rhs":
                counts[f"{name}.steps"] += len(result.ts) - 1
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every target in the already imported ``package`` modules."""
        for name, modules, count in TARGETS:
            attr = _ATTR_OVERRIDE.get(name, name.rsplit(".", 1)[1])
            for mod_name in modules:
                mod = getattr(package, mod_name)
                original = getattr(mod, attr)
                setattr(mod, attr, self._wrap(original, name, count))
                self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: inclusive seconds and self seconds (duration minus
        the time covered by direct children)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) \
            - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        np.add.at(child, par[par >= 0], dur[par >= 0])
        return {name: {"s": float(dur[ids == nid].sum()),
                       "self_s": float((dur - child)[ids == nid].sum())}
                for nid, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Spans as .npz: names, name_id, parent, start, end (seconds)."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))
