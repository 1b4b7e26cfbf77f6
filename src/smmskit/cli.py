"""Command-line front end.

Subcommands: ``list-spaces`` (catalog with parameter schemas), ``check``
(run one theorem check on one space), ``sweep`` (run a check over a
parameter grid).  JSON is the canonical report format; grids export as CSV
with header exactly ``r,lhs,rhs,margin``.

Exit codes: 0 all checks pass, 1 any check fails, 2 malformed input
(diagnostic names the offending field) or numerical failure, 3 all checks
gated NOT-APPLICABLE.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from . import comparison as cmp
from . import diameter, eigen
from .numkit import KernelError, Tolerance
from .smms import (CATALOG, RHO_MODES, DivergentExcessError, WarpedSMMS, check_space_params,
                   make_space)

__all__ = ["SpaceSpec", "main", "run", "CHECK_IDS"]

# Theorem-level flags and their help.  A sweep range named param.<name>
# sets the space parameter <name>; a bare name sets the theorem flag of that
# name, and any other bare name the space parameter.
_PARAM_PREFIX = "param."
_THEOREM_FLAGS = {
    "H": "comparison curvature",
    "k": "potential bound sup|f|",
    "a": "drift bound",
    "delta": "eigenvalue slack",
    "alpha": "doubling factor",
    "epsilon": "doubling threshold",
    "r": "inner radius",
    "R": "outer radius",
    "r0": "base radius (MC_ROUGH)",
}


class InputError(Exception):
    """Malformed input; message names the offending field."""


@dataclass
class SpaceSpec:
    """Space selection as echoed into reports (catalog id or custom)."""

    name: str
    n: int
    params: dict = field(default_factory=dict)
    custom: dict | None = None
    _space: WarpedSMMS | None = field(default=None, init=False, repr=False, compare=False)

    def build(self) -> WarpedSMMS:
        """The space, built on the first call and kept: the sweep points
        that share a spec share its build."""
        if self._space is None:
            if self.name == "custom" and not self.custom:
                raise InputError("custom space requires a 'custom' profile block")
            params = self.custom if self.name == "custom" else self.params
            self._space = make_space(self.name, n=self.n, **params)
        return self._space

    def to_dict(self) -> dict:
        out = {"name": self.name, "n": self.n, "params": dict(self.params)}
        if self.custom is not None:
            out["custom"] = self.custom
        return out


def _overall(verdicts: list[str]) -> tuple[str, int]:
    if any(v == "FAIL" for v in verdicts):
        return "FAIL", 1
    if verdicts and all(v == "NOT-APPLICABLE" for v in verdicts):
        return "NOT-APPLICABLE", 3
    return "PASS", 0


def _eigen_tol(tol_abs: float | None, tol_rel: float | None) -> Tolerance:
    """The eigen bracket tolerance of --tol-abs and --tol-rel (CHENG, EIGEN)."""
    return Tolerance(abs_tol=1e-8 if tol_abs is None else tol_abs,
                     rel_tol=max(1e-6 if tol_rel is None else tol_rel, 1e-12))


# The flags every comparison check reads besides its own.
_COMPARISON = ("H", "grid", "mode")

# Theorem id -> (checker(space, H, **flags) -> report, flags it requires,
# other flags it reads).  The checker gets the typed flags of its entry under
# their own names (--grid as n_grid) and owns every default; a flag outside
# the entry is refused.  H defaults from --param H, else 0.
_CHECKS = {
    "MC_ROUGH": (cmp.check_mc_rough, (), ("r0", *_COMPARISON)),
    "MC_BOUNDED_F_INNER": (cmp.check_mc_bounded_f_inner, (), ("k", *_COMPARISON)),
    "MC_BOUNDED_F_PI2": (cmp.check_mc_bounded_f_pi2, (), ("k", *_COMPARISON)),
    "MC_DRIFT": (cmp.check_mc_drift, (), ("a", *_COMPARISON)),
    "AREA_A": (lambda s, H, k=None, **kw: cmp.check_area_comparison(
        s, H, bound="k", const=k, **kw), ("r", "R"), ("k", *_COMPARISON)),
    "AREA_B": (lambda s, H, a=None, **kw: cmp.check_area_comparison(
        s, H, bound="a", const=a, **kw), ("r", "R"), ("a", *_COMPARISON)),
    "VOL_A": (lambda s, H, k=None, **kw: cmp.check_volume_comparison(
        s, H, bound="k", const=k, **kw), ("r", "R"), ("k", *_COMPARISON)),
    "VOL_B": (lambda s, H, a=None, **kw: cmp.check_volume_comparison(
        s, H, bound="a", const=a, **kw), ("r", "R"), ("a", *_COMPARISON)),
    "VOL_B_ABS": (cmp.check_volume_absolute, ("R",), ("a", *_COMPARISON)),
    "VOL_ABS_NEGH": (cmp.check_absolute_volume_negH, (), ("k", "R", *_COMPARISON)),
    "DOUBLING": (cmp.check_doubling, ("alpha", "R"), ("epsilon", "k", "a", *_COMPARISON)),
    "VOL_R1": (cmp.check_vol_r1, ("R",), ("k", *_COMPARISON)),
    "MYERS": (diameter.check_myers, (), ("H", "mode")),
    "CHENG": (lambda s, H, a=None, tol_abs=None, tol_rel=None, **kw: eigen.check_cheng_estimate(
        s, H, a, tol=_eigen_tol(tol_abs, tol_rel), **kw),
        ("R", "delta"), ("H", "a", "mode", "tol_abs", "tol_rel")),
    "EIGEN": (lambda s, H, R, tol_abs=None, tol_rel=None: eigen.smms_radial_eigenvalue(
        s, R, _eigen_tol(tol_abs, tol_rel)), ("R",), ("tol_abs", "tol_rel")),
}
# Every flag an entry may list.
_CHECK_FLAGS = (*_THEOREM_FLAGS, "grid", "mode", "tol_abs", "tol_rel")
# The ids whose reports hold no radii, so nothing for --format csv.
_NO_CSV = ("MYERS", "CHENG")

CHECK_IDS = tuple(_CHECKS)


def _print(text: str) -> None:
    """Write to stdout; a reader that closes the pipe early ends it quietly."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; send that flush to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(report: dict, rep, args) -> None:
    """The JSON report to --out or stdout.  With --format csv the grid or
    samples CSV goes to --out, the report then to stdout, or to stdout alone."""
    if args.format == "csv":
        if not args.out:
            _print(rep.to_csv())
            return
        Path(args.out).write_text(rep.to_csv())
        report["checks"][0]["grid_csv_path"] = str(Path(args.out))
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out and args.format == "json":
        Path(args.out).write_text(payload)
    else:
        _print(payload)


def run_spec_check(spec: SpaceSpec, theorem: str, args):
    """Validate, build the space, run one theorem check, assemble the report.

    Returns the report dict, its exit code and the check's report object.
    """
    tid = theorem.upper()
    if tid not in _CHECKS:
        raise InputError(f"unknown theorem id {tid!r}; known: {', '.join(CHECK_IDS)}")
    checker, required, _ = _CHECKS[tid]
    typed = {name: getattr(args, name) for name in _CHECK_FLAGS
             if getattr(args, name) is not None}
    for name in typed:
        if name not in _reads(tid):
            raise InputError(f"--{name.replace('_', '-')}: theorem {tid} does not read it")
    for name in _THEOREM_FLAGS:
        _require_finite(f"--{name}", getattr(args, name))
    if typed.get("grid", cmp.MIN_GRID_POINTS) < cmp.MIN_GRID_POINTS:
        raise InputError(f"--grid: a check needs at least {cmp.MIN_GRID_POINTS} grid points,"
                         f" got {args.grid}")
    H = float(typed.pop("H", spec.params.get("H", 0.0)))
    if args.R is not None:
        cmp.require_admissible(tid, H, args.R)
    space = spec.build()
    for name in required:
        if name not in typed:
            raise InputError(f"theorem {tid} requires --{name}")

    t_start = time.perf_counter()
    try:
        rep = checker(space, H, **{"n_grid" if k == "grid" else k: v for k, v in typed.items()})
    except DivergentExcessError as exc:  # l = +inf: an unmet hypothesis
        rep = cmp._not_applicable(tid, {"n": space.n, "H": H}, exc.mode, str(exc))
    wall_ms = (time.perf_counter() - t_start) * 1e3

    check = {**rep.to_dict(), "wall_time_ms": wall_ms}
    verdict, code = _overall([check["verdict"]])
    report = {"tool_version": __version__, "spec": spec.to_dict(),
              "checks": [check], "verdict": verdict}
    return report, code, rep


def _reads(tid: str) -> tuple:
    """Every flag theorem ``tid`` reads, required or not."""
    _, required, reads = _CHECKS[tid]
    return (*required, *reads)


def _require_finite(field: str, value) -> None:
    """NaN and infinities are malformed input wherever a real is expected."""
    if value is not None and not math.isfinite(value):
        raise InputError(f"{field}: not a finite number: {value!r}")


def _require_finite_json(value, path: str = "") -> None:
    """``_require_finite`` on every number of a --custom spec (JSON admits
    NaN and Infinity); the message names the field, e.g. custom.r_max."""
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite_json(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite_json(item, f"{path}[{i}]")
    elif isinstance(value, float):
        _require_finite(f"--custom: {path}", value)


# Space parameters whose value is a catalog name, kept as text.
_NAME_PARAMS = ("base",)


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise InputError(f"--param expects K=V, got {pair!r}")
        key, _, val = pair.partition("=")
        if key in _NAME_PARAMS:
            out[key] = val
            continue
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise InputError(f"--param {key}: not a real number: {val!r}") from exc
        _require_finite(f"--param {key}", out[key])
    return out


def _space_spec_from_args(args) -> SpaceSpec:
    if args.custom:
        if args.param:
            raise InputError("--param: a --custom space takes no space parameters; "
                             "set them in the spec file")
        try:
            payload = json.loads(Path(args.custom).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"--custom: cannot read spec file: {exc}") from exc
        _require_finite_json(payload)
        block = (payload.get("custom") or {}) if isinstance(payload, dict) else None
        if not isinstance(block, dict):
            raise InputError("--custom: the spec must be a JSON object whose 'custom' "
                             "block is an object")
        for key in payload:
            if key not in ("n", "custom"):
                raise InputError(f"--custom: {key}: the top level holds only n and custom")
        n = payload.get("n", args.n)
        if type(n) is not int:
            raise InputError(f"--custom: n: the dimension must be an integer, got {n!r}")
        if "n" in block:
            raise InputError("--custom: custom.n: the dimension is the file's top-level n")
        return SpaceSpec(name="custom", n=n, custom=block)
    params = _parse_params(args.param)
    if "n" in params:
        raise InputError("--param n: the dimension is not a space parameter; set it with --n")
    return SpaceSpec(name=args.space, n=args.n, params=params)


def _add_check_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", default="euclidean", help="catalog space name")
    p.add_argument("--n", type=int, default=3, help="topological dimension")
    p.add_argument("--param", action="append", metavar="K=V",
                   help="space parameter (repeatable)")
    p.add_argument("--custom", metavar="FILE.json",
                   help="custom space spec (profile blocks w/f, r_max, closed)")
    p.add_argument("--theorem", required=True, help="theorem id to check")
    for name, help_text in _THEOREM_FLAGS.items():
        p.add_argument(f"--{name}", type=float, default=None, help=help_text)
    p.add_argument("--grid", type=int, default=None, help="grid points of a comparison check")
    p.add_argument("--mode", choices=RHO_MODES, default=None, help="curvature excess mode")
    p.add_argument("--tol-abs", dest="tol_abs", type=float, default=None,
                   help="eigenvalue bracket abs_tol (CHENG, EIGEN; default 1e-8)")
    p.add_argument("--tol-rel", dest="tol_rel", type=float, default=None,
                   help="eigenvalue bracket rel_tol (CHENG, EIGEN; default 1e-6)")
    p.add_argument("--out", default=None, help="output file")


def _cmd_list_spaces(args) -> int:
    items = sorted(CATALOG.items())
    if args.json:
        payload = [{"name": name, **info} for name, info in items]
        _print(json.dumps(payload, indent=2) + "\n")
        return 0
    lines = []
    for name, info in items:
        lines.append(f"{name}: {info['doc']}")
        lines.extend(f"    {pname}: {pdoc}" for pname, pdoc in info["params"].items())
    _print("\n".join(lines) + "\n")
    return 0


def _cmd_check(args) -> int:
    spec = _space_spec_from_args(args)
    if args.format == "csv" and args.theorem.upper() in _NO_CSV:
        raise InputError(f"--format csv: a {args.theorem.upper()} report has no grid "
                         "or samples to export; use --format json")
    report, code, rep = run_spec_check(spec, args.theorem, args)
    _emit(report, rep, args)
    return code


def _parse_range(text: str) -> tuple[str, np.ndarray]:
    if "=" not in text:
        raise InputError(f"--range expects PARAM=start:stop:count, got {text!r}")
    name, _, body = text.partition("=")
    parts = body.split(":")
    if len(parts) != 3:
        raise InputError(f"--range {name}: expects start:stop:count, got {body!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise InputError(f"--range {name}: malformed numbers in {body!r}") from exc
    _require_finite(f"--range {name}", start)
    _require_finite(f"--range {name}", stop)
    if count <= 0:
        raise InputError(f"--range {name}: count must be positive, got {count}")
    return name, np.linspace(start, stop, count)


def _range_target(spec: SpaceSpec, tid: str, name: str, first: float) -> tuple[bool, str]:
    """(True, parameter) for a range that sets a space parameter, checked at
    the range's ``first`` value, (False, flag) for one that sets a ``tid`` flag."""
    key = name.removeprefix(_PARAM_PREFIX)
    to_space = key != name or name not in _THEOREM_FLAGS
    if not to_space and tid in _CHECKS and name not in _reads(tid):
        raise InputError(f"--range {name}: theorem {tid} does not read it")
    if to_space and spec.name == "custom":
        raise InputError(f"--range {name}: a --custom space takes no space "
                         "parameters; set them in the spec file")
    if to_space and spec.name in CATALOG:
        try:
            check_space_params(spec.name, {**spec.params, key: float(first)})
        except ValueError as exc:
            raise InputError(f"--range {name}: {exc}") from exc
    return to_space, key


def _cmd_sweep(args) -> int:
    if not args.range:
        raise InputError("sweep requires at least one --range PARAM=start:stop:count")
    ranges = [_parse_range(r) for r in args.range]
    names = [name for name, _ in ranges]
    mesh = np.meshgrid(*[vals for _, vals in ranges], indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])

    spec = _space_spec_from_args(args)
    if spec.name in CATALOG:  # a bad --param fails before any point, whatever the ranges
        check_space_params(spec.name, spec.params)
    targets = [_range_target(spec, args.theorem.upper(), name, vals[0]) for name, vals in ranges]
    specs = {}  # one spec, so one build, per distinct point space
    rows = []
    for point in points:
        overrides = {}
        for (to_space, key), val in zip(targets, point):
            if to_space:
                overrides[key] = float(val)
            else:
                setattr(args, key, float(val))
        space_key = tuple(overrides.items())
        if space_key not in specs:
            specs[space_key] = replace(spec, params={**spec.params, **overrides})
        try:
            report, _, _ = run_spec_check(specs[space_key], args.theorem, args)
        except (KernelError, ValueError) as exc:
            # Same kind, so the same exit and prefix, naming the failing point.
            at = ", ".join(f"{name}={val:.17g}" for name, val in zip(names, point))
            kind = KernelError if isinstance(exc, KernelError) else ValueError
            raise kind(f"at {at}: {exc}") from exc
        check = report["checks"][0]
        rows.append((point, check["min_margin"], report["verdict"],
                     check["params"].get("epsilon")))

    # Gated theorems add the threshold each point was judged against.
    with_eps = any(eps is not None for *_, eps in rows)
    lines = [",".join(names) + ",min_margin,verdict" + (",epsilon" if with_eps else "")]
    for point, mm, verdict, eps in rows:
        cells = [f"{v:.17g}" for v in point]
        cells.append("nan" if mm is None else f"{mm:.17g}")
        cells.append(verdict)
        if with_eps:
            cells.append("nan" if eps is None else f"{eps:.17g}")
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        _print(text)

    _, code = _overall([verdict for _, _, verdict, _ in rows])
    return code


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    parsing does not change it, and building it costs ten times a parse."""
    parser = argparse.ArgumentParser(
        prog="smmskit",
        description="Check weighted comparison-geometry bounds on rotationally "
                    "symmetric smooth metric measure spaces.",
    )
    sub = parser.add_subparsers(dest="command")

    p_list = sub.add_parser("list-spaces", help="catalog of test spaces")
    p_list.add_argument("--json", action="store_true")

    p_check = sub.add_parser("check", help="run one theorem check")
    _add_check_flags(p_check)
    # A sweep writes one CSV, so only a check takes --format.
    p_check.add_argument("--format", choices=["json", "csv"], default="json")

    p_sweep = sub.add_parser("sweep", help="run a check over a parameter grid")
    _add_check_flags(p_sweep)
    p_sweep.add_argument("--range", action="append", metavar="PARAM=start:stop:count",
                         help="sweep range (repeatable)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command is None:
        parser.print_usage()
        return 2

    try:
        if args.command == "list-spaces":
            return _cmd_list_spaces(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KernelError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 2


def run() -> None:
    sys.exit(main())
