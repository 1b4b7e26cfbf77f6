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
from .smms import CATALOG, DivergentExcessError, WarpedSMMS, check_space_params, make_space

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

    def build(self) -> WarpedSMMS:
        if self.name == "custom":
            if not self.custom:
                raise InputError("custom space requires a 'custom' profile block")
            return make_space("custom", n=self.n, **self.custom)
        return make_space(self.name, n=self.n, **self.params)

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


def _resolve_H(args, spec: SpaceSpec) -> float:
    if getattr(args, "H", None) is not None:
        return float(args.H)
    if "H" in spec.params:
        return float(spec.params["H"])
    return 0.0


def _eigen_tol(args) -> Tolerance:
    """The eigen bracket tolerance; --tol-abs/--tol-rel reach CHENG and EIGEN only."""
    return Tolerance(abs_tol=1e-8 if args.tol_abs is None else args.tol_abs,
                     rel_tol=max(1e-6 if args.tol_rel is None else args.tol_rel, 1e-12))


# Theorem id -> (flags it requires, runner(space, H, args) -> report).
_CHECKS = {
    "MC_ROUGH": ((), lambda s, H, args: cmp.check_mc_rough(
        s, H, s.r_interior_hi / 4.0 if args.r0 is None else args.r0,
        mode=args.mode, n_grid=args.grid)),
    "MC_BOUNDED_F_INNER": ((), lambda s, H, args: cmp.check_mc_bounded_f_inner(
        s, H, args.k, mode=args.mode, n_grid=args.grid)),
    "MC_BOUNDED_F_PI2": ((), lambda s, H, args: cmp.check_mc_bounded_f_pi2(
        s, H, args.k, mode=args.mode, n_grid=args.grid)),
    "MC_DRIFT": ((), lambda s, H, args: cmp.check_mc_drift(
        s, H, args.a, mode=args.mode, n_grid=args.grid)),
    "AREA_A": (("r", "R"), lambda s, H, args: cmp.check_area_comparison(
        s, H, args.r, args.R, bound="k", const=args.k, mode=args.mode,
        n_grid=args.grid)),
    "AREA_B": (("r", "R"), lambda s, H, args: cmp.check_area_comparison(
        s, H, args.r, args.R, bound="a", const=args.a, mode=args.mode,
        n_grid=args.grid)),
    "VOL_A": (("r", "R"), lambda s, H, args: cmp.check_volume_comparison(
        s, H, args.r, args.R, bound="k", const=args.k, mode=args.mode,
        n_grid=args.grid)),
    "VOL_B": (("r", "R"), lambda s, H, args: cmp.check_volume_comparison(
        s, H, args.r, args.R, bound="a", const=args.a, mode=args.mode,
        n_grid=args.grid)),
    "VOL_B_ABS": (("R",), lambda s, H, args: cmp.check_volume_absolute(
        s, H, args.R, const=args.a, mode=args.mode, n_grid=args.grid)),
    "VOL_ABS_NEGH": ((), lambda s, H, args: cmp.check_absolute_volume_negH(
        s, H, k=args.k, R=args.R, mode=args.mode, n_grid=args.grid)),
    # Bounded-potential form when --k is given, drift form otherwise.
    "DOUBLING": (("alpha", "R"), lambda s, H, args: cmp.check_doubling(
        s, H, args.alpha, args.R, epsilon=args.epsilon,
        bound="a" if args.k is None else "k",
        const=args.a if args.k is None else args.k, mode=args.mode,
        n_grid=min(args.grid, 64))),
    "VOL_R1": (("R",), lambda s, H, args: cmp.check_vol_r1(
        s, H, args.R, const=args.k, mode=args.mode, n_grid=args.grid)),
    "MYERS": ((), lambda s, H, args: diameter.check_myers(s, H, mode=args.mode)),
    "CHENG": (("R", "delta"), lambda s, H, args: eigen.check_cheng_estimate(
        s, H, args.a, args.R, args.delta, mode=args.mode, tol=_eigen_tol(args))),
    "EIGEN": (("R",), lambda s, H, args: eigen.smms_radial_eigenvalue(
        s, args.R, _eigen_tol(args))),
}

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
        export = getattr(rep, "grid_csv", None) or getattr(rep, "samples_csv", None)
        if export is None:
            raise InputError(f"--format csv: a {rep.theorem_id} report has no grid "
                             "or samples to export; use --format json")
        if not args.out:
            _print(export())
            return
        Path(args.out).write_text(export())
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
    required, runner = _CHECKS[tid]
    for flag in ("tol_abs", "tol_rel"):
        if getattr(args, flag) is not None and tid not in ("CHENG", "EIGEN"):
            raise InputError(f"--{flag.replace('_', '-')}: theorem {tid} has no solver "
                             "tolerance; only CHENG and EIGEN read it")
    for name in _THEOREM_FLAGS:
        _require_finite(f"--{name}", getattr(args, name))
    if args.grid < cmp.MIN_GRID_POINTS:
        raise InputError(f"--grid: a check needs at least {cmp.MIN_GRID_POINTS} grid points,"
                         f" got {args.grid}")
    H = _resolve_H(args, spec)
    if args.R is not None:
        cmp.require_admissible(tid, H, args.R)
    space = spec.build()
    for name in required:
        if getattr(args, name) is None:
            raise InputError(f"theorem {tid} requires --{name}")

    t_start = time.perf_counter()
    try:
        rep = runner(space, H, args)
    except DivergentExcessError as exc:  # l = +inf: an unmet hypothesis
        rep = cmp._not_applicable(tid, {"n": space.n, "H": H}, args.mode, str(exc))
    wall_ms = (time.perf_counter() - t_start) * 1e3

    check = {**rep.to_dict(), "wall_time_ms": wall_ms}
    verdict, code = _overall([check["verdict"]])
    report = {"tool_version": __version__, "spec": spec.to_dict(),
              "checks": [check], "verdict": verdict}
    return report, code, rep


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
    p.add_argument("--grid", type=int, default=256, help="grid points")
    p.add_argument("--mode", choices=["radial", "full"], default="radial",
                   help="curvature excess mode")
    p.add_argument("--tol-abs", dest="tol_abs", type=float, default=None,
                   help="eigenvalue bracket abs_tol (CHENG, EIGEN; default 1e-8)")
    p.add_argument("--tol-rel", dest="tol_rel", type=float, default=None,
                   help="eigenvalue bracket rel_tol (CHENG, EIGEN; default 1e-6)")
    p.add_argument("--out", default=None, help="output file")
    p.add_argument("--format", choices=["json", "csv"], default="json")


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


def _range_target(spec: SpaceSpec, name: str, first: float) -> tuple[bool, str]:
    """(True, parameter) for a range that sets a space parameter, checked at
    the range's ``first`` value, (False, flag) for one that sets a theorem flag."""
    key = name.removeprefix(_PARAM_PREFIX)
    to_space = key != name or name not in _THEOREM_FLAGS
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
    targets = [_range_target(spec, name, vals[0]) for name, vals in ranges]
    rows = []
    for point in points:
        overrides = {}
        for (to_space, key), val in zip(targets, point):
            if to_space:
                overrides[key] = float(val)
            else:
                setattr(args, key, float(val))
        point_spec = replace(spec, params={**spec.params, **overrides})
        try:
            report, _, _ = run_spec_check(point_spec, args.theorem, args)
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


if __name__ == "__main__":
    run()
