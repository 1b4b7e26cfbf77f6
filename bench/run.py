"""Seeded end-to-end benchmark of `smmskit check` and `smmskit sweep`.

    python3 bench/run.py --workload checks --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client, closed loop, one single-threaded
process (BLAS pinned to one thread): each operation is an in-process
``smmskit.cli.main([...])`` call with ``--out`` into a scratch directory
under ``bench/results``; its output is then checked against the
independent computations in ``oracles.py``.  A run executes a fixed
number of whole rounds, set by ``--seconds`` and the workload's nominal
round cost (``workloads.round_count``).  Untraced runs report the
end-to-end metrics; ``--trace 1`` runs every operation twice, bare and
with every layer wrapped (see ``tracing.py``), and reports per-operation
layer metrics and the measured tracing overhead.  The last line of
standard output is one JSON object; a copy with per-slot detail is written
to ``bench/results``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Seed-independent first call: loads the CLI and numpy code paths and
# touches none of the program's caches.
WARMUP = ["check", "--space", "sphere", "--n", "3", "--param", "H=1.0",
          "--theorem", "MC_DRIFT", "--a", "0.0"]
SETUP_PROBES = 9
REQUESTED_GRID = 256  # the CLI's --grid default; ops never pass --grid

# The host's speed switches between states up to 1.6x apart within seconds
# and drifts over minutes (other tenants share the cores), which no amount
# of repetition inside one run averages away.  So a fixed reference kernel,
# independent of smmskit, is timed between operations (before an operation
# once KERNEL_EVERY_S seconds have passed since the last timing, and after
# the last operation).  Each operation's wall time is scaled by
# REFERENCE_KERNEL_S / (the median of the three kernel timings before it and
# the three after it): it reads as milliseconds on the reference machine at
# the kernel's reference speed.  The median follows the host's state but not
# a single timing caught in a brief fast or slow spell.  Raw wall times go
# to the detail file.
REFERENCE_KERNEL_S = 0.016
KERNEL_EVERY_S = 0.25
_RK_A = ((), (1 / 4,), (3 / 32, 9 / 32), (1932 / 2197, -7200 / 2197, 7296 / 2197),
         (439 / 216, -8.0, 3680 / 513, -845 / 4104),
         (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40))


def _kernel_rhs(t, y):
    c = float(np.asarray(np.cos(np.asarray(t))))
    return np.array([y[1], -c * y[1] - 2.0 * y[0]])


def reference_kernel() -> float:
    """Seconds for a fixed mix of the program's two kinds of work: scalar
    Runge-Kutta stages on small numpy arrays, and vectorized numpy
    integrand evaluations at growing sizes, up to the program's largest
    grids (so the kernel does not set the process's peak memory)."""
    t0 = time.perf_counter()
    y, t, h = np.array([1.0, 0.0]), 0.0, 1e-3
    for _ in range(100):
        k = [_kernel_rhs(t, y)]
        for i in range(1, 6):
            k.append(_kernel_rhs(t + h, y + h * sum(a * k[j] for j, a in enumerate(_RK_A[i]))))
        y, t = y + h * sum(0.1 * kk for kk in k), t + h
    for n, repeats in ((256, 2), (2048, 2), (16384, 18)):
        x = np.linspace(0.1, 1.0, n)
        for _ in range(repeats):
            v = np.maximum(0.0, 2.0 - np.sin(x) / x) ** 2.0 * np.exp(-x)
            float(v[1::2].sum() + v[::2].sum())
    return time.perf_counter() - t0


def import_cli():
    """Import smmskit.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "smmskit" / "cli.py").is_file():
        raise SystemExit(f"error: no smmskit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import smmskit
    from smmskit import cli
    if Path(smmskit.__file__).resolve().parent != (SRC / "smmskit").resolve():
        raise SystemExit(f"error: imported smmskit from {smmskit.__file__}, "
                         f"not from {SRC}")
    return cli


def clear_program_caches(package) -> None:
    """Empty every ``lru_cache`` of the program, as a fresh process has them."""
    prefix = package.__name__ + "."
    for name, module in list(sys.modules.items()):
        if name.startswith(prefix):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def set_up(workload: str, seed: int, workdir: Path):
    """Import the CLI, generate the first round, run the warm-up call."""
    cli = import_cli()
    rounds = workloads.rounds(workload, seed, workdir)
    first = next(rounds)
    code = cli.main(WARMUP + ["--out", str(workdir / "warmup.json")])
    if code != 0:
        raise SystemExit(f"error: warm-up check exited {code}")
    return cli, first, rounds


def set_up_once(workload: str, seed: int) -> None:
    """One throw-away set-up, as a fresh interpreter pays it."""
    workdir = Path(tempfile.mkdtemp(dir=RESULTS))
    try:
        set_up(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def probe_setup(workload: str, seed: int) -> float:
    """Median set-up seconds over fresh interpreters (after one unmeasured
    probe, which fills the bytecode and file caches)."""
    code = ("import time; t0 = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {str(BENCH)!r}); import run; "
            f"run.set_up_once({workload!r}, {seed}); print(time.perf_counter() - t0)")
    times = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=os.environ,
                             capture_output=True, text=True, timeout=120, check=False)
        if out.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{out.stderr}")
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def read_output(op, path: Path):
    text = path.read_text()
    return json.loads(text) if op.command == "check" else text


def verify(op, code, output) -> list[str]:
    if op.command == "sweep":
        return oracles.check_sweep_csv(op, code, output)
    if op.theorem == "CHENG":
        return oracles.check_cheng_report(op, code, output)
    return oracles.check_check_report(op, code, output)


class Run:
    """Closed loop over the workload's rounds, with per-operation records."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.records: list[dict] = []
        self.violations = 0
        self.errors = 0
        self.kernel_s: list[float] = []
        self._kernel_at = -math.inf

    def time_kernel(self) -> None:
        self.kernel_s.append(reference_kernel())
        self._kernel_at = time.perf_counter()

    def _out(self, op, index: int) -> Path:
        return self.workdir / f"op{index}.{'json' if op.command == 'check' else 'csv'}"

    def bare_seconds(self, op, index: int) -> float:
        """Wall seconds of one unchecked, unrecorded call."""
        t0 = time.perf_counter()
        try:
            self.cli.main(op.argv + ["--out", str(self._out(op, index))])
        except Exception:  # the checked call that follows records the failure
            pass
        return time.perf_counter() - t0

    def execute(self, op, index: int) -> None:
        out = self._out(op, index)
        record = {"slot": op.slot, "points": op.points, "ok": False,
                  "kernel": len(self.kernel_s) - 1}
        t0 = time.perf_counter()
        try:
            code = self.cli.main(op.argv + ["--out", str(out)])
        except Exception:  # a crash is a failed operation, not a dead run
            record["s"] = time.perf_counter() - t0
            self.errors += 1
            print(f"FAILED {op.slot}: {' '.join(op.argv)}\n{traceback.format_exc()}",
                  file=sys.stderr)
            self.records.append(record)
            return
        record["s"] = time.perf_counter() - t0
        try:
            output = read_output(op, out)
            problems = verify(op, code, output)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"exit {code}, missing or malformed output: {exc!r}"]
        out.unlink(missing_ok=True)
        if not problems:
            record.update(summarize(op, output))
        if problems:
            self.violations += 1
            print(f"FAILED {op.slot}: {' '.join(op.argv)}", file=sys.stderr)
            for p in problems:
                print(f"    {p}", file=sys.stderr)
        record["ok"] = not problems
        self.records.append(record)

    def loop(self, first, rounds, count: int) -> None:
        """Run ``count`` whole rounds, timing the reference kernel between
        operations."""
        index = 0
        for rnd in itertools.chain([first], itertools.islice(rounds, count - 1)):
            for op in rnd:
                if time.perf_counter() - self._kernel_at >= KERNEL_EVERY_S:
                    self.time_kernel()
                self.execute(op, index)
                index += 1
        self.time_kernel()

    def traced_loop(self, first, rounds, count: int, tracer, package) -> None:
        """Run ``count`` whole rounds; each operation runs bare, then traced,
        both times with the program's caches emptied (as in a fresh
        process), so the traced call costs what the bare one did plus the
        tracing.  Only the traced call is checked and recorded."""
        index = 0
        for rnd in itertools.chain([first], itertools.islice(rounds, count - 1)):
            for op in rnd:
                clear_program_caches(package)
                bare = self.bare_seconds(op, index)
                clear_program_caches(package)
                tracer.install(package)
                try:
                    self.execute(op, index)
                finally:
                    tracer.uninstall()
                self.records[-1]["bare_s"] = bare
                index += 1


def summarize(op, output) -> dict:
    """Input make-up facts of one operation, for the run's detail file."""
    if op.command == "sweep":
        if op.theorem != "DOUBLING":
            return {}
        reuse = op.points - 1 if op.sweep_param not in oracles.THEOREM_PARAMS else 0
        return {"threshold_reuse": reuse}
    c = output["checks"][0]
    out = {}
    if "l" in c.get("params", {}):
        out["l_positive"] = c["params"]["l"] > oracles.L_ZERO
    if "n_grid" in c:
        out["refined"] = c["n_grid"] > REQUESTED_GRID
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nearest_rank(values, q: float) -> float:
    """The q-quantile as an observed value (nearest-rank method), so that it
    never interpolates into the gap between two cost clusters."""
    return sorted(values)[max(math.ceil(q * len(values)) - 1, 0)]


def reference_seconds(run: Run, record: dict) -> float:
    """An operation's wall time at the kernel's reference speed, from the
    median of the (up to) three kernel timings before it and three after."""
    k = record["kernel"]
    local = statistics.median(run.kernel_s[max(k - 2, 0):k + 4])
    return record["s"] * REFERENCE_KERNEL_S / local


def end_to_end(run: Run, setup_s: float) -> dict:
    ref_s = [reference_seconds(run, r) for r in run.records]
    ms = [s * 1e3 for s in ref_s]
    busy = sum(ref_s)
    done = sum(r["points"] for r in run.records if r["ok"])
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
        "op_ms.p90": {"value": nearest_rank(ms, 0.9), "unit": "ms"},
        "checks_per_s": {"value": done / busy, "unit": "1/s"},
        "rss_peak_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def per_layer(run: Run, tracer) -> dict:
    ops = len(run.records)
    totals = tracer.totals()
    counts = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("cli.main.self_ms", totals.get("cli.main", {}).get("self_s", 0.0) * 1e3 / ops, "ms")
    for name, _, count in tracing.TARGETS:
        if name in ("cli.main", "eigen.first_eigenvalue"):
            continue
        put(f"{name}.ms", totals.get(name, {}).get("s", 0.0) * 1e3 / ops, "ms")
        if name == "smms.make_space":
            continue
        put(f"{name}.calls", counts[f"{name}.calls"] / ops, "count")
        if count == "rhs":
            put(f"{name}.steps", counts[f"{name}.steps"] / ops, "count")
            put(f"{name}.rhs_evals", counts[f"{name}.rhs_evals"] / ops, "count")
        elif count:
            put(f"{name}.{count}", counts[f"{name}.{count}"] / ops, "count")
    solves = counts["eigen.first_eigenvalue.calls"]
    put("eigen.shoots_per_eigenvalue",
        counts["eigen.integrate_ode.calls"] / solves if solves else 0.0, "count")
    graded = [r["refined"] for r in run.records if "refined" in r]
    put("comparison.refine_share", sum(graded) / len(graded) if graded else 0.0, "ratio")
    put("trace.overhead_ms",
        sum(r["s"] - r["bare_s"] for r in run.records) * 1e3 / ops, "ms")
    return out


def detail(run: Run, rss_mb: dict) -> dict:
    """Per-slot wall times (unscaled), the reference kernel's time, peak
    memory before the first check and after the run, and the input
    make-up, written next to the result."""
    slots = defaultdict(list)
    for r in run.records:
        slots[r["slot"]].append(r["s"] * 1e3)
    with_l = [r["l_positive"] for r in run.records if "l_positive" in r]
    doubling = [r for r in run.records if "threshold_reuse" in r]
    return {
        "slot_ms_median": {k: statistics.median(v) for k, v in slots.items()},
        "kernel_ms_median": statistics.median(run.kernel_s) * 1e3 if run.kernel_s else None,
        "rss_peak_mb": rss_mb,
        "ops": len(run.records),
        "share_l_positive": sum(with_l) / len(with_l) if with_l else None,
        "share_points_reusing_threshold":
            sum(r["threshold_reuse"] for r in doubling) / sum(r["points"] for r in doubling)
            if doubling else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_cli()  # fail fast, before any probe, when the sources are missing
    RESULTS.mkdir(exist_ok=True)
    setup_s = probe_setup(args.workload, args.seed) if not args.trace else math.nan
    count = workloads.round_count(args.workload, args.seconds)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS))
    tracer = tracing.Tracer() if args.trace else None
    try:
        cli, first, rounds = set_up(args.workload, args.seed, workdir)
        rss_mb = {"before_checks": peak_rss_mb()}
        run = Run(cli, workdir)
        if tracer is None:
            run.loop(first, rounds, count)
        else:
            import smmskit
            run.traced_loop(first, rounds, count, tracer, smmskit)
        rss_mb["after_run"] = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = run.violations + run.errors
    metrics = per_layer(run, tracer) if tracer else end_to_end(run, setup_s)
    result = {"correct": run.violations == 0, "attempted": len(run.records),
              "failed": failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({**result, "detail": detail(run, rss_mb)}, indent=2) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
