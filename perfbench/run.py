"""Benchmark of the ``compete solve`` command line on fixed workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are the configs in ``perfbench/workloads``; the seed is passed to
``compete solve --seed``.  Every solve is a fresh child process running the
checkout's own ``src/competefem``.  Solves run one at a time from this single
process (a closed loop with one client), and another starts only while the
time spent solving plus the last solve's wall time stays within ``--seconds``.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median time from spawning a solve to its exit;
* ``setup_s``: median, over several fresh processes, of the time to import
  competefem and return from ``parse_config`` and ``build_instance``;
* ``peak_rss_mb``: median peak resident set of a solve;
* ``levels_converged``: levels with ``converged: true`` in the report.

``--trace 1`` runs one solve under ``perfbench/traced_solve.py`` between two
untraced solves, requires all three reports to be byte-identical, and
reports the per-layer metrics (``trace.overhead_s`` is the traced wall time
minus the median untraced one).

Every solve's outputs are checked (see ``check_report``).  A solve that ends
in a status other than ``ok`` or fails a check counts in ``failed``, so
``failed / attempted`` is the share of failed solves; ``correct`` is false
only when an output check fails.  The metric names and units are read from
``BENCHMARK.json``, and the run stops with an error if they do not match
what it measured.  Results, the environment stamp and child logs go to
``.perfbench_out/`` in the checkout; the last line of standard output is
the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = sorted(p.stem for p in (BENCH_DIR / "workloads").glob("*.json"))

SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0  # a run must exit within 180 s
MAX_LEVEL = 8  # deepest level of any workload; per-level kernel metrics go up to it
LAMBDA_REL_TOL = 1e-3
W13_ERROR_MAX = 1e-2
KERNELS = ("operators.assemble_residual", "operators.assemble_jacobian", "intrinsic.apply")


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failure of the program)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    timed_out: bool


def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["TMPDIR"] = str(OUT / "tmp")
    return env


def run_child(args, log_path: Path, timeout: float) -> Child:
    """Spawn, wait at most ``timeout`` seconds, and return wall time and peak RSS."""
    t0 = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(args, cwd=ROOT, env=_child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
    pidfd = os.pidfd_open(proc.pid)
    try:
        exited, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, not exited)


def measure_setup(config: Path, run_dir: Path, deadline: float) -> list:
    """Median-ready set-up times; one unmeasured probe first warms file caches."""
    times = []
    for i in range(SETUP_PROBES + 1):
        log = run_dir / f"setup{i}.log"
        child = run_child([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config)],
                          log, deadline - time.perf_counter())
        if child.returncode != 0:
            raise BenchError(f"set-up probe failed (exit {child.returncode}), see {log}")
        imported = Path(log.read_text().strip().splitlines()[-1]).resolve()
        if SRC.resolve() not in imported.parents:
            raise BenchError(f"competefem was imported from {imported}, not from {SRC}")
        if i:
            times.append(child.wall_s)
    return times


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def lindqvist_lambda(p: float, length: float) -> float:
    """First Dirichlet eigenvalue of the 1D p-Laplacian on an interval."""
    pi_p = 2.0 * math.pi / (p * math.sin(math.pi / p))
    return (p - 1.0) * (pi_p / length) ** p


def _abs_cube_integral(a: float, b: float) -> float:
    """Integral over [0, 1] of |a + (b - a) s|^3; e|e|^3/4 is an antiderivative."""
    if a == b:
        return abs(a) ** 3
    return (b * abs(b) ** 3 - a * abs(a) ** 3) / (4.0 * (b - a))


def w13_error_p3q2(coeffs) -> float:
    """Exact W^{1,3} seminorm error of a uniform P1 function on (0,1) against x(1-x)."""
    nodal = [0.0, *coeffs, 0.0]
    n = len(nodal) - 1
    h = 1.0 / n
    total = 0.0
    for i in range(n):
        slope = (nodal[i + 1] - nodal[i]) / h
        left, right = 1.0 - 2.0 * i * h, 1.0 - 2.0 * (i + 1) * h
        total += h * _abs_cube_integral(left - slope, right - slope)
    return total ** (1.0 / 3.0)


def check_report(report: dict, returncode: int) -> list:
    """Return the list of output checks the report fails."""
    problems = []
    status = report["status"]
    expected_rc = {"ok": 0, "solver_failure": 3}.get(status)
    if returncode != expected_rc:
        problems.append(f"exit code {returncode} with status {status!r}")
    cfg = report["config"]
    for lv in report["levels"]:
        if not lv["converged"]:
            continue
        n = lv["level"]
        if not lv["residual_sup"] <= cfg["tol"]:
            problems.append(f"L{n}: residual_sup {lv['residual_sup']} > tol {cfg['tol']}")
        if not lv["grad_norm_p"] <= report["R"]:
            problems.append(f"L{n}: grad_norm_p {lv['grad_norm_p']} > R {report['R']}")
        if lv["sphere_negative"] != 0:
            problems.append(f"L{n}: {lv['sphere_negative']} negative sphere pairings")
    dom = cfg["domain"]
    if dom["kind"] == "interval":
        p = cfg["p"]
        lam_star = lindqvist_lambda(p, dom["b"] - dom["a"])
        lam = report["constants"]["lambda1p"]
        if not lam_star <= lam <= (1.0 + LAMBDA_REL_TOL) * lam_star:
            problems.append(f"lambda1p {lam} outside [{lam_star}, (1+{LAMBDA_REL_TOL}) x]")
        s_p = report["constants"]["S"][repr(float(p))]["raw"]
        if not s_p ** -p >= lam_star:
            problems.append(f"raw S_p^-p = {s_p ** -p} below lambda* = {lam_star}")
        manufactured = (cfg["f"]["kind"] == "manufactured_p3q2" and (p, cfg["q"]) == (3.0, 2.0)
                        and (dom["a"], dom["b"]) == (0.0, 1.0))
        finest = report["levels"][-1] if report["levels"] else None
        if manufactured and finest is not None and finest["converged"]:
            err = w13_error_p3q2(finest["coefficients"])
            if not err <= W13_ERROR_MAX:
                problems.append(f"finest W^(1,3) error {err} > {W13_ERROR_MAX}")
    return problems


def same_as_earlier_runs(key: str, digest: str) -> bool:
    """Compare with the digest first recorded for ``key`` in this checkout."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    first = known.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
    os.replace(tmp, path)
    return first == digest


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "competefem").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


@dataclass
class Solve:
    child: Child
    digest: str | None
    report: dict | None
    problems: list

    @property
    def ok(self) -> bool:
        return (self.report is not None and self.report["status"] == "ok"
                and not self.problems)


def solve_once(args, out_dir: Path, deadline: float) -> Solve:
    out_dir.mkdir(parents=True)
    child = run_child(args, out_dir / "stdout.log", deadline - time.perf_counter())
    path = out_dir / "solve_report.json"
    if child.timed_out or not path.exists():
        why = "timed out" if child.timed_out else f"exit {child.returncode}, no report"
        return Solve(child, None, None, [why])
    data = path.read_bytes()
    report = json.loads(data)
    return Solve(child, hashlib.sha256(data).hexdigest(), report,
                 check_report(report, child.returncode))


def cli_args(config: Path, out_dir: Path, seed: int) -> list:
    return ["solve", str(config), "--out-dir", str(out_dir), "--seed", str(seed)]


def layer_metrics(trace: dict, report: dict, overhead_s: float) -> dict:
    total, self_s, calls, counters = (trace["total_s"], trace["self_s"],
                                      trace["calls"], trace["counters"])
    levels = report["levels"]
    m = {
        "constants.build_constants_s": total.get("constants.build_constants", 0.0),
        "constants.estimate_lambda1p_s": total.get("constants.estimate_lambda1p", 0.0),
        "constants.estimate_embedding_constant_s":
            total.get("constants.estimate_embedding_constant", 0.0),
        "constants.estimate_embedding_constant_calls":
            calls.get("constants.estimate_embedding_constant", 0),
        "constants.estimates_converged": counters.get("constants.estimates_converged", 0),
        "solver.solve_level_s": total.get("solver.solve_level", 0.0),
        "solver.brouwer_zero_self_s": self_s.get("solver.brouwer_zero", 0.0),
        "solver.brouwer_zero_calls": calls.get("solver.brouwer_zero", 0),
        "solver.brouwer_homotopy": counters.get("solver.brouwer_homotopy", 0),
        "solver.brouwer_failed": counters.get("solver.brouwer_failed", 0),
        "solver.newton_iters": sum(lv["newton_iters"] for lv in levels),
        "solver.continuation_stages": sum(lv["continuation_stages"] for lv in levels),
        "solver.outer_iters": sum(lv["outer_iters"] for lv in levels),
        "solver.sphere_certificate_s": total.get("solver.sphere_certificate", 0.0),
        "solver.sphere_certificate_self_s": self_s.get("solver.sphere_certificate", 0.0),
        "solver.convergence_diagnostics_s": total.get("solver.convergence_diagnostics", 0.0),
        "discretization.grad_norm_p_s": total.get("discretization.grad_norm_p", 0.0),
        "discretization.grad_norm_p_calls": calls.get("discretization.grad_norm_p", 0),
        "config.build_instance_s": total.get("config.build_instance", 0.0),
        "cli.report_s": (total.get("cli.to_json_dict", 0.0)
                         + total.get("cli.canonical_json", 0.0)),
        "trace.overhead_s": overhead_s,
    }
    for kernel in KERNELS:
        m[f"{kernel}_s"] = total.get(kernel, 0.0)
        m[f"{kernel}_calls"] = calls.get(kernel, 0)
        for n in range(1, MAX_LEVEL + 1):
            m[f"{kernel}_s.L{n}"] = total.get(f"{kernel}.L{n}", 0.0)
            m[f"{kernel}_calls.L{n}"] = calls.get(f"{kernel}.L{n}", 0)
    return m


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    config = BENCH_DIR / "workloads" / f"{workload}.json"
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    env = environment(seed)
    print("env: " + json.dumps(env, sort_keys=True), flush=True)

    setup_times = [] if trace else measure_setup(config, run_dir, deadline)

    solves = []

    def untraced() -> Solve:
        out_dir = run_dir / f"solve{len(solves)}"
        s = solve_once([sys.executable, "-m", "competefem.cli", *cli_args(config, out_dir, seed)],
                       out_dir, deadline)
        solves.append(s)
        print(f"solve {len(solves)}: exit {s.child.returncode}, "
              f"{s.child.wall_s:.3f} s, {s.child.peak_rss_mb:.1f} MB, "
              f"status {s.report and s.report['status']}, problems {s.problems}", flush=True)
        return s

    traced = None
    if trace:
        # the traced solve sits between two untraced ones, so that drift in
        # machine speed biases trace.overhead_s as little as possible
        untraced()
        out_dir = run_dir / "traced"
        trace_file = run_dir / "trace.json"
        traced = solve_once([sys.executable, str(BENCH_DIR / "traced_solve.py"),
                             str(trace_file), *cli_args(config, out_dir, seed)],
                            out_dir, deadline)
        print(f"traced solve: exit {traced.child.returncode}, {traced.child.wall_s:.3f} s",
              flush=True)
        untraced()
    else:
        solving_s = 0.0
        while True:
            s = untraced()
            solving_s += s.child.wall_s
            if s.child.timed_out or solving_s + s.child.wall_s > seconds:
                break
            if time.perf_counter() + s.child.wall_s > deadline:
                break

    everything = solves + ([traced] if traced else [])
    problems = [p for s in everything for p in s.problems]
    digests = {s.digest for s in everything}
    if len(digests) != 1:
        problems.append(f"solve reports differ between solves: {len(digests)} distinct")
    for digest in digests - {None}:
        if not same_as_earlier_runs(f"{workload}:{seed}:{source_digest()}", digest):
            problems.append("solve report differs from an earlier run with this seed")

    wall = statistics.median(s.child.wall_s for s in solves)
    first = solves[0].report
    if trace:
        if traced.report is None or not trace_file.exists():
            raise BenchError(f"traced solve left no report or trace "
                             f"(exit {traced.child.returncode}), see {run_dir}")
        metrics = layer_metrics(json.loads(trace_file.read_text()), traced.report,
                                traced.child.wall_s - wall)
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(s.child.peak_rss_mb for s in solves),
            "levels_converged": 0 if first is None else sum(
                1 for lv in first["levels"] if lv["converged"]),
        }
    units = declared_metrics(trace)
    if set(units) != set(metrics):
        raise BenchError(f"metrics measured {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")

    failed = sum(1 for s in everything if not s.ok)
    result = {
        "correct": not problems,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    (run_dir / "result.json").write_text(json.dumps(
        {"environment": env, "workload": workload, "trace": trace,
         "setup_s": setup_times,
         "solves": [{"wall_s": s.child.wall_s, "peak_rss_mb": s.child.peak_rss_mb,
                     "returncode": s.child.returncode, "sha256": s.digest,
                     "problems": s.problems} for s in everything],
         "problems": problems, "fail_share": failed / len(everything),
         "result": result}, indent=1, sort_keys=True))
    print(f"fail_share: {failed}/{len(everything)}; problems: {problems}", flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "competefem" / "cli.py").is_file():
        print(f"perfbench: no competefem sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
