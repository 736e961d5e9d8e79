"""Print a digest of every solve report of every workload and reproducer, at seeds 11 and 4.

Usage: ``python tests/report_digests.py``, from any directory.  Each run is
``compete solve`` in a fresh process on the package under ``src/`` of this
checkout: the benchmark's workloads, the configs under ``reproducers/``,
and conv-L12 and readme-L12 (the two 1D workloads with ``--levels 12``).
Each prints one line: the run's name, the seed, the exit code, and the
first 16 hex digits of the sha256 of ``solve_report.json``,
``solve_report.csv`` and stdout (``-`` for a report that was not written).

Report bits differ across hosts, so no digest is kept: run the script at
two commits on one machine and compare the outputs.  It takes about a
minute on a 2-vCPU host and is not a test.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads"
SEEDS = (11, 4)


def runs():
    """(name, config path, extra arguments) of every run, workloads first."""
    configs = [*sorted(WORKLOADS.glob("*.json")),
               *sorted((ROOT / "tests" / "reproducers").glob("*.json"))]
    deep = [(f"{name}-L12", WORKLOADS / f"{workload}.json", ["--levels", "12"])
            for name, workload in (("conv", "conv-1d-deep"), ("readme", "readme-1d"))]
    return [(path.stem, path, []) for path in configs] + deep


def digest(data) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()[:16]


def main() -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for name, config, extra in runs():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as out:
                run = subprocess.run(
                    [sys.executable, "-m", "competefem.cli", "solve", str(config),
                     "--out-dir", out, "--seed", str(seed), *extra],
                    capture_output=True, env=env, cwd=ROOT)
                reports = [Path(out) / f"solve_report.{ext}" for ext in ("json", "csv")]
                sums = [digest(p.read_bytes() if p.exists() else None) for p in reports]
            print(f"{name:16} {seed:3} {run.returncode} {' '.join(sums)} {digest(run.stdout)}",
                  flush=True)


if __name__ == "__main__":
    main()
