"""Command line front end: solve, check, constants, study.

Exit codes: 0 success, 1 configuration or usage error, 2 failed hypothesis
check that stops the run, 3 solver failure; ``EXIT_CODES`` maps a report's
status to its code.  Reports are written even on failure paths so a batch
run always leaves evidence behind.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import (ConfigError, ProblemSpec, build_instance, canonical_json, parse_config,
                     parse_config_dict)
from .discretization import MeshError, _value_integral
from .intrinsic import CertificateError
from .solver import constants_and_hypotheses, run_hierarchy

EXIT_CODES = {"ok": 0, "hypothesis_failed": 2, "solver_failure": 3}

# the level fields of the solve report that its CSV repeats
CSV_COLUMNS = ("level", "dim", "grad_norm_p", "residual_sup", "R", "apriori_margin",
               "weak_gap", "residual_gap", "pairing_gap", "full_gap", "newton_iters")


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_csv(path: Path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows(rows)


def _finish(report, summary: str) -> int:
    """Print how the run ended and return the exit code of its status.

    A run the hypothesis stopped prints its message alone; any other prints
    ``summary``, then the message of a solver failure.
    """
    if report.status == "hypothesis_failed":
        print(f"hypothesis failed: {report.message}")
    else:
        print(summary)
    if report.status == "solver_failure":
        print(report.message)
    return EXIT_CODES[report.status]


def cmd_solve(spec: ProblemSpec, out_dir: str) -> int:
    report = run_hierarchy(build_instance(spec), config_echo=spec.to_json_dict())
    payload = report.to_json_dict()
    _write(Path(out_dir) / "solve_report.json", canonical_json(payload))
    _write_csv(Path(out_dir) / "solve_report.csv",
               [CSV_COLUMNS] + [[lv[c] for c in CSV_COLUMNS] for lv in payload["levels"]])
    return _finish(report, f"status: {report.status}; levels solved: {len(report.levels)}; "
                           f"R = {report.radius}")


def cmd_check(spec: ProblemSpec, out_dir: str) -> int:
    constants, cert, reports = constants_and_hypotheses(build_instance(spec))
    payload = {
        "config": spec.to_json_dict(),
        "certificate": cert.to_json_dict(),
        "constants": constants.to_json_dict(),
        "reports": [r.to_json_dict() for r in reports],
        "all_pass": all(r.passed for r in reports),
    }
    _write(Path(out_dir) / "hypothesis_report.json", canonical_json(payload))
    for r in reports:
        print(f"{r.name}: value = {r.value:.6g}, margin = {r.margin:.6g}, "
              f"{'pass' if r.passed else 'FAIL'}")
    return EXIT_CODES["ok" if payload["all_pass"] else "hypothesis_failed"]


def cmd_constants(spec: ProblemSpec, out_dir: str) -> int:
    constants, _, _ = constants_and_hypotheses(build_instance(spec))
    payload = constants.to_json_dict()
    payload["config"] = spec.to_json_dict()
    _write(Path(out_dir) / "constants.json", canonical_json(payload))
    print(f"lambda1p = {payload['lambda1p']}; "
          f"S entries: {sorted(constants.entries)}; safety = {constants.safety}")
    return 0


def cmd_study(spec: ProblemSpec, out_dir: str) -> int:
    """Convergence study against the manufactured solution of the catalog entry."""
    if spec.initial_guess is None:
        spec = dataclasses.replace(spec, initial_guess="exact")
    inst = build_instance(spec)
    if inst.convection.exact is None:
        print("study needs a manufactured right-hand side with a known solution",
              file=sys.stderr)
        return 1
    exact = inst.convection.exact
    if (exact.p, exact.q) != (spec.p, spec.q):
        print(
            f"manufactured solution is exact for (p, q) = ({exact.p}, {exact.q}), "
            f"config uses ({spec.p}, {spec.q})",
            file=sys.stderr,
        )
        return 1
    mesh = inst.hierarchy.level(1).mesh
    if mesh.dim != 1 or (mesh.vertices[0, 0], mesh.vertices[-1, 0]) != exact.interval:
        print(f"manufactured solution is exact on the interval {exact.interval} only",
              file=sys.stderr)
        return 1
    report = run_hierarchy(inst, config_echo=spec.to_json_dict())

    h = inst.hierarchy
    rows = [["level", "dim", "h_max", "error_w1p", "rate_w1p", "error_l2", "rate_l2"]]
    prev = None
    for s in report.levels:
        lvl = h.level(s.level)
        x = lvl.qp_points[..., 0]  # the exact solution is a function of the first coordinate
        g_err = s.u.element_gradients()[:, None, :] - np.atleast_3d(
            np.asarray(exact.gradient(x), dtype=float)
        )
        mag = np.sqrt(np.sum(g_err**2, axis=-1)).reshape(-1, 1)
        e_w1p = float(_value_integral(lvl.qp_weights, mag, inst.p)[0] ** (1.0 / inst.p))
        v_err = s.u.values_at_qp() - np.asarray(exact.value(x), dtype=float)
        e_l2 = float(_value_integral(lvl.qp_weights, v_err.reshape(-1, 1), 2.0)[0] ** 0.5)
        h_max = float(np.max(lvl.elem_measure))
        rate_w = "" if prev is None else repr(float(np.log2(prev[0] / e_w1p)))
        rate_l = "" if prev is None else repr(float(np.log2(prev[1] / e_l2)))
        rows.append([s.level, len(s.u.coeffs), repr(h_max), repr(e_w1p), rate_w,
                     repr(e_l2), rate_l])
        prev = (e_w1p, e_l2)
    # a run the hypothesis stopped leaves an empty table
    _write_csv(Path(out_dir) / "study.csv", [] if report.status == "hypothesis_failed" else rows)
    return _finish(report, f"study rows written: {len(rows) - 1}; "
                           f"finest error_w1p = {None if prev is None else prev[0]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="compete",
        description="Galerkin solver for Dirichlet problems driven by a competing "
        "(p,q)-Laplacian with an intrinsic operator in the convection term",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve the level hierarchy and write JSON/CSV reports"),
        ("check", "evaluate the growth smallness conditions"),
        ("constants", "estimate embedding constants and the first eigenvalue"),
        ("study", "convergence study against a manufactured solution"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="path to the problem configuration JSON")
        sp.add_argument("--out-dir", default=".", help="directory for report files")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--levels", type=int, default=None, help="override the level count")
    args = parser.parse_args(argv)

    try:
        spec = parse_config(args.config)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        if args.levels is not None:
            spec = dataclasses.replace(spec, levels=args.levels)
        spec = parse_config_dict(spec.to_json_dict())  # overrides must stay in range
    except ConfigError as exc:
        print(f"configuration error [{exc.code}]: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "solve":
            return cmd_solve(spec, args.out_dir)
        if args.command == "check":
            return cmd_check(spec, args.out_dir)
        if args.command == "constants":
            return cmd_constants(spec, args.out_dir)
        return cmd_study(spec, args.out_dir)
    except (ConfigError, CertificateError, MeshError) as exc:
        # input the config cannot judge alone, found while building or solving
        print(f"configuration error [{exc.code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
