"""Command line front end: solve, check, constants, study.

Exit codes: 0 success, 1 configuration or usage error, 2 failed hypothesis
check under the refuse policy, 3 solver failure.  Reports are written even
on failure paths so a batch run always leaves evidence behind.
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
from .solver import HypothesisRefusal, constants_and_hypotheses, run_hierarchy


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_csv(path: Path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows(rows)


def _report_paths(out_dir: str):
    d = Path(out_dir)
    return {
        "solve_json": d / "solve_report.json",
        "solve_csv": d / "solve_report.csv",
        "hypothesis": d / "hypothesis_report.json",
        "constants": d / "constants.json",
        "study": d / "study.csv",
    }


def cmd_solve(spec: ProblemSpec, out_dir: str) -> int:
    inst = build_instance(spec)
    paths = _report_paths(out_dir)
    try:
        report = run_hierarchy(
            inst, config_echo=spec.to_json_dict(), test_set_size=spec.test_set_size
        )
    except HypothesisRefusal as exc:
        report = exc.reports
        _write(paths["solve_json"], canonical_json(report.to_json_dict()))
        _write_csv(paths["solve_csv"], report.csv_rows())
        print(f"hypothesis failed: {report.message}")
        return 2
    _write(paths["solve_json"], canonical_json(report.to_json_dict()))
    _write_csv(paths["solve_csv"], report.csv_rows())
    print(f"status: {report.status}; levels solved: {len(report.levels)}; "
          f"R = {report.radius}")
    if report.status == "solver_failure":
        print(report.message)
        return 3
    return 0


def cmd_check(spec: ProblemSpec, out_dir: str) -> int:
    paths = _report_paths(out_dir)
    constants, cert, reports = constants_and_hypotheses(build_instance(spec))
    payload = {
        "config": spec.to_json_dict(),
        "certificate": cert.to_json_dict(),
        "constants": constants.to_json_dict(),
        "reports": [r.to_json_dict() for r in reports],
        "all_pass": all(r.passed for r in reports),
    }
    _write(paths["hypothesis"], canonical_json(payload))
    for r in reports:
        print(f"{r.name}: value = {r.value:.6g}, margin = {r.margin:.6g}, "
              f"{'pass' if r.passed else 'FAIL'}")
    return 0 if payload["all_pass"] else 2


def cmd_constants(spec: ProblemSpec, out_dir: str) -> int:
    paths = _report_paths(out_dir)
    constants, _, _ = constants_and_hypotheses(build_instance(spec))
    payload = constants.to_json_dict()
    payload["config"] = spec.to_json_dict()
    _write(paths["constants"], canonical_json(payload))
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
    paths = _report_paths(out_dir)
    try:
        report = run_hierarchy(
            inst, config_echo=spec.to_json_dict(), test_set_size=spec.test_set_size
        )
    except HypothesisRefusal as exc:
        _write(paths["study"], "")
        print(f"hypothesis failed: {exc.reports.message}")
        return 2

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
        h_max = float(np.max(lvl.elem_measure)) if h.dim == 1 else float(
            np.sqrt(np.max(lvl.elem_measure))
        )
        rate_w = "" if prev is None else repr(float(np.log2(prev[0] / e_w1p)))
        rate_l = "" if prev is None else repr(float(np.log2(prev[1] / e_l2)))
        rows.append([s.level, len(s.u.coeffs), repr(h_max), repr(e_w1p), rate_w,
                     repr(e_l2), rate_l])
        prev = (e_w1p, e_l2)
    _write_csv(paths["study"], rows)
    print(f"study rows written: {len(rows) - 1}; finest error_w1p = {prev[0]}")
    if report.status == "solver_failure":
        print(report.message)
        return 3
    return 0


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
