"""The benchmark's workloads and the failure-table rows, solved through the command line.

Every level that converges today must keep converging by the same path, so
a change that moves ``levels_converged`` fails here, not only in the
benchmark; and every embedding constant's ascent must keep converging.  The
workload configs are read, never written.  Each failure-table row (a
config that failed with a positive sampled sphere margin) is pinned at
``--seed 11`` by its exit code and, per level, its path and start: lift1d
and convNU converge by Newton from the starts that mend them; long1d, p18
and nodal1d converge on every level, descending the energy where Newton
fails from every start; and lift2d, whose f reads T(u) and so has no
energy, still fails at level 4, sooner than the identity homotopy did.
"""

import json
from pathlib import Path

import pytest

from competefem.cli import main

from oracles import read_report

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"

# level -> path of every level that converges; square-2d's level 1 has no
# free dofs and its level 5 converges by the energy descent
EXPECTED = {
    "readme-1d": {n: "newton" for n in range(1, 8)},
    "conv-1d-deep": {n: "newton" for n in range(1, 9)},
    "square-2d": {**{n: "newton" for n in range(2, 5)}, 5: "energy"},
}


def test_every_workload_is_covered():
    assert sorted(p.stem for p in WORKLOADS.glob("*.json")) == sorted(EXPECTED)


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_converged_levels_keep_their_path(tmp_path, workload):
    out = tmp_path / "out"
    rc = main(["solve", str(WORKLOADS / f"{workload}.json"), "--out-dir", str(out),
               "--seed", "11"])
    report = read_report(out / "solve_report.json")
    levels = report["levels"]
    paths = {lv["level"]: lv["path"] for lv in levels if lv["converged"]}
    assert {n: paths.get(n) for n in EXPECTED[workload]} == EXPECTED[workload]
    assert rc == (0 if all(lv["converged"] for lv in levels) else 3)
    constants = report["constants"]
    assert constants["lambda1p_converged"] is True
    assert {r: s["converged"] for r, s in constants["S"].items()} == \
        dict.fromkeys(constants["S"], True)


def test_conv_1d_deep_stays_on_one_branch(tmp_path):
    # every level's zero lies on L1's branch: L8 fails Newton from the guess
    # and converges from the prolongated L7 zero instead of jumping to 0.56
    out = tmp_path / "out"
    assert main(["solve", str(WORKLOADS / "conv-1d-deep.json"), "--out-dir", str(out),
                 "--seed", "11"]) == 0
    levels = read_report(out / "solve_report.json")["levels"]
    base = levels[0]["grad_norm_p"]
    assert all(abs(lv["grad_norm_p"] - base) <= 0.01 * base for lv in levels)
    assert [lv["start"] for lv in levels] == ["guess"] * 7 + ["coarser"]


# the failure-table rows; lift1d and convNU once failed at L5 and L8
LIFT1D = {
    "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "elements": 4},
    "p": 3.0, "q": 2.0, "levels": 5,
    "f": {"kind": "manufactured_plus_power", "a1": 0.05, "a2": 0.05, "alpha": 2.0, "beta": 2.0},
    "T": {"kind": "boundary_lift", "u0": {"kind": "affine", "a": 0.1, "b": 0.05}},
    "sphere_samples": 200, "initial_guess": "exact",
}
CONV_NU = {
    **json.loads((WORKLOADS / "conv-1d-deep.json").read_text()),
    "domain": {"kind": "mesh", "mesh": {"dim": 1, "nodes": [0, 0.2, 0.45, 0.7, 1]}},
}
LIFT2D = {
    "domain": {"kind": "unit_square"}, "p": 3.0, "q": 2.0, "levels": 4, "f": LIFT1D["f"],
    "T": {"kind": "boundary_lift", "u0": {"kind": "affine", "ax": 0.2, "ay": -0.1, "b": 0.05}},
    "sphere_samples": 100,
}
# the README problem on (0, 2)
LONG1D = {
    "domain": {"kind": "interval", "a": 0.0, "b": 2.0, "elements": 3},
    "levels": 3, "f": {"kind": "manufactured_p3q2"}, "initial_guess": "exact",
}
P18 = {
    "domain": {"kind": "unit_square"}, "p": 1.8, "q": 1.4, "levels": 5, "eps_reg": 1e-3,
    "f": {"kind": "constant", "c": 1.0, "envelope": {"alpha": 0.5, "beta": 0.5}},
    "sphere_samples": 100,
}
NODAL1D = {
    "levels": 4,
    "f": {"kind": "sigma_only", "sigma_kind": "nodal",
          "sigma_params": {"x": [0, 0.5, 1], "values": [1, -2, 0.5]}},
    "sphere_samples": 50,
}
ORIGIN, GUESS, COARSER = ("newton", "origin"), ("newton", "guess"), ("newton", "coarser")
ENERGY, FAILED = ("energy", None), ("failed", None)
# row -> (config, exit code, [(path, start) of each level in the report])
ROWS = {
    "lift1d": (LIFT1D, 0, [GUESS] + [COARSER] * 4),
    "convNU": (CONV_NU, 0, [GUESS] * 7 + [COARSER]),
    "long1d": (LONG1D, 0, [ENERGY, COARSER, ENERGY]),
    "p18": (P18, 0, [ORIGIN, COARSER, COARSER, ENERGY]),
    "nodal1d": (NODAL1D, 0, [ENERGY] + [COARSER] * 3),
    "lift2d": (LIFT2D, 3, [ORIGIN, COARSER, FAILED]),
}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_failure_table_rows_are_pinned(tmp_path, row):
    config, code, paths = ROWS[row]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["solve", str(path), "--out-dir", str(out), "--seed", "11"]) == code
    report = read_report(out / "solve_report.json")
    levels = report["levels"]
    assert [(lv["path"], lv["start"]) for lv in levels] == paths
    tol = report["config"]["tol"]
    assert all(lv["residual_sup"] <= tol and lv["grad_norm_p"] <= lv["R"]
               for lv in levels if lv["converged"])
    if code:
        # Newton from the coarser zero and no descent: the homotopy took 360
        assert levels[-1]["newton_iters"] < 360
